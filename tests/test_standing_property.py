"""Seeded-random property tests for the standing-query delta algebra.

The incremental refresh path (:mod:`repro.runtime.standing`) is correct
only if the partial-state protocol really is a delta algebra: feeding rows
through *any* partition into append-order deltas — empty deltas, single-row
deltas, NULL-heavy runs — then merging the per-delta partial states in
order must finalize **identically** (``repr`` equality, so ``True`` never
degrades to ``1`` and ``-0.0`` keeps its sign) to accumulating every row in
one shot.  The property is checked at two levels:

* every mergeable accumulator directly (including ``COUNT(*)``), over the
  full value vocabulary (bigints past 2**63, extreme floats, strings for
  MIN/MAX, heavy NULL mixes);
* end-to-end through :class:`StandingQueryRuntime`: random row batches
  split into random per-leaf deltas must keep every registered handle
  byte-identical to from-scratch re-execution at every epoch.

Everything is seeded with :class:`random.Random` — a failure reproduces.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

import pytest

from repro.engine.aggregates import DECOMPOSABLE_AGGREGATES, make_accumulator
from repro.engine.table import Relation
from repro.engine.wire import pack_state_relation
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.runtime import StandingQueryRuntime

pytestmark = pytest.mark.standing

SEEDS = [3, 17, 257, 9001]


# ---------------------------------------------------------------------------
# accumulator-level property
# ---------------------------------------------------------------------------


def random_values(rng: random.Random, count: int, strings: bool) -> List[Any]:
    """A NULL-heavy mix from the accumulator input vocabulary."""
    values: List[Any] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            values.append(None)
        elif strings:
            values.append("".join(rng.choice("abcdef") for _ in range(3)))
        elif roll < 0.5:
            values.append(rng.randint(-(2**70), 2**70))
        elif roll < 0.6:
            values.append(rng.choice([1e300, -1e300, 1e-300, -0.0, 0.1, 0.2]))
        else:
            values.append(rng.uniform(-1e6, 1e6))
    return values


def random_partition(rng: random.Random, values: List[Any]) -> List[List[Any]]:
    """Split ``values`` into append-order deltas, empties included."""
    deltas: List[List[Any]] = [[]]  # always exercise a leading empty delta
    position = 0
    empties = 0
    while position < len(values):
        size = rng.choice([0, 1, 1, rng.randint(2, 6)])
        if size == 0 and empties < 4:
            empties += 1
            deltas.append([])
            continue
        size = max(size, 1)
        deltas.append(values[position : position + size])
        position += size
    deltas.append([])  # and a trailing one
    return deltas


def finalized_repr(accumulator) -> str:
    try:
        return repr(accumulator.finalize())
    except OverflowError as error:
        # Extreme inputs can overflow float in finalize(); the property is
        # that split and one-shot behave *identically*, including raising.
        return f"OverflowError: {error}"


@pytest.mark.parametrize("seed", SEEDS)
def test_any_delta_partition_finalizes_like_one_shot(seed):
    rng = random.Random(seed)
    functions = sorted(DECOMPOSABLE_AGGREGATES) + ["COUNT(*)"]
    for trial in range(30):
        name = functions[trial % len(functions)]
        is_star = name == "COUNT(*)"
        function = "COUNT" if is_star else name
        strings = function in ("MIN", "MAX") and rng.random() < 0.5
        values = random_values(rng, rng.randint(0, 24), strings)

        one_shot = make_accumulator(
            function, is_star=is_star, distinct=False, arg_count=1
        )
        for value in values:
            one_shot.add((1,) if is_star else (value,))

        merged = make_accumulator(
            function, is_star=is_star, distinct=False, arg_count=1
        )
        for delta in random_partition(rng, values):
            partial = make_accumulator(
                function, is_star=is_star, distinct=False, arg_count=1
            )
            for value in delta:
                partial.add((1,) if is_star else (value,))
            merged.merge(partial.partial())

        assert finalized_repr(merged) == finalized_repr(one_shot), (seed, name)
        # The states are canonical too: an exact sum exports one expansion
        # whatever the add/merge grouping that built it.
        assert repr(merged.partial()) == repr(one_shot.partial()), (seed, name)

        # And a state handed on once more (leaf -> level combine) still
        # finalizes identically: merge is associative on the nose.
        relay = make_accumulator(
            function, is_star=is_star, distinct=False, arg_count=1
        )
        relay.merge(merged.partial())
        assert finalized_repr(relay) == finalized_repr(one_shot), (seed, name)


# ---------------------------------------------------------------------------
# runtime-level property
# ---------------------------------------------------------------------------

PROPERTY_QUERIES = [
    "SELECT g, COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av FROM d GROUP BY g",
    "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM d GROUP BY g "
    "HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC",
    "SELECT g, STDDEV(v) AS s, VAR_POP(v) AS vp FROM d WHERE w >= 0 GROUP BY g",
]


def random_rows(rng: random.Random, count: int) -> List[dict]:
    rows = []
    for _ in range(count):
        value: Optional[float]
        roll = rng.random()
        if roll < 0.35:
            value = None  # NULL-heavy: aggregates must skip, COUNT(*) must not
        elif roll < 0.6:
            value = float(rng.randint(-50, 50))
        else:
            value = round(rng.uniform(-10.0, 10.0), 3)
        rows.append(
            {
                "g": rng.choice(["a", "b", "c", "d"]),
                "v": value,
                "w": rng.choice([-1.0, 0.0, 1.0, None]),
            }
        )
    return rows


@pytest.mark.parametrize("seed", SEEDS)
def test_random_deltas_keep_every_handle_byte_identical(seed):
    rng = random.Random(seed)
    topology = Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=2)
    processor = ParadiseProcessor(figure4_policy(), topology=topology, schema=None)
    processor.load_data(Relation.from_rows(random_rows(rng, 40), name="d"))
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in PROPERTY_QUERIES]
    holders = processor.network.partition_holders("d")

    for _ in range(6):
        size = rng.choice([0, 1, 1, rng.randint(2, 12)])
        # Raw reading dicts, not a Relation: exercises the ingestion path
        # that builds the delta against the leaf's registered schema.
        runtime.append(rng.choice(holders), random_rows(rng, size))
        for handle in handles:
            assert pack_state_relation(handle.result()) == pack_state_relation(
                runtime.reexecute(handle)
            ), (seed, handle.sql)
