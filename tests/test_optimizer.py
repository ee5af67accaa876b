"""Statistics-driven cost-based optimization: differential grid + invariants.

The optimizer is allowed to change *how* a query runs — conjunct order,
hash-join build side, nested-loop preference, vectorized ORDER BY/DISTINCT
tails, adaptive partial-aggregation placement — but never *what* it returns.
The grid here executes a query corpus across every combination of relation
construction route (row-backed vs plain-list column-backed), execution path
(compiled vs interpreted), and ``EngineConfig.optimizer``, demanding byte-identical
relations throughout.  Alongside it: property-style invariants for the
incremental column statistics, the KMV sketch's order independence, bool
typed columns and their wire round-trip, ``estimated_bytes`` memoization,
``hash_join`` build-side equivalence, the adaptive placement rule, and
error-identity under conjunct reordering.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.columns import BOOL, TypedColumn, typed_column_from_values
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.executor import QueryExecutor
from repro.engine.join import hash_join
from repro.engine.schema import ColumnDef, Schema
from repro.engine.stats import (
    ColumnStats,
    column_stats,
    optimizer_stats,
)
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.vectorized import estimate_select_rows
from repro.engine.wire import pack_relation, state_size_feedback, unpack_relation
from repro.fragment.capabilities import CapabilityLevel
from repro.fragment.plan import QueryFragment
from repro.runtime.dag import partial_aggregation_pays
from repro.sql.parser import parse

pytestmark = pytest.mark.optimizer


# ---------------------------------------------------------------------------
# catalog builders: same logical data, two construction routes
# ---------------------------------------------------------------------------


def _sensor_rows(count: int, seed: int = 11) -> list:
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        rows.append(
            {
                "id": index,
                "g": rng.randint(1, 5),
                "x": rng.choice([round(rng.uniform(0.0, 1.0), 3), None]),
                "s": rng.choice(["walk", "sit", "stand", "away", None]),
                "b": rng.choice([True, False, None]),
            }
        )
    return rows


_SCHEMA = Schema(
    [
        ColumnDef("id", DataType.INTEGER),
        ColumnDef("g", DataType.INTEGER),
        ColumnDef("x", DataType.FLOAT),
        ColumnDef("s", DataType.TEXT),
        ColumnDef("b", DataType.BOOLEAN),
    ]
)


def _build_relation(route: str, rows: list) -> Relation:
    if route == "rows":
        return Relation.from_rows(rows, name="d", schema=_SCHEMA)
    # Plain python lists as column backings: exercises every untyped
    # fallback (no TypedColumn fast paths, no buffer-speed stats).
    columns = [[row[name] for row in rows] for name in ("id", "g", "x", "s", "b")]
    return Relation.from_columns(_SCHEMA, columns, name="d")


QUERY_CORPUS = [
    # conjunct reordering (selective equality written last)
    "SELECT id, x FROM d WHERE s LIKE '%a%' AND x >= 0.25 AND g = 3",
    # OR-of-conjuncts scan
    "SELECT id FROM d WHERE g = 1 OR g = 4 OR x < 0.2",
    # vectorized ORDER BY: nulls, desc, alias, source-only order column
    "SELECT id, x FROM d ORDER BY x",
    "SELECT id, x AS v FROM d ORDER BY v DESC LIMIT 7",
    "SELECT g, s FROM d ORDER BY id LIMIT 5 OFFSET 3",
    "SELECT id, s FROM d ORDER BY s DESC, id",
    # vectorized DISTINCT, alone and with an output-name ORDER BY
    "SELECT DISTINCT g FROM d",
    "SELECT DISTINCT g, s FROM d ORDER BY g DESC, s",
    "SELECT DISTINCT b FROM d ORDER BY b",
    # arithmetic-on-column comparisons
    "SELECT id FROM d WHERE x * 2 > 1.0",
    "SELECT id FROM d WHERE id + 1 <= 40 AND g <> 2",
    # BETWEEN / IS NULL / IN alongside reorderable conjuncts
    "SELECT id FROM d WHERE x BETWEEN 0.2 AND 0.8 AND s IS NOT NULL",
    "SELECT id FROM d WHERE s IN ('walk', 'sit') AND g >= 2",
    # aggregation over the same configs
    "SELECT g, COUNT(*) AS n, SUM(x) AS total FROM d GROUP BY g",
]


def _config(compiled: bool, optimizer: bool) -> EngineConfig:
    return EngineConfig(mode="compiled" if compiled else "interpreted", optimizer=optimizer)


def _run(route: str, rows: list, sql: str, compiled: bool, optimizer: bool) -> Relation:
    relation = _build_relation(route, rows)
    executor = QueryExecutor({"d": relation}, _config(compiled, optimizer))
    return executor.execute(parse(sql))


@pytest.mark.parametrize("sql", QUERY_CORPUS)
def test_differential_grid(sql):
    """Every (route, path, optimizer) cell matches the syntactic oracle."""
    rows = _sensor_rows(120)
    oracle = _run("rows", rows, sql, compiled=False, optimizer=False)
    for route in ("rows", "columns"):
        for compiled in (False, True):
            for optimizer in (False, True):
                result = _run(route, rows, sql, compiled, optimizer)
                label = f"{route}/compiled={compiled}/optimizer={optimizer}"
                assert result.schema.names == oracle.schema.names, label
                assert result.to_dicts() == oracle.to_dicts(), label


def test_conjunct_reorder_fires_and_matches():
    """The skewed conjunct order actually reorders — and stays identical."""
    rows = _sensor_rows(200)
    sql = QUERY_CORPUS[0]
    before = optimizer_stats.conjunct_reorders
    optimized = _run("rows", rows, sql, compiled=True, optimizer=True)
    assert optimizer_stats.conjunct_reorders > before
    ablated = _run("rows", rows, sql, compiled=True, optimizer=False)
    assert optimized.to_dicts() == ablated.to_dicts()


# ---------------------------------------------------------------------------
# column statistics invariants
# ---------------------------------------------------------------------------


def _random_values(rng: random.Random, count: int) -> list:
    pool = [
        lambda: rng.randint(-50, 50),
        lambda: round(rng.uniform(-5.0, 5.0), 2),
        lambda: rng.choice(["a", "bb", "ccc"]),
        lambda: None,
    ]
    # Mostly one kind per column (realistic), with nulls mixed in; a few
    # columns are deliberately mixed-type to exercise comparability loss.
    if rng.random() < 0.25:
        return [rng.choice(pool)() for _ in range(count)]
    kind = rng.choice(pool[:3])
    return [None if rng.random() < 0.15 else kind() for _ in range(count)]


def test_incremental_stats_equal_recompute():
    """Row-by-row observation == from-scratch build, over random columns."""
    rng = random.Random(2016)
    for _ in range(40):
        values = _random_values(rng, rng.randint(0, 400))
        incremental = ColumnStats()
        for value in values:
            incremental.observe(value)
        assert incremental == column_stats(values)


def test_sketch_is_order_independent():
    """Distinct estimates ignore observation order (KMV invariant)."""
    rng = random.Random(7)
    values = [rng.randint(0, 5000) for _ in range(2000)]
    shuffled = list(values)
    rng.shuffle(shuffled)
    first, second = column_stats(values), column_stats(shuffled)
    assert first.distinct == second.distinct
    assert first.state()[-1] == second.state()[-1]  # identical sketch state
    # Above the sketch size the estimate is approximate but bounded.
    exact = len(set(values))
    assert not first.distinct_exact
    assert abs(first.distinct - exact) / exact < 0.25


def test_small_domain_distinct_is_exact():
    values = [i % 37 for i in range(1000)]
    stats = column_stats(values)
    assert stats.distinct_exact
    assert stats.distinct == 37
    assert (stats.minimum, stats.maximum) == (0, 36)


def test_relation_stats_survive_appends():
    """Stats folded on append equal stats recomputed on a fresh relation."""
    rows = _sensor_rows(80)
    live = _build_relation("rows", rows[:50])
    for name in ("g", "x", "s"):
        live.stats().column(name)  # force computation before the appends
    live.extend(rows[50:])
    fresh = _build_relation("rows", rows)
    for name in ("g", "x", "s"):
        assert live.stats().column(name) == fresh.stats().column(name)


def test_typed_and_plain_backings_agree():
    rows = _sensor_rows(150)
    typed = _build_relation("rows", rows)
    plain = _build_relation("columns", rows)
    for name in ("id", "g", "x", "s", "b"):
        assert typed.stats().column(name) == plain.stats().column(name)


def test_selectivity_fractions_are_probabilities():
    rng = random.Random(99)
    stats = column_stats([rng.randint(0, 20) for _ in range(500)])
    for op in ("<", "<=", ">", ">="):
        for value in (-5, 0, 7, 20, 33):
            fraction = stats.range_fraction(op, value)
            assert 0.0 <= fraction <= 1.0
    assert stats.eq_fraction(7) > 0.0
    assert stats.eq_fraction(999) == 0.0  # outside observed range
    assert 0.0 <= stats.between_fraction(3, 12) <= 1.0


# ---------------------------------------------------------------------------
# bool typed columns + wire round-trip
# ---------------------------------------------------------------------------


def test_bool_typed_backing():
    values = [True, False, None, True, True, None, False]
    column = typed_column_from_values(values, BOOL)
    assert isinstance(column, TypedColumn) and column.typecode == BOOL
    assert column.to_list() == values
    assert column[0] is True and column[1] is False and column[2] is None
    # Non-bool values (including 0/1 ints) must refuse the typed backing.
    assert typed_column_from_values([True, 1], BOOL) is None


def test_bool_column_wire_round_trip():
    relation = _build_relation("rows", _sensor_rows(90))
    assert isinstance(relation.column_array("b"), TypedColumn)
    decoded = unpack_relation(pack_relation(relation))
    assert decoded.schema.names == relation.schema.names
    assert decoded.to_dicts() == relation.to_dicts()
    restored = decoded.column_array("b")
    assert isinstance(restored, TypedColumn) and restored.typecode == BOOL


# ---------------------------------------------------------------------------
# estimated_bytes memoization
# ---------------------------------------------------------------------------


def test_estimated_bytes_memoized_and_invalidated():
    relation = _build_relation("rows", _sensor_rows(60))
    first = relation.estimated_bytes()
    assert first > 0
    assert relation.estimated_bytes() == first  # cached at this version
    relation.extend([{"id": 60, "g": 1, "x": 0.5, "s": "walk", "b": True}])
    assert relation.estimated_bytes() > first  # version bump invalidates


# ---------------------------------------------------------------------------
# hash_join build-side equivalence
# ---------------------------------------------------------------------------


def _join_scopes(seed: int):
    rng = random.Random(seed)
    left = [{"l.k": rng.choice([1, 2, 3, None]), "l.v": i} for i in range(17)]
    right = [{"r.k": rng.choice([1, 2, 4, None]), "r.w": i * 10} for i in range(11)]
    return left, right


@pytest.mark.parametrize("join_type", ["INNER", "LEFT", "RIGHT", "FULL"])
def test_hash_join_build_side_identity(join_type):
    """Left-build output is row-for-row identical to right-build."""
    left, right = _join_scopes(5)
    kwargs = dict(
        join_type=join_type,
        residual=lambda scope: (scope["l.v"] or 0) + (scope["r.w"] or 0) != 131,
        left_null={"l.k": None, "l.v": None},
        right_null={"r.k": None, "r.w": None},
    )
    left_key = lambda s: (s["l.k"],) if s["l.k"] is not None else None
    right_key = lambda s: (s["r.k"],) if s["r.k"] is not None else None
    via_right = hash_join(left, right, left_key, right_key, build_side="right", **kwargs)
    via_left = hash_join(left, right, left_key, right_key, build_side="left", **kwargs)
    assert via_left == via_right


def test_join_build_side_flip_through_sql():
    """Asymmetric join: the flip fires and results match the ablation."""
    rng = random.Random(3)
    small = Relation.from_rows(
        [{"k": i, "name": f"n{i}"} for i in range(30)], name="s"
    )
    big = Relation.from_rows(
        [{"k": rng.randint(0, 29), "v": i} for i in range(900)], name="t"
    )
    sql = "SELECT s.name, t.v FROM s JOIN t ON s.k = t.k WHERE t.v % 7 = 0"
    before = optimizer_stats.build_side_flips
    optimized = QueryExecutor({"s": small, "t": big}).execute(parse(sql))
    assert optimizer_stats.build_side_flips > before
    ablated = QueryExecutor(
        {"s": small, "t": big}, EngineConfig(optimizer=False)
    ).execute(parse(sql))
    assert optimized.to_dicts() == ablated.to_dicts()


def test_tiny_join_prefers_nested_loop():
    small_a = Relation.from_rows([{"k": i, "a": i} for i in range(5)], name="a")
    small_b = Relation.from_rows([{"k": i, "b": i * 2} for i in range(6)], name="b")
    sql = "SELECT a.a, b.b FROM a JOIN b ON a.k = b.k"
    before = optimizer_stats.nested_loop_joins
    optimized = QueryExecutor({"a": small_a, "b": small_b}).execute(parse(sql))
    assert optimizer_stats.nested_loop_joins > before
    ablated = QueryExecutor(
        {"a": small_a, "b": small_b}, EngineConfig(optimizer=False)
    ).execute(parse(sql))
    assert optimized.to_dicts() == ablated.to_dicts()


# ---------------------------------------------------------------------------
# adaptive partial-aggregation placement
# ---------------------------------------------------------------------------


class _FakeNetwork:
    def __init__(self, databases):
        self._databases = databases

    def database(self, node: str) -> Database:
        return self._databases[node]


def _groupby_fragment(sql: str) -> QueryFragment:
    return QueryFragment(
        name="q1",
        query=parse(sql),
        level=CapabilityLevel.E3_APPLIANCE,
        input_name="d",
    )


def _chunk_database(rows: list) -> Database:
    database = Database(name="leaf")
    database.load_rows("d", rows)
    return database


def test_adaptive_placement_high_cardinality_falls_back():
    state_size_feedback.reset()  # predictable DEFAULT_BYTES_PER_ROW
    rows = [{"k": i, "v": float(i)} for i in range(200)]  # every key distinct
    network = _FakeNetwork({"leaf": _chunk_database(rows)})
    fragment = _groupby_fragment("SELECT k, COUNT(*) AS n FROM d GROUP BY k")
    before = optimizer_stats.adaptive_fallback
    assert partial_aggregation_pays(network, ["leaf"], fragment, "d") is False
    assert optimizer_stats.adaptive_fallback > before


def test_adaptive_placement_low_cardinality_pays():
    state_size_feedback.reset()
    rows = [{"k": i % 3, "v": float(i)} for i in range(200)]
    network = _FakeNetwork({"leaf": _chunk_database(rows)})
    fragment = _groupby_fragment("SELECT k, COUNT(*) AS n FROM d GROUP BY k")
    before = optimizer_stats.adaptive_partial
    assert partial_aggregation_pays(network, ["leaf"], fragment, "d") is True
    assert optimizer_stats.adaptive_partial > before


def test_legacy_ratio_rule_with_optimizer_off():
    rows_high = [{"k": i, "v": float(i)} for i in range(200)]
    rows_low = [{"k": i % 3, "v": float(i)} for i in range(200)]
    fragment = _groupby_fragment("SELECT k, COUNT(*) AS n FROM d GROUP BY k")
    ablated = EngineConfig(optimizer=False)
    high = _FakeNetwork({"leaf": _chunk_database(rows_high)})
    assert partial_aggregation_pays(high, ["leaf"], fragment, "d", ablated) is False
    low = _FakeNetwork({"leaf": _chunk_database(rows_low)})
    assert partial_aggregation_pays(low, ["leaf"], fragment, "d", ablated) is True


# ---------------------------------------------------------------------------
# cardinality estimation sanity
# ---------------------------------------------------------------------------


def test_estimate_select_rows_sanity():
    rows = [{"k": i % 10, "v": float(i)} for i in range(1000)]
    relation = Relation.from_rows(rows, name="d")
    # Equality on a 10-value domain: ~rows/10.
    eq = estimate_select_rows(parse("SELECT v FROM d WHERE k = 3"), relation)
    assert 50 <= eq <= 200
    # GROUP BY bounded by the key's distinct count.
    grouped = estimate_select_rows(
        parse("SELECT k, COUNT(*) AS n FROM d GROUP BY k"), relation
    )
    assert 1 <= grouped <= 10
    # Flat aggregate collapses to one row; LIMIT clamps.
    assert estimate_select_rows(parse("SELECT COUNT(*) AS n FROM d"), relation) == 1
    limited = estimate_select_rows(parse("SELECT v FROM d LIMIT 5"), relation)
    assert limited == 5
    # Without a relation, input_rows drives a textbook fallback.
    fallback = estimate_select_rows(
        parse("SELECT v FROM d WHERE k = 3"), input_rows=1000
    )
    assert fallback is not None and 0 <= fallback <= 1000


# ---------------------------------------------------------------------------
# error identity under reordering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compiled", [False, True])
def test_reordering_preserves_error_identity(compiled):
    """A fallible conjunct raises under the optimizer iff it raises without.

    The mixed-type comparison ``v > 5`` fails on string rows; reordering must
    not let the optimizer's plan silently skip the failing comparison.
    """
    rng = random.Random(13)
    rows = [
        {"flag": i % 2, "v": "oops" if i == 97 else rng.randint(0, 100)}
        for i in range(120)
    ]
    relation = Relation.from_rows(rows, name="m")
    sql = "SELECT v FROM m WHERE flag = 1 AND v > 5"
    for optimizer in (False, True):
        executor = QueryExecutor({"m": relation}, _config(compiled, optimizer))
        with pytest.raises(ExecutionError):
            executor.execute(parse(sql))
