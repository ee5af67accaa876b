"""Column statistics carried across stream appends.

``NetworkSimulator.append_to_partition`` registers a new concatenated
chunk on every append.  Its column summaries are not rebuilt from the
whole chunk: the old chunk's computed summaries are extended by the
delta's values (``ColumnStats.extended`` / ``TableStats.appended``).  The
property pinned here is that the carried summary equals a from-scratch
build over the concatenation, for typed int64/float64/bool backings,
plain list columns, NULL-bearing and mixed-type columns — and therefore
that plan choices and ``explain()`` output cannot tell the difference.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_sensor_relation

from repro.engine import stats as stats_module
from repro.engine.columns import BOOL, FLOAT64, INT64, typed_column_from_values
from repro.engine.stats import column_stats
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.sensors.scenario import INTEGRATED_SCHEMA

pytestmark = pytest.mark.optimizer


def _comparable_state(summary):
    """``ColumnStats.state()`` with min/max compared by type and repr.

    A NaN minimum is never ``==`` to another NaN object, and ``-0.0 ==
    0.0`` would hide which zero the fold kept; type + repr pins both.
    """
    rows, nulls, minimum, maximum, comparable, nan, sketch = summary.state()
    return (
        rows,
        nulls,
        (type(minimum), repr(minimum)),
        (type(maximum), repr(maximum)),
        comparable,
        nan,
        sketch,
    )


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, 1.5]
)
_STRINGS = st.text(alphabet="abc", max_size=3)
#: (typecode or None for a plain list column, value strategy).
_KINDS = {
    "int64": (INT64, _INT64),
    "float64": (FLOAT64, _FLOATS),
    "bool": (BOOL, st.booleans()),
    "list_str": (None, _STRINGS),
    "list_bigint": (None, st.integers(min_value=-(2**70), max_value=2**70)),
    "list_mixed": (None, st.one_of(st.integers(-5, 5), _FLOATS, _STRINGS, st.booleans())),
}


@st.composite
def _split_column(draw):
    """A column kind plus a prefix/suffix split of NULL-bearing values."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    typecode, values = _KINDS[kind]
    cell = st.none() | values if draw(st.booleans()) else values
    prefix = draw(st.lists(cell, max_size=40))
    suffix = draw(st.lists(cell, max_size=40))
    return typecode, prefix, suffix


def _column(typecode, values):
    return list(values) if typecode is None else typed_column_from_values(values, typecode)


@given(_split_column())
@settings(max_examples=250, deadline=None)
def test_extended_stats_equal_rebuild_over_concatenation(case):
    typecode, prefix, suffix = case
    carried = column_stats(_column(typecode, prefix)).extended(_column(typecode, suffix))
    rebuilt = column_stats(_column(typecode, prefix + suffix))
    assert _comparable_state(carried) == _comparable_state(rebuilt)


def test_sketch_stays_exact_past_its_capacity():
    """Extending a pruned KMV sketch keeps the k smallest hashes of the union."""
    prefix = list(range(0, 900, 3))
    suffix = list(range(1, 900, 2))
    carried = column_stats(prefix).extended(suffix)
    assert not carried.distinct_exact
    assert _comparable_state(carried) == _comparable_state(column_stats(prefix + suffix))


def _tree_processor(rows: int = 400) -> ParadiseProcessor:
    topology = Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=2)
    processor = ParadiseProcessor(
        figure4_policy(), topology=topology, schema=INTEGRATED_SCHEMA
    )
    processor.load_data(make_sensor_relation(rows))
    return processor


GROUPED_SQL = (
    "SELECT activity, person_id, COUNT(*), AVG(z) FROM d GROUP BY activity, person_id"
)


def test_append_carries_computed_stats_without_rebuilding(monkeypatch):
    processor = _tree_processor()
    network = processor.network
    leaf = network.partition_holders("d")[1]
    names = ("activity", "person_id", "z", "valid")
    for name in names:
        network.database(leaf).table("d").stats().column(name)

    builds = []
    original = stats_module.column_stats
    monkeypatch.setattr(
        stats_module,
        "column_stats",
        lambda values: builds.append(len(values)) or original(values),
    )
    for seed in (1, 2, 3):
        network.append_to_partition(leaf, "d", make_sensor_relation(25, seed=seed))
    chunk = network.database(leaf).table("d")
    carried = {name: chunk.stats().column(name) for name in names}
    assert builds == []  # every summary came from the old chunk + delta

    for name in names:
        rebuilt = original(chunk.column_array(name))
        assert _comparable_state(carried[name]) == _comparable_state(rebuilt), name


def test_explain_is_unchanged_by_carried_stats():
    processor = _tree_processor()
    network = processor.network
    # The first read computes the group-key summaries on every chunk.
    processor.process(GROUPED_SQL, "ActionFilter", apply_rewriting=False)
    for index, leaf in enumerate(network.partition_holders("d")):
        network.append_to_partition(leaf, "d", make_sensor_relation(30, seed=index))
    carried = processor.explain(GROUPED_SQL, "ActionFilter", apply_rewriting=False)

    # Re-registering a copy of every chunk drops its statistics, so the
    # next explain rebuilds them from scratch.
    for leaf in network.partition_holders("d"):
        database = network.database(leaf)
        database.register("d", database.table("d"))
    assert processor.explain(GROUPED_SQL, "ActionFilter", apply_rewriting=False) == carried
