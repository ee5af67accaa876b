"""Tests for distributed partial aggregation in the parallel runtime.

The contract: GROUP BY fragments whose aggregates all decompose run as
leaf-level partial aggregation with per-level combines — no global merge
of raw rows — and still return relations *byte-identical* to the
unfragmented reference on every workload, over every chunking of the data
(NULL-heavy chunks, empty leaves, single-sensor trees, mixed int/float
columns), whether the DAG runs on one worker or the per-node slot pool.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import make_sensor_relation

from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.wire import pack_relation
from repro.fragment.fragmenter import VerticalFragmenter
from repro.fragment.plan import is_decomposable_aggregation
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import build_execution_dag, union_partials
from repro.sql.parser import parse


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def make_processor(relation: Relation, n_sensors: int = 8, **kwargs) -> ParadiseProcessor:
    topology = (
        Topology.smart_home_tree(n_sensors=n_sensors, sensors_per_appliance=4)
        if n_sensors > 1
        else Topology.default_chain()
    )
    processor = ParadiseProcessor(figure4_policy(), topology=topology, **kwargs)
    processor.load_data(relation)
    return processor


def run_both(processor: ParadiseProcessor, sql: str):
    """Run ``sql`` one-slot and parallel; both must be byte-identical to
    the unfragmented reference."""
    options = {"apply_rewriting": False, "anonymize": False}
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    runs = [
        processor.process(sql, "ActionFilter", execution=execution, **options)
        for execution in ("serial", "parallel")
    ]
    for run in runs:
        assert pack_relation(run.result) == expected
    return runs


def mixed_relation(rows: int, null_share: float = 0.0, seed: int = 5) -> Relation:
    """Sensor-style relation with NULL-able and mixed int/float columns."""
    rng = random.Random(seed)
    data = []
    for index in range(rows):
        data.append(
            {
                "device": rng.randint(1, 3),
                "z": None if rng.random() < null_share else round(rng.uniform(0.1, 1.9), 3),
                # Mixed int/float column: SUM must follow the batch
                # semantics (exact int until the first float appears).
                "m": rng.choice([rng.randint(-5, 5), round(rng.uniform(-5, 5), 2)]),
                # Huge ints: exact only without a float detour.
                "big": rng.randint(-(2**60), 2**60),
                "t": index,
            }
        )
    return Relation.from_rows(data, name="d")


GROUP_BY_SQL = (
    "SELECT device, COUNT(*) AS n, COUNT(z) AS nz, SUM(z) AS sz, AVG(z) AS az, "
    "MIN(z) AS mn, MAX(z) AS mx, STDDEV(z) AS sd, VAR_POP(z) AS vp, "
    "SUM(m) AS sm, SUM(big) AS sb "
    "FROM d GROUP BY device HAVING COUNT(*) > 1 ORDER BY device"
)

GLOBAL_AGG_SQL = "SELECT COUNT(*) AS n, SUM(z) AS sz, AVG(z) AS az FROM d"


# ---------------------------------------------------------------------------
# decomposability analysis
# ---------------------------------------------------------------------------


def test_is_decomposable_aggregation_accepts_figure2_shapes():
    assert is_decomposable_aggregation(
        parse("SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x")
    )
    assert is_decomposable_aggregation(
        parse("SELECT x, SUM(z) FROM d GROUP BY x HAVING SUM(z) > 10 ORDER BY x")
    )
    assert is_decomposable_aggregation(parse("SELECT AVG(z) FROM d WHERE z < 2"))
    assert is_decomposable_aggregation(
        parse("SELECT x, STDDEV(z + 1) FROM d GROUP BY x")
    )


def test_is_decomposable_aggregation_rejects():
    # DISTINCT aggregate / MEDIAN / regression family.
    assert not is_decomposable_aggregation(
        parse("SELECT COUNT(DISTINCT x) FROM d GROUP BY y")
    )
    assert not is_decomposable_aggregation(parse("SELECT MEDIAN(z) FROM d GROUP BY x"))
    assert not is_decomposable_aggregation(
        parse("SELECT REGR_SLOPE(y, x) FROM d GROUP BY z")
    )
    # Non-key column outside an aggregate: needs a representative raw row.
    assert not is_decomposable_aggregation(
        parse("SELECT x, y, AVG(z) FROM d GROUP BY x")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT x, AVG(z) FROM d GROUP BY x HAVING MAX(t) > y")
    )
    # Expression keys, DISTINCT, LIMIT, subqueries, windows, joins.
    assert not is_decomposable_aggregation(
        parse("SELECT x + 1, AVG(z) FROM d GROUP BY x + 1")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT DISTINCT x, AVG(z) FROM d GROUP BY x")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT x, AVG(z) FROM d GROUP BY x LIMIT 2")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT x, AVG(z) FROM d WHERE x IN (SELECT y FROM e) GROUP BY x")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT SUM(z) OVER (ORDER BY t) FROM d")
    )
    assert not is_decomposable_aggregation(
        parse("SELECT d.x, AVG(e.z) FROM d JOIN e ON d.k = e.k GROUP BY d.x")
    )
    # A plain projection is not an aggregation stage.
    assert not is_decomposable_aggregation(parse("SELECT x, z FROM d WHERE z < 2"))
    # Aggregates in WHERE are screened out by the gate, not at execution.
    assert not is_decomposable_aggregation(
        parse("SELECT x, AVG(z) FROM d WHERE SUM(z) > 3 GROUP BY x")
    )
    # ``__agg<N>`` key names would collide with the state columns.
    assert not is_decomposable_aggregation(
        parse("SELECT __agg0, AVG(z) FROM d GROUP BY __agg0")
    )


def test_fragmenter_marks_decomposable_fragments():
    fragmenter = VerticalFragmenter(Topology.smart_home_tree(n_sensors=4))
    plan = fragmenter.fragment(
        parse("SELECT device, AVG(z) AS az FROM d WHERE z < 2 GROUP BY device")
    )
    grouped = [fragment for fragment in plan.fragments if fragment.decomposable]
    assert len(grouped) == 1
    assert not grouped[0].partitionable


# ---------------------------------------------------------------------------
# DAG structure: no global merge for decomposable aggregation
# ---------------------------------------------------------------------------


def test_decomposable_group_by_plan_has_no_global_merge():
    processor = make_processor(mixed_relation(200), n_sensors=8)
    plan = processor.fragmenter.fragment(parse(GROUP_BY_SQL))
    dag = build_execution_dag(plan, processor.topology, processor.network)
    kinds = [task.kind for task in dag.tasks]
    assert kinds.count("merge") == 0
    assert kinds.count("partial") == 8  # one per sensor leaf
    assert kinds.count("combine") >= 2  # sibling combines at the appliances
    assert kinds.count("finalize_agg") == 1
    # The ablation baseline still builds the old merge-then-group DAG.
    baseline = build_execution_dag(
        plan, processor.topology, processor.network, partial_aggregation=False
    )
    assert [task.kind for task in baseline.tasks].count("merge") >= 1
    assert [task.kind for task in baseline.tasks].count("partial") == 0


def test_partial_states_cross_hops_instead_of_raw_rows():
    relation = mixed_relation(400)
    processor = make_processor(relation, n_sensors=8)
    serial, parallel = run_both(processor, GROUP_BY_SQL)
    hops = parallel.transfers.by_hop()
    assert hops, "expected inter-node shipments"
    group_count = len({row["device"] for row in relation.rows})
    # Every hop carries at most one state row per group — never a raw chunk.
    assert max(hop["rows"] for hop in hops) <= group_count
    assert serial.transfers.total_rows == parallel.transfers.total_rows
    # The global-merge baseline ships the raw rows instead.
    _, merged = run_both(
        make_processor(relation, n_sensors=8, partial_aggregation=False), GROUP_BY_SQL
    )
    assert parallel.transfers.total_rows < merged.transfers.total_rows
    stats = parallel.runtime
    assert stats is not None and stats.partial_count == 8 and stats.merge_count == 0


# ---------------------------------------------------------------------------
# differential: partial aggregation == the unfragmented reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", [GROUP_BY_SQL, GLOBAL_AGG_SQL])
@pytest.mark.parametrize("null_share", [0.0, 0.6])
def test_partial_matches_serial_null_heavy(sql, null_share):
    processor = make_processor(mixed_relation(300, null_share=null_share))
    serial, parallel = run_both(processor, sql)
    assert len(serial.result) > 0


def test_partial_matches_serial_empty_leaves():
    # 3 rows over 8 sensors: five leaves hold empty chunks.
    processor = make_processor(mixed_relation(3), n_sensors=8)
    for sql in (GROUP_BY_SQL.replace("COUNT(*) > 1", "COUNT(*) > 0"), GLOBAL_AGG_SQL):
        run_both(processor, sql)


def test_partial_matches_serial_all_leaves_empty():
    relation = mixed_relation(10)
    empty = Relation(schema=relation.schema, rows=[], name="d")
    processor = make_processor(empty, n_sensors=8)
    _, parallel = run_both(processor, GLOBAL_AGG_SQL)
    assert parallel.result.rows == [{"n": 0, "sz": None, "az": None}]


def test_partial_matches_serial_single_sensor_tree():
    processor = make_processor(mixed_relation(150), n_sensors=1)
    run_both(processor, GROUP_BY_SQL)


def test_partial_matches_serial_with_filters_and_projections():
    # A distributive WHERE/projection stage precedes the aggregation: it must
    # run in place on the leaves so only states climb the tree.
    processor = make_processor(make_sensor_relation(400), n_sensors=8)
    sql = (
        "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d "
        "WHERE z < 1.8 AND x > y GROUP BY x"
    )
    serial, parallel = run_both(processor, sql)
    assert len(serial.result) > 0
    assert parallel.runtime.partial_count == 8


def test_partial_disabled_knob_still_identical():
    processor = make_processor(mixed_relation(200), partial_aggregation=False)
    _, parallel = run_both(processor, GROUP_BY_SQL)
    assert parallel.runtime.partial_count == 0


def test_high_cardinality_groups_fall_back_to_global_merge():
    """Cardinality heuristic: unique-per-row keys make states pointless.

    When a leaf's observed group count approaches its chunk size, one state
    row per group would cross every hop anyway — and each state is larger
    than the raw row it summarizes — so the builder must use the
    global-merge path instead of partial aggregation.
    """
    rows = [{"device": i, "z": float(i % 7), "t": i} for i in range(320)]
    processor = make_processor(Relation.from_rows(rows, name="d"), n_sensors=8)
    sql = "SELECT device, COUNT(*) AS n, SUM(z) AS sz FROM d GROUP BY device"
    plan = processor.fragmenter.fragment(parse(sql))
    dag = build_execution_dag(plan, processor.topology, processor.network)
    kinds = [task.kind for task in dag.tasks]
    assert kinds.count("partial") == 0
    assert kinds.count("merge") >= 1
    _, parallel = run_both(processor, sql)
    assert parallel.runtime.partial_count == 0


def test_low_cardinality_groups_keep_partial_aggregation():
    """The same shape with few groups still takes the partial path."""
    rows = [{"device": i % 3, "z": float(i % 7), "t": i} for i in range(320)]
    processor = make_processor(Relation.from_rows(rows, name="d"), n_sensors=8)
    sql = "SELECT device, COUNT(*) AS n, SUM(z) AS sz FROM d GROUP BY device"
    _, parallel = run_both(processor, sql)
    assert parallel.runtime.partial_count == 8


def test_global_aggregation_ignores_cardinality_fallback():
    """No GROUP BY means one state row per leaf — always worthwhile."""
    rows = [{"device": i, "z": float(i), "t": i} for i in range(320)]
    processor = make_processor(Relation.from_rows(rows, name="d"), n_sensors=8)
    _, parallel = run_both(processor, GLOBAL_AGG_SQL)
    assert parallel.runtime.partial_count == 8


def test_non_decomposable_aggregation_falls_back_to_global_merge():
    processor = make_processor(mixed_relation(200))
    sql = "SELECT device, MEDIAN(z) AS mz, COUNT(DISTINCT t) AS nt FROM d GROUP BY device"
    _, parallel = run_both(processor, sql)
    assert parallel.runtime.partial_count == 0
    assert parallel.runtime.merge_count >= 1


@pytest.mark.concurrency
def test_partial_aggregation_runs_are_deterministic():
    processor = make_processor(mixed_relation(300, null_share=0.3))
    reference = processor.process(
        GROUP_BY_SQL, "ActionFilter", execution="parallel",
        apply_rewriting=False, anonymize=False,
    )
    for _ in range(5):
        again = processor.process(
            GROUP_BY_SQL, "ActionFilter", execution="parallel",
            apply_rewriting=False, anonymize=False,
        )
        assert again.result.rows == reference.result.rows
        assert again.result.schema.names == reference.result.schema.names


@pytest.mark.concurrency
def test_partial_aggregation_concurrent_sessions():
    from repro.runtime import QueryRequest, SessionFrontEnd

    processor = make_processor(mixed_relation(250, null_share=0.2))
    options = {"apply_rewriting": False, "anonymize": False}
    requests = [
        QueryRequest(query=sql, module_id="ActionFilter", options=options)
        for sql in (GROUP_BY_SQL, GLOBAL_AGG_SQL)
    ] * 3
    expected = [
        processor.process(r.query, r.module_id, execution="parallel", **options)
        for r in requests
    ]
    with SessionFrontEnd(processor, max_concurrent=4) as front_end:
        got = front_end.run_batch(requests)
    for want, have in zip(expected, got):
        assert have.result.rows == want.result.rows


# ---------------------------------------------------------------------------
# union_partials regressions
# ---------------------------------------------------------------------------


def test_union_partials_empty_sequence():
    merged = union_partials([], "empty")
    assert len(merged) == 0
    assert merged.schema.names == []
    assert merged.name == "empty"


def test_union_partials_all_empty_prefers_specific_types():
    typed = Schema(
        [
            ColumnDef(name="x", data_type=DataType.INTEGER),
            ColumnDef(name="c", data_type=DataType.TEXT),
        ]
    )
    weak = Schema.infer([], names=["x", "c"])  # defaults every column to FLOAT
    merged = union_partials(
        [Relation.empty(weak), Relation.empty(typed), Relation.empty(weak)], "u"
    )
    assert len(merged) == 0
    assert [column.data_type for column in merged.schema.columns] == [
        DataType.INTEGER,
        DataType.TEXT,
    ]
