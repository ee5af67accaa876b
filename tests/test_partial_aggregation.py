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
from hypothesis import given, settings, strategies as st

from tests.conftest import make_sensor_relation

from repro.engine import Database, EngineConfig
from repro.engine.errors import ExecutionError
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.wire import pack_relation, pack_state_relation, unpack_state_relation
from repro.fragment.fragmenter import VerticalFragmenter
from repro.engine.executor import decomposition_error
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import CostModel, build_execution_dag, union_partials
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


def decomposable(query) -> bool:
    return decomposition_error(query) is None


def test_is_decomposable_aggregation_accepts_figure2_shapes():
    assert decomposable(
        parse("SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x")
    )
    assert decomposable(
        parse("SELECT x, SUM(z) FROM d GROUP BY x HAVING SUM(z) > 10 ORDER BY x")
    )
    assert decomposable(parse("SELECT AVG(z) FROM d WHERE z < 2"))
    assert decomposable(
        parse("SELECT x, STDDEV(z + 1) FROM d GROUP BY x")
    )


def test_is_decomposable_aggregation_rejects():
    # DISTINCT aggregate / MEDIAN / regression family.
    assert not decomposable(
        parse("SELECT COUNT(DISTINCT x) FROM d GROUP BY y")
    )
    assert not decomposable(parse("SELECT MEDIAN(z) FROM d GROUP BY x"))
    assert not decomposable(
        parse("SELECT REGR_SLOPE(y, x) FROM d GROUP BY z")
    )
    # Expression keys, DISTINCT, LIMIT, subqueries, windows, joins.
    assert not decomposable(
        parse("SELECT x + 1, AVG(z) FROM d GROUP BY x + 1")
    )
    assert not decomposable(
        parse("SELECT DISTINCT x, AVG(z) FROM d GROUP BY x")
    )
    assert not decomposable(
        parse("SELECT x, AVG(z) FROM d GROUP BY x LIMIT 2")
    )
    assert not decomposable(
        parse("SELECT x, AVG(z) FROM d WHERE x IN (SELECT y FROM e) GROUP BY x")
    )
    assert not decomposable(
        parse("SELECT SUM(z) OVER (ORDER BY t) FROM d")
    )
    assert not decomposable(
        parse("SELECT d.x, AVG(e.z) FROM d JOIN e ON d.k = e.k GROUP BY d.x")
    )
    # A plain projection is not an aggregation stage.
    assert not decomposable(parse("SELECT x, z FROM d WHERE z < 2"))
    # Aggregates in WHERE are screened out by the gate, not at execution.
    assert not decomposable(
        parse("SELECT x, AVG(z) FROM d WHERE SUM(z) > 3 GROUP BY x")
    )
    # ``__agg<N>`` key names would collide with the state columns.
    assert not decomposable(
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


@pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
def test_order_by_unselected_group_key_through_partial_aggregation(engine_mode):
    """``GROUP BY device ORDER BY device`` without selecting ``device``:
    leaf partials, combines and the finalize on an 8-sensor tree return
    the counts in key order, computed here by hand."""
    relation = mixed_relation(400, seed=9)
    processor = make_processor(relation, n_sensors=8, engine_mode=engine_mode)
    sql = "SELECT COUNT(*) AS n FROM d GROUP BY device ORDER BY device DESC"
    counts = {}
    for row in relation.rows:
        counts[row["device"]] = counts.get(row["device"], 0) + 1
    first_seen = list(counts)
    expected = [counts[key] for key in sorted(counts, reverse=True)]
    assert sorted(counts, reverse=True) != first_seen  # the order is observable
    for run in run_both(processor, sql):
        assert run.runtime.partial_count == 8
        assert [row["n"] for row in run.result.rows] == expected


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
    # Small simulated costs make the parallel runs use the pool.
    processor = make_processor(
        mixed_relation(300, null_share=0.3), cost_model=CostModel(seconds_per_row=1e-6)
    )
    reference = processor.process(
        GROUP_BY_SQL, "ActionFilter", execution="parallel",
        apply_rewriting=False, anonymize=False,
    )
    assert reference.runtime.workers > 1
    for _ in range(5):
        again = processor.process(
            GROUP_BY_SQL, "ActionFilter", execution="parallel",
            apply_rewriting=False, anonymize=False,
        )
        assert again.runtime.workers > 1
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
# the partial protocol's rejections, under every engine config
# ---------------------------------------------------------------------------

ENGINE_CONFIGS = {
    "interpreted": EngineConfig(mode="interpreted"),
    "row_scan": EngineConfig(vectorized=False),
    "default": EngineConfig(),
}

PARTIAL_REJECTIONS = [
    (
        "SELECT DISTINCT x, COUNT(*) FROM d GROUP BY x",
        "Partial aggregation does not support DISTINCT/LIMIT/OFFSET",
    ),
    (
        "SELECT x, COUNT(*) FROM d GROUP BY x LIMIT 2",
        "Partial aggregation does not support DISTINCT/LIMIT/OFFSET",
    ),
    (
        "SELECT x, COUNT(*) FROM d GROUP BY x OFFSET 1",
        "Partial aggregation does not support DISTINCT/LIMIT/OFFSET",
    ),
    (
        "SELECT x + 1, COUNT(*) FROM d GROUP BY x + 1",
        "Partial aggregation requires plain-column GROUP BY keys",
    ),
    (
        "SELECT x, COUNT(*) FROM d GROUP BY x, X",
        "Partial aggregation requires distinct GROUP BY keys",
    ),
    (
        "SELECT __agg0, COUNT(*) FROM d GROUP BY __agg0",
        "Partial aggregation cannot group by reserved column __agg0",
    ),
    ("SELECT x, MEDIAN(z) FROM d GROUP BY x", "Aggregate MEDIAN is not decomposable"),
    ("SELECT x, COUNT(DISTINCT z) FROM d GROUP BY x", "Aggregate COUNT is not decomposable"),
    ("SELECT x, CORR(y, z) FROM d GROUP BY x", "Aggregate CORR is not decomposable"),
    (
        "SELECT x, COUNT(*) FROM d WHERE x IN (SELECT x FROM d) GROUP BY x",
        "Partial aggregation does not support subqueries",
    ),
    (
        "SELECT x, SUM(COUNT(*)) OVER () FROM d GROUP BY x",
        "Partial aggregation does not support window functions",
    ),
    (
        "SELECT x, SUM(z) FROM d WHERE COUNT(*) > 1 GROUP BY x",
        "Partial aggregation does not support aggregates in WHERE or aggregate arguments",
    ),
    ("SELECT x, z FROM d", "Partial aggregation requires a GROUP BY or an aggregate call"),
    (
        "SELECT a.x, COUNT(*) FROM d a JOIN d b ON a.t = b.t GROUP BY a.x",
        "Partial aggregation requires a single-table SELECT",
    ),
]


def _partial_database() -> Database:
    database = Database()
    database.load_rows(
        "d", [{"x": i % 3, "y": float(i), "z": i * 0.5, "t": i} for i in range(10)]
    )
    return database


@pytest.mark.parametrize("config", ENGINE_CONFIGS.values(), ids=ENGINE_CONFIGS.keys())
@pytest.mark.parametrize("sql,message", PARTIAL_REJECTIONS)
def test_partial_aggregate_rejections(config, sql, message):
    with pytest.raises(ExecutionError) as raised:
        _partial_database().partial_aggregate(sql, config)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "sql,names",
    [
        # A star item with GROUP BY is rejected only by the grouped SELECT;
        # its partial carries the keys and no state.
        ("SELECT * FROM d GROUP BY x", ["x"]),
        ("SELECT d.x, COUNT(*) FROM d GROUP BY d.x", ["x", "__agg0"]),
        # An ORDER BY column naming a select item's output reads the item.
        ("SELECT x, COUNT(*) AS n FROM d GROUP BY x ORDER BY n DESC", ["x", "__agg0"]),
    ],
)
def test_partial_aggregate_accepts(sql, names):
    results = [
        _partial_database().partial_aggregate(sql, config)
        for config in ENGINE_CONFIGS.values()
    ]
    for result in results:
        assert result.schema.names == names
        assert [row["x"] for row in result.rows] == [0, 1, 2]
    assert len({pack_relation(result) for result in results}) == 1


def test_decomposition_error_is_the_one_rule():
    """The fragmenter, the partial protocol and standing registration ask
    one engine function; the fragmenter keeps its reason for ``explain``."""
    for sql, message in PARTIAL_REJECTIONS:
        assert decomposition_error(parse(sql)) == message
    processor = make_processor(make_sensor_relation(80), n_sensors=8)
    sql = "SELECT x, MEDIAN(z) AS mz FROM d GROUP BY x"
    [fragment] = [
        fragment
        for fragment in processor.fragmenter.fragment(parse(sql)).fragments
        if fragment.query.group_by
    ]
    assert not fragment.decomposable
    assert fragment.decomposition_error == "Aggregate MEDIAN is not decomposable"
    explained = processor.explain(sql, "ActionFilter", apply_rewriting=False)
    assert "-- not decomposable: Aggregate MEDIAN is not decomposable" in explained
    assert "not decomposable" not in processor.explain(
        "SELECT x, COUNT(*) AS n FROM d GROUP BY x", "ActionFilter", apply_rewriting=False
    )


# ---------------------------------------------------------------------------
# first-value states: bare non-key columns
# ---------------------------------------------------------------------------

#: Grouped queries that read a bare non-key column — in the items, HAVING
#: or ORDER BY — which the grouped scan takes from each group's first row.
#: The partial protocol used to reject each of them.
BARE_COLUMN_QUERIES = [
    ("SELECT x, y, AVG(z), t FROM d GROUP BY x, y", ["x", "y", "__agg0", "__agg1"]),
    ("SELECT x, COUNT(*) FROM d GROUP BY x HAVING MAX(z) > y", ["x", "__agg0", "__agg1", "__agg2"]),
    ("SELECT x, COUNT(*) AS n FROM d GROUP BY x ORDER BY n, t", ["x", "__agg0", "__agg1"]),
    ("SELECT x, y, AVG(z) FROM d GROUP BY x", ["x", "__agg0", "__agg1"]),
    ("SELECT x, AVG(z) FROM d GROUP BY x HAVING MAX(t) > y", ["x", "__agg0", "__agg1", "__agg2"]),
]


@pytest.mark.parametrize("sql,names", BARE_COLUMN_QUERIES)
def test_bare_non_key_columns_decompose(sql, names):
    """Each bare column is a first-value state, so partial -> finalize
    returns the grouped SELECT's bytes under every engine config."""
    assert decomposition_error(parse(sql)) is None
    database = _partial_database()
    expected = pack_relation(database.query(sql, ENGINE_CONFIGS["interpreted"]))
    for config in ENGINE_CONFIGS.values():
        states = database.partial_aggregate(sql, config)
        assert states.schema.names == names
        assert pack_relation(database.finalize_partials(sql, states, config)) == expected


def test_first_value_state_is_the_groups_first_row():
    database = _partial_database()
    states = database.partial_aggregate("SELECT x, y, COUNT(*) FROM d GROUP BY x")
    assert [row["__agg1"] for row in states.rows] == [(True, 0.0), (True, 1.0), (True, 2.0)]
    empty = database.partial_aggregate("SELECT t, COUNT(*) FROM d WHERE z > 100")
    assert [tuple(row.values()) for row in empty.rows] == [(0, (False, None))]


def test_qualified_group_keys_decompose():
    """A qualified key matches by name, as the engine resolves it: the
    fragmenter decomposes ``GROUP BY d.x`` like ``GROUP BY x``."""
    sql = "SELECT d.x, COUNT(*) AS n, AVG(d.z) AS az FROM d GROUP BY d.x"
    assert decomposition_error(parse(sql)) is None
    for topology in (1, 8):
        processor = make_processor(make_sensor_relation(400), n_sensors=topology)
        for run in run_both(processor, sql):
            assert run.runtime.partial_count == topology


#: Cells of the first-value property test: a key, numbers, and bare
#: columns of mixed types with NULLs and repeated values.
_CELLS = {
    "k": st.sampled_from([0, 1, 2, None]),
    "v": st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([0.5, -1.25, 2.0])),
    "f": st.one_of(
        st.none(), st.integers(-2, 2), st.sampled_from([1.5, -0.0]), st.sampled_from(["a", "b"])
    ),
    "s": st.one_of(st.none(), st.sampled_from(["p", "q"])),
}

FIRST_VALUE_QUERIES = [
    "SELECT k, f, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn FROM d GROUP BY k",
    "SELECT f, s, COUNT(v) AS n FROM d",
    "SELECT k, COUNT(*) AS n FROM d GROUP BY k HAVING s IS NOT NULL ORDER BY s, k",
    "SELECT s, k, MAX(v) AS mx FROM d WHERE v > 0 GROUP BY s",
]


@given(
    rows=st.lists(st.fixed_dictionaries(_CELLS), max_size=24),
    cuts=st.lists(st.integers(0, 24), max_size=4),
    combine_at=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_first_value_states_merge_like_one_pass(rows, cuts, combine_at):
    """Contiguous partitions (some empty), one partial per part, part of
    them combined first, then finalize: the grouped scan's bytes under
    every config, and again with every state through the wire codec."""
    relation = Relation.from_rows(rows, name="d") if rows else Relation.from_rows(
        [{"k": 0, "v": 0, "f": 0, "s": "p"}], name="d"
    ).slice_rows(0, 0, name="d")
    bounds = [0] + sorted(min(cut, len(relation)) for cut in cuts) + [len(relation)]
    parts = [relation.slice_rows(lo, hi, name="d") for lo, hi in zip(bounds, bounds[1:])]
    whole = Database()
    whole.register("d", relation)
    for sql in FIRST_VALUE_QUERIES:
        expected = pack_relation(whole.query(sql, ENGINE_CONFIGS["interpreted"]))
        for config in ENGINE_CONFIGS.values():
            states = []
            for part in parts:
                leaf = Database()
                leaf.register("d", part)
                states.append(leaf.partial_aggregate(sql, config))
            for wire in (False, True):
                if wire:
                    states = [unpack_state_relation(pack_state_relation(state)) for state in states]
                split = min(combine_at, len(states))
                combined = Database().combine_partials(
                    sql, union_partials(states[:split], name="s"), config
                )
                if wire:
                    combined = unpack_state_relation(pack_state_relation(combined))
                final = Database().finalize_partials(
                    sql, union_partials([combined] + states[split:], name="s"), config
                )
                assert pack_relation(final) == expected, (sql, config, wire)


#: Grouped reads of bare columns through ``process``.
BARE_COLUMN_READS = [
    "SELECT person_id, activity, AVG(z) AS az, t, x FROM d WHERE z < 2 "
    "GROUP BY person_id, activity HAVING SUM(z) > 1",
    "SELECT activity, person_id, COUNT(*) AS n FROM d "
    "GROUP BY activity ORDER BY person_id, activity",
    "SELECT x, COUNT(*) AS n FROM d GROUP BY x HAVING MAX(z) > y ORDER BY n, t",
    "SELECT t, activity, AVG(z) AS az FROM d WHERE x > y",
    "SELECT t, COUNT(*) AS n FROM d WHERE z > 100",
]


@pytest.mark.parametrize("engine", sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("n_sensors", [1, 8])
@pytest.mark.parametrize("sql", BARE_COLUMN_READS)
def test_bare_column_reads_run_partial_through_process(sql, n_sensors, engine):
    """On the chain's one sensor and on an 8-sensor tree, serial and
    parallel: leaf partials carry first-value states, byte-identical to
    the unfragmented reference.

    ``WHERE z > 100`` holds on no row.  Under zone maps (compiled,
    optimizer on) a sensor whose raw ``z`` never exceeds 100 gets no
    partial, but the first one always stays; the interpreted oracle runs
    every leaf."""
    processor = make_processor(make_sensor_relation(400), n_sensors=n_sensors)
    config = ENGINE_CONFIGS[engine]
    processor.engine = config
    expected = n_sensors
    if "WHERE z > 100" in sql and config.zone_maps:
        chunks = [
            processor.network.database(node).table("d")
            for node in processor.network.partition_holders("d")
        ]
        expected = max(1, sum(max(list(chunk.column_array("z"))) > 100 for chunk in chunks))
        assert expected == 1
    for run in run_both(processor, sql):
        assert run.runtime.partial_count == expected
        assert run.runtime.pruned_partitions == n_sensors - expected


#: Grouped reads of a bare column ``d`` lacks.  The row paths used to
#: read it only from a group's first row: the global group over no rows
#: and a HAVING that drops every group never raised, a leaf partial did.
UNKNOWN_BARE_COLUMN_READS = [
    "SELECT foo, COUNT(*) AS n FROM d WHERE z > 100",
    "SELECT x, foo, COUNT(*) AS n FROM d GROUP BY x HAVING COUNT(*) > 1000",
    # Resolved before any row is read: WHERE would raise on the first row.
    "SELECT x, COUNT(*) AS n FROM d WHERE activity < 5 GROUP BY x ORDER BY foo",
]


@pytest.mark.parametrize("engine", sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("sql", UNKNOWN_BARE_COLUMN_READS)
def test_unknown_bare_columns_raise_before_any_row(sql, engine):
    config = ENGINE_CONFIGS[engine]
    database = Database()
    database.register("d", make_sensor_relation(80))
    for run in (database.query, database.partial_aggregate):
        with pytest.raises(ExecutionError, match="^Unknown column: foo$"):
            run(sql, config)
    options = {"apply_rewriting": False, "anonymize": False}
    for n_sensors in (1, 8):
        processor = make_processor(make_sensor_relation(80), n_sensors=n_sensors)
        processor.engine = config
        with pytest.raises(ExecutionError, match="^Unknown column: foo$"):
            reference_result(processor, sql, "ActionFilter", **options)
        for execution in ("serial", "parallel"):
            with pytest.raises(ExecutionError, match="^Unknown column: foo$"):
                processor.process(sql, "ActionFilter", execution=execution, **options)


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
