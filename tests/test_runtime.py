"""Tests for the fragment-execution runtime.

The contract under test: both execution strategies (``"serial"``, the
one-worker scheduler, and ``"parallel"``, the per-node slot pool) return
relations byte-identical to the unfragmented reference
(:func:`~repro.processor.reference.reference_result`) on every workload and
every topology shape, repeated concurrent runs are deterministic, and the
supporting infrastructure (tree topologies, transfer log, caches) is safe
under concurrency.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import PAPER_R_CODE, PAPER_SQL, make_sensor_relation

from repro.engine.executor import QueryExecutor
from repro.engine.table import Relation
from repro.engine.wire import pack_relation
from repro.fragment.capabilities import CapabilityLevel
from repro.fragment.topology import Node, Topology
from repro.fragment.plan import is_row_distributive
from repro.policy.presets import figure4_policy
from repro.processor.network import NetworkSimulator, Transfer, TransferLog
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import (
    CostModel,
    QueryRequest,
    SessionFrontEnd,
    build_execution_dag,
)
from repro.rlang.sqlable import extract_sql_from_r
from repro.sql.parser import parse


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def build_tree_processor(
    rows: int = 400, n_sensors: int = 8, sensors_per_appliance: int = 4, **kwargs
) -> ParadiseProcessor:
    topology = Topology.smart_home_tree(
        n_sensors=n_sensors, sensors_per_appliance=sensors_per_appliance
    )
    processor = ParadiseProcessor(figure4_policy(), topology=topology, **kwargs)
    processor.load_data(make_sensor_relation(rows))
    return processor


def assert_matches_reference(processor, query, module_id, *results, **options):
    """Every result is byte-identical (``pack_relation``) to the unfragmented
    reference; ``options`` are the reference's ``apply_rewriting`` and
    ``anonymize`` flags."""
    expected = pack_relation(reference_result(processor, query, module_id, **options))
    for result in results:
        assert result.result is not None
        assert pack_relation(result.result) == expected


#: Raw workloads (run with ``apply_rewriting=False``) chosen to exercise
#: every DAG shape: distributive-only, aggregation, ordering, windows.
RAW_WORKLOADS = [
    "SELECT * FROM d WHERE z < 1.5",
    "SELECT x, y, z FROM d WHERE x > y AND z < 1.8",
    "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x",
    "SELECT x, y FROM d WHERE valid ORDER BY t LIMIT 25",
    "SELECT AVG(z) OVER (PARTITION BY x ORDER BY t) FROM (SELECT x, z, t FROM d WHERE z < 1.9)",
]


# ---------------------------------------------------------------------------
# tree topologies
# ---------------------------------------------------------------------------


def test_smart_home_tree_shape():
    topology = Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4)
    assert topology.is_tree
    assert [node.name for node in topology.leaves] == [f"sensor_{i}" for i in range(8)]
    assert topology.parent_of("sensor_5").name == "appliance_1"
    assert topology.parent_of("appliance_0").name == "pc"
    assert topology.parent_of("cloud") is None
    assert [n.name for n in topology.children_of("appliance_1")] == [
        "sensor_4",
        "sensor_5",
        "sensor_6",
        "sensor_7",
    ]
    assert topology.common_ancestor(["sensor_0", "sensor_1"]).name == "appliance_0"
    assert topology.common_ancestor(["sensor_0", "sensor_7"]).name == "pc"
    assert [n.name for n in topology.path_to_root("sensor_0")] == [
        "sensor_0",
        "appliance_0",
        "pc",
        "cloud",
    ]


def test_chain_topologies_derive_parents():
    chain = Topology.default_chain()
    assert not chain.is_tree
    assert chain.parent_of("sensor").name == "appliance"
    assert chain.parent_of("pc").name == "cloud"
    assert [node.name for node in chain.leaves] == ["sensor"]


def test_tree_validation():
    with pytest.raises(ValueError):
        Topology(
            [
                Node(name="a", level=CapabilityLevel.E4_SENSOR, parent="missing"),
                Node(name="cloud", level=CapabilityLevel.E1_CLOUD),
            ]
        )
    with pytest.raises(ValueError):
        # A sensor cannot be another sensor's parent.
        Topology(
            [
                Node(name="a", level=CapabilityLevel.E4_SENSOR, parent="b"),
                Node(name="b", level=CapabilityLevel.E4_SENSOR),
                Node(name="cloud", level=CapabilityLevel.E1_CLOUD),
            ]
        )


def test_partitioned_load_preserves_order():
    topology = Topology.smart_home_tree(n_sensors=3, sensors_per_appliance=2)
    network = NetworkSimulator(topology)
    relation = make_sensor_relation(10)
    network.load_sensor_data(relation)
    holders = network.partition_holders("d")
    assert holders == ["sensor_0", "sensor_1", "sensor_2"]
    recombined = []
    for holder in holders:
        recombined.extend(network.database(holder).table("d").rows)
    assert recombined == relation.rows
    assert network.base_table_rows("d") == 10
    # Chunk sizes are as even as possible: 4 + 3 + 3.
    sizes = [len(network.database(h).table("d")) for h in holders]
    assert sizes == [4, 3, 3]


# ---------------------------------------------------------------------------
# fragment marking and DAG structure
# ---------------------------------------------------------------------------


def test_is_row_distributive():
    assert is_row_distributive(parse("SELECT * FROM d WHERE z < 2"))
    assert is_row_distributive(parse("SELECT x, y + 1 FROM d WHERE x > y"))
    assert not is_row_distributive(parse("SELECT AVG(z) FROM d"))
    assert not is_row_distributive(parse("SELECT x FROM d GROUP BY x"))
    assert not is_row_distributive(parse("SELECT x FROM d ORDER BY x"))
    assert not is_row_distributive(parse("SELECT x FROM d LIMIT 5"))
    assert not is_row_distributive(parse("SELECT DISTINCT x FROM d"))
    assert not is_row_distributive(
        parse("SELECT SUM(x) OVER (ORDER BY t) FROM d")
    )
    assert not is_row_distributive(
        parse("SELECT x FROM d WHERE x IN (SELECT y FROM e)")
    )
    assert not is_row_distributive(parse("SELECT x FROM d JOIN e ON d.k = e.k"))


def test_plan_marks_partitionable_fragments():
    processor = build_tree_processor(rows=50)
    result = processor.process(PAPER_SQL, "ActionFilter", execution="serial")
    plan = result.plan
    assert plan is not None
    assert plan.fragments[0].partitionable  # sensor constant filter
    flags = [fragment.partitionable for fragment in plan.fragments]
    assert not flags[-1]  # the window stage needs the whole relation


def test_dag_partitions_and_lifts():
    processor = build_tree_processor(rows=80)
    plan = processor.fragmenter.fragment(
        processor.rewriter.rewrite(parse(PAPER_SQL), "ActionFilter").query
    )
    dag = build_execution_dag(plan, processor.topology, processor.network)
    kinds = [(task.kind, task.node) for task in dag.tasks]
    assert dag.partition_width == 8
    leaf_tasks = [node for kind, node in kinds if kind == "fragment" and node.startswith("sensor")]
    assert len(leaf_tasks) == 8
    merge_nodes = [node for kind, node in kinds if kind == "merge"]
    # Two sibling-group merges at the appliances plus the global merge.
    assert merge_nodes.count("appliance_0") >= 1
    assert merge_nodes.count("appliance_1") >= 1
    assert kinds[-1][0] == "finalize" and kinds[-1][1] == "cloud"


@pytest.mark.parametrize(
    "module,sql,fused",
    [
        ("ActionFilter", PAPER_SQL, ()),
        (None, RAW_WORKLOADS[1], ()),
        (None, RAW_WORKLOADS[2], ("d1", "d2", "d3")),
    ],
    ids=["paper", "selection", "groupby"],
)
def test_dag_build_rebases_each_fragment_once(monkeypatch, module, sql, fused):
    """Namespaced on a 16-sensor tree, the builder clones a fragment's query
    (or a merged chain of in-place fragments) at most once per input name
    and sibling tasks share that one object; running the DAG leaves the
    plan's queries as the fragmenter made them."""
    from repro.runtime import dag as dag_module
    from repro.runtime.dag import StageTask

    processor = build_tree_processor(rows=320, n_sensors=16)
    options = {"apply_rewriting": module is not None}
    module = module or "ActionFilter"

    def fresh_plan():
        prepared = processor.prepare(sql, module, **options)
        return processor.fragmenter.fragment(prepared.query)

    plan = fresh_plan()
    clones = []
    real_clone = dag_module.clone
    monkeypatch.setattr(
        dag_module, "clone", lambda node: clones.append(node) or real_clone(node)
    )
    dag = build_execution_dag(
        plan, processor.topology, processor.network, namespace="s7"
    )
    queries = {}
    for task in dag.tasks:
        if isinstance(task, StageTask) and task.op in ("query", "partial"):
            chain = task.composes or (task.fragment.name,)
            queries.setdefault((chain, task.in_name), []).append(task.query)
    assert len(clones) <= len(queries)
    for tasks_queries in queries.values():
        assert all(query is tasks_queries[0] for query in tasks_queries)
    if fused:
        # One merged query, cloned once, serves all 16 leaf partials, which
        # read their resident chunks: no task reads a shipped input.
        assert list(queries) == [(fused, "d")]
        assert len(queries[fused, "d"]) == 16 and len(clones) == 1
    else:
        # Some fragment reads a shipped (namespaced) input on several siblings.
        assert any(
            in_name.endswith("__s7") and len(tasks_queries) > 1
            for (_, in_name), tasks_queries in queries.items()
        )

    result = processor.process(sql, module, namespace="s7", **options)
    assert [fragment.query for fragment in result.plan.fragments] == [
        fragment.query for fragment in fresh_plan().fragments
    ]
    assert_matches_reference(processor, sql, module, result, **options)


# ---------------------------------------------------------------------------
# differential: serial and parallel == the unfragmented reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "topology_factory",
    [
        lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        lambda: Topology.smart_home_tree(n_sensors=5, sensors_per_appliance=2),
        lambda: Topology.smart_home_tree(n_sensors=3, sensors_per_appliance=8),
        lambda: Topology.default_chain(),
        lambda: Topology.cloud_only(),
    ],
)
def test_parallel_matches_serial_fig2(topology_factory):
    processor = ParadiseProcessor(figure4_policy(), topology=topology_factory())
    processor.load_data(make_sensor_relation(300))
    serial = processor.process(PAPER_SQL, "ActionFilter", execution="serial")
    parallel = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
    assert serial.admitted and parallel.admitted
    assert_matches_reference(processor, PAPER_SQL, "ActionFilter", serial, parallel)
    assert serial.rows_leaving_apartment == parallel.rows_leaving_apartment
    assert serial.runtime.task_count == parallel.runtime.task_count


def test_parallel_matches_serial_usecase_r():
    processor = build_tree_processor(rows=300)
    serial = processor.process_r(PAPER_R_CODE, "ActionFilter", execution="serial")
    parallel = processor.process_r(PAPER_R_CODE, "ActionFilter", execution="parallel")
    sql = extract_sql_from_r(PAPER_R_CODE).sql
    assert_matches_reference(processor, sql, "ActionFilter", serial, parallel)
    assert serial.remainder_call == parallel.remainder_call


@pytest.mark.parametrize("sql", RAW_WORKLOADS)
def test_parallel_matches_serial_raw_workloads(sql):
    processor = build_tree_processor(rows=400)
    serial = processor.process(
        sql, "ActionFilter", execution="serial", apply_rewriting=False, anonymize=False
    )
    parallel = processor.process(
        sql, "ActionFilter", execution="parallel", apply_rewriting=False, anonymize=False
    )
    assert len(serial.result) > 0  # non-degenerate differential
    assert_matches_reference(
        processor, sql, "ActionFilter", serial, parallel,
        apply_rewriting=False, anonymize=False,
    )
    assert serial.rows_leaving_apartment == parallel.rows_leaving_apartment


def test_parallel_matches_serial_on_error_paths():
    """Failure parity: both strategies raise the same error on bad workloads.

    The no-pushdown baseline with anonymization enabled is semantically
    ill-defined: its only fragment ships raw rows from the sensors, so step
    A runs on the nearest in-apartment node powerful enough to anonymize
    (an appliance or the PC), and k-anonymity generalizes numerics to range
    strings, which the remainder's comparisons then reject.  The runtime
    contract is parity, not repair: serial and parallel must fail
    identically.
    """
    from repro.engine.errors import ExecutionError

    processor = build_tree_processor(rows=200)
    with pytest.raises(ExecutionError) as serial_error:
        processor.process(PAPER_SQL, "ActionFilter", execution="serial", pushdown=False)
    with pytest.raises(ExecutionError) as parallel_error:
        processor.process(PAPER_SQL, "ActionFilter", execution="parallel", pushdown=False)
    assert str(serial_error.value) == str(parallel_error.value)


def test_parallel_matches_serial_no_pushdown_baseline():
    processor = build_tree_processor(rows=200)
    serial = processor.process(
        PAPER_SQL, "ActionFilter", execution="serial", pushdown=False, anonymize=False
    )
    parallel = processor.process(
        PAPER_SQL, "ActionFilter", execution="parallel", pushdown=False, anonymize=False
    )
    assert_matches_reference(
        processor, PAPER_SQL, "ActionFilter", serial, parallel, anonymize=False
    )
    assert serial.rows_leaving_apartment == parallel.rows_leaving_apartment
    # The baseline ships the whole raw relation across the boundary.
    assert serial.rows_leaving_apartment == 200


# ---------------------------------------------------------------------------
# aggregate states are encoded once per task
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_aggregate_states_are_packed_once(monkeypatch, execution):
    """On the 8-sensor GROUP BY, a partial/combine task packs its state
    once: the same bytes are its checkpoint and its shipment, and the
    partial's length is what the state-size feedback records.  Only the
    other shipments pack on their own."""
    from benchmarks.e2e.workloads import GROUPBY_SQL, occupancy_policy
    from repro.engine import wire
    from repro.processor import network as network_module
    from repro.runtime import dag as dag_module
    from repro.runtime.dag import ExecutionContext
    from repro.sensors.scenario import INTEGRATED_SCHEMA

    processor = ParadiseProcessor(
        occupancy_policy(),
        topology=Topology.smart_home_tree(n_sensors=8),
        schema=INTEGRATED_SCHEMA,
    )
    processor.load_data(make_sensor_relation(400))

    packed, shipped, checkpoints, feedback = [], [], [], []
    real_pack = wire.pack_relation
    real_unpack = network_module.unpack_relation
    real_save = ExecutionContext.save_checkpoint

    def pack(relation):
        packed.append(relation.name)
        return real_pack(relation)

    def unpack(payload):
        shipped.append(payload)
        return real_unpack(payload)

    def save_checkpoint(context, task, relation):
        if task.kind in ("partial", "combine"):
            checkpoints.append((task.kind, task.node, context.payloads[task.task_id]))
        return real_save(context, task, relation)

    for module in (wire, network_module, dag_module):
        monkeypatch.setattr(module, "pack_relation", pack)
    monkeypatch.setattr(network_module, "unpack_relation", unpack)
    monkeypatch.setattr(ExecutionContext, "save_checkpoint", save_checkpoint)
    monkeypatch.setattr(
        dag_module.state_size_feedback,
        "record",
        lambda rows, nbytes, cells=None: feedback.append(nbytes),
    )

    result = processor.process(GROUPBY_SQL, "Occupancy", execution=execution)

    kinds = [kind for kind, _, _ in checkpoints]
    assert kinds.count("partial") == 8 and kinds.count("combine") == 3
    transfers = result.transfers.snapshot()
    assert len(packed) == len(checkpoints) + 1 == 12  # + the result to the cloud
    assert len(transfers) == len(shipped) == 12
    for _, node, payload in checkpoints:
        # Shipped as the very bytes the task packed, logged at their length.
        assert any(sent is payload for sent in shipped)
        [transfer] = [t for t in transfers if t.relation_name.endswith(f"@{node}")]
        assert transfer.source == node and transfer.bytes == len(payload)
    assert result.runtime.checkpoint_bytes == sum(len(p) for _, _, p in checkpoints)
    assert sorted(feedback) == sorted(
        len(payload) for kind, _, payload in checkpoints if kind == "partial"
    )
    assert_matches_reference(processor, GROUPBY_SQL, "Occupancy", result)


# ---------------------------------------------------------------------------
# determinism under concurrency
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_parallel_runs_are_deterministic():
    processor = build_tree_processor(rows=300)
    reference = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
    for _ in range(5):
        again = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
        assert again.result.rows == reference.result.rows
        assert again.result.schema.names == reference.result.schema.names
        names = [execution.fragment_name for execution in again.executions]
        assert names == [execution.fragment_name for execution in reference.executions]


@pytest.mark.concurrency
def test_concurrent_sessions_match_one_at_a_time():
    processor = build_tree_processor(rows=300)
    requests = [
        QueryRequest(query=sql, module_id="ActionFilter", options={"apply_rewriting": False, "anonymize": False})
        for sql in RAW_WORKLOADS
    ] * 2
    one_at_a_time = [
        processor.process(request.query, request.module_id, execution="parallel", **request.options)
        for request in requests
    ]
    with SessionFrontEnd(processor, max_concurrent=4) as front_end:
        concurrent = front_end.run_batch(requests)
    assert len(concurrent) == len(requests)
    for expected, got in zip(one_at_a_time, concurrent):
        assert got.result.rows == expected.result.rows
        assert got.result.schema.names == expected.result.schema.names
        # Per-session transfer logs are isolated from each other.
        assert got.rows_leaving_apartment == expected.rows_leaving_apartment


@pytest.mark.concurrency
def test_session_namespaces_are_recycled():
    """Long-running front-ends must not grow node catalogs per query."""
    processor = build_tree_processor(rows=100)
    with SessionFrontEnd(processor, max_concurrent=3) as front_end:
        for _ in range(4):  # several waves of reuse
            front_end.run_batch(
                [QueryRequest(PAPER_SQL, "ActionFilter") for _ in range(6)]
            )
    for node in processor.topology.nodes:
        names = processor.network.database(node.name).table_names
        namespaced = {name for name in names if "__s" in name}
        suffixes = {name.rsplit("__", 1)[1] for name in namespaced}
        assert suffixes <= {"s0", "s1", "s2"}, (node.name, sorted(namespaced))


@pytest.mark.concurrency
def test_transfer_log_thread_safety_and_order():
    log = TransferLog(node_order=["sensor", "appliance", "pc", "cloud"])

    def record_many(index: int) -> None:
        for i in range(200):
            log.record(
                Transfer(
                    source="sensor",
                    target="appliance",
                    relation_name=f"r{index}",
                    rows=1,
                    bytes=8,
                    leaves_apartment=False,
                )
            )

    threads = [threading.Thread(target=record_many, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert log.total_rows == 8 * 200
    hops = log.by_hop()
    assert hops == sorted(
        hops, key=lambda hop: (hop["source"], hop["target"], hop["relation"])
    )


@pytest.mark.concurrency
def test_by_hop_orders_bottom_up():
    topology = Topology.default_chain()
    network = NetworkSimulator(topology)
    relation = make_sensor_relation(5)
    # Record out of order; by_hop must come back bottom-up.
    network.ship(relation, "d_prime", "pc", "cloud")
    network.ship(relation, "d1", "sensor", "appliance")
    hops = network.log.by_hop()
    assert [hop["source"] for hop in hops] == ["sensor", "pc"]
    assert hops[-1]["leaves_apartment"] is True


# ---------------------------------------------------------------------------
# cost model: parallel overlap is real wall-clock time
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
@pytest.mark.slow
def test_cost_model_speedup_on_tree():
    cost = CostModel(seconds_per_row=5e-5, seconds_per_kb=0.0)
    processor = build_tree_processor(rows=400, cost_model=cost)
    serial = processor.process(PAPER_SQL, "ActionFilter", execution="serial")
    parallel = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
    assert_matches_reference(processor, PAPER_SQL, "ActionFilter", serial, parallel)
    # Serial pays the simulated sensor scans end to end; the DAG overlaps
    # them 8-wide, so even a generous tolerance holds.
    assert parallel.elapsed_seconds < serial.elapsed_seconds * 0.8
    assert parallel.runtime.overlap_factor > 1.5


# ---------------------------------------------------------------------------
# extended uncorrelated-subquery detector
# ---------------------------------------------------------------------------


@pytest.fixture
def detector_catalog():
    people = Relation.from_rows(
        [{"pid": 1, "room": 10}, {"pid": 2, "room": 20}], name="people"
    )
    rooms = Relation.from_rows(
        [{"rid": 10, "floor": 1}, {"rid": 20, "floor": 2}], name="rooms"
    )
    return {"people": people, "rooms": rooms}


def test_detector_accepts_join_from(detector_catalog):
    executor = QueryExecutor(detector_catalog)
    query = parse(
        "SELECT pid FROM people JOIN rooms ON people.room = rooms.rid WHERE floor > 1"
    )
    assert executor._subquery_is_constant(query)


def test_detector_accepts_constant_derived_table(detector_catalog):
    executor = QueryExecutor(detector_catalog)
    query = parse(
        "SELECT pid FROM (SELECT pid, room FROM people WHERE room > 5) p WHERE p.room < 100"
    )
    assert executor._subquery_is_constant(query)


def test_detector_rejects_correlated_and_unknown(detector_catalog):
    executor = QueryExecutor(detector_catalog)
    # References a column no source exposes (correlated with the outer row).
    assert not executor._subquery_is_constant(
        parse("SELECT pid FROM people WHERE room = outer_room")
    )
    # Unknown table in a join.
    assert not executor._subquery_is_constant(
        parse("SELECT pid FROM people JOIN ghosts ON people.pid = ghosts.pid")
    )
    # Derived table whose inner query is itself correlated.
    assert not executor._subquery_is_constant(
        parse("SELECT pid FROM (SELECT pid FROM people WHERE room = outer_room) p")
    )


def test_detector_powers_in_subquery_caching(detector_catalog):
    executor = QueryExecutor(detector_catalog)
    result = executor.execute(
        parse(
            "SELECT pid FROM people WHERE room IN "
            "(SELECT rid FROM rooms JOIN people ON rooms.rid = people.room WHERE floor >= 1)"
        )
    )
    assert sorted(row["pid"] for row in result) == [1, 2]
