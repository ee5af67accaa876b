"""Tests for the fragment-execution runtime.

The contract under test: both execution strategies (``"serial"``, the
one-worker scheduler, and ``"parallel"``, the per-node slot pool wherever
a task can wait) return
relations byte-identical to the unfragmented reference
(:func:`~repro.processor.reference.reference_result`) on every workload and
every topology shape, repeated concurrent runs are deterministic, and the
supporting infrastructure (tree topologies, transfer log, caches) is safe
under concurrency.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from tests.conftest import PAPER_R_CODE, PAPER_SQL, make_sensor_relation
from benchmarks.e2e.workloads import sensor_relation

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
    DataLossError,
    Fault,
    FailureInjector,
    QueryRequest,
    SessionFrontEnd,
    build_execution_dag,
)
from repro.runtime.faults import KILL_NODE
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

#: The paper query and a selection whose sensor filter names ``d.z``: the
#: qualified column makes :func:`~repro.runtime.dag.merge_views` refuse to
#: fold ``d2`` into ``d1``, so ``d1`` runs on the sensors alone and ``d2``
#: lifts to the appliances (the paper's Figure 3 placement).
LIFTED_PAPER_SQL = (
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) "
    "FROM (SELECT x, y, z, t FROM d WHERE d.z < 3)"
)
LIFTED_SELECTION_SQL = "SELECT x, y, z FROM d WHERE x > y AND d.z < 1.8"


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
    # The paper query's GROUP BY decomposes, so its row stages stay on the
    # leaves; a selection whose appliance stage cannot merge lifts.
    processor = build_tree_processor(rows=80)
    plan = processor.fragmenter.fragment(parse(LIFTED_SELECTION_SQL))
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
        ("ActionFilter", LIFTED_PAPER_SQL, ()),
        (None, LIFTED_SELECTION_SQL, ()),
        (None, RAW_WORKLOADS[2], ("d1", "d2", "d3")),
    ],
    ids=["paper", "selection", "groupby"],
)
def test_dag_build_clones_each_merged_chain_once(monkeypatch, module, sql, fused):
    """On a 16-sensor tree, the builder clones a merged chain of in-place
    fragments at most once and runs a lone fragment's own query, whether
    it reads a resident chunk or a task's output; sibling tasks share that
    one object, and running the DAG leaves the plan's queries as the
    fragmenter made them."""
    from repro.runtime import dag as dag_module
    from repro.runtime.tasks import StageTask

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
    dag = build_execution_dag(plan, processor.topology, processor.network)
    queries = {}
    for task in dag.tasks:
        if isinstance(task, StageTask) and task.op in ("query", "partial"):
            chain = task.composes or (task.fragment.name,)
            queries.setdefault((chain, task.resident), []).append(task.query)
    assert len(clones) <= len(queries)
    for tasks_queries in queries.values():
        assert all(query is tasks_queries[0] for query in tasks_queries)
    if fused:
        # One merged query, cloned once, serves all 16 leaf partials, which
        # read their resident chunks: no task reads a shipped input.
        assert list(queries) == [(fused, True)]
        assert len(queries[fused, True]) == 16 and len(clones) == 1
    else:
        # Some chain reads a task's output, bound under the chain's input
        # name, on several siblings: one query object serves them all.
        assert any(
            not resident and len(tasks_queries) > 1
            for (_, resident), tasks_queries in queries.items()
        )

    result = processor.process(sql, module, **options)
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


@pytest.mark.parametrize(
    "module,sql,rewrite",
    [
        ("ActionFilter", PAPER_SQL, True),
        ("fig4", "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY x", False),
    ],
)
def test_no_pushdown_baseline_anonymizes_the_released_result(module, sql, rewrite):
    """The no-pushdown baseline ships the raw rows and runs the whole query
    at the cloud; step A then protects the result it releases, so serial
    and parallel runs equal the reference.  It used to anonymize the raw
    rows first, generalizing ``z`` to interval strings that the query's
    comparisons rejected (``Cannot compare str and float``)."""
    processor = build_tree_processor(rows=200)
    expected = pack_relation(
        reference_result(processor, sql, module, apply_rewriting=rewrite)
    )
    for execution in ("serial", "parallel"):
        result = processor.process(
            sql, module, execution=execution, pushdown=False, apply_rewriting=rewrite
        )
        assert pack_relation(result.result) == expected
        assert result.anonymization is not None
        assert result.anonymization.applied == (len(result.result) > 0)


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
    once: the same bytes are its checkpoint and its shipment, which its
    reader decodes, and the partial's length is what the state-size
    feedback records.  The finalize and step A pack their outputs once
    too (their node keeps them; the release's bytes are its shipment to
    the cloud), and no shipment packs on its own."""
    from benchmarks.e2e.workloads import GROUPBY_SQL, occupancy_policy
    from repro.engine import wire
    from repro.processor import network as network_module
    from repro.runtime import dag as dag_module, memo as memo_module, tasks as tasks_module
    from repro.runtime.tasks import ExecutionContext
    from repro.sensors.scenario import INTEGRATED_SCHEMA

    processor = ParadiseProcessor(
        occupancy_policy(),
        topology=Topology.smart_home_tree(n_sensors=8),
        schema=INTEGRATED_SCHEMA,
    )
    processor.load_data(make_sensor_relation(400))

    packed, shipped, checkpoints, feedback = [], [], [], []
    real_pack = wire.pack_relation
    real_unpack = wire.unpack_relation
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

    for module in (wire, network_module, memo_module, tasks_module):
        monkeypatch.setattr(module, "pack_relation", pack)
    for module in (wire, network_module):
        monkeypatch.setattr(module, "unpack_relation", unpack)
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
    # + the finalize's output and step A's release, sent to the cloud
    assert len(packed) == len(checkpoints) + 2 == 13
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


#: Small simulated costs: their sleeps make a parallel run use the pool, so
#: the determinism tests interleave real pool threads.
POOL_COST = CostModel(seconds_per_row=1e-6)


@pytest.mark.concurrency
def test_parallel_runs_are_deterministic():
    processor = build_tree_processor(rows=300, cost_model=POOL_COST)
    reference = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
    assert reference.runtime.workers > 1
    for _ in range(5):
        again = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
        assert again.runtime.workers > 1
        assert again.result.rows == reference.result.rows
        assert again.result.schema.names == reference.result.schema.names
        names = [execution.fragment_name for execution in again.executions]
        assert names == [execution.fragment_name for execution in reference.executions]


@pytest.mark.concurrency
def test_parallel_runs_use_the_pool_only_where_a_task_can_wait():
    """Nothing in a plain parallel run can wait, so it runs on the calling
    thread; simulated costs, the process backend and an injector each bring
    back the scheduler's pool.  The result is the same either way."""
    plain = build_tree_processor(rows=300)
    result = plain.process(PAPER_SQL, "ActionFilter", execution="parallel", profile=True)
    assert result.runtime.workers == 1
    [run] = result.trace.by_kind("dag_run")
    assert run.attrs["workers"] == 1
    assert_matches_reference(plain, PAPER_SQL, "ActionFilter", result)

    injected = plain.process(
        PAPER_SQL, "ActionFilter", execution="parallel", faults=FailureInjector()
    )
    pooled = [injected]
    for options in ({"cost_model": POOL_COST}, {"workers": "processes"}):
        processor = build_tree_processor(rows=300, **options)
        pooled.append(processor.process(PAPER_SQL, "ActionFilter", execution="parallel"))
    for run in pooled:
        assert run.runtime.workers == plain.scheduler.max_workers > 1
    assert_matches_reference(plain, PAPER_SQL, "ActionFilter", *pooled)


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


def assert_catalogs_hold_only_placed_chunks(processor):
    """Every node's catalog holds exactly the base-table chunks the
    network placed there (and the sensor stream's ``stream`` alias)."""
    network = processor.network
    placed = {node.name: {} for node in processor.topology}
    for table in network.base_table_names():
        for holder, chunk, *_ in network.placement(table):
            if chunk is not None:
                placed[holder][table] = chunk
    for node in processor.topology:
        database = network.database(node.name)
        names = set(placed[node.name]) | ({"stream"} if "d" in placed[node.name] else set())
        assert set(database.table_names) == names, node.name
        for table, chunk in placed[node.name].items():
            assert database.table(table) is chunk, (node.name, table)


@pytest.mark.concurrency
def test_runs_register_nothing_on_the_nodes():
    """Chain and tree runs, a front-end batch and a run that fails with
    lost data leave every node's catalog as the network placed it."""
    chain = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    chain.load_data(make_sensor_relation(200))
    for sql in (PAPER_SQL, *RAW_WORKLOADS):
        chain.process(sql, "ActionFilter", apply_rewriting=False)
    assert_catalogs_hold_only_placed_chunks(chain)

    tree = build_tree_processor(rows=200)
    for sql in (PAPER_SQL, LIFTED_PAPER_SQL, *RAW_WORKLOADS):
        tree.process(sql, "ActionFilter", execution="parallel", apply_rewriting=False)
    assert_catalogs_hold_only_placed_chunks(tree)

    with SessionFrontEnd(tree, max_concurrent=3) as front_end:
        front_end.run_batch(
            [QueryRequest(sql, "ActionFilter") for sql in (PAPER_SQL, LIFTED_PAPER_SQL)] * 3
        )
    assert_catalogs_hold_only_placed_chunks(tree)

    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_3", lose_data=True)])
    with pytest.raises(DataLossError):
        tree.process(
            RAW_WORKLOADS[2],
            "ActionFilter",
            execution="parallel",
            apply_rewriting=False,
            faults=injector,
        )
    assert_catalogs_hold_only_placed_chunks(tree)


#: Staged texts whose intermediates share names (``d1``, ``d2``) but not
#: columns, so a run reading another run's intermediate fails or differs.
THREADED_SUBQUERY = "(SELECT x, y, z, t FROM d WHERE t < 100 OR t > 150)"
THREADED_TEXTS = [
    f"SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM {THREADED_SUBQUERY}",
    f"SELECT regr_slope(y, x) OVER (PARTITION BY z ORDER BY t) FROM {THREADED_SUBQUERY}",
    "SELECT x, t, ROW_NUMBER() OVER (ORDER BY t) AS rn FROM d",
    "SELECT DISTINCT x, y FROM d",
]


@pytest.mark.concurrency
@pytest.mark.parametrize(
    "topology",
    [Topology.default_chain, lambda: Topology.smart_home_tree(n_sensors=8)],
    ids=["chain", "tree8"],
)
def test_process_is_safe_from_plain_threads(topology):
    """Four plain threads call ``process`` with no front end, under a short
    switch interval: no call raises, and every result has the bytes the
    same text gives when run alone."""
    processor = ParadiseProcessor(figure4_policy(), topology=topology(), execution="parallel")
    processor.load_data(sensor_relation(random.Random(0), 1500))
    options = {"apply_rewriting": False, "anonymize": False}
    expected = [
        pack_relation(processor.process(sql, "ActionFilter", **options).result)
        for sql in THREADED_TEXTS
    ]
    outcomes = []

    def worker(offset: int) -> None:
        for call in range(24):
            index = (call + offset) % len(THREADED_TEXTS)
            try:
                result = processor.process(THREADED_TEXTS[index], "ActionFilter", **options)
                outcomes.append(pack_relation(result.result) == expected[index])
            except Exception as error:  # recorded, and asserted on below
                outcomes.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 4 * 24
    assert [outcome for outcome in outcomes if outcome is not True] == []


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
