"""Chaos differential tests for the fault-tolerant runtime (PR 6).

The contract under test extends the reference differential to injected
failures:

* every *recoverable* failure (a node crash whose data a sibling can
  re-read, a transient task error, a flaky link, a hung device caught by the
  deadline) yields a relation **byte-identical** (``pack_relation``) to the
  unfragmented reference of a healthy processor;
* every *unrecoverable* failure (a destroyed device whose chunk is gone)
  either aborts with :class:`~repro.runtime.faults.DataLossError` (the
  default policy) or, under ``on_data_loss="partial"``, returns a result
  whose :class:`~repro.runtime.faults.CompletenessReport` exactly
  enumerates the lost partitions;
* retries are idempotent: a re-run task recomputes its output from its
  inputs, so no state is ever double-counted;
* genuine query errors keep propagating identically in both execution
  modes (fault tolerance must not swallow them).
"""

from __future__ import annotations

import threading
import time

import pytest

from tests.conftest import make_sensor_relation
from tests.test_runtime import RAW_WORKLOADS, build_tree_processor

from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import scheduler as scheduler_module
from repro.runtime import (
    DataLossError,
    ExecutionContext,
    Fault,
    FailureInjector,
    QueryRequest,
    SessionFrontEnd,
    build_execution_dag,
)
from repro.runtime.dag import AnonymizeTask
from repro.runtime.faults import (
    DELAY_LINK,
    DROP_LINK,
    HANG,
    KILL_NODE,
    TASK_ERROR,
    CheckpointStore,
    EpochAbandoned,
    LinkDown,
    NodeDeath,
    RetryPolicy,
)

pytestmark = pytest.mark.chaos

ROWS = 160

#: All non-root nodes of the 8-sensor tree (the cloud cannot die).
VICTIMS = [f"sensor_{i}" for i in range(8)] + ["appliance_0", "appliance_1", "pc"]

#: One workload per DAG shape: distributive-only, partial aggregation,
#: ordering (global merge), window-over-subquery.
CHAOS_WORKLOADS = [
    RAW_WORKLOADS[0],
    RAW_WORKLOADS[2],
    RAW_WORKLOADS[3],
    RAW_WORKLOADS[4],
]


def reference_oracle(query: str):
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    return reference_result(processor, query, "fig4", apply_rewriting=False)


def run_with_faults(
    query: str, injector: FailureInjector, execution: str = "parallel", **options
):
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    return processor.process(
        query,
        "fig4",
        execution=execution,
        apply_rewriting=False,
        faults=injector,
        **options,
    )


def assert_same_relation(expected, actual):
    """Byte-identity: equal ``pack_relation`` payloads."""
    assert expected is not None and actual is not None
    assert pack_relation(actual) == pack_relation(expected)


# ---------------------------------------------------------------------------
# the kill grid: node k at task boundary t, over every DAG shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", CHAOS_WORKLOADS)
@pytest.mark.parametrize("victim", VICTIMS)
def test_kill_any_node_stays_byte_identical(query, victim):
    """A recoverable kill of any node leaves the result byte-identical."""
    oracle = reference_oracle(query)
    injector = FailureInjector([Fault(kind=KILL_NODE, node=victim)])
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.completeness is not None and result.completeness.complete
    if injector.fired:
        assert result.runtime.replans == 1
        assert result.completeness.dead_nodes == [victim]
    else:
        # The plan placed no task on the victim: its death is a no-op.
        assert result.runtime.replans == 0


@pytest.mark.parametrize("when", ["start", "finish"])
@pytest.mark.parametrize(
    "at_task,victim",
    [
        ("~partial[sensor_2]", "sensor_2"),
        ("~combine[appliance_0]", "appliance_0"),
        ("~combine[pc]", "pc"),
        ("~finalize", "appliance_0"),
    ],
)
def test_kill_at_specific_task_boundaries(at_task, victim, when):
    """Kills at every stage of the partial-aggregation protocol recover."""
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node=victim, at_task=at_task, when=when)]
    )
    result = run_with_faults(query, injector)
    assert injector.fired, f"fault for {at_task}@{when} never matched"
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans == 1


@pytest.mark.parametrize("n_failures", [1, 2])
def test_seeded_random_kills_recover(n_failures):
    """Seeded multi-kill runs recover and replay deterministically."""
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    for seed in (3, 11):
        first = run_with_faults(
            query,
            FailureInjector.random_node_kills(
                Topology.smart_home_tree(n_sensors=8), n_failures, seed=seed
            ),
        )
        second = run_with_faults(
            query,
            FailureInjector.random_node_kills(
                Topology.smart_home_tree(n_sensors=8), n_failures, seed=seed
            ),
        )
        assert_same_relation(oracle, first.result)
        assert_same_relation(oracle, second.result)
        # Reproducible: the same seed kills the same nodes.
        assert first.completeness.dead_nodes == second.completeness.dead_nodes


def test_simultaneous_deaths_escalate_in_build_order():
    """Seed 11 kills ``sensor_7`` (a leaf partial) and ``appliance_0`` (a
    combine) in the same first attempt.  Which failure finishes first is
    thread timing; the scheduler escalates the one earlier in build order,
    so every run records the deaths in one order."""
    query = RAW_WORKLOADS[2]
    orders = set()
    for _ in range(20):
        result = run_with_faults(
            query,
            FailureInjector.random_node_kills(
                Topology.smart_home_tree(n_sensors=8), 2, seed=11
            ),
        )
        orders.add(tuple(result.completeness.dead_nodes))
    assert orders == {("sensor_7", "appliance_0")}


# ---------------------------------------------------------------------------
# transient faults: retries, link failures, hangs
# ---------------------------------------------------------------------------


def test_transient_error_retries_in_place():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector([Fault(kind=TASK_ERROR, node="sensor_1", times=2)])
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.retried_attempts == 2
    assert result.runtime.replans == 0


def test_exhausted_retries_escalate_to_replan():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector([Fault(kind=TASK_ERROR, node="sensor_1", times=99)])
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans == 1
    assert result.completeness.dead_nodes == ["sensor_1"]
    # Checkpoints made the re-plan replay only lost work.
    assert result.runtime.restored_tasks > 0


def test_link_drop_retries_then_succeeds():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=DROP_LINK, node="sensor_2", target="appliance_0", times=2)]
    )
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.retried_attempts == 2
    assert result.runtime.replans == 0


def test_permanently_down_link_replans():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=DROP_LINK, node="sensor_2", target="appliance_0", times=999)]
    )
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans >= 1


def test_link_delay_changes_nothing_but_time():
    query = RAW_WORKLOADS[0]
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=DELAY_LINK, node="sensor_0", delay_seconds=0.02, times=3)]
    )
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans == 0


def test_hung_node_detected_by_deadline():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=HANG, node="sensor_4", delay_seconds=1.2)]
    )
    result = run_with_faults(query, injector, task_timeout=0.25)
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans == 1
    assert result.completeness.dead_nodes == ["sensor_4"]


class _SkewedClock:
    """The scheduler's ``time`` module, with a monotonic clock a task can
    jump forward: a task "finishes past its deadline" without a sleep."""

    def __init__(self) -> None:
        self.skew = 0.0

    def monotonic(self) -> float:
        return time.monotonic() + self.skew

    def __getattr__(self, name):
        return getattr(time, name)


@pytest.mark.parametrize(
    "execution,task_timeout,skew",
    [("parallel", 1.0, 5.0), ("serial", None, 100.0)],
)
def test_slow_but_finished_task_is_not_declared_hung(
    monkeypatch, execution, task_timeout, skew
):
    """A parallel task that returns after its deadline but before the
    scheduler's poll notices is kept, and a serial run checks no deadline
    the caller did not ask for (the 30 s default is for pool workers)."""
    clock = _SkewedClock()
    monkeypatch.setattr(scheduler_module, "time", clock)
    anonymize = AnonymizeTask.execute

    def slow_anonymize(self, context):
        output = anonymize(self, context)
        clock.skew += skew  # nothing else is in flight while A runs
        return output

    monkeypatch.setattr(AnonymizeTask, "execute", slow_anonymize)
    query = RAW_WORKLOADS[2]
    result = run_with_faults(
        query, FailureInjector([]), execution=execution, task_timeout=task_timeout
    )
    assert clock.skew == skew
    assert result.runtime.replans == 0
    assert result.completeness.dead_nodes == []
    assert_same_relation(reference_oracle(query), result.result)


@pytest.mark.parametrize(
    "kind,node,options",
    [
        (KILL_NODE, "appliance_1", {}),
        (TASK_ERROR, "sensor_2", {}),
        (HANG, "sensor_4", {"task_timeout": 0.25}),
    ],
)
def test_one_slot_execution_recovers_like_parallel(kind, node, options):
    """``execution="serial"`` is the same scheduler with one worker, so
    kills, transient errors and hangs recover there too."""
    query = RAW_WORKLOADS[2]
    injector = FailureInjector([Fault(kind=kind, node=node, delay_seconds=1.2)])
    result = run_with_faults(query, injector, execution="serial", **options)
    assert injector.fired
    assert_same_relation(reference_oracle(query), result.result)


def test_abandoned_attempt_starts_no_engine_work(monkeypatch):
    """After a hang recovery the hung worker wakes into a given-up attempt:
    it is refused at ``engine_call`` and never reaches the engine."""
    engine_calls = []
    refused = threading.Event()
    for name in ("query", "partial_aggregate", "combine_partials", "finalize_partials"):
        original = getattr(Database, name)

        def recording(self, *args, _original=original):
            engine_calls.append(time.monotonic())
            return _original(self, *args)

        monkeypatch.setattr(Database, name, recording)
    engine_call = ExecutionContext.engine_call

    def watched(self, fn, *args):
        try:
            return engine_call(self, fn, *args)
        except EpochAbandoned:
            refused.set()
            raise

    monkeypatch.setattr(ExecutionContext, "engine_call", watched)

    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    injector = FailureInjector([Fault(kind=HANG, node="sensor_4", delay_seconds=0.6)])
    result = run_with_faults(query, injector, task_timeout=0.2)
    recovered_at = time.monotonic()
    assert_same_relation(oracle, result.result)
    assert result.runtime.replans == 1

    assert refused.wait(timeout=10.0), "the hung worker never woke"
    assert [at for at in engine_calls if at > recovered_at] == []


# ---------------------------------------------------------------------------
# unrecoverable loss: policy + completeness report
# ---------------------------------------------------------------------------


def test_data_loss_fails_by_default():
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node="sensor_3", lose_data=True)]
    )
    with pytest.raises(DataLossError) as excinfo:
        run_with_faults(RAW_WORKLOADS[2], injector)
    (partition,) = excinfo.value.lost
    assert partition.node == "sensor_3"
    assert partition.table == "d"
    assert partition.rows == ROWS // 8


@pytest.mark.parametrize("query", CHAOS_WORKLOADS)
def test_data_loss_partial_policy_reports_exactly(query):
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node="sensor_3", lose_data=True)]
    )
    result = run_with_faults(query, injector, on_data_loss="partial")
    report = result.completeness
    assert report is not None and not report.complete
    assert report.leaves_lost == ["sensor_3"]
    assert report.rows_lost == ROWS // 8
    assert [p.index for p in report.lost_partitions] == [3]
    assert not report.aggregates_exact
    assert "PARTIAL" in report.summary()
    assert "sensor_3" in report.summary()
    # The degraded result covers only surviving chunks: same schema, never
    # more rows than the healthy run.
    oracle = reference_oracle(query)
    assert result.result.schema.names == oracle.schema.names
    assert len(result.result) <= len(oracle)


def test_processor_level_partial_default():
    """``allow_partial_results=True`` makes degradation the default policy."""
    topology = Topology.smart_home_tree(n_sensors=8)
    from repro.policy.presets import figure4_policy
    from repro.processor.paradise import ParadiseProcessor
    from tests.conftest import make_sensor_relation

    processor = ParadiseProcessor(
        figure4_policy(), topology=topology, allow_partial_results=True
    )
    processor.load_data(make_sensor_relation(ROWS))
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node="sensor_0", lose_data=True)]
    )
    result = processor.process(
        RAW_WORKLOADS[0],
        "fig4",
        execution="parallel",
        apply_rewriting=False,
        faults=injector,
    )
    assert not result.completeness.complete
    assert result.completeness.leaves_lost == ["sensor_0"]


# ---------------------------------------------------------------------------
# retry idempotence and checkpoint exactness
# ---------------------------------------------------------------------------


def test_retry_does_not_double_count_states():
    """A retried partial-aggregation task must not inflate counts.

    The injected error fires *after* several retries on the same leaf; if a
    retry accumulated into shared state instead of recomputing, COUNT/AVG
    would drift — byte-identity to the oracle proves it did not.
    """
    query = "SELECT x, COUNT(*) AS n, SUM(z) AS s FROM d GROUP BY x"
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [Fault(kind=TASK_ERROR, node="sensor_6", at_task="~partial", times=2)]
    )
    result = run_with_faults(query, injector)
    assert_same_relation(oracle, result.result)
    assert result.runtime.retried_attempts == 2


def test_checkpoint_restore_is_exact():
    """A kill mid-protocol restores sibling states from checkpoints, and the
    restored run is still byte-identical (checkpoints round-trip bit for
    bit through the wire codec)."""
    query = (
        "SELECT x, AVG(z) AS za, STDDEV(z) AS zs, COUNT(*) AS n "
        "FROM d GROUP BY x"
    )
    oracle = reference_oracle(query)
    injector = FailureInjector(
        [
            Fault(
                kind=KILL_NODE,
                node="appliance_1",
                at_task="~combine[appliance_1]",
                when="start",
            )
        ]
    )
    result = run_with_faults(query, injector)
    assert injector.fired
    assert result.runtime.replans == 1
    assert_same_relation(oracle, result.result)
    assert result.runtime.checkpoints_saved > 0
    assert result.runtime.restored_tasks > 0
    assert result.runtime.checkpoint_bytes > 0


def test_checkpoint_store_skips_unpackable_relations():
    store = CheckpointStore()
    from repro.engine.table import Relation

    packable = Relation.from_rows(
        [{"x": 1, "s": (2, 3.5, True)}, {"x": 2, "s": (4, 0.5, False)}], name="ok"
    )
    assert store.save("sig-a", packable)
    restored = store.restore("sig-a")
    assert restored.rows == packable.rows
    assert restored.schema.names == packable.schema.names

    unpackable = Relation.from_rows([{"x": object()}], name="bad")
    assert not store.save("sig-b", unpackable)
    assert store.restore("sig-b") is None
    assert store.skipped == 1


# ---------------------------------------------------------------------------
# resident inputs: base chunks read where they live
# ---------------------------------------------------------------------------

JOIN_SQL = "SELECT a.x, b.y FROM d a JOIN d b ON a.t = b.t WHERE a.z < 1.0"


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_kill_holder_of_a_joined_chunk_recovers(execution):
    """The join's merge reads every sensor's chunk where it lives, so a
    sensor that runs no task of its own still dies as its chunk is read;
    the chunk is re-placed on a sibling and the re-planned merge reads it
    there."""
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    oracle = reference_result(
        processor, JOIN_SQL, "fig4", apply_rewriting=False, anonymize=False
    )
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_3")])
    result = run_with_faults(JOIN_SQL, injector, execution=execution, anonymize=False)
    assert injector.fired
    assert result.runtime.replans == 1
    assert result.completeness.complete
    assert result.completeness.dead_nodes == ["sensor_3"]
    assert len(oracle) > 0
    assert_same_relation(oracle, result.result)


@pytest.mark.parametrize(
    "topology,holder",
    [
        (lambda: Topology.smart_home_tree(n_sensors=8), "sensor_3"),
        (Topology.default_chain, "sensor"),
    ],
    ids=["tree8_merge", "chain_hop"],
)
def test_resident_chunk_epochs_reach_downstream_signatures(topology, holder):
    """Re-placing a chunk (here: an append bumping its placement epoch)
    changes the signature of every task that reads it where it lives and
    of everything downstream — also when the reader sits on another node
    (a merge of resident chunks, a single hop off the holder)."""
    processor = ParadiseProcessor(figure4_policy(), topology=topology())
    processor.load_data(make_sensor_relation(ROWS))
    prepared = processor.prepare(JOIN_SQL, "fig4", apply_rewriting=False)
    plan = processor.fragmenter.fragment(prepared.query)

    def signatures():
        dag = build_execution_dag(plan, processor.topology, processor.network)
        return {task.task_id: task.signature for task in dag.tasks}

    before = signatures()
    processor.network.append_to_partition(holder, "d", make_sensor_relation(0))
    after = signatures()
    assert before.keys() == after.keys()
    assert all(before[task_id] != after[task_id] for task_id in before)


# ---------------------------------------------------------------------------
# error parity and hygiene under failure
# ---------------------------------------------------------------------------


def test_genuine_errors_still_propagate_identically():
    """Fault tolerance must not retry or swallow real query errors."""
    bad_query = "SELECT no_such_column FROM d WHERE z < 1.0"
    serial_processor = build_tree_processor(n_sensors=8, rows=ROWS)
    parallel_processor = build_tree_processor(n_sensors=8, rows=ROWS)
    with pytest.raises(ExecutionError) as serial_error:
        serial_processor.process(
            bad_query, "fig4", execution="serial", apply_rewriting=False
        )
    with pytest.raises(ExecutionError) as parallel_error:
        parallel_processor.process(
            bad_query, "fig4", execution="parallel", apply_rewriting=False
        )
    assert str(serial_error.value) == str(parallel_error.value)


def test_failed_run_leaves_no_namespaced_intermediates():
    """Satellite: failure hygiene — a lost session leaks no intermediates."""
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node="sensor_3", lose_data=True)]
    )
    with pytest.raises(DataLossError):
        processor.process(
            RAW_WORKLOADS[2],
            "fig4",
            execution="parallel",
            apply_rewriting=False,
            namespace="chaos1",
            faults=injector,
        )
    for node in processor.topology:
        for table in processor.network.database(node.name).table_names:
            assert not table.endswith("__chaos1"), (node.name, table)


def test_recovered_session_then_healthy_sessions_share_topology():
    """After one session loses a node, later sessions on the same processor
    keep working on the degraded topology (and stay byte-identical)."""
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query)
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_2")])
    first = processor.process(
        query, "fig4", execution="parallel", apply_rewriting=False, faults=injector
    )
    assert_same_relation(oracle, first.result)
    assert processor.topology.dead_nodes == ["sensor_2"]
    # A fresh healthy run on the degraded environment: sensor_2's chunk now
    # lives with a sibling, so the result is still complete and identical.
    second = processor.process(
        query, "fig4", execution="parallel", apply_rewriting=False
    )
    assert_same_relation(oracle, second.result)
    assert second.runtime.replans == 0


def test_session_front_end_surfaces_partial_and_errors():
    """Graceful degradation through the concurrent front-end."""
    processor = build_tree_processor(n_sensors=8, rows=ROWS)
    requests = [
        QueryRequest(query=RAW_WORKLOADS[0], module_id="fig4",
                     options={"apply_rewriting": False}),
        QueryRequest(
            query=RAW_WORKLOADS[2],
            module_id="fig4",
            options={
                "apply_rewriting": False,
                "faults": FailureInjector(
                    [Fault(kind=KILL_NODE, node="sensor_1", lose_data=True)]
                ),
                "on_data_loss": "partial",
            },
        ),
        QueryRequest(
            query=RAW_WORKLOADS[0],
            module_id="fig4",
            options={
                "apply_rewriting": False,
                "faults": FailureInjector(
                    [Fault(kind=KILL_NODE, node="sensor_4", lose_data=True)]
                ),
                "on_data_loss": "fail",
            },
        ),
    ]
    with SessionFrontEnd(processor, max_concurrent=1) as front_end:
        outcomes = front_end.run_batch(requests, return_exceptions=True)
    assert outcomes[0].completeness.complete
    assert not outcomes[1].completeness.complete
    assert outcomes[1].completeness.leaves_lost == ["sensor_1"]
    assert isinstance(outcomes[2], DataLossError)


# ---------------------------------------------------------------------------
# unit coverage for the building blocks
# ---------------------------------------------------------------------------


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(kind="explode")
    with pytest.raises(ValueError):
        Fault(kind=KILL_NODE, when="midway")
    with pytest.raises(ValueError):
        Fault(kind=KILL_NODE, times=0)


def test_retry_policy_backoff_grows():
    policy = RetryPolicy(max_attempts=4, backoff_seconds=0.01, backoff_multiplier=2.0)
    assert policy.delay(1) == pytest.approx(0.01)
    assert policy.delay(2) == pytest.approx(0.02)
    assert policy.delay(3) == pytest.approx(0.04)
    assert RetryPolicy(backoff_seconds=0.0).delay(5) == 0.0


def test_topology_liveness_and_pruning():
    topology = Topology.smart_home_tree(n_sensors=8)
    with pytest.raises(ValueError):
        topology.mark_dead("cloud")
    topology.mark_dead("appliance_0")
    assert not topology.is_alive("appliance_0")
    assert topology.dead_nodes == ["appliance_0"]
    assert topology.nearest_live_ancestor("sensor_0").name == "pc"
    pruned = topology.without(["appliance_0"])
    assert "appliance_0" not in [node.name for node in pruned.nodes]
    # Orphaned sensors re-parent to the dead appliance's parent.
    assert pruned.parent_of("sensor_0").name == "pc"
    # Surviving order (the partition/merge order) is preserved.
    survivors = [node.name for node in pruned.nodes]
    originals = [node.name for node in topology.nodes if node.name != "appliance_0"]
    assert survivors == originals
    topology.revive_all()
    assert topology.is_alive("appliance_0")


def test_injector_link_faults_raise_and_delay():
    injector = FailureInjector(
        [
            Fault(kind=DROP_LINK, node="a", target="b"),
            Fault(kind=DELAY_LINK, node="a", target="c", delay_seconds=0.5),
        ]
    )
    with pytest.raises(LinkDown):
        injector.on_ship("a", "b")
    assert injector.on_ship("a", "b") == 0.0  # consumed
    assert injector.on_ship("a", "c") == pytest.approx(0.5)
    assert injector.on_ship("x", "y") == 0.0


def test_injector_node_death_is_sticky():
    class FakeTask:
        task_id = "t001:frag[n1]"
        node = "n1"

    injector = FailureInjector([Fault(kind=KILL_NODE, node="n1")])
    with pytest.raises(NodeDeath):
        injector.before_task(FakeTask())
    # Sticky: the dead node keeps dying even though the fault is consumed.
    with pytest.raises(NodeDeath):
        injector.before_task(FakeTask())
