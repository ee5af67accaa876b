"""Built execution DAGs kept across runs, and dead nodes that stay dead.

A run takes its DAG from the plan's memo while every input of
``build_execution_dag`` is unchanged
(:func:`repro.runtime.dag.cached_execution_dag`).  These tests pin that
each input, when it changes, rebuilds the DAG, and that a kept DAG lists
exactly the tasks a fresh build lists.  They also pin the live view: once
a node died, no later run of any text places work on it.
"""

from __future__ import annotations

import sys

import pytest

from tests.test_runtime import build_tree_processor
from tests.test_zone_maps import SENSOR_MUTATIONS

from repro.anonymize.anonymizer import Anonymizer
from repro.engine import EngineConfig
from repro.engine.wire import pack_relation, state_size_feedback
from repro.obs.metrics import delta, registry
from repro.policy.model import AttributeRule
from repro.processor.reference import reference_result
from repro.runtime import CostModel, SessionFrontEnd
from repro.runtime.dag import build_execution_dag, replan_without
from repro.runtime.faults import KILL_NODE, Fault, FailureInjector

SQL = "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY x"
NEW_SQL = "SELECT y, COUNT(*) AS n, MAX(t) AS hi FROM d WHERE z < 2.5 GROUP BY y"
OPTIONS = {"apply_rewriting": False}


def _run(processor, sql=SQL, module="fig4", **options):
    """One profiled run: its result, ``"hit"``/``"miss"`` and the listing
    of the tasks it ran (id, node, deps, signature) in build order."""
    options = {**OPTIONS, **options} if module == "fig4" else options
    run = processor.process(sql, module, profile=True, **options)
    [dag_run] = run.trace.by_kind("dag_run")
    spans = sorted(run.trace.by_kind("task"), key=lambda span: span.attrs["order"])
    listing = [
        (span.name, span.node, tuple(span.attrs["deps"]), span.attrs["signature"])
        for span in spans
    ]
    return run, dag_run.attrs["dag"], listing


def _fresh(processor, run, anonymize=True):
    """The listing a fresh build over the live view gives ``run``'s plan."""
    plan, topology = run.plan, processor.topology
    dead = processor.topology.dead_nodes
    if dead:
        plan, topology = replan_without(plan, processor.topology, dead)
    dag = build_execution_dag(
        plan,
        topology,
        processor.network,
        anonymizer=processor.anonymizer if anonymize else None,
        partial_aggregation=processor.partial_aggregation,
        config=processor.engine,
    )
    return [(task.task_id, task.node, tuple(task.deps), task.signature) for task in dag.tasks]


def _expected(processor, sql=SQL, module="fig4", **options):
    options = {**OPTIONS, **options} if module == "fig4" else options
    return pack_relation(reference_result(processor, sql, module, **options))


# ---------------------------------------------------------------------------
# what rebuilds the DAG
# ---------------------------------------------------------------------------


def _sensor(mutation):
    def mutate(processor):
        SENSOR_MUTATIONS[mutation](processor.network, "sensor_5")
        return {}

    return mutate


def _fail_node(lose_data):
    def mutate(processor):
        processor.network.fail_node("sensor_5", lose_data=lose_data)
        return {}

    return mutate


def _engine_config(processor):
    processor.engine = EngineConfig(vectorized=False)
    return {}


MUTATIONS = {
    **{name: _sensor(name) for name in SENSOR_MUTATIONS},
    "fail_node": _fail_node(False),
    "fail_node_lose_data": _fail_node(True),
    "engine_config": _engine_config,
    "anonymize": lambda processor: {"anonymize": False},
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_input_change_rebuilds(mutation):
    """A repeat keeps its DAG; after the change the next run builds one,
    the run after keeps it, both list what a fresh build lists, and both
    equal the reference over the data as it is now."""
    processor = build_tree_processor(rows=400)
    run, outcome, listing = _run(processor)
    assert outcome == "miss" and listing == _fresh(processor, run)
    assert _run(processor)[1:] == ("hit", listing)
    options = MUTATIONS[mutation](processor)
    fresh_options = {key: value for key, value in options.items() if key == "anonymize"}
    expected = _expected(processor, **options)
    for want in ("miss", "hit"):
        run, outcome, listing = _run(processor, **options)
        assert outcome == want
        assert listing == _fresh(processor, run, **fresh_options)
        assert pack_relation(run.result) == expected


def test_the_probe_counts_hits_and_misses():
    processor = build_tree_processor(rows=200)
    before = registry.snapshot(prefix="runtime.dag_cache")
    for _ in range(3):
        processor.process(SQL, "fig4", **OPTIONS)
    diff = delta(before, registry.snapshot(prefix="runtime.dag_cache"))
    assert (diff["runtime.dag_cache.misses"], diff["runtime.dag_cache.hits"]) == (1, 2)


def test_a_policy_edit_rebuilds():
    processor = build_tree_processor(rows=400)
    sql = "SELECT x, y, t FROM d WHERE z < 1.5"
    assert _run(processor, sql, "ActionFilter")[1] == "miss"
    assert _run(processor, sql, "ActionFilter")[1] == "hit"
    module = processor.policy.module("ActionFilter")
    module.add_rule(AttributeRule("y", allow=True, conditions=["y > 0.5"]))
    run, outcome, listing = _run(processor, sql, "ActionFilter")
    assert outcome == "miss" and listing == _fresh(processor, run)
    assert pack_relation(run.result) == _expected(processor, sql, "ActionFilter")


def test_state_size_feedback_the_placement_read_is_part_of_the_key():
    """A GROUP BY whose keys are nearly unique asks the optimizer's byte
    rule, which reads the process-wide state-size feedback: a DAG built on
    one reading is not kept past another."""
    processor = build_tree_processor(rows=400)
    sql = "SELECT t, COUNT(*) AS n FROM d GROUP BY t"
    state_size_feedback.reset()
    try:
        first = _run(processor, sql)
        assert first[1] == "miss"
        # The byte rule chose the global merge: no partial state fed back.
        assert not any("~partial[" in task_id for task_id, *_ in first[2])
        assert _run(processor, sql)[1] == "hit"
        state_size_feedback.record(10, 10_000, cells=20)
        run, outcome, listing = _run(processor, sql)
        assert outcome == "miss" and listing == _fresh(processor, run)
        assert pack_relation(run.result) == _expected(processor, sql)
    finally:
        state_size_feedback.reset()


# ---------------------------------------------------------------------------
# dead nodes stay dead
# ---------------------------------------------------------------------------


def _kill(processor, node="appliance_0"):
    injector = FailureInjector([Fault(kind=KILL_NODE, node=node)])
    killed = processor.process(SQL, "fig4", faults=injector, **OPTIONS)
    assert injector.fired and killed.runtime.replans == 1
    assert pack_relation(killed.result) == _expected(processor)
    return killed


@pytest.mark.parametrize("dead", ["appliance_0", "appliance_1"])
def test_no_later_run_places_work_on_a_dead_node(dead):
    """After a kill, runs of the text that saw it and of a new one (plus
    their explain) place nothing on the dead node: no execution record,
    no kept combine, no listed task; each equals the reference."""
    processor = build_tree_processor(rows=400)
    processor.process(SQL, "fig4", **OPTIONS)
    _kill(processor, dead)
    assert processor.topology.dead_nodes == [dead]
    assert processor.network.kept_outputs(dead) == {}
    for sql in (SQL, NEW_SQL, SQL, NEW_SQL):
        run, _, listing = _run(processor, sql)
        assert pack_relation(run.result) == _expected(processor, sql)
        assert dead not in {record.node for record in run.executions}
        assert dead not in {node for _, node, _, _ in listing}
        assert processor.network.kept_outputs(dead) == {}
        assert f"@ {dead}" not in processor.explain(sql, "fig4", **OPTIONS)
    # The live view is kept per dead set: repeats keep their DAG.
    assert _run(processor)[1] == "hit"
    assert _run(processor, NEW_SQL)[1] == "hit"


def test_step_a_follows_the_live_nodes():
    """Step A needs more power than an appliance has: while the PC lives
    it anonymizes, once the PC is dead every later run defers it, and the
    reference's power rule, which reads live nodes only, agrees."""
    processor = build_tree_processor(rows=400)
    processor.anonymizer = Anonymizer(k=5, minimum_cpu_power=5.0)
    sql = "SELECT x, y, z FROM d WHERE z < 1.5"
    healthy = processor.process(sql, "fig4", **OPTIONS)
    assert healthy.anonymization.applied
    injector = FailureInjector([Fault(kind=KILL_NODE, node="pc")])
    killed = processor.process(sql, "fig4", faults=injector, **OPTIONS)
    assert injector.fired and processor.topology.dead_nodes == ["pc"]
    for run in (killed, processor.process(sql, "fig4", **OPTIONS)):
        assert not run.anonymization.applied
        assert pack_relation(run.result) == _expected(processor, sql)
    assert pack_relation(healthy.result) != _expected(processor, sql)


@pytest.mark.parametrize("node", ["appliance_0", "sensor_2"])
def test_revive_all_returns_to_the_whole_topology(node):
    """The re-plan's DAG over the live view is kept for the next runs;
    after ``revive_all`` a run lists what a fresh build over the whole
    topology lists.  A dead appliance held no data, so the DAG built before
    the death is valid again; a dead sensor's chunk moved, so it rebuilds."""
    processor = build_tree_processor(rows=400)
    healthy = _run(processor)[2]
    _kill(processor, node)
    run, outcome, listing = _run(processor)
    assert outcome == "hit" and node not in {name for _, name, _, _ in listing}
    processor.topology.revive_all()
    run, outcome, listing = _run(processor)
    assert listing == _fresh(processor, run)
    assert "appliance_0" in {name for _, name, _, _ in listing}
    if node == "appliance_0":
        assert (outcome, listing) == ("hit", healthy)
    else:
        assert outcome == "miss"
    assert pack_relation(run.result) == _expected(processor)
    assert _run(processor)[1:] == ("hit", listing)


# ---------------------------------------------------------------------------
# sessions share what was built
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_sessions_share_the_kept_dags():
    """Four sessions at a time, more than the host's cores, each run on a
    pool of its own (a non-free cost model) with a short switch interval:
    every run keeps the DAG the first submission built, no count is lost,
    and all return the reference's bytes."""
    processor = build_tree_processor(
        rows=800, execution="parallel", cost_model=CostModel(seconds_per_row=1e-6)
    )
    expected = _expected(processor)
    # Sessions racing on a cold plan cache would each plan the text, and a
    # DAG is kept per plan: the first submission plans it alone.
    processor.process(SQL, "fig4", **OPTIONS)
    submissions = 24
    before = registry.snapshot(prefix="runtime.dag_cache")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    frontend = SessionFrontEnd(processor, max_concurrent=4)
    try:
        futures = [frontend.submit(SQL, "fig4", **OPTIONS) for _ in range(submissions)]
        results = [future.result(timeout=120) for future in futures]
    finally:
        frontend.close()
        sys.setswitchinterval(interval)
    diff = delta(before, registry.snapshot(prefix="runtime.dag_cache"))
    assert diff.get("runtime.dag_cache.misses", 0) == 0
    assert diff.get("runtime.dag_cache.hits", 0) == submissions
    assert all(result.runtime.workers > 1 for result in results)
    assert {pack_relation(result.result) for result in results} == {expected}


@pytest.mark.concurrency
def test_sessions_racing_on_a_cold_plan_cache_share_one_plan():
    """The same burst with no submission ahead of it: sessions that plan
    the text at once all run the first plan stored, so they share its
    DAG: at most the four that start together build one."""
    processor = build_tree_processor(
        rows=800, execution="parallel", cost_model=CostModel(seconds_per_row=1e-6)
    )
    expected = _expected(processor)
    submissions = 24
    before = registry.snapshot(prefix="runtime.dag_cache")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    frontend = SessionFrontEnd(processor, max_concurrent=4)
    try:
        futures = [frontend.submit(SQL, "fig4", **OPTIONS) for _ in range(submissions)]
        results = [future.result(timeout=120) for future in futures]
    finally:
        frontend.close()
        sys.setswitchinterval(interval)
    diff = delta(before, registry.snapshot(prefix="runtime.dag_cache"))
    misses = diff.get("runtime.dag_cache.misses", 0)
    assert 1 <= misses <= 4
    assert diff.get("runtime.dag_cache.hits", 0) == submissions - misses
    assert len({id(result.plan) for result in results}) == 1
    assert {pack_relation(result.result) for result in results} == {expected}
