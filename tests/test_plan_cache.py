"""The prepared-plan cache and the executors that outlive re-registration.

A repeated query text reuses its parse, rewrite and fragment plan, and the
DAG builder hands the engine the same derived queries on every run, so the
per-node executors (kept per config and per shape of the tables a query
reads) stay warm.  These tests pin what must still change between runs:
admission, policy edits and node deaths.
"""

from __future__ import annotations

import random
import sys

import pytest

from benchmarks.e2e.workloads import FRONTEND_TEMPLATES, occupancy_policy, sensor_relation
from tests.test_runtime import build_tree_processor

from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import delta, registry
from repro.policy.builder import PolicyBuilder
from repro.policy.model import AttributeRule
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import SessionFrontEnd, build_execution_dag
from repro.runtime.faults import KILL_NODE, Fault, FailureInjector
from repro.sensors.scenario import INTEGRATED_SCHEMA

GROUPED_SQL = "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY x"


def executor_builds(processor) -> int:
    return sum(
        processor.network.database(node.name).executor_builds
        for node in processor.topology
    )


def test_repeated_text_reuses_plan_and_derived_queries():
    processor = build_tree_processor(rows=200, execution="parallel")
    before = registry.snapshot(prefix="processor.plan_cache")
    first = processor.process(GROUPED_SQL, "fig4", apply_rewriting=False)
    builds = executor_builds(processor)
    second = processor.process(GROUPED_SQL, "fig4", apply_rewriting=False)
    diff = delta(before, registry.snapshot(prefix="processor.plan_cache"))
    assert diff["processor.plan_cache.misses"] == 1
    assert diff["processor.plan_cache.hits"] == 1
    assert second.plan is first.plan
    # The builder took every derived query from the plan's memo: the
    # engine saw the same AST objects, so no executor was built.
    assert executor_builds(processor) == builds
    assert pack_relation(second.result) == pack_relation(first.result)
    assert [e.sql for e in second.executions] == [e.sql for e in first.executions]
    dags = [
        build_execution_dag(
            first.plan,
            processor.topology,
            processor.network,
            anonymizer=processor.anonymizer,
            partial_aggregation=processor.partial_aggregation,
            config=processor.engine,
        )
        for _ in range(2)
    ]
    queries = [[getattr(task, "query", None) for task in dag.tasks] for dag in dags]
    assert any(query is not None for query in queries[0])
    assert all(a is b for a, b in zip(*queries))
    # Other options are other keys.
    third = processor.process(
        GROUPED_SQL, "fig4", apply_rewriting=False, pushdown=False, anonymize=False
    )
    assert third.plan is not first.plan


def test_rule_added_after_a_cached_run_is_honoured():
    processor = build_tree_processor(rows=200)
    sql = "SELECT x, y, t FROM d WHERE z < 1.5"
    first = processor.process(sql, "ActionFilter")
    assert first.admitted
    module = processor.policy.module("ActionFilter")
    module.add_rule(AttributeRule("y", allow=True, conditions=["y > 0.5"]))
    second = processor.process(sql, "ActionFilter")
    assert second.plan is not first.plan
    assert "y > 0.5" in second.rewrite.sql
    expected = reference_result(processor, sql, "ActionFilter")
    assert pack_relation(second.result) == pack_relation(expected)
    assert pack_relation(second.result) != pack_relation(first.result)
    # An in-place edit of an existing rule is a new key as well.
    module.rule_for("y").conditions.append("y < 3.5")
    third = processor.process(sql, "ActionFilter")
    assert third.plan is not second.plan and "y < 3.5" in third.rewrite.sql


def test_node_death_keeps_the_plan_and_each_run_remaps_it():
    """The dead nodes are no part of the plan key: after a death the next
    submission hits the text's plan, and its run re-maps it around the
    dead node."""
    processor = build_tree_processor(rows=200, execution="parallel")
    healthy = processor.process(GROUPED_SQL, "fig4", apply_rewriting=False)
    killed = processor.process(
        GROUPED_SQL,
        "fig4",
        apply_rewriting=False,
        faults=FailureInjector([Fault(kind=KILL_NODE, node="appliance_0")]),
    )
    assert killed.runtime.replans == 1
    assert processor.topology.dead_nodes == ["appliance_0"]
    before = registry.snapshot(prefix="processor.plan_cache")
    after = processor.process(GROUPED_SQL, "fig4", apply_rewriting=False)
    diff = delta(before, registry.snapshot(prefix="processor.plan_cache"))
    assert (diff["processor.plan_cache.hits"], diff["processor.plan_cache.misses"]) == (1, 0)
    assert after.plan is healthy.plan
    assert all(execution.node != "appliance_0" for execution in after.executions)
    expected = pack_relation(
        reference_result(processor, GROUPED_SQL, "fig4", apply_rewriting=False)
    )
    assert pack_relation(killed.result) == expected
    assert pack_relation(after.result) == expected
    assert processor.process(GROUPED_SQL, "fig4", apply_rewriting=False).plan is after.plan


def test_query_interval_refuses_a_cache_hit():
    policy = PolicyBuilder().module("M").allow("x").allow("t").query_interval(3600).build()
    processor = ParadiseProcessor(
        policy, topology=Topology.smart_home_tree(n_sensors=4), enforce_query_interval=True
    )
    processor.load_data(sensor_relation(random.Random(3), 120))
    sql = "SELECT x, t FROM d WHERE x > 1"
    before = registry.snapshot(prefix="processor.plan_cache")
    first = processor.process(sql, "M")
    second = processor.process(sql, "M")
    diff = delta(before, registry.snapshot(prefix="processor.plan_cache"))
    assert first.admitted
    assert diff["processor.plan_cache.hits"] == 1
    assert not second.admitted and second.result is None
    assert any("interval" in reason for reason in second.admission.reasons)
    processor.analyzer.reset_interval("M")
    third = processor.process(sql, "M")
    assert third.admitted and third.plan is first.plan


def test_profiled_runs_write_nothing_into_the_shared_plan():
    processor = build_tree_processor(rows=200, execution="parallel")
    sql = "SELECT x, y, z FROM d WHERE x > y AND z < 1.8"
    first = processor.process(sql, "fig4", apply_rewriting=False)
    plan = first.plan
    fragments = [dict(vars(fragment)) for fragment in plan.fragments]
    derived = dict(plan.derived)
    rendered = plan.pretty()
    for _ in range(2):
        profiled = processor.process(sql, "fig4", apply_rewriting=False, profile=True)
        assert profiled.plan is plan and profiled.profile is not None
    assert [dict(vars(fragment)) for fragment in plan.fragments] == fragments
    assert dict(plan.derived) == derived
    assert plan.pretty() == rendered
    # explain() renders its estimates without storing them on any plan.
    assert "(est. " in processor.explain(sql, "fig4", apply_rewriting=False)
    assert plan.pretty() == rendered


def frontend_processor(rows: int) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        occupancy_policy(),
        topology=Topology.smart_home_tree(n_sensors=8),
        schema=INTEGRATED_SCHEMA,
        execution="parallel",
    )
    processor.load_data(sensor_relation(random.Random(11), rows))
    return processor


def frontend_texts(*starts: float):
    """(module, SQL) of every frontend template at each window start."""
    return [
        (module, sql.format(lo=lo, hi=round(lo + width, 1)))
        for lo in starts
        for module, sql, width in FRONTEND_TEMPLATES
    ]


def submit_all(front_end, keys, expected, timeout=120):
    futures = [(key, front_end.submit(key[1], key[0])) for key in keys]
    for key, future in futures:
        assert pack_relation(future.result(timeout=timeout).result) == expected[key]


@pytest.mark.concurrency
def test_alternating_sessions_stay_identical_and_build_no_executor_when_warm():
    """Two sessions alternate the three frontend templates, whose
    per-session intermediates change shape from one template to the next;
    every result matches the reference, and once each template ran, no
    node builds another executor."""
    processor = frontend_processor(800)
    texts = frontend_texts(20.0)
    expected = {key: pack_relation(reference_result(processor, key[1], key[0])) for key in texts}
    with SessionFrontEnd(processor, max_concurrent=2) as front_end:
        submit_all(front_end, texts * 4, expected)
        warm = executor_builds(processor)
        submit_all(front_end, texts * 12, expected)
    assert executor_builds(processor) == warm


@pytest.mark.concurrency
def test_plan_cache_counts_every_lookup_under_contention():
    """More sessions than cores, switching threads every few bytecodes:
    every lookup is counted once, every result matches the reference, and
    the cache ends with one plan per text."""
    processor = frontend_processor(400)
    texts = frontend_texts(20.0, 45.5)
    expected = {key: pack_relation(reference_result(processor, key[1], key[0])) for key in texts}
    before = registry.snapshot(prefix="processor.plan_cache")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SessionFrontEnd(processor, max_concurrent=4) as front_end:
            submit_all(front_end, texts * 6, expected)
    finally:
        sys.setswitchinterval(interval)
    diff = delta(before, registry.snapshot(prefix="processor.plan_cache"))
    lookups = diff["processor.plan_cache.hits"] + diff["processor.plan_cache.misses"]
    assert lookups == len(texts) * 6
    assert diff["processor.plan_cache.misses"] >= len(texts)
    assert len(processor.plans) == len(texts)


def test_explain_is_unchanged_by_cached_runs():
    processor = ParadiseProcessor(figure4_policy())
    processor.load_data(sensor_relation(random.Random(5), 200))
    sql = "SELECT x, y FROM d WHERE z < 2"
    before = processor.explain(sql, "ActionFilter")
    processor.process(sql, "ActionFilter")
    processor.process(sql, "ActionFilter")
    assert processor.explain(sql, "ActionFilter") == before


# ---------------------------------------------------------------------------
# the warm front half
# ---------------------------------------------------------------------------


def test_a_warm_read_analyzes_nothing(monkeypatch):
    """Admission takes a repeated text's attribute analysis from its cached
    plan, so a warm read calls ``analyze_query`` 0 times and counts the
    base rows once; the per-run checks still decide."""
    from repro.sql import analysis as analysis_module
    from tests.conftest import PAPER_SQL, make_sensor_relation

    processor = ParadiseProcessor(figure4_policy())
    processor.load_data(make_sensor_relation(400))
    first = processor.process(PAPER_SQL, "ActionFilter")
    real = analysis_module.analyze_query
    calls = []

    def analyze_query(query):
        calls.append(query)
        return real(query)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "analyze_query", None) is real:
            monkeypatch.setattr(module, "analyze_query", analyze_query)
    counted = []
    count_rows = processor._raw_input_rows
    monkeypatch.setattr(
        processor, "_raw_input_rows", lambda: counted.append(1) or count_rows()
    )
    second = processor.process(PAPER_SQL, "ActionFilter")
    assert calls == [] and len(counted) == 1
    assert second.admitted and second.admission.analysis is first.admission.analysis
    assert pack_relation(second.result) == pack_relation(first.result)
    # The capacity check is per run: a cloud without memory refuses the
    # same warm text.
    processor.topology.cloud.free_memory_mb = 0.0
    assert not processor.process(PAPER_SQL, "ActionFilter").admitted


def test_a_cold_text_is_prepared_once(monkeypatch):
    """Submissions of a text whose first submission is still planning it
    wait for that plan: the race is forced by holding the first planner
    inside ``_fragment`` until the others have been submitted."""
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    processor = build_tree_processor(rows=200)
    started, go = threading.Event(), threading.Event()
    calls = []
    real = processor._fragment

    def fragment(query, pushdown):
        calls.append(query)
        started.set()
        go.wait(10)
        return real(query, pushdown)

    monkeypatch.setattr(processor, "_fragment", fragment)
    before = registry.snapshot(prefix="processor.plan_cache")
    with ThreadPoolExecutor(4) as pool:
        first = pool.submit(processor.process, GROUPED_SQL, "fig4", apply_rewriting=False)
        assert started.wait(10)
        others = [
            pool.submit(processor.process, GROUPED_SQL, "fig4", apply_rewriting=False)
            for _ in range(3)
        ]
        # Without the wait each of them would be inside _fragment by now.
        time.sleep(0.2)
        go.set()
        runs = [future.result(timeout=30) for future in [first, *others]]
    diff = delta(before, registry.snapshot(prefix="processor.plan_cache"))
    assert diff["processor.plan_cache.misses"] == 1 and len(calls) == 1
    assert diff["processor.plan_cache.hits"] == 3
    assert all(run.plan is runs[0].plan for run in runs)
    expected = pack_relation(
        reference_result(processor, GROUPED_SQL, "fig4", apply_rewriting=False)
    )
    assert all(pack_relation(run.result) == expected for run in runs)


def test_a_planner_that_stores_nothing_hands_the_text_on():
    """A submission that plans nothing (rejected, or failed) releases its
    text: the next waiting caller becomes its planner."""
    import threading

    from repro.processor.plan_cache import PlanCache

    cache = PlanCache()
    assert cache.get("text") is None
    outcome = []
    waiter = threading.Thread(target=lambda: outcome.append(cache.get("text")))
    waiter.start()
    waiter.join(0.1)
    assert waiter.is_alive()
    cache.release("text")
    waiter.join(10)
    assert outcome == [None]
    cache.release("text")
