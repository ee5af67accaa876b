"""Observability tests (PR 7): tracing, metrics, and query profiling.

The contract under test:

* ``profile=True`` attaches a :class:`~repro.obs.trace.QueryTrace` whose
  span totals reconcile with the runtime's own wall clock, renders an
  EXPLAIN-ANALYZE-style tree, and exports valid Chrome ``trace_event`` JSON;
* tracing is inert when disabled — no trace, no profile — and profiled
  runs stay byte-identical to the unfragmented reference;
* spans stay correct under concurrency (no leakage between sessions) and
  chaos (retried and re-planned tasks produce *linked* spans, not
  duplicates; a killed node's spans finish ``aborted``);
* the vectorized engine records *why* it bailed, and the paper workloads
  take their expected scan paths;
* the metrics registry counts scheduler, session, cache and chaos activity.
"""

from __future__ import annotations

import json
import threading

import pytest

from benchmarks.e2e.workloads import GROUPBY_SQL, occupancy_policy
from tests.conftest import make_sensor_relation
from tests.test_runtime import RAW_WORKLOADS, build_tree_processor

from repro.engine import Database
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import MetricsRegistry, delta, registry
from repro.obs.trace import QueryTrace, activate, current_span
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.processor.result import RuntimeStats
from repro.runtime import CostModel, QueryRequest, SessionFrontEnd
from repro.runtime.faults import KILL_NODE, TASK_ERROR, Fault, FailureInjector
from repro.sensors.scenario import INTEGRATED_SCHEMA
from repro.sql.parser import parse

pytestmark = pytest.mark.obs

PIPELINE_SQL = (
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) "
    "FROM (SELECT x, y, z, t FROM d)"
)


def build_flat_processor(rows: int = 300, **kwargs) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(), schema=INTEGRATED_SCHEMA, **kwargs
    )
    processor.load_data(make_sensor_relation(rows))
    return processor


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_registry_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2)
    reg.gauge("g").set(5)
    reg.gauge("g").dec()
    for value in (1.0, 3.0):
        reg.histogram("h").observe(value)
    snap = reg.snapshot()
    assert snap["c"] == 3
    assert snap["g"] == 4
    assert snap["h.count"] == 2
    assert snap["h.total"] == 4.0
    assert snap["h.mean"] == 2.0
    assert snap["h.min"] == 1.0 and snap["h.max"] == 3.0


def test_registry_probes_and_delta():
    reg = MetricsRegistry()
    state = {"hits": 0}
    reg.probe("cache", lambda: dict(state))
    before = reg.snapshot()
    state["hits"] = 7
    diff = delta(before, reg.snapshot())
    assert diff["cache.hits"] == 7


def test_registry_is_thread_safe():
    reg = MetricsRegistry()

    def worker():
        for _ in range(1000):
            reg.counter("n").inc()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert reg.value("n") == 8000


# ---------------------------------------------------------------------------
# trace primitives
# ---------------------------------------------------------------------------


def test_spans_nest_via_ambient_activation():
    trace = QueryTrace("q")
    with trace.span("outer") as outer:
        assert current_span() is outer
        with trace.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert current_span() is None
    assert all(span.status == "ok" for span in trace.snapshot())


def test_ambient_parenting_never_crosses_traces():
    mine, theirs = QueryTrace("mine"), QueryTrace("theirs")
    with mine.span("outer"):
        span = theirs.begin("inner")
        assert span.parent_id is None  # ambient belongs to another trace
        theirs.finish(span)


def test_activate_none_is_inert():
    with activate(None) as span:
        assert span is None
        assert current_span() is None


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    processor = build_tree_processor(rows=120, execution="parallel")
    result = processor.process(
        RAW_WORKLOADS[0], "fig4", apply_rewriting=False, profile=True
    )
    path = tmp_path / "trace.json"
    result.trace.to_chrome(path)
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert events, "empty trace export"
    phases = {event["ph"] for event in events}
    assert "X" in phases and "M" in phases
    for event in events:
        assert event["pid"] == 1 and isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
    names = {
        event["args"]["name"] for event in events if event["ph"] == "M"
    }
    assert "sensor_0" in names  # one synthetic thread per topology node


# ---------------------------------------------------------------------------
# profiling: EXPLAIN, EXPLAIN ANALYZE, calibration
# ---------------------------------------------------------------------------


def test_explain_renders_plan_and_placement_without_executing():
    processor = build_flat_processor(execution="parallel")
    before = registry.counter("runtime.tasks_executed").value
    text = processor.explain(PIPELINE_SQL, "ActionFilter")
    assert "admission: ok" in text
    assert "Vertical fragmentation plan" in text
    assert "parallel DAG" in text and "[partial] @ sensor" in text
    assert registry.counter("runtime.tasks_executed").value == before  # nothing ran
    rejected = processor.explain(PIPELINE_SQL, "no_such_module")
    assert "REJECTED" in rejected


def test_profile_tree_reconciles_with_runtime_wall_clock():
    processor = build_flat_processor(rows=400, execution="parallel")
    result = processor.process(PIPELINE_SQL, "ActionFilter", profile=True)
    profile = result.profile
    assert profile is not None and result.trace is not None
    wall = result.runtime.wall_seconds
    assert profile.trace_wall_seconds == pytest.approx(wall, rel=0.05)
    rendered = profile.render()
    assert "profile:" in rendered and "scan paths" in rendered
    # Every executed task appears exactly once in the tree.
    task_spans = result.trace.by_kind("task")
    assert len(task_spans) == result.runtime.task_count
    assert all(span.status == "ok" for span in task_spans)


def test_profile_records_predictions_and_calibration():
    cost = CostModel(seconds_per_row=1e-6, seconds_per_kb=1e-6)
    processor = build_flat_processor(
        rows=300, execution="parallel", cost_model=cost
    )
    result = processor.process(PIPELINE_SQL, "ActionFilter", profile=True)
    spans = [
        span
        for span in result.trace.by_kind("task")
        if span.attrs.get("input_rows")
    ]
    assert spans and all("predicted_seconds" in span.attrs for span in spans)
    report = cost.calibration_report()
    assert report.sample_count >= result.runtime.task_count
    kinds = {entry.kind for entry in report.kinds}
    assert "fragment" in kinds
    assert "predicted vs observed" in report.render()


def test_serial_profile_produces_task_spans():
    """A one-slot run traces like a parallel one: one ``dag_run`` root and
    one task span per DAG task."""
    processor = build_flat_processor(rows=200, execution="serial")
    result = processor.process(PIPELINE_SQL, "ActionFilter", profile=True)
    assert result.trace is not None
    tasks = result.trace.by_kind("task")
    assert len(tasks) == result.runtime.task_count
    # d1 and d2 run as one task on the sensor's own chunk.
    assert [span.name.split(":", 1)[1] for span in tasks] == [
        "d2[sensor]", "d3", "d4", "anonymize", "finalize"
    ]
    assert len(result.trace.by_kind("dag_run")) == 1
    assert result.profile.render()


def test_profile_off_attaches_nothing():
    processor = build_flat_processor(rows=120, execution="parallel")
    result = processor.process(PIPELINE_SQL, "ActionFilter")
    assert result.trace is None and result.profile is None


def test_differential_oracle_unchanged_by_profiling():
    for query in RAW_WORKLOADS:
        processor = build_tree_processor(rows=150, execution="parallel")
        profiled = processor.process(query, "fig4", apply_rewriting=False, profile=True)
        expected = reference_result(processor, query, "fig4", apply_rewriting=False)
        assert pack_relation(profiled.result) == pack_relation(expected)


# ---------------------------------------------------------------------------
# satellite: RuntimeStats.overlap + single-site task timing
# ---------------------------------------------------------------------------


def test_overlap_guards_against_zero_wall():
    stats = RuntimeStats(
        partition_width=1,
        task_count=0,
        merge_count=0,
        wall_seconds=0.0,
        busy_seconds=1.0,
    )
    assert stats.overlap == 0.0
    assert stats.overlap_factor == 1.0  # display keeps the neutral value
    stats.wall_seconds = 2.0
    assert stats.overlap == 0.5


def test_retry_does_not_double_charge_task_time():
    """An in-place retry overwrites its execution record (satellite 1)."""
    injector = FailureInjector(
        [Fault(kind=TASK_ERROR, node="sensor_1", times=2)]
    )
    processor = build_tree_processor(rows=160, execution="parallel")
    result = processor.process(
        RAW_WORKLOADS[0],
        "fig4",
        apply_rewriting=False,
        faults=injector,
        profile=True,
    )
    assert result.runtime.retried_attempts == 2
    names = [execution.fragment_name for execution in result.executions]
    assert len(names) == len(set(names)), f"duplicated executions: {names}"
    # The retried attempts left linked spans, and exactly one succeeded.
    retried = result.trace.find(status="retried")
    assert len(retried) == 2
    final = [
        span
        for span in result.trace.by_kind("task")
        if span.attrs.get("retry_of") and span.status == "ok"
    ]
    assert len(final) == 1
    linked_ids = {span.attrs["retry_of"] for span in final} | {
        span.attrs["retry_of"] for span in retried if "retry_of" in span.attrs
    }
    assert linked_ids <= {span.span_id for span in retried}


# ---------------------------------------------------------------------------
# satellite: vectorized bail reasons
# ---------------------------------------------------------------------------


def test_paper_workloads_take_expected_scan_paths():
    processor = build_flat_processor(rows=300)
    before = registry.snapshot(prefix="engine.vectorized.")
    result = processor.process(PIPELINE_SQL, "ActionFilter")
    assert result.admitted
    diff = delta(before, registry.snapshot(prefix="engine.vectorized."))
    hits = {key: value for key, value in diff.items() if value}
    # The rewritten pipeline runs one vectorized leaf partial (d1, d2 and
    # d3 as one query on the sensor), one grouped tail (d3's finalize),
    # and bails only on the window-function stage.
    assert hits.get("engine.vectorized.partial", 0) == 1
    assert hits.get("engine.vectorized.tail", 0) == 1
    assert not hits.get("engine.vectorized.flat") and not hits.get("engine.vectorized.grouped")
    bail_reasons = {
        key.rsplit(".", 1)[-1]
        for key in hits
        if ".bails." in key
    }
    assert bail_reasons == {"expression_item"}


def test_rewritten_groupby_runs_every_leaf_scan_vectorized():
    """The e2e group-by under ``Occupancy`` (rewritten ``WHERE valid AND
    z < 2``) on the 8-sensor tree: no bail, no flat select (the in-place
    fragments run inside the leaf partials), and every leaf partial
    aggregation is a vectorized scan."""
    processor = ParadiseProcessor(
        occupancy_policy(),
        schema=INTEGRATED_SCHEMA,
        topology=Topology.smart_home_tree(n_sensors=8),
        execution="parallel",
    )
    processor.load_data(make_sensor_relation(400))
    before = registry.snapshot(prefix="engine.")
    result = processor.process(GROUPBY_SQL, "Occupancy")
    assert result.admitted
    diff = delta(before, registry.snapshot(prefix="engine."))
    assert not any(value for key, value in diff.items() if ".bails." in key)
    assert diff.get("engine.executor.selects", 0) == 0
    assert diff.get("engine.vectorized.flat", 0) == 0
    assert diff["engine.executor.partial_aggregations"] == 8
    assert diff["engine.vectorized.partial"] == 8


def test_leaf_partials_take_the_columnar_grouped_scan():
    """The e2e group-by's leaf partials on the 8-sensor tree and the paper
    query's ``GROUP BY x, y`` partial on the chain's sensor run as
    columnar partial scans."""
    tree = ParadiseProcessor(
        occupancy_policy(),
        schema=INTEGRATED_SCHEMA,
        topology=Topology.smart_home_tree(n_sensors=8),
        execution="parallel",
    )
    tree.load_data(make_sensor_relation(400))
    chain = build_flat_processor(rows=300)
    for processor, sql, module, kind in (
        (tree, GROUPBY_SQL, "Occupancy", "partial"),
        (chain, PIPELINE_SQL, "ActionFilter", "partial"),
    ):
        before = registry.snapshot(prefix="engine.vectorized.")
        assert processor.process(sql, module).admitted
        diff = delta(before, registry.snapshot(prefix="engine.vectorized."))
        assert diff[f"engine.vectorized.{kind}"] >= 1


def test_paper_chain_sensor_partial_scans_once_then_hits():
    """The paper query's sensor partial on the chain (``WHERE z < 2 AND
    x > y GROUP BY x, y``) scans its chunk on the first read of the text
    and keeps its state; the repeats decode that state and scan nothing."""
    processor = build_flat_processor(rows=300)
    before = registry.snapshot()
    first = processor.process(PIPELINE_SQL, "ActionFilter")
    assert first.admitted
    diff = delta(before, registry.snapshot())
    assert diff["engine.vectorized.partial"] == 1
    assert diff["runtime.state_memo.misses"] == 1
    assert not diff.get("runtime.state_memo.hits")
    before = registry.snapshot()
    for _ in range(3):
        again = processor.process(PIPELINE_SQL, "ActionFilter")
        assert pack_relation(again.result) == pack_relation(first.result)
    diff = delta(before, registry.snapshot())
    assert diff["runtime.state_memo.hits"] == 3
    assert not diff.get("runtime.state_memo.misses")
    assert not diff.get("engine.vectorized.partial")


def test_paper_workloads_take_typed_scan_backing():
    """The fig2/usecase pipeline consumes typed int64/float64 backings —
    the typed counter grows and no ``untyped_backing`` bail is recorded."""
    processor = build_flat_processor(rows=300)
    before = registry.snapshot(prefix="engine.vectorized.")
    result = processor.process(PIPELINE_SQL, "ActionFilter")
    assert result.admitted
    diff = delta(before, registry.snapshot(prefix="engine.vectorized."))
    assert diff.get("engine.vectorized.typed", 0) >= 1
    assert not diff.get("engine.vectorized.bails.untyped_backing", 0)


def test_untyped_backing_surfaces_in_profile_report():
    """A numeric column that lost its typed backing shows up in the profile
    report's scan-path section as an ``untyped_backing`` bail."""
    from repro.engine.schema import ColumnDef, Schema
    from repro.engine.table import Relation
    from repro.engine.types import DataType

    schema = Schema(
        [
            ColumnDef(name="person_id", data_type=DataType.INTEGER),
            ColumnDef(name="x", data_type=DataType.FLOAT),
        ]
    )
    # from_columns keeps the backing it is given: plain lists here, so the
    # declared-INTEGER column scans without a typed fast path.
    degraded = Relation.from_columns(
        schema,
        [list(range(50)), [float(i) for i in range(50)]],
        name="d",
    )
    processor = ParadiseProcessor(figure4_policy(), schema=None)
    processor.load_data(degraded)
    result = processor.process(
        "SELECT person_id FROM d WHERE person_id >= 0",
        "fig4",
        apply_rewriting=False,
        anonymize=False,
        profile=True,
    )
    assert result.profile is not None
    bails = result.profile.scan_paths.get("bails", {})
    assert bails.get("untyped_backing", 0) >= 1
    assert "untyped_backing" in result.profile.render()


def test_bail_reasons_cover_distinct_causes():
    from repro.engine.vectorized import BailReason, stats

    base = dict(stats.bails)
    processor = build_flat_processor(rows=80)
    cases = {
        # Plain-column ORDER BY is now a vectorized index permutation; only
        # expression order keys still belong to the row path.
        "SELECT x, y FROM d ORDER BY x + y LIMIT 5": BailReason.DISTINCT_OR_ORDER_BY,
        "SELECT x + y FROM d": BailReason.EXPRESSION_ITEM,
    }
    for query, reason in cases.items():
        processor.process(query, "fig4", apply_rewriting=False)
        grew = stats.bails.get(reason.value, 0) - base.get(reason.value, 0)
        assert grew >= 1, f"{query!r} did not record {reason.value}"


def test_standing_and_read_shapes_take_the_columnar_tail():
    """The e2e standing families (rewritten as registered) and the standing
    workload's read run every grouped tail on columns, with no per-row
    fallback."""
    from benchmarks.e2e.workloads import STANDING_FAMILIES, STANDING_READ_SQL
    from repro.runtime import StandingQueryRuntime

    processor = ParadiseProcessor(
        occupancy_policy(),
        schema=INTEGRATED_SCHEMA,
        topology=Topology.smart_home_tree(n_sensors=8),
        execution="parallel",
    )
    processor.load_data(make_sensor_relation(400))
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register(
            f"SELECT {select} FROM d {where} GROUP BY {keys} "
            "HAVING COUNT(*) > 3 ORDER BY COUNT(*) DESC",
            "Occupancy",
            apply_rewriting=True,
        )
        for select, where, keys in STANDING_FAMILIES
    ]
    before = registry.snapshot(prefix="engine.vectorized.")
    runtime.append(
        processor.network.partition_holders("d")[1], make_sensor_relation(50, seed=4)
    )
    # The append runs no tail; each handle's read after it runs one.
    appended = delta(before, registry.snapshot(prefix="engine.vectorized."))
    assert not appended.get("engine.vectorized.tail")
    for handle in handles:
        handle.result()
    result = processor.process(STANDING_READ_SQL, "Occupancy")
    assert result.admitted
    diff = delta(before, registry.snapshot(prefix="engine.vectorized."))
    assert diff["engine.vectorized.tail"] == len(STANDING_FAMILIES) + 1
    assert not any(value for key, value in diff.items() if ".bails." in key)


def test_tail_fallbacks_surface_in_profile_report():
    """Per-row work in a grouped tail is a counted event, per reason."""
    processor = build_flat_processor(rows=80)
    result = processor.process(
        "SELECT person_id, COUNT(*) + 1 AS n1 FROM d GROUP BY person_id "
        "HAVING NOT (COUNT(*) > 1) OR person_id > 2 ORDER BY MAX(x) - MIN(x)",
        "fig4",
        apply_rewriting=False,
        anonymize=False,
        profile=True,
    )
    scan_paths = result.profile.scan_paths
    assert scan_paths["tail"] >= 1
    assert set(scan_paths["bails"]) >= {
        "tail_expression_item",
        "tail_complex_having",
        "tail_expression_order_key",
    }
    assert "tail_expression_item" in result.profile.render()


# ---------------------------------------------------------------------------
# trace integrity under concurrency and chaos
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_concurrent_sessions_keep_spans_isolated():
    processor = build_tree_processor(rows=150, execution="parallel")
    solo = processor.process(
        RAW_WORKLOADS[2], "fig4", apply_rewriting=False, profile=True
    )
    expected = len(solo.trace.by_kind("task"))
    requests = [
        QueryRequest(
            RAW_WORKLOADS[2],
            "fig4",
            options={"apply_rewriting": False, "profile": True},
        )
        for _ in range(6)
    ]
    with SessionFrontEnd(processor, max_concurrent=4) as front_end:
        results = front_end.run_batch(requests)
    for result in results:
        trace = result.trace
        assert all(span.trace is trace for span in trace.snapshot())
        assert len(trace.by_kind("task")) == expected
        assert all(span.finished for span in trace.snapshot())
        # Every task span nests under its epoch's dag_run root.
        runs = {span.span_id for span in trace.by_kind("dag_run")}
        assert all(
            span.parent_id in runs for span in trace.by_kind("task")
        )
        assert result.result.rows == solo.result.rows


@pytest.mark.concurrency
def test_mixed_profiled_and_unprofiled_sessions():
    processor = build_tree_processor(rows=120, execution="parallel")
    requests = [
        QueryRequest(
            RAW_WORKLOADS[0],
            "fig4",
            options={"apply_rewriting": False, "profile": bool(index % 2)},
        )
        for index in range(6)
    ]
    with SessionFrontEnd(processor, max_concurrent=3) as front_end:
        results = front_end.run_batch(requests)
    for index, result in enumerate(results):
        if index % 2:
            assert result.trace is not None and result.profile is not None
        else:
            assert result.trace is None and result.profile is None


@pytest.mark.chaos
def test_killed_node_spans_abort_and_replan_links_epochs():
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_2")])
    processor = build_tree_processor(rows=160, execution="parallel")
    result = processor.process(
        RAW_WORKLOADS[0],
        "fig4",
        apply_rewriting=False,
        faults=injector,
        profile=True,
    )
    assert result.runtime.replans == 1
    trace = result.trace
    epochs = sorted(span.attrs["epoch"] for span in trace.by_kind("dag_run"))
    assert epochs == [0, 1]
    aborted_runs = trace.find(kind="dag_run", status="aborted")
    assert len(aborted_runs) == 1 and aborted_runs[0].attrs["epoch"] == 0
    assert trace.find(kind="task", status="aborted")
    # Re-planned tasks are distinguishable by epoch, never duplicated
    # within one: each (task_id, epoch, attempt) triple is unique.
    keys = [
        (span.attrs["task_id"], span.attrs["epoch"], span.attrs["attempt"])
        for span in trace.by_kind("task")
    ]
    assert len(keys) == len(set(keys))
    # The second epoch completed cleanly.
    final_tasks = [
        span
        for span in trace.by_kind("task")
        if span.attrs["epoch"] == 1
    ]
    assert final_tasks and all(span.status == "ok" for span in final_tasks)


@pytest.mark.chaos
def test_chaos_counters_accumulate():
    before = registry.snapshot(prefix="chaos.")
    deaths_before = registry.counter("runtime.node_deaths").value
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_0")])
    processor = build_tree_processor(rows=160, execution="parallel")
    processor.process(
        RAW_WORKLOADS[2], "fig4", apply_rewriting=False, faults=injector
    )
    diff = delta(before, registry.snapshot(prefix="chaos."))
    assert diff.get("chaos.faults_fired", 0) >= 1
    assert registry.counter("runtime.node_deaths").value - deaths_before == 1


# ---------------------------------------------------------------------------
# cache and session metrics
# ---------------------------------------------------------------------------


def test_parse_cache_metrics_count_hits():
    # Repeated ``process`` calls take their parse from the plan cache, so
    # the parser's own memo is exercised through ``parse`` directly.
    text = "SELECT x FROM d WHERE z < 1.0 AND y > -7.25"
    before = registry.snapshot(prefix="sql.parse_cache")
    for _ in range(3):
        parse(text)
    diff = delta(before, registry.snapshot(prefix="sql.parse_cache"))
    assert diff.get("sql.parse_cache.misses", 0) >= 1
    assert diff.get("sql.parse_cache.hits", 0) >= 2


def test_session_metrics_track_admission():
    before = registry.snapshot(prefix="session.")
    processor = build_tree_processor(rows=100, execution="parallel")
    requests = [
        QueryRequest(RAW_WORKLOADS[0], "fig4", options={"apply_rewriting": False})
        for _ in range(4)
    ]
    with SessionFrontEnd(processor, max_concurrent=2) as front_end:
        front_end.run_batch(requests)
    diff = delta(before, registry.snapshot(prefix="session."))
    assert diff.get("session.submitted", 0) == 4
    assert diff.get("session.completed", 0) == 4
    assert diff.get("session.queue_wait_seconds.count", 0) == 4
    assert registry.value("session.active") == 0
