"""EXPLAIN-ANALYZE-style profile reports and cost-model calibration.

:class:`CalibrationLog` accumulates (predicted, observed) task-cost pairs by
task kind — the training data the ROADMAP's cost-based-optimizer direction
needs.  :func:`build_profile_report` turns a finished
:class:`~repro.obs.trace.QueryTrace` into a per-task tree annotated with
observed vs predicted time, rows in/out, and bytes per hop, plus the
engine's scan-path counters for the run (fast-path hits and bail reasons).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import QueryTrace, Span

__all__ = [
    "CalibrationLog",
    "CalibrationReport",
    "KindCalibration",
    "ProfileReport",
    "build_profile_report",
]


class CalibrationLog:
    """Thread-safe accumulator of predicted-vs-observed task costs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._samples: List[Dict[str, Any]] = []

    def observe(self, kind: str, predicted: float, observed: float, rows: int = 0) -> None:
        with self._lock:
            self._samples.append(
                {"kind": kind, "predicted": predicted, "observed": observed, "rows": rows}
            )

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def report(self) -> "CalibrationReport":
        by_kind: Dict[str, List[Dict[str, Any]]] = {}
        for sample in self.samples():
            by_kind.setdefault(sample["kind"], []).append(sample)
        kinds = []
        for kind in sorted(by_kind):
            samples = by_kind[kind]
            count = len(samples)
            predicted = sum(s["predicted"] for s in samples)
            observed = sum(s["observed"] for s in samples)
            abs_error = sum(abs(s["observed"] - s["predicted"]) for s in samples)
            # Relative error is per-sample against observed time; samples too
            # fast to measure meaningfully are skipped rather than letting a
            # division by ~0 dominate the mean.
            rel_errors = [
                abs(s["observed"] - s["predicted"]) / s["observed"]
                for s in samples
                if s["observed"] > 1e-9
            ]
            kinds.append(
                KindCalibration(
                    kind=kind,
                    count=count,
                    predicted_seconds=predicted,
                    observed_seconds=observed,
                    mean_abs_error_seconds=abs_error / count,
                    mean_rel_error=(
                        sum(rel_errors) / len(rel_errors) if rel_errors else 0.0
                    ),
                    rows=sum(s["rows"] for s in samples),
                )
            )
        return CalibrationReport(kinds=kinds)


@dataclass
class KindCalibration:
    """Aggregate prediction error for one task kind."""

    kind: str
    count: int
    predicted_seconds: float
    observed_seconds: float
    mean_abs_error_seconds: float
    mean_rel_error: float
    rows: int


@dataclass
class CalibrationReport:
    """Per-task-kind summary of cost-model prediction error."""

    kinds: List[KindCalibration] = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        return sum(entry.count for entry in self.kinds)

    def by_kind(self) -> Dict[str, KindCalibration]:
        return {entry.kind: entry for entry in self.kinds}

    def render(self) -> str:
        if not self.kinds:
            return "calibration: no samples recorded"
        lines = [
            "cost-model calibration (predicted vs observed, by task kind)",
            f"{'kind':<14} {'n':>4} {'predicted':>11} {'observed':>11} "
            f"{'abs err':>10} {'rel err':>8}",
        ]
        for entry in self.kinds:
            if entry.kind.startswith("rows"):
                # Cardinality calibration: estimated vs observed row counts,
                # rendered as raw counts rather than milliseconds.
                lines.append(
                    f"{entry.kind:<14} {entry.count:>4} "
                    f"{entry.predicted_seconds:>9.0f}r "
                    f"{entry.observed_seconds:>9.0f}r "
                    f"{entry.mean_abs_error_seconds:>8.1f}r "
                    f"{entry.mean_rel_error * 100:>7.1f}%"
                )
                continue
            lines.append(
                f"{entry.kind:<14} {entry.count:>4} "
                f"{entry.predicted_seconds * 1e3:>9.2f}ms "
                f"{entry.observed_seconds * 1e3:>9.2f}ms "
                f"{entry.mean_abs_error_seconds * 1e3:>8.3f}ms "
                f"{entry.mean_rel_error * 100:>7.1f}%"
            )
        return "\n".join(lines)


@dataclass
class ProfileNode:
    """One task in the rendered profile tree (latest attempt wins)."""

    span: Span
    children: List["ProfileNode"] = field(default_factory=list)


@dataclass
class ProfileReport:
    """EXPLAIN ANALYZE output: task tree + scan-path + calibration."""

    query_id: str
    trace: QueryTrace
    roots: List[ProfileNode]
    trace_wall_seconds: float
    runtime_wall_seconds: float
    busy_seconds: float
    scan_paths: Dict[str, Any] = field(default_factory=dict)
    standing: Dict[str, Any] = field(default_factory=dict)
    calibration: Optional[CalibrationReport] = None

    def render(self) -> str:
        lines = [f"profile: {self.query_id or '(query)'}"]
        lines.append(
            f"wall {self.trace_wall_seconds * 1e3:.2f}ms"
            + (
                f" (runtime reports {self.runtime_wall_seconds * 1e3:.2f}ms)"
                if self.runtime_wall_seconds
                else ""
            )
            + f", busy {self.busy_seconds * 1e3:.2f}ms"
        )
        if not self.roots:
            lines.append("  (no task spans recorded)")
        for root in self.roots:
            self._render_node(root, lines, depth=0)
        if self.scan_paths:
            lines.append("scan paths:")
            for key in sorted(self.scan_paths):
                value = self.scan_paths[key]
                if value:
                    lines.append(f"  {key}: {value}")
        if self.standing:
            lines.append("standing queries:")
            for key in sorted(self.standing):
                value = self.standing[key]
                if value:
                    lines.append(f"  {key}: {value}")
        if self.calibration is not None:
            lines.append(self.calibration.render())
        return "\n".join(lines)

    def _render_node(self, node: ProfileNode, lines: List[str], depth: int) -> None:
        span = node.span
        indent = "  " * (depth + 1)
        parts = [f"{span.name} [{span.kind}]"]
        if span.node:
            parts.append(f"on {span.node}")
        parts.append(f"{span.duration * 1e3:.2f}ms")
        predicted = span.attrs.get("predicted_seconds")
        if predicted is not None:
            parts.append(f"(predicted {predicted * 1e3:.2f}ms)")
        queue_wait = span.attrs.get("queue_wait")
        if queue_wait is not None:
            parts.append(f"wait {queue_wait * 1e3:.2f}ms")
        rows_in = span.attrs.get("input_rows")
        rows_out = span.attrs.get("output_rows")
        if rows_in is not None or rows_out is not None:
            parts.append(f"rows {rows_in if rows_in is not None else '?'}"
                         f"->{rows_out if rows_out is not None else '?'}")
        estimated_rows = span.attrs.get("estimated_rows")
        if estimated_rows is not None:
            parts.append(f"(est. {estimated_rows} rows)")
        memo = span.attrs.get("memo")
        if memo is not None:
            parts.append(f"memo {memo}")
        if span.attrs.get("attempt", 1) > 1:
            parts.append(f"attempt {span.attrs['attempt']}")
        if span.status not in (None, "ok"):
            parts.append(f"[{span.status}]")
        lines.append(indent + " ".join(parts))
        for event in span.events:
            if event.name == "transfer":
                attrs = event.attrs
                lines.append(
                    f"{indent}  ship {attrs.get('source')}->{attrs.get('target')} "
                    f"{attrs.get('rows')} rows, {attrs.get('bytes')} bytes"
                    + (" (leaves apartment)" if attrs.get("leaves_apartment") else "")
                )
            elif event.name in ("fault", "checkpoint_save", "checkpoint_restore"):
                detail = ", ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
                lines.append(f"{indent}  {event.name}: {detail}")
        for child in node.children:
            self._render_node(child, lines, depth + 1)


def _latest_task_spans(spans: List[Span]) -> Dict[str, Span]:
    """Latest attempt of the latest epoch per task id (retries/replans)."""
    latest: Dict[str, Span] = {}
    for span in spans:
        task_id = span.attrs.get("task_id")
        if task_id is None:
            continue
        key = (span.attrs.get("epoch", 0), span.attrs.get("attempt", 1))
        current = latest.get(task_id)
        if current is None or key >= (
            current.attrs.get("epoch", 0),
            current.attrs.get("attempt", 1),
        ):
            latest[task_id] = span
    return latest


def build_profile_report(
    trace: QueryTrace,
    runtime_wall_seconds: float = 0.0,
    calibration: Optional[CalibrationLog] = None,
    metrics_before: Optional[Dict[str, Any]] = None,
    metrics_after: Optional[Dict[str, Any]] = None,
) -> ProfileReport:
    """Assemble the per-task tree from a finished trace.

    Tree shape comes from each task span's recorded ``deps`` — the DAG edge
    list — with the final task(s) as roots, so the rendering reads top-down
    from the query's result to its leaf scans.  Only the *latest* attempt of
    the latest replan epoch represents each task (earlier linked attempts
    remain in the trace itself).
    """
    spans = trace.snapshot()
    task_spans = _latest_task_spans(spans)

    roots: List[ProfileNode] = []
    if task_spans:
        nodes = {task_id: ProfileNode(span) for task_id, span in task_spans.items()}
        # deps point upstream (task depends on dep), so the tree hangs each
        # dep under its consumer; tasks no one consumes are the roots.
        consumed = set()
        for task_id, node in sorted(nodes.items()):
            for dep in node.span.attrs.get("deps", ()):
                child = nodes.get(dep)
                if child is not None:
                    node.children.append(child)
                    consumed.add(dep)
        roots = [
            node
            for task_id, node in sorted(nodes.items())
            if task_id not in consumed
        ]

    # Wall time is taken from the run-level span (covers every epoch of a
    # replanned execution) falling back to the overall span extent.
    run_spans = [span for span in spans if span.kind == "dag_run" and span.finished]
    if run_spans:
        trace_wall = max(span.end for span in run_spans) - min(
            span.start for span in run_spans
        )
    else:
        trace_wall = trace.wall_seconds()

    scan_paths: Dict[str, Any] = {}
    standing: Dict[str, Any] = {}
    if metrics_before is not None and metrics_after is not None:
        for key, value in metrics_after.items():
            if key.startswith("standing."):
                # Standing-query maintenance this window: registrations,
                # refreshes, delta rows, finalizes on read, shared-tree
                # subscriber counts (gauges report their current value).
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    continue
                if key.startswith(("standing.trees", "standing.subscribers",
                                   "standing.state_bytes")):
                    standing[key[len("standing.") :]] = value
                else:
                    diff = value - metrics_before.get(key, 0)
                    if diff:
                        standing[key[len("standing.") :]] = diff
                continue
            if not key.startswith(
                (
                    "engine.vectorized.",
                    "engine.optimizer.",
                    "engine.zone.",
                    "runtime.state_memo.",
                )
            ):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            diff = value - metrics_before.get(key, 0)
            if not diff:
                continue
            if key.startswith("engine.optimizer."):
                # Cost-based plan decisions taken this run (conjunct
                # reorders, build-side flips, adaptive placement, ...).
                scan_paths[
                    "optimizer." + key[len("engine.optimizer.") :]
                ] = diff
                continue
            # Zone map work skipped this run reads as ``zone.proved``, kept
            # leaf states as ``state_memo.hits`` etc.
            short = key.replace("engine.vectorized.", "")
            short = short.replace("engine.", "", 1).replace("runtime.", "", 1)
            if short.startswith("bails."):
                # Per-reason bail counters (scan fallbacks plus backing
                # diagnostics like ``untyped_backing``) group under one
                # nested dict so the report names every reason this run hit.
                scan_paths.setdefault("bails", {})[short[len("bails.") :]] = diff
            else:
                scan_paths[short] = diff

    return ProfileReport(
        query_id=trace.query_id,
        trace=trace,
        roots=roots,
        trace_wall_seconds=trace_wall,
        runtime_wall_seconds=runtime_wall_seconds,
        busy_seconds=trace.busy_seconds("task"),
        scan_paths=scan_paths,
        standing=standing,
        calibration=calibration.report() if calibration is not None else None,
    )
