"""Observability: structured tracing, process metrics and query profiling.

The runtime overlaps work across tree topologies, pushes partial aggregates
and recovers from injected failures — this package supplies the lenses into
all of it (PR 7):

``trace``
    :class:`~repro.obs.trace.QueryTrace` collects per-task
    :class:`~repro.obs.trace.Span` records (queue-wait vs execute time,
    rows, bytes, retries, checkpoints, replan epochs) thread-safely per
    query and exports them to Chrome ``trace_event`` JSON
    (:meth:`~repro.obs.trace.QueryTrace.to_chrome`).  Tracing is strictly
    opt-in (``ParadiseProcessor(profile=True)``) and near-zero-cost when
    off: every producer guards on ``trace is None``.

``metrics``
    A process-wide, lock-striped :class:`~repro.obs.metrics.MetricsRegistry`
    of counters/gauges/histograms plus pull-based *probes* for hot-path
    statistics (vectorized bail reasons, parse/LIKE/subquery cache hit
    rates) that are kept as plain integers where they are produced.

``profile``
    :func:`~repro.obs.profile.build_profile_report` renders an
    EXPLAIN-ANALYZE-style per-task tree (observed vs cost-model-predicted
    time, rows, bytes per hop), and :class:`~repro.obs.profile.CalibrationLog`
    accumulates predicted-vs-observed task costs for
    ``CostModel.calibration_report()``.

Import discipline: this package imports only the standard library, so any
layer of the stack (``sql``, ``engine``, ``runtime``, ``processor``,
benchmarks) may instrument itself without creating an import cycle.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, registry
from repro.obs.profile import (
    CalibrationLog,
    CalibrationReport,
    ProfileReport,
    build_profile_report,
)
from repro.obs.trace import (
    QueryTrace,
    Span,
    SpanEvent,
    activate,
    current_span,
)

__all__ = [
    "CalibrationLog",
    "CalibrationReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileReport",
    "QueryTrace",
    "Span",
    "SpanEvent",
    "activate",
    "build_profile_report",
    "current_span",
    "registry",
]
