"""Experiment OBS — tracing overhead and trace isolation.

The observability subsystem (:mod:`repro.obs`) promises two properties this
benchmark enforces:

1. **Near-zero cost when disabled.**  Every instrumentation site guards on
   ``trace is None``, so a non-profiled run should pay nothing measurable.
   We run the fig2 pipeline workload through three interleaved arms —
   ``baseline`` and ``disabled`` are *identical* ``profile=False`` runs (an
   A/A pair whose difference is the measurable cost of the disabled
   instrumentation plus noise floor), ``enabled`` adds ``profile=True`` —
   and fail if the disabled arm exceeds the baseline by more than 2%: the
   median over rounds of the per-round disabled/baseline time ratio.  Each
   round runs every arm once, ``baseline`` and ``disabled`` back to back in
   alternating order, so the two arms of a ratio share the host's drift;
   a collection before every sample keeps one arm's garbage out of the
   next arm's time.
2. **No span leakage between sessions.**  Concurrent profiled sessions
   through the :class:`~repro.runtime.session.SessionFrontEnd` must each
   produce a trace whose spans all belong to that trace, with exactly the
   task-span population a solo run of the same query produces.  Ambient
   (thread-local) span attribution makes this the property most at risk.

``python benchmarks/bench_obs_overhead.py`` prints the report;
``benchmarks/run_all.py`` embeds it in ``BENCH_engine.json`` (the ``obs``
section, which also records the parallel run's achieved overlap and the
vectorized fast-path hit counts).  The pytest functions below run a tiny
configuration so the quick suite doubles as a smoke test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import gc  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from benchmarks.common import (  # noqa: E402
    PAPER_SQL,
    build_processor,
    forget_kept_states,
    state_memo_hits,
)
from repro.obs.metrics import delta, registry  # noqa: E402
from repro.runtime.session import QueryRequest, SessionFrontEnd  # noqa: E402

#: The fig2 workload (rows mirror bench_fig2_processor.py's quick size).
DEFAULT_ROWS = 3000
#: Disabled-tracing overhead budget (fraction over the A/A baseline arm).
OVERHEAD_BUDGET = 0.02


def _measure_arms(rows: int, rounds: int, inner: int) -> Dict[str, List[float]]:
    """Seconds per arm per round; every round runs each arm once."""
    processor = build_processor(rows)
    arms = {
        "baseline": dict(profile=False),
        "disabled": dict(profile=False),
        "enabled": dict(profile=True),
    }

    def run(options: Dict[str, Any]) -> None:
        # Every run computes its leaf partial: a decoded kept state would
        # leave less work for the instrumentation to be measured against.
        for _ in range(inner):
            forget_kept_states(processor)
            result = processor.process(PAPER_SQL, "ActionFilter", **options)
            assert result.admitted

    for options in arms.values():  # warmup: parse/compile caches, all paths
        run(options)
    samples: Dict[str, List[float]] = {name: [] for name in arms}
    for round_index in range(rounds):
        pair = ["baseline", "disabled"] if round_index % 2 == 0 else ["disabled", "baseline"]
        for name in pair + ["enabled"]:
            gc.collect()
            hits = state_memo_hits()
            started = time.perf_counter()
            run(arms[name])
            samples[name].append(time.perf_counter() - started)
            assert state_memo_hits() == hits, "a timed run decoded a kept state"
    return samples


def _median_ratio(samples: Dict[str, List[float]], arm: str) -> float:
    """Median over rounds of ``arm``'s time over the baseline's."""
    return statistics.median(
        value / base for value, base in zip(samples[arm], samples["baseline"])
    )


def _check_span_isolation(rows: int, sessions: int) -> Dict[str, Any]:
    """Concurrent profiled sessions must not leak spans into each other."""
    processor = build_processor(rows, execution="parallel")
    solo = processor.process(PAPER_SQL, "ActionFilter", profile=True)
    expected_tasks = len(solo.trace.by_kind("task"))

    requests = [
        QueryRequest(PAPER_SQL, "ActionFilter", options={"profile": True})
        for _ in range(sessions)
    ]
    with SessionFrontEnd(processor, max_concurrent=min(4, sessions)) as front_end:
        results = front_end.run_batch(requests)

    for index, result in enumerate(results):
        trace = result.trace
        assert trace is not None, f"session {index}: no trace attached"
        foreign = [span for span in trace.snapshot() if span.trace is not trace]
        assert not foreign, (
            f"session {index}: {len(foreign)} span(s) belong to another trace "
            "(spans leaked between sessions)"
        )
        task_spans = trace.by_kind("task")
        assert len(task_spans) == expected_tasks, (
            f"session {index}: {len(task_spans)} task spans, expected "
            f"{expected_tasks} (spans leaked between sessions or got lost)"
        )
        unfinished = [span for span in trace.snapshot() if not span.finished]
        assert not unfinished, f"session {index}: {len(unfinished)} open span(s)"
    return {
        "sessions": sessions,
        "task_spans_per_session": expected_tasks,
        "leaked_spans": 0,
    }


def run_obs_overhead(
    rows: int = DEFAULT_ROWS, rounds: int = 101, inner: int = 1, sessions: int = 6
) -> Dict[str, Any]:
    """The full OBS report: overhead arms + overlap/fast-path + isolation."""
    samples = _measure_arms(rows, rounds, inner)
    disabled_overhead = _median_ratio(samples, "disabled") - 1.0
    enabled_overhead = _median_ratio(samples, "enabled") - 1.0
    arms = {name: statistics.median(values) for name, values in samples.items()}
    assert disabled_overhead < OVERHEAD_BUDGET, (
        f"tracing-disabled overhead {disabled_overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget (arm medians: {arms})"
    )

    # One profiled parallel run: achieved overlap + vectorized scan paths.
    processor = build_processor(rows, execution="parallel")
    before = registry.snapshot(prefix="engine.vectorized.")
    profiled = processor.process(PAPER_SQL, "ActionFilter", profile=True)
    fast_path = {
        key.replace("engine.vectorized.", ""): value
        for key, value in delta(
            before, registry.snapshot(prefix="engine.vectorized.")
        ).items()
        if value
    }

    report: Dict[str, Any] = {
        "rows": rows,
        "rounds": rounds,
        "inner_runs_per_sample": inner,
        "arm_median_s": arms,
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "overlap": round(profiled.runtime.overlap, 3),
        "fast_path_hits": fast_path,
        "isolation": _check_span_isolation(max(rows // 5, 200), sessions),
    }
    return report


# ---------------------------------------------------------------------------
# quick-suite smoke tests (tiny configuration)
# ---------------------------------------------------------------------------
def test_obs_overhead_quick():
    report = run_obs_overhead(rows=600, rounds=101, inner=1, sessions=4)
    assert report["disabled_overhead"] < OVERHEAD_BUDGET
    assert report["isolation"]["leaked_spans"] == 0


if __name__ == "__main__":
    print(json.dumps(run_obs_overhead(), indent=2))
