"""Experiment MC — process-parallel execution on a compute-bound workload.

The thread scheduler overlaps *simulated* latencies well but is GIL-capped
on real compute; the ``workers="processes"`` backend (PR 8) dispatches
engine operations to spawned worker processes through the wire codec.  This
benchmark measures what that buys on honest wall clock: a decomposable
GROUP-BY over a 4-sensor tree with **cost-model sleeps disabled**
(``cost_model=None`` — no simulated node or link charges), so the only
thing left to overlap is Python compute itself.

The thread backend is the baseline; the process backend runs at 1/2/4
workers.  Every measured run is differential-checked in-loop against the
unfragmented reference (``pack_relation`` bytes) — a fast-but-wrong backend fails the benchmark, not just the
test suite.  The report records ``os.cpu_count()`` because the headline
speedup is hardware-bound: on a single-core host the process backend can
only show its IPC overhead (the differential still must hold); the >1.5x
acceptance bar applies on hosts with >= 4 cores.

``benchmarks/run_all.py`` folds the report into ``BENCH_runtime.json`` as
the ``multicore`` section.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.common import (  # noqa: E402
    print_table,
    summarize_samples,
    synthetic_sensor_relation,
)
from repro.engine.wire import pack_relation  # noqa: E402
from repro.fragment.topology import Topology  # noqa: E402
from repro.policy.presets import figure4_policy  # noqa: E402
from repro.processor.paradise import ParadiseProcessor  # noqa: E402
from repro.processor.reference import reference_result  # noqa: E402

#: Decomposable aggregation: every aggregate splits into per-sensor partial
#: states, so the 4 leaf PartialAggregateTasks carry the compute and can
#: genuinely overlap across processes.
MULTICORE_SQL = (
    "SELECT x, COUNT(*) AS n, AVG(y) AS avg_y, STDDEV(y) AS sd_y, "
    "AVG(z) AS avg_z, VAR_POP(z) AS var_z, MIN(t) AS t_min, MAX(t) AS t_max "
    "FROM d GROUP BY x"
)

WORKER_COUNTS = (1, 2, 4)


def build_multicore_processor(
    rows: int, workers: str = "threads", process_workers: int = 2
) -> ParadiseProcessor:
    """A 4-sensor tree with *no* cost model: wall clock measures compute only."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=4),
        schema=None,
        cost_model=None,
        workers=workers,
        process_workers=process_workers,
    )
    processor.load_data(synthetic_sensor_relation(rows))
    return processor


def _time_backend(
    processor: ParadiseProcessor, repeats: int, oracle: bytes
) -> List[float]:
    """Warm up, then time ``repeats`` runs, differential-checking each one."""
    result = processor.process(
        MULTICORE_SQL, "fig4", execution="parallel", apply_rewriting=False
    )
    assert result.result is not None and pack_relation(result.result) == oracle
    samples: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = processor.process(
            MULTICORE_SQL, "fig4", execution="parallel", apply_rewriting=False
        )
        samples.append(time.perf_counter() - started)
        assert pack_relation(result.result) == oracle, "backend diverged from oracle"
    return samples


def run_multicore(
    rows: int = 6000,
    repeats: int = 3,
    worker_counts: Sequence[int] = WORKER_COUNTS,
) -> Dict[str, Any]:
    """Thread baseline vs 1/2/4 process workers on the compute-bound workload."""
    oracle = pack_relation(
        reference_result(
            build_multicore_processor(rows), MULTICORE_SQL, "fig4", apply_rewriting=False
        )
    )

    threads = _time_backend(build_multicore_processor(rows), repeats, oracle)
    threads_median = statistics.median(threads)

    entries: List[Dict[str, Any]] = []
    for workers in worker_counts:
        processor = build_multicore_processor(
            rows, workers="processes", process_workers=workers
        )
        samples = _time_backend(processor, repeats, oracle)
        dispatcher = processor._dispatcher
        entry = {
            "process_workers": workers,
            "wall": summarize_samples(samples, rows=rows),
            "speedup_vs_threads": round(
                threads_median / statistics.median(samples), 3
            ),
            "jobs_dispatched": dispatcher.jobs if dispatcher else 0,
            "wire_bytes_out": dispatcher.bytes_out if dispatcher else 0,
        }
        entries.append(entry)
        print(
            f"multicore {workers} workers: "
            f"{statistics.median(samples) * 1e3:8.1f}ms  "
            f"({entry['speedup_vs_threads']:.2f}x vs threads)"
        )

    best = max(entries, key=lambda e: e["speedup_vs_threads"])
    cpus = os.cpu_count() or 1
    return {
        "query": MULTICORE_SQL,
        "rows": rows,
        "repeats": repeats,
        "cpu_count": cpus,
        "metric_note": "wall seconds, cost model disabled (no simulated "
        "sleeps); every measured run differential-checked against the "
        "unfragmented reference; the >1.5x bar is hardware-bound (needs >= 4 cores)",
        "threads_baseline": summarize_samples(threads, rows=rows),
        "process_backend": entries,
        "best_speedup_vs_threads": best["speedup_vs_threads"],
        "bar_applicable": cpus >= 4,
        "meets_bar": best["speedup_vs_threads"] > 1.5,
    }


# ---------------------------------------------------------------------------
# pytest smoke benchmarks (tiny configs; run in the quick suite)
# ---------------------------------------------------------------------------


@pytest.mark.procs
def test_multicore_backends_agree_with_oracle():
    """Small pool, small rows: the in-loop differential is the contract."""
    report = run_multicore(rows=400, repeats=1, worker_counts=(2,))
    assert report["process_backend"][0]["jobs_dispatched"] > 0
    assert report["process_backend"][0]["wire_bytes_out"] > 0


@pytest.mark.procs
@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the >1.5x multicore bar needs >= 4 cores",
)
def test_multicore_speedup_bar():
    """The acceptance bar: >1.5x real wall clock at 4 process workers."""
    report = run_multicore(rows=12000, repeats=3, worker_counts=(4,))
    assert report["process_backend"][0]["speedup_vs_threads"] > 1.5


def main() -> int:
    report = run_multicore()
    print_table(
        "multicore (cost model off, differential-checked)",
        [
            {
                "workers": entry["process_workers"],
                "median_ms": round(entry["wall"]["median_s"] * 1e3, 1),
                "speedup_vs_threads": entry["speedup_vs_threads"],
                "jobs": entry["jobs_dispatched"],
                "wire_KiB": round(entry["wire_bytes_out"] / 1024, 1),
            }
            for entry in report["process_backend"]
        ],
        ["workers", "median_ms", "speedup_vs_threads", "jobs", "wire_KiB"],
    )
    print(
        f"cpus: {report['cpu_count']}, best speedup "
        f"{report['best_speedup_vs_threads']:.2f}x "
        f"({'meets' if report['meets_bar'] else 'below'} the 1.5x bar"
        f"{'' if report['bar_applicable'] else ', bar needs >= 4 cores'})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
