"""Experiment RT — parallel runtime scaling over tree topologies.

Measures what the new :mod:`repro.runtime` subsystem buys:

1. **Sensor fan-out.** The same workload on ``smart_home_tree(n)`` trees for
   growing ``n``, executed serially (the same DAG on one scheduler worker:
   every task runs one after another) vs. in parallel (the per-node slot
   pool overlaps the leaf tasks and the per-appliance lifts).  Node speeds follow Table 1 via a
   :class:`~repro.runtime.cost.CostModel` (a sensor is 0.1x, the PC 10x),
   charged identically on both paths, so the reported speedup is pure
   wall-clock overlap.
2. **Concurrent sessions.** Many independent user queries against one shared
   8-sensor tree: submitted through the
   :class:`~repro.runtime.session.SessionFrontEnd` vs. processed one at a
   time.  Sessions contend for the same per-node worker slots, so this
   measures honest pipeline overlap, not free parallelism — all queries scan
   all sensors, which bounds throughput by sensor capacity.

``python benchmarks/bench_runtime_scaling.py`` writes ``BENCH_runtime.json``;
``benchmarks/run_all.py`` invokes the same entry point in quick mode.  The
pytest functions below run tiny configurations so the quick suite doubles as
a smoke test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.common import (  # noqa: E402
    PAPER_SQL,
    print_table,
    summarize_samples,
    synthetic_sensor_relation,
)
from repro.fragment.topology import Topology  # noqa: E402
from repro.policy.presets import figure4_policy  # noqa: E402
from repro.processor.paradise import ParadiseProcessor  # noqa: E402
from repro.runtime import CostModel, QueryRequest, SessionFrontEnd  # noqa: E402
from repro.sensors.scenario import INTEGRATED_SCHEMA  # noqa: E402

#: Table-1-shaped simulated costs (see repro.runtime.cost); both execution
#: paths charge the same operations, so speedups measure overlap only.
DEFAULT_COST = CostModel(seconds_per_row=2e-5, seconds_per_kb=1e-5)

FANOUTS = (1, 2, 4, 8, 16)
SESSION_COUNTS = (1, 4, 8)


def build_tree_processor(
    rows: int, n_sensors: int, cost_model: Optional[CostModel] = None
) -> ParadiseProcessor:
    topology = (
        Topology.smart_home_tree(n_sensors=n_sensors, sensors_per_appliance=4)
        if n_sensors > 1
        else Topology.default_chain()
    )
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=topology,
        schema=INTEGRATED_SCHEMA,
        cost_model=cost_model,
    )
    processor.load_data(synthetic_sensor_relation(rows))
    return processor


def _time_mode(processor: ParadiseProcessor, mode: str, repeats: int) -> List[float]:
    samples = []
    processor.process(PAPER_SQL, "ActionFilter", execution=mode)  # warmup
    for _ in range(repeats):
        started = time.perf_counter()
        result = processor.process(PAPER_SQL, "ActionFilter", execution=mode)
        samples.append(time.perf_counter() - started)
        assert result.admitted
    return samples


def measure_fanout(
    rows: int, repeats: int, cost_model: CostModel, fanouts=FANOUTS
) -> List[Dict[str, Any]]:
    """Serial vs parallel wall clock per sensor fan-out."""
    entries: List[Dict[str, Any]] = []
    for n_sensors in fanouts:
        processor = build_tree_processor(rows, n_sensors, cost_model=cost_model)
        serial = _time_mode(processor, "serial", repeats)
        parallel = _time_mode(processor, "parallel", repeats)
        last = processor.process(PAPER_SQL, "ActionFilter", execution="parallel")
        entry = {
            "n_sensors": n_sensors,
            "rows": rows,
            "serial": summarize_samples(serial, rows=rows),
            "parallel": summarize_samples(parallel, rows=rows),
            "speedup_median": round(
                statistics.median(serial) / statistics.median(parallel), 3
            ),
            "partition_width": last.runtime.partition_width,
            "dag_tasks": last.runtime.task_count,
            "overlap_factor": round(last.runtime.overlap_factor, 3),
        }
        entries.append(entry)
        print(
            f"fanout {n_sensors:>2}: serial {statistics.median(serial) * 1e3:8.1f}ms  "
            f"parallel {statistics.median(parallel) * 1e3:8.1f}ms  "
            f"speedup {entry['speedup_median']:.2f}x  "
            f"({entry['dag_tasks']} tasks)"
        )
    return entries


def measure_sessions(
    rows: int, repeats: int, cost_model: CostModel, session_counts=SESSION_COUNTS
) -> List[Dict[str, Any]]:
    """Concurrent admission vs one-at-a-time processing on a shared tree."""
    entries: List[Dict[str, Any]] = []
    processor = build_tree_processor(rows, 8, cost_model=cost_model)
    processor.process(PAPER_SQL, "ActionFilter", execution="parallel")  # warmup
    for queries in session_counts:
        requests = [
            QueryRequest(query=PAPER_SQL, module_id="ActionFilter")
            for _ in range(queries)
        ]
        sequential_samples: List[float] = []
        concurrent_samples: List[float] = []
        serial_samples: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            for request in requests:
                processor.process(
                    request.query, request.module_id, execution="serial"
                )
            serial_samples.append(time.perf_counter() - started)

            started = time.perf_counter()
            for request in requests:
                processor.process(
                    request.query, request.module_id, execution="parallel"
                )
            sequential_samples.append(time.perf_counter() - started)

            with SessionFrontEnd(processor, max_concurrent=8) as front_end:
                started = time.perf_counter()
                results = front_end.run_batch(requests)
                concurrent_samples.append(time.perf_counter() - started)
            assert all(result.admitted for result in results)
        entry = {
            "queries": queries,
            "rows": rows,
            "serial_one_at_a_time": summarize_samples(serial_samples),
            "parallel_one_at_a_time": summarize_samples(sequential_samples),
            "concurrent_sessions": summarize_samples(concurrent_samples),
            "pipeline_speedup_median": round(
                statistics.median(sequential_samples)
                / statistics.median(concurrent_samples),
                3,
            ),
            "vs_serial_speedup_median": round(
                statistics.median(serial_samples)
                / statistics.median(concurrent_samples),
                3,
            ),
        }
        entries.append(entry)
        print(
            f"sessions {queries:>2}: serial-seq {statistics.median(serial_samples) * 1e3:8.1f}ms  "
            f"parallel-seq {statistics.median(sequential_samples) * 1e3:8.1f}ms  "
            f"concurrent {statistics.median(concurrent_samples) * 1e3:8.1f}ms  "
            f"(x{entry['vs_serial_speedup_median']:.2f} vs serial)"
        )
    return entries


def run_runtime_scaling(
    rows: int = 2000,
    repeats: int = 3,
    out: Optional[Path] = None,
    cost_model: CostModel = DEFAULT_COST,
    fanouts=FANOUTS,
    session_counts=SESSION_COUNTS,
) -> Dict[str, Any]:
    """Run all runtime measurements and (optionally) write ``BENCH_runtime.json``."""
    from benchmarks.bench_groupby_pushdown import measure_groupby_pushdown

    report: Dict[str, Any] = {
        "generated_by": "benchmarks/bench_runtime_scaling.py",
        "python": sys.version.split()[0],
        "rows": rows,
        "repeats": repeats,
        "cost_model": {
            "seconds_per_row": cost_model.seconds_per_row,
            "seconds_per_kb": cost_model.seconds_per_kb,
        },
        "metric_note": "median/p90 wall seconds; both modes charge identical "
        "simulated node/link costs (Table 1 relative speeds), so speedups "
        "measure scheduling overlap only",
        "fanout": measure_fanout(rows, repeats, cost_model, fanouts=fanouts),
        "sessions": measure_sessions(
            rows, repeats, cost_model, session_counts=session_counts
        ),
        # Distributed partial aggregation on the GROUP BY workload: its own
        # link-bound cost model (see bench_groupby_pushdown.DEFAULT_COST),
        # serial vs global-merge vs partial, wall clock and bytes per hop.
        "groupby_pushdown": measure_groupby_pushdown(rows=rows, repeats=repeats),
    }
    # Fault-tolerance recovery overhead (PR 6): seeded random node kills at
    # 8/16 sensors, each recovered run differentially checked in-loop.
    from benchmarks.bench_chaos import run_chaos

    report["chaos"] = run_chaos(
        rows=min(rows, 1200), repeats=max(2, repeats - 1), cost_model=cost_model
    )
    # Process-backend compute overlap (PR 8): cost model disabled, thread
    # baseline vs 1/2/4 process workers, differential-checked in-loop.  Row
    # count is fixed independently of ``rows`` so engine compute dominates
    # the wire/IPC overhead being amortized.
    from benchmarks.bench_multicore import run_multicore

    report["multicore"] = run_multicore(repeats=max(2, repeats))
    # Incremental standing queries (PR 10): delta-maintained aggregate trees
    # vs re-execute-per-refresh, differential-checked in-loop.  Row count is
    # fixed independently of ``rows`` so the from-scratch baseline reflects a
    # realistically accumulated stream.
    from benchmarks.bench_standing import run_standing

    report["standing"] = run_standing(refreshes=max(3, repeats))
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return report


# ---------------------------------------------------------------------------
# pytest smoke benchmarks (tiny configs; run in the quick suite)
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="runtime-scaling")
def test_bench_parallel_tree_execution(benchmark):
    processor = build_tree_processor(600, 8, cost_model=CostModel(seconds_per_row=2e-5))
    result = benchmark.pedantic(
        processor.process,
        args=(PAPER_SQL, "ActionFilter"),
        kwargs={"execution": "parallel"},
        rounds=2,
        iterations=1,
    )
    assert result.admitted
    assert result.runtime is not None
    assert result.runtime.partition_width == 8


def test_runtime_speedup_on_eight_sensor_tree():
    """The acceptance bar: >= 1.5x over serial on a >= 8-sensor tree."""
    entries = measure_fanout(
        600, repeats=2, cost_model=CostModel(seconds_per_row=2e-5), fanouts=(8,)
    )
    assert entries[0]["speedup_median"] >= 1.5


def test_sessions_front_end_smoke():
    entries = measure_sessions(
        400, repeats=1, cost_model=CostModel(seconds_per_row=1e-5), session_counts=(4,)
    )
    assert entries[0]["concurrent_sessions"]["runs"] == 1
    assert entries[0]["vs_serial_speedup_median"] > 1.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_runtime.json"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller rows/repeats for CI"
    )
    args = parser.parse_args(argv)
    rows = 800 if args.quick else args.rows
    repeats = 2 if args.quick else args.repeats
    report = run_runtime_scaling(rows=rows, repeats=repeats, out=args.out)
    eight = next(e for e in report["fanout"] if e["n_sensors"] >= 8)
    print(
        f"8-sensor speedup: {eight['speedup_median']:.2f}x "
        f"({'meets' if eight['speedup_median'] >= 1.5 else 'MISSES'} the 1.5x bar)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
