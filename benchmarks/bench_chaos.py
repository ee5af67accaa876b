"""Experiment FT — recovery overhead of the fault-tolerant runtime (PR 6).

Measures what fault tolerance *costs* and what recovery *buys*:

1. **Healthy overhead.** The same workload with and without checkpointing
   enabled is the same code path (checkpoints are saved opportunistically at
   combine boundaries), so the healthy run's wall clock doubles as the
   zero-failure baseline.
2. **Recovery overhead.** The workload with 1 and 2 seeded random node kills
   (:meth:`~repro.runtime.faults.FailureInjector.random_node_kills`):
   wall-clock ratio vs. the healthy run, plus how many re-plans, in-place
   retries and checkpoint-restored tasks the recovery needed.  Every
   recovered run is differentially checked against the unfragmented
   reference (:func:`repro.processor.reference.reference_result`) — an
   entry only counts if the relations are byte-identical.

``python benchmarks/bench_chaos.py`` prints a table;
``bench_runtime_scaling.py`` embeds the same measurements as the ``chaos``
section of ``BENCH_runtime.json``; tiny pytest configs below keep the quick
suite covering the path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.common import state_memo_hits, summarize_samples  # noqa: E402
from benchmarks.bench_runtime_scaling import build_tree_processor  # noqa: E402
from repro.engine.wire import pack_relation  # noqa: E402
from repro.processor.reference import reference_result  # noqa: E402
from repro.runtime import CostModel, FailureInjector  # noqa: E402

DEFAULT_COST = CostModel(seconds_per_row=2e-5, seconds_per_kb=1e-5)

#: A decomposable GROUP BY workload: the partial-aggregation protocol runs
#: (partial per leaf, combine per level, finalize), so checkpoints exist and
#: recovery has something to restore.
CHAOS_SQL = (
    "SELECT person_id, COUNT(*) AS n, AVG(z) AS avg_z "
    "FROM d GROUP BY person_id"
)

FANOUTS = (8, 16)
FAILURE_COUNTS = (0, 1, 2)


def _run_once(
    rows: int,
    n_sensors: int,
    cost_model: CostModel,
    n_failures: int,
    seed: int,
) -> Dict[str, Any]:
    """One fresh processor, one (possibly faulty) run, one differential check.

    The processor is rebuilt per run: a recovered death permanently degrades
    the shared topology, which would contaminate the next sample.
    """
    processor = build_tree_processor(rows, n_sensors, cost_model=cost_model)
    oracle = reference_result(
        processor, CHAOS_SQL, "ActionFilter", apply_rewriting=False
    )
    faults = None
    if n_failures:
        faults = FailureInjector.random_node_kills(
            processor.topology, n_failures, seed=seed
        )
    hits = state_memo_hits()
    started = time.perf_counter()
    result = processor.process(
        CHAOS_SQL,
        "ActionFilter",
        execution="parallel",
        apply_rewriting=False,
        faults=faults,
    )
    elapsed = time.perf_counter() - started
    # The processor is fresh, so every leaf partial computes; a re-plan
    # re-runs only the leaves its checkpoints cannot restore, over chunks
    # a death re-placed, so it computes too.
    assert state_memo_hits() == hits, "a timed run decoded a kept state"
    identical = pack_relation(result.result) == pack_relation(oracle)
    return {
        "seconds": elapsed,
        "identical": identical,
        "replans": result.runtime.replans,
        "retried_attempts": result.runtime.retried_attempts,
        "restored_tasks": result.runtime.restored_tasks,
        "checkpoints_saved": result.runtime.checkpoints_saved,
        "checkpoint_bytes": result.runtime.checkpoint_bytes,
        "fired": len(faults.fired) if faults is not None else 0,
    }


def measure_chaos(
    rows: int,
    repeats: int,
    cost_model: CostModel = DEFAULT_COST,
    fanouts=FANOUTS,
    failure_counts=FAILURE_COUNTS,
) -> List[Dict[str, Any]]:
    """Recovery overhead per (fan-out, injected-failure-count) cell."""
    entries: List[Dict[str, Any]] = []
    for n_sensors in fanouts:
        healthy_median: Optional[float] = None
        for n_failures in failure_counts:
            runs = [
                _run_once(
                    rows,
                    n_sensors,
                    cost_model,
                    n_failures,
                    seed=17 * n_sensors + 7 * n_failures + repeat,
                )
                for repeat in range(repeats)
            ]
            assert all(run["identical"] for run in runs), (
                f"recovered run diverged from the reference "
                f"(fanout={n_sensors}, failures={n_failures})"
            )
            samples = [run["seconds"] for run in runs]
            median = statistics.median(samples)
            if n_failures == 0:
                healthy_median = median
            entry = {
                "n_sensors": n_sensors,
                "rows": rows,
                "injected_failures": n_failures,
                "wall": summarize_samples(samples, rows=rows),
                "overhead_vs_healthy": (
                    round(median / healthy_median, 3) if healthy_median else None
                ),
                "replans_median": statistics.median(
                    run["replans"] for run in runs
                ),
                "retried_attempts_total": sum(
                    run["retried_attempts"] for run in runs
                ),
                "restored_tasks_total": sum(
                    run["restored_tasks"] for run in runs
                ),
                "checkpoints_saved_median": statistics.median(
                    run["checkpoints_saved"] for run in runs
                ),
                "checkpoint_bytes_median": statistics.median(
                    run["checkpoint_bytes"] for run in runs
                ),
                "faults_fired_total": sum(run["fired"] for run in runs),
            }
            entries.append(entry)
            overhead = entry["overhead_vs_healthy"]
            print(
                f"fanout {n_sensors:>2} failures {n_failures}: "
                f"{median * 1e3:8.1f}ms  "
                f"overhead {overhead if overhead is not None else 1.0:>5}x  "
                f"replans {entry['replans_median']:.0f}  "
                f"restored {entry['restored_tasks_total']}"
            )
    return entries


def run_chaos(
    rows: int = 1200,
    repeats: int = 3,
    cost_model: CostModel = DEFAULT_COST,
    fanouts=FANOUTS,
    failure_counts=FAILURE_COUNTS,
) -> Dict[str, Any]:
    """The ``chaos`` report section: recovery overhead grid + contract note."""
    return {
        "workload": CHAOS_SQL,
        "metric_note": "median wall seconds per (fanout, injected random node "
        "kills); every recovered run is asserted byte-identical to the "
        "unfragmented reference before it is counted",
        "entries": measure_chaos(
            rows,
            repeats,
            cost_model=cost_model,
            fanouts=fanouts,
            failure_counts=failure_counts,
        ),
    }


# ---------------------------------------------------------------------------
# pytest smoke configs (tiny; the quick suite keeps the path covered)
# ---------------------------------------------------------------------------


def test_chaos_recovery_overhead_smoke():
    entries = measure_chaos(
        rows=240,
        repeats=1,
        cost_model=CostModel(seconds_per_row=1e-5),
        fanouts=(8,),
        failure_counts=(0, 1),
    )
    assert len(entries) == 2
    healthy, faulty = entries
    assert healthy["injected_failures"] == 0
    assert faulty["faults_fired_total"] >= 0
    # The differential check already ran inside measure_chaos (identical
    # rows); here just confirm the overhead math is populated.
    assert faulty["overhead_vs_healthy"] is not None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1200)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="smaller rows/repeats for CI"
    )
    args = parser.parse_args(argv)
    rows = 400 if args.quick else args.rows
    repeats = 2 if args.quick else args.repeats
    report = run_chaos(rows=rows, repeats=repeats)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
