"""Run every benchmark in quick mode and record the perf baselines.

Five jobs in one entry point:

1. **Quick suite** — execute every ``bench_*.py`` under pytest with
   pytest-benchmark's timing disabled, so the whole suite doubles as a smoke
   test (seconds, not minutes).
2. **Engine baseline** — time the two engine-bound paper workloads
   (``bench_fig2_processor.py``'s pipeline query and
   ``bench_usecase_rewrite.py``'s R use case) through both execution paths
   (interpreted oracle vs. compiled default) in the same process, and write
   ``BENCH_engine.json`` with median/p90 latencies, rows/sec and speedups.
   The ``columnar`` section (``bench_columnar.py``) additionally compares
   the vectorized columnar scans against the row-dict scan baseline on
   projection/filter/aggregate microbenchmarks at 10k and 100k rows.
   Future PRs compare against this trajectory to prove wins or catch
   regressions.
3. **Runtime scaling baseline** — run ``bench_runtime_scaling.py`` in quick
   mode (parallel vs. one-worker DAG execution over sensor fan-outs,
   plus concurrent sessions) and write ``BENCH_runtime.json``.  Its
   ``multicore`` section (``bench_multicore.py``) compares the thread
   backend against 1/2/4 process workers on a compute-bound workload with
   cost-model sleeps disabled, differential-checked in-loop.
4. **Observability guardrail** — run ``bench_obs_overhead.py`` (the ``obs``
   section): asserts tracing-disabled overhead stays under 2% on the fig2
   workload, that concurrent profiled sessions never leak spans, and records
   the achieved runtime overlap plus vectorized fast-path hit counts.
5. **Cold reads** — ``bench_cold.py`` (the ``cold`` section): the four
   end-to-end read shapes at their sizes with every kept state forgotten
   before each op, CPU per op and its split by layer, every op checked
   against the reference.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--repeats N] [--skip-suite]
        [--skip-runtime] [--only SECTION]

``--only <section>`` runs exactly one section (``suite``, ``workloads``,
``columnar``, ``optimizer``, ``obs``, ``runtime``, ``standing`` or
``cold``) — handy for CI smoke runs.  When the ``--out`` report exists,
the section replaces its own entry there and the others stay (``--only
cold`` records the cold section of ``BENCH_engine.json``); CI passes a
scratch ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.common import (  # noqa: E402
    PAPER_R_CODE,
    PAPER_SQL,
    build_processor,
    summarize_samples,
)

#: Sections selectable with ``--only`` (default: all except the standalone
#: ``standing`` grid, which normally rides inside the ``runtime`` report).
SECTIONS = (
    "suite",
    "workloads",
    "columnar",
    "optimizer",
    "obs",
    "runtime",
    "standing",
    "cold",
)

#: Engine-bound workloads; row counts mirror the corresponding bench files.
WORKLOADS = [
    {
        "name": "fig2_processor",
        "bench": "bench_fig2_processor.py",
        "rows": 3000,
        "description": "full privacy pipeline (admit + rewrite + fragment + "
        "execute + anonymize) over the paper's SQL query",
        "use_r": False,
    },
    {
        "name": "usecase_rewrite",
        "bench": "bench_usecase_rewrite.py",
        "rows": 4000,
        "description": "Section 4.2 R use case end to end (extraction, "
        "rewriting, staged execution Q1..Q4 + Qdelta)",
        "use_r": True,
    },
]


def run_quick_suite() -> Dict[str, Any]:
    """Run every bench_*.py once with benchmark timing disabled."""
    bench_files = sorted(path.name for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[f"benchmarks/{name}" for name in bench_files],
        "-q",
        # Full-size benchmark variants are marked ``slow`` and stay opt-in
        # (run them directly or with ``pytest -m slow``).
        "-m",
        "not slow",
        "--benchmark-disable",
        "-p",
        "no:cacheprovider",
    ]
    completed = subprocess.run(
        command,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    tail = completed.stdout.strip().splitlines()[-1] if completed.stdout.strip() else ""
    print(f"quick suite [{', '.join(bench_files)}]: {tail}")
    return {
        "files": bench_files,
        "exit_code": completed.returncode,
        "summary": tail,
    }


def measure_workload(workload: Dict[str, Any], repeats: int) -> Dict[str, Dict[str, Any]]:
    """Time both execution modes, interleaved so they share noise windows."""
    modes = ("interpreted", "compiled")
    processors = {
        mode: build_processor(workload["rows"], engine_mode=mode) for mode in modes
    }
    wall: Dict[str, List[float]] = {mode: [] for mode in modes}
    engine: Dict[str, List[float]] = {mode: [] for mode in modes}

    def run(mode: str):
        processor = processors[mode]
        if workload["use_r"]:
            result = processor.process_r(PAPER_R_CODE, "ActionFilter")
        else:
            result = processor.process(PAPER_SQL, "ActionFilter")
        assert result.admitted
        return result

    for mode in modes:  # warmup: populate parse/compile caches
        run(mode)
    for _ in range(repeats):
        for mode in modes:
            started = time.perf_counter()
            result = run(mode)
            wall[mode].append(time.perf_counter() - started)
            engine[mode].append(sum(e.elapsed_seconds for e in result.executions))

    summaries: Dict[str, Dict[str, Any]] = {}
    for mode in modes:
        summary = summarize_samples(wall[mode], rows=workload["rows"])
        summary["engine_median_s"] = statistics.median(engine[mode])
        summary["engine_samples"] = summarize_samples(engine[mode])
        summaries[mode] = summary
    return summaries


def run_engine_baseline(repeats: int) -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    for workload in WORKLOADS:
        entry: Dict[str, Any] = {
            "bench": workload["bench"],
            "rows": workload["rows"],
            "description": workload["description"],
        }
        entry.update(measure_workload(workload, repeats))
        entry["speedup_median"] = round(
            entry["interpreted"]["median_s"] / entry["compiled"]["median_s"], 3
        )
        entry["engine_speedup_median"] = round(
            entry["interpreted"]["engine_median_s"] / entry["compiled"]["engine_median_s"],
            3,
        )
        print(
            f"{workload['name']}: {entry['interpreted']['median_s'] * 1e3:.1f}ms -> "
            f"{entry['compiled']['median_s'] * 1e3:.1f}ms "
            f"({entry['speedup_median']:.2f}x pipeline, "
            f"{entry['engine_speedup_median']:.2f}x engine)"
        )
        results[workload["name"]] = entry
    return results


def main(argv: List[str] | None = None) -> int:
    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return parsed

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=positive_int, default=7, help="measured runs per mode (>= 1)"
    )
    parser.add_argument("--skip-suite", action="store_true", help="skip the pytest quick pass")
    parser.add_argument(
        "--skip-runtime", action="store_true", help="skip the runtime scaling baseline"
    )
    parser.add_argument(
        "--skip-columnar", action="store_true", help="skip the columnar scan section"
    )
    parser.add_argument(
        "--skip-obs", action="store_true", help="skip the observability overhead section"
    )
    parser.add_argument(
        "--skip-optimizer",
        action="store_true",
        help="skip the cost-based-optimizer section",
    )
    parser.add_argument(
        "--only",
        choices=SECTIONS,
        help="run exactly one section (overrides the --skip-* flags); "
        "``--only standing`` runs the quick standing-query grid standalone",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_engine.json", help="output path"
    )
    parser.add_argument(
        "--runtime-out",
        type=Path,
        default=REPO_ROOT / "BENCH_runtime.json",
        help="runtime scaling output path",
    )
    args = parser.parse_args(argv)

    if args.only:
        enabled = {args.only}
    else:
        enabled = set(SECTIONS)
        if args.skip_suite:
            enabled.discard("suite")
        if args.skip_columnar:
            enabled.discard("columnar")
        if args.skip_optimizer:
            enabled.discard("optimizer")
        if args.skip_obs:
            enabled.discard("obs")
        if args.skip_runtime:
            enabled.discard("runtime")
        # ``standing`` rides inside the runtime report on full runs; the
        # standalone section exists for ``--only standing``.
        enabled.discard("standing")

    report: Dict[str, Any] = {
        "generated_by": "benchmarks/run_all.py",
        "python": sys.version.split()[0],
        "repeats": args.repeats,
        "metric_note": "median/p90 wall seconds; engine_* sums the per-fragment "
        "execution times, excluding rewriting/anonymization/network overheads "
        "shared by both modes",
    }
    if "suite" in enabled:
        report["quick_suite"] = run_quick_suite()
    if "workloads" in enabled:
        report["workloads"] = run_engine_baseline(args.repeats)

    if "columnar" in enabled:
        from benchmarks.bench_columnar import run_columnar

        report["columnar"] = run_columnar([10_000, 100_000], repeats=args.repeats)

    if "optimizer" in enabled:
        from benchmarks.bench_optimizer import run_optimizer

        # Skewed-conjunct filter, build-side-sensitive join, and adaptive
        # partial-aggregation placement — each differential-checked in-loop
        # against the EngineConfig(optimizer=False) ablation.
        report["optimizer"] = run_optimizer(rows=100_000, repeats=args.repeats)

    if "obs" in enabled:
        from benchmarks.bench_obs_overhead import run_obs_overhead

        # Asserts tracing-disabled overhead < 2% on the fig2 workload and
        # that concurrent profiled sessions never leak spans; also records
        # the parallel run's achieved overlap and vectorized fast-path hits.
        report["obs"] = run_obs_overhead()
        print(
            f"obs: disabled overhead {report['obs']['disabled_overhead']:+.1%}, "
            f"enabled {report['obs']['enabled_overhead']:+.1%}, "
            f"overlap x{report['obs']['overlap']:.2f}"
        )

    if "standing" in enabled:
        from benchmarks.bench_standing import run_standing

        # Quick standalone grid (one fanout, two query counts) — the full
        # grid runs inside the runtime section's BENCH_runtime.json.
        report["standing"] = run_standing(
            refreshes=3, query_counts=(16, 64), fanouts=(8,)
        )

    if "runtime" in enabled:
        from benchmarks.bench_runtime_scaling import run_runtime_scaling

        runtime_report = run_runtime_scaling(
            rows=800, repeats=2, out=args.runtime_out
        )
        pushdown = runtime_report.get("groupby_pushdown", {})
        report["runtime_scaling"] = {
            "out": str(args.runtime_out),
            "eight_sensor_speedup": next(
                (
                    entry["speedup_median"]
                    for entry in runtime_report["fanout"]
                    if entry["n_sensors"] >= 8
                ),
                None,
            ),
            "groupby_pushdown_speedup_vs_serial": pushdown.get("speedup_vs_serial"),
            "groupby_pushdown_speedup_vs_global_merge": pushdown.get(
                "speedup_vs_global_merge"
            ),
            "multicore_best_speedup_vs_threads": runtime_report.get(
                "multicore", {}
            ).get("best_speedup_vs_threads"),
            "standing_best_marginal_speedup_at_64": runtime_report.get(
                "standing", {}
            ).get("best_marginal_speedup_at_64"),
            "chaos_recovery_overheads": {
                f"fanout{entry['n_sensors']}_failures{entry['injected_failures']}": entry[
                    "overhead_vs_healthy"
                ]
                for entry in runtime_report.get("chaos", {}).get("entries", [])
                if entry["injected_failures"] > 0
            },
        }

    if "cold" in enabled:
        from benchmarks.bench_cold import run_cold

        # Every op checked against the reference in-loop; fails if a timed
        # op output a kept state.
        report["cold"] = run_cold()
        for name, record in report["cold"]["shapes"].items():
            print(f"cold {name}: {1e3 * record['cpu_s_per_op']:.2f} ms CPU/op")

    if args.only and args.out.exists():
        # One section replaces its own entry of the report already there.
        report = {**json.loads(args.out.read_text()), **report}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if "quick_suite" in report and report["quick_suite"]["exit_code"] != 0:
        return report["quick_suite"]["exit_code"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
