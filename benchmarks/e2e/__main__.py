"""End-to-end benchmark of the privacy pipeline.

Usage (from the repository root)::

    python3 benchmarks/e2e [--workload NAME] [--seed N] [--seconds S]
        [--trace [0|1]] [--repeat N] [--out PATH]

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same command.)

Each workload runs in its own worker process with ``PYTHONHASHSEED=0``.
Workers set up one after another, then their rounds run round-robin —
round 0 of every workload, then round 1, ... — so a slow phase of a shared
host is spread over all workloads instead of landing on one.  Only one
process works at a time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or with
``--trace`` the per-layer ones) for a single ``--workload``; per-workload
entries under ``workloads`` otherwise.  The command exits non-zero if any
op failed its check.  ``--out`` (default ``.bench_out/e2e.json``) receives
the full report — every metric, seed, traffic digest, set-up samples — and,
for traced runs, one Chrome ``trace_event`` file per workload beside it.
``--repeat N`` runs N sets back to back and prints each metric's median,
quartiles and spreads, flagging end-to-end metrics whose quartile spread
exceeds the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.runner import ROUNDS, select_metrics  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


class Worker:
    """One workload's worker process and its line protocol."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.name = config["workload"]
        environment = dict(
            os.environ,
            PYTHONHASHSEED="0",
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.runner", json.dumps(config)],
            cwd=ROOT,
            env=environment,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def receive(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.name} worker exited with code {self.process.wait()}"
            )
        return json.loads(line)

    def request(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.receive()

    def close(self) -> None:
        """End the worker: EOF on stdin stops an idle one; kill a stuck one."""
        if self.process.poll() is None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def run_set(
    names: List[str], seed: int, seconds: float, trace: bool, out: Path
) -> Dict[str, Dict[str, Any]]:
    """One set: every named workload, rounds interleaved; name -> report."""
    workers: List[Worker] = []
    try:
        for name in names:
            config = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
            if trace:
                config["trace_path"] = str(out.with_suffix(f".{name}.trace.json"))
            workers.append(Worker(config))
            # Set-ups are timed: wait for this one before starting the next.
            workers[-1].receive()
        for index in range(ROUNDS):
            for worker in workers:
                worker.request(f"round {index}")
        return {worker.name: worker.request("finish") for worker in workers}
    finally:
        for worker in workers:
            worker.close()


def spread_table(
    sets: List[Dict[str, Dict[str, Any]]], trace: bool, bounds: Dict[str, float]
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per workload and metric: median, quartiles, and spreads over sets."""
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in sets[0]:
        table[name] = {}
        for metric in select_metrics(sets[0][name], trace):
            values = [select_metrics(s[name], trace)[metric]["value"] for s in sets]
            if None in values:  # some set failed every op: nothing to compare
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "range": (max(values) - min(values)) / median if median else 0.0,
            }
            if metric in bounds:
                row["bound"] = bounds[metric]
            table[name][metric] = row
    return table


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="benchmarks/e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="print per-layer metrics from a traced run",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "e2e.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    sets = [run_set(names, args.seed, args.seconds, trace, args.out) for _ in range(args.repeat)]
    args.out.write_text(json.dumps({"sets": sets}, indent=1))
    attempted = sum(r["attempted"] for s in sets for r in s.values())
    failed = sum(r["failed"] for s in sets for r in s.values())

    for name in names:
        report = sets[-1][name]
        print(
            f"{name}: seed {report['seed']}, {report['ops']} ops x {len(sets)} set(s), "
            f"{report['rows']} rows, digest {report['digest'][:16]}, "
            f"repeated text share {report['repeated_text_share']}"
        )
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
    if args.repeat > 1:
        bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
        table = spread_table(sets, trace, bounds)
        for name, rows in table.items():
            print(f"{name}: median [q1, q3] spread range over {args.repeat} sets")
            for metric, row in rows.items():
                flag = " OVER BOUND" if row["spread"] > row.get("bound", float("inf")) else ""
                print(
                    f"  {metric:44s} {row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] "
                    f"{row['spread']:.3f} {row['range']:.3f}{flag}"
                )
        summary: Dict[str, Any] = {"spreads": table}
    else:
        results = {
            name: {
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": select_metrics(report, trace),
            }
            for name, report in sets[0].items()
        }
        for name, result in results.items():
            print(f"{name}:")
            for metric, entry in result["metrics"].items():
                value = "-" if entry["value"] is None else f"{entry['value']:.6g}"
                print(f"  {metric:44s} {value} {entry['unit']}")
        summary = results[names[0]] if args.workload else {"workloads": results}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, **summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
