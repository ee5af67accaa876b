"""Experiment GP — distributed partial aggregation for GROUP BY workloads.

Measures what the partial-aggregation protocol buys on the paper's most
common smart-home query shape (``AVG``/``SUM``/``COUNT`` per device): with
decomposable aggregates the parallel runtime aggregates every leaf chunk
into mergeable states where it lives and ships *group states* up the tree,
instead of merging the raw rows at one node first.

Three configurations over the same tree and the same Table-1-style cost
model (slow links dominate — the smart-home regime the paper targets):

* ``serial`` — the partial-aggregation DAG on one scheduler worker: every
  task runs one after another.
* ``global_merge`` — the parallel DAG with partial aggregation disabled
  (PR 2 behaviour): raw rows union at a single node before the GROUP BY.
* ``partial`` — leaf partial aggregation, per-level combines, one
  finalize; no global merge task exists in the DAG.

Reported per configuration: median wall clock, the transfer-log totals and
the maximum rows/bytes crossing any single hop.  Every configuration's
result is checked byte for byte against the unfragmented reference
(:func:`repro.processor.reference.reference_result`).  The headline metrics are
the wall-clock speedups of ``partial`` over the other two and the per-hop
row reduction (group states vs raw chunks).

``python benchmarks/bench_groupby_pushdown.py`` runs the full-size variant
standalone; ``benchmarks/run_all.py`` embeds the quick variant as the
``groupby_pushdown`` section of ``BENCH_runtime.json``.  The pytest smoke
test below stays tiny; the full-size variant is marked ``slow`` and
therefore opt-in (``pytest -m slow``).
"""

from __future__ import annotations

import argparse
import json
import random
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

from repro.engine.table import Relation  # noqa: E402
from repro.engine.wire import pack_relation  # noqa: E402
from repro.fragment.topology import Topology  # noqa: E402
from repro.policy.presets import figure4_policy  # noqa: E402
from repro.processor.paradise import ParadiseProcessor  # noqa: E402
from repro.processor.reference import reference_result  # noqa: E402
from repro.runtime import CostModel  # noqa: E402

#: The Figure-2 workload family: per-device statistics over the stream.
GROUP_BY_SQL = (
    "SELECT device, COUNT(*) AS n, AVG(value) AS av, SUM(value) AS sv, "
    "MIN(value) AS mn, MAX(value) AS mx "
    "FROM d GROUP BY device"
)

#: Link-bound cost model: per-row compute stays cheap, shipping a KB is
#: expensive (sensor-network links), so traffic reduction is what wins.
DEFAULT_COST = CostModel(seconds_per_row=2e-6, seconds_per_kb=2e-3)

N_SENSORS = 8
N_DEVICES = 4


def device_relation(rows: int, seed: int = 0) -> Relation:
    """Per-device readings: few groups, many rows — the pushdown sweet spot."""
    rng = random.Random(seed)
    data = []
    for index in range(rows):
        data.append(
            {
                "device": rng.randint(1, N_DEVICES),
                "value": round(rng.uniform(0.0, 100.0), 3),
                "flag": rng.random() > 0.1,
                "t": round(index * 0.05, 3),
            }
        )
    return Relation.from_rows(data, name="d")


def build_processor(
    rows: int, partial_aggregation: bool, cost_model: Optional[CostModel]
) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=N_SENSORS, sensors_per_appliance=4),
        cost_model=cost_model,
        partial_aggregation=partial_aggregation,
    )
    processor.load_data(device_relation(rows))
    return processor


def _run(processor: ParadiseProcessor, mode: str):
    return processor.process(
        GROUP_BY_SQL,
        "ActionFilter",
        execution=mode,
        apply_rewriting=False,
        anonymize=False,
    )


def _transfer_summary(result) -> Dict[str, Any]:
    hops = result.transfers.by_hop()
    return {
        "total_rows": result.transfers.total_rows,
        "total_bytes": result.transfers.total_bytes,
        "hop_count": len(hops),
        "max_rows_per_hop": max((hop["rows"] for hop in hops), default=0),
        "max_bytes_per_hop": max((hop["bytes"] for hop in hops), default=0),
    }


def measure_groupby_pushdown(
    rows: int, repeats: int, cost_model: Optional[CostModel] = DEFAULT_COST
) -> Dict[str, Any]:
    """Time serial vs global-merge vs partial and compare traffic per hop."""
    partial = build_processor(rows, True, cost_model)
    baseline = build_processor(rows, False, cost_model)

    samples: Dict[str, List[float]] = {"serial": [], "global_merge": [], "partial": []}
    runs = {}
    for processor, mode, key in (
        (partial, "serial", "serial"),
        (baseline, "parallel", "global_merge"),
        (partial, "parallel", "partial"),
    ):
        _run(processor, mode)  # warmup: parse/compile caches
        for _ in range(repeats):
            started = time.perf_counter()
            result = _run(processor, mode)
            samples[key].append(time.perf_counter() - started)
        runs[key] = result

    expected = pack_relation(
        reference_result(
            partial, GROUP_BY_SQL, "ActionFilter", apply_rewriting=False, anonymize=False
        )
    )
    identical = all(pack_relation(run.result) == expected for run in runs.values())
    medians = {key: statistics.median(values) for key, values in samples.items()}
    stats = runs["partial"].runtime
    entry: Dict[str, Any] = {
        "rows": rows,
        "n_sensors": N_SENSORS,
        "n_groups": N_DEVICES,
        "repeats": repeats,
        "identical_results": identical,
        "median_s": {key: round(value, 6) for key, value in medians.items()},
        "speedup_vs_serial": round(medians["serial"] / medians["partial"], 3),
        "speedup_vs_global_merge": round(
            medians["global_merge"] / medians["partial"], 3
        ),
        "transfer": {key: _transfer_summary(runs[key]) for key in runs},
        "dag": {
            "partial_tasks": stats.partial_count if stats else 0,
            "combine_tasks": stats.combine_count if stats else 0,
            "merge_tasks": stats.merge_count if stats else 0,
        },
    }
    print(
        f"groupby pushdown ({rows} rows): serial {medians['serial'] * 1e3:7.1f}ms  "
        f"global-merge {medians['global_merge'] * 1e3:7.1f}ms  "
        f"partial {medians['partial'] * 1e3:7.1f}ms  "
        f"({entry['speedup_vs_serial']:.2f}x vs serial, "
        f"{entry['speedup_vs_global_merge']:.2f}x vs global merge); "
        f"max rows/hop {entry['transfer']['global_merge']['max_rows_per_hop']} -> "
        f"{entry['transfer']['partial']['max_rows_per_hop']}"
    )
    return entry


# ---------------------------------------------------------------------------
# pytest entry points (tiny smoke in the quick suite; full size is opt-in)
# ---------------------------------------------------------------------------


def test_groupby_pushdown_smoke():
    """Quick-suite smoke: identical results and strictly less traffic."""
    entry = measure_groupby_pushdown(rows=400, repeats=1, cost_model=None)
    assert entry["identical_results"]
    transfer = entry["transfer"]
    # The global-merge arm ships the raw rows; one slot runs the same DAG.
    assert transfer["partial"]["total_rows"] < transfer["global_merge"]["total_rows"]
    assert transfer["partial"]["total_rows"] == transfer["serial"]["total_rows"]
    # Group states, not raw chunks, cross every hop.
    assert transfer["partial"]["max_rows_per_hop"] <= entry["n_groups"]
    assert entry["dag"]["merge_tasks"] == 0
    assert entry["dag"]["partial_tasks"] == entry["n_sensors"]


@pytest.mark.slow
def test_groupby_pushdown_full_size():
    """The acceptance bar: a real wall-clock win in the link-bound regime."""
    entry = measure_groupby_pushdown(rows=3000, repeats=2)
    assert entry["identical_results"]
    assert entry["speedup_vs_serial"] >= 1.5
    assert entry["speedup_vs_global_merge"] >= 1.2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    rows = 800 if args.quick else args.rows
    repeats = 2 if args.quick else args.repeats
    entry = measure_groupby_pushdown(rows=rows, repeats=repeats)
    if args.out is not None:
        args.out.write_text(json.dumps(entry, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
