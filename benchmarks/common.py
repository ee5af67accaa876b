"""Shared workload builders for the benchmark harness.

Every paper benchmark regenerates one artefact of the paper.  The experiment
index:

* T1 ``bench_table1_capabilities.py`` — Table 1: capability classes E1–E4
  and operator placement;
* F2 ``bench_fig2_processor.py`` — Figure 2: the privacy-aware processor
  pipeline;
* F3 ``bench_fig3_fragmentation.py`` — Figure 3: vertical fragmentation and
  data reduction towards the cloud;
* F4 ``bench_fig4_policy.py`` — Figure 4: the running example's policy;
* UC ``bench_usecase_rewrite.py`` — Section 4.2: ``Q`` → ``Q1..Q4`` + ``Qδ``;
* A1 ``bench_ablation_pushdown.py`` — ablation: pushdown on/off;
* A2 ``bench_ablation_anonymization.py`` — ablation: anonymization
  algorithms and information loss;
* A3 ``bench_ablation_overhead.py`` — ablation: rewriting and
  fragmentation overhead.

The paper itself reports no quantitative measurements — its table and figures
are architectural — so each of these benchmarks (a) reconstructs the artefact
programmatically and (b) measures the quantities the paper claims
qualitatively: data reduction towards the cloud, operator placement, rewriting
overhead and the privacy/utility trade-off of the postprocessor.  The other
``bench_*.py`` files measure the runtime built around the pipeline
(columnar storage, partial aggregation, fault tolerance, process workers,
tracing, the optimizer, tree scaling, standing queries); ``benchmarks/e2e``
is the end-to-end benchmark ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy, restrictive_policy
from repro.processor.paradise import ParadiseProcessor
from repro.runtime.memo import KEPT_OPS, forget
from repro.sensors.scenario import INTEGRATED_SCHEMA

#: The paper's analysis query (Section 4.2) as plain SQL.
PAPER_SQL = (
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) "
    "FROM (SELECT x, y, z, t FROM d)"
)

#: The R analysis call wrapping the SQL island.
PAPER_R_CODE = (
    "filterByClass(sqldf(" + PAPER_SQL + "), action='walk', do.plot=F)"
)


def synthetic_sensor_relation(rows: int, seed: int = 0, grid: float = 1.0) -> Relation:
    """Zone-quantised position readings shaped like the integrated relation d."""
    rng = random.Random(seed)
    data = []
    for index in range(rows):
        x = round(round(rng.uniform(0, 8) / grid) * grid, 3)
        y = round(round(rng.uniform(0, 6) / grid) * grid, 3)
        data.append(
            {
                "person_id": rng.randint(1, 6),
                "x": x,
                "y": y,
                "z": round(rng.uniform(0.1, 1.9), 3),
                "t": round(index * 0.1, 3),
                "valid": rng.random() > 0.05,
                "activity": rng.choice(["walk", "sit", "stand", "present"]),
            }
        )
    return Relation(schema=INTEGRATED_SCHEMA, rows=data, name="d")


def build_processor(rows: int, policy=None, seed: int = 0, **kwargs) -> ParadiseProcessor:
    """A ready-to-run processor with ``rows`` synthetic readings loaded."""
    relation = synthetic_sensor_relation(rows, seed=seed)
    processor = ParadiseProcessor(
        policy or figure4_policy(), schema=INTEGRATED_SCHEMA, **kwargs
    )
    processor.load_data(relation)
    return processor


def forget_kept_states(processor: ParadiseProcessor) -> None:
    """Drop the leaf states every base chunk keeps and the task outputs
    every node keeps (combines, finalizes, unions, query stages, step A),
    so the next run's leaf partials scan their chunks and every task
    after them computes again.

    A benchmark that times compute calls it outside the timed window of
    each repeat: plans and statistics stay warm, so the repeat does the
    work a cached text's first run does, not a decode of the state a
    previous repeat kept.  Kept outputs go too: they are keyed on their
    input bytes, which a leaf that computes again reproduces.
    """
    forget(processor.network)


def state_memo_hits() -> int:
    """Tasks so far, process-wide, that output kept bytes instead of
    computing them: leaf partials and every kept-output kind
    (:data:`repro.runtime.memo.KEPT_OPS`); a timed repeat checks it did
    not move."""
    return registry.value("runtime.state_memo.hits") + sum(
        registry.value(f"runtime.state_memo.{op}_hits") for op in KEPT_OPS
    )


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile of a sample list (q in [0, 1])."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def summarize_samples(samples: List[float], rows: Optional[int] = None) -> Dict[str, Any]:
    """Median/p90/min/max (seconds) plus rows/sec when a row count is given."""
    summary: Dict[str, Any] = {
        "runs": len(samples),
        "median_s": statistics.median(samples),
        "p90_s": percentile(samples, 0.9),
        "min_s": min(samples),
        "max_s": max(samples),
    }
    if rows is not None:
        summary["rows"] = rows
        summary["rows_per_s"] = rows / summary["median_s"] if summary["median_s"] else None
    return summary


def timed_run(
    fn: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
    rows: Optional[int] = None,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Time ``fn`` with wall-clock repeats and return a sample summary.

    Args:
        fn: The workload; called ``warmup + repeats`` times.
        repeats: Measured runs (median/p90 are computed over these).
        warmup: Untimed runs to populate parse/compile caches first.
        rows: Input row count, for rows/sec reporting.
        on_result: Optional hook receiving each measured run's return value
            (used to collect engine-only timings from processing results).
    """
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
        if on_result is not None:
            on_result(result)
    return summarize_samples(samples, rows=rows)


def print_table(title: str, rows, columns) -> None:
    """Print a small fixed-width results table (shown with ``pytest -s``)."""
    print(f"\n=== {title} ===")
    widths = {
        column: max(len(column), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    print(header)
    print("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        print(" | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns))
