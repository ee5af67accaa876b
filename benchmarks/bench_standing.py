"""Experiment ST — incremental standing queries vs re-execute-per-refresh.

N standing decomposable GROUP BY queries register against one continuously
loaded sensor tree (:mod:`repro.runtime.standing`).  Each refresh appends
one delta chunk to a round-robin leaf, which only lands the rows (the
grown chunk keeps its leaf states), then reads every subscriber: each
tree's first read takes every holder's leaf state from its chunk (a hit,
or for the grown chunk a fold of the appended rows into the state it
kept), merges them once, and each handle runs its finalize tail.  The
baseline re-executes each registered query from scratch over the full
current data on every refresh.

Reported per (fanout, query count):

* ``refresh`` — incremental wall clock per delta: the append plus a read
  of all N subscribers, the work an eager refresh would do, and the
  **per-query marginal cost** ``refresh / N``;
* ``reexecute_per_query`` — the from-scratch per-query cost (measured on a
  rotating sample of the registered queries, recorded as such);
* ``marginal_speedup`` — re-execute / incremental marginal cost.  The
  acceptance bar is >= 5x at 64 standing queries;
* ``trees`` / ``max_subscribers`` — cross-session sharing: containment-
  equal queries attach to one maintained state tree (``max_subscribers``
  must exceed 1).

Every refresh is differential-checked in-loop on a rotating sample of
handles: the maintained result must be byte-identical (wire encoding) to
from-scratch re-execution — a fast-but-wrong refresh fails the benchmark,
not just the test suite.

``benchmarks/run_all.py`` folds this report into ``BENCH_runtime.json`` as
the ``standing`` section.
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
from repro.engine.wire import pack_state_relation  # noqa: E402
from repro.fragment.topology import Topology  # noqa: E402
from repro.policy.presets import figure4_policy  # noqa: E402
from repro.processor.paradise import ParadiseProcessor  # noqa: E402
from repro.runtime.standing import StandingQueryRuntime  # noqa: E402
from repro.sensors.scenario import INTEGRATED_SCHEMA  # noqa: E402

QUERY_COUNTS = (16, 64, 256)
FANOUTS = (8, 16)

#: Tree families: queries inside one family differ only in their finalize
#: tail (HAVING threshold / ORDER BY direction / projection subset), so the
#: runtime attaches them all to one shared state tree; across families the
#: table/WHERE/keys signature differs and separate trees are maintained.
_FAMILIES = [
    {
        "select": "activity, COUNT(*) AS n, AVG(z) AS az, SUM(z) AS sz",
        "where": "",
        "group": "activity",
    },
    {
        "select": "person_id, COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi",
        "where": "",
        "group": "person_id",
    },
    {
        "select": "activity, COUNT(*) AS n, AVG(x) AS ax, STDDEV(y) AS sy",
        "where": "WHERE z < 1.5",
        "group": "activity",
    },
    {
        "select": "person_id, activity, COUNT(*) AS n, AVG(t) AS at",
        "where": "",
        "group": "person_id, activity",
    },
]


def standing_queries(count: int) -> List[str]:
    """``count`` distinct standing queries spread over the tree families."""
    queries: List[str] = []
    for index in range(count):
        family = _FAMILIES[index % len(_FAMILIES)]
        threshold = 1 + (index // len(_FAMILIES)) % 7
        direction = "ASC" if (index // len(_FAMILIES)) % 2 == 0 else "DESC"
        queries.append(
            f"SELECT {family['select']} FROM d {family['where']} "
            f"GROUP BY {family['group']} "
            f"HAVING COUNT(*) > {threshold} ORDER BY COUNT(*) {direction}"
        )
    return queries


def build_standing_processor(rows: int, n_sensors: int) -> ParadiseProcessor:
    topology = Topology.smart_home_tree(n_sensors=n_sensors, sensors_per_appliance=4)
    processor = ParadiseProcessor(
        figure4_policy(), topology=topology, schema=INTEGRATED_SCHEMA
    )
    processor.load_data(synthetic_sensor_relation(rows))
    return processor


def measure_standing(
    rows: int,
    n_sensors: int,
    n_queries: int,
    refreshes: int,
    chunk_rows: int,
    baseline_sample: int = 8,
    check_sample: int = 4,
) -> Dict[str, Any]:
    """One (fanout, query-count) cell of the standing-query experiment."""
    processor = build_standing_processor(rows, n_sensors)
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in standing_queries(n_queries)]
    subscriber_counts = sorted(
        {id(h.tree): len(h.tree.subscribers) for h in handles}.values()
    )

    feed = synthetic_sensor_relation(refreshes * chunk_rows, seed=17)
    holders = processor.network.partition_holders("d")
    refresh_wall: List[float] = []
    reexec_wall: List[float] = []
    checked = 0
    for refresh in range(refreshes):
        delta = feed.slice_rows(
            refresh * chunk_rows, (refresh + 1) * chunk_rows, name="d"
        )
        leaf = holders[refresh % len(holders)]
        started = time.perf_counter()
        runtime.append(leaf, delta)
        for handle in handles:
            handle.result()
        refresh_wall.append(time.perf_counter() - started)

        # Baseline: from-scratch re-execution over the *current* data, on a
        # rotating sample of the registered queries (cost extrapolates
        # per-query; the sample size is recorded, not hidden).
        for offset in range(baseline_sample):
            handle = handles[(refresh * baseline_sample + offset) % len(handles)]
            started = time.perf_counter()
            oracle = runtime.reexecute(handle)
            reexec_wall.append(time.perf_counter() - started)
            if offset < check_sample:
                # In-loop differential: byte-identical wire encodings.
                assert pack_state_relation(handle.result()) == pack_state_relation(
                    oracle
                ), f"standing refresh diverged from oracle for {handle.sql}"
                checked += 1

    refresh_median = statistics.median(refresh_wall)
    reexec_per_query = statistics.median(reexec_wall)
    marginal = refresh_median / n_queries
    return {
        "n_sensors": n_sensors,
        "rows_loaded": rows + refreshes * chunk_rows,
        "n_queries": n_queries,
        "refreshes": refreshes,
        "chunk_rows": chunk_rows,
        "trees": runtime.tree_count,
        "subscribers_per_tree": subscriber_counts,
        "max_subscribers": subscriber_counts[-1] if subscriber_counts else 0,
        "refresh": summarize_samples(refresh_wall),
        "refresh_marginal_per_query_s": marginal,
        "reexecute_per_query": summarize_samples(reexec_wall),
        "baseline_sampled_queries": min(
            len(handles), 8
        ),
        "differential_checks": checked,
        "marginal_speedup": round(reexec_per_query / marginal, 2)
        if marginal > 0
        else None,
    }


def run_standing(
    rows: int = 1200,
    refreshes: int = 5,
    chunk_rows: int = 40,
    query_counts: Sequence[int] = QUERY_COUNTS,
    fanouts: Sequence[int] = FANOUTS,
) -> Dict[str, Any]:
    """The full grid; folded into ``BENCH_runtime.json`` as ``standing``."""
    entries: List[Dict[str, Any]] = []
    for n_sensors in fanouts:
        for n_queries in query_counts:
            entry = measure_standing(
                rows,
                n_sensors=n_sensors,
                n_queries=n_queries,
                refreshes=refreshes,
                chunk_rows=chunk_rows,
            )
            entries.append(entry)
            print(
                f"standing: {n_sensors} sensors, {n_queries} queries -> "
                f"refresh {entry['refresh']['median_s'] * 1e3:.1f}ms "
                f"({entry['refresh_marginal_per_query_s'] * 1e6:.0f}us/query), "
                f"reexecute {entry['reexecute_per_query']['median_s'] * 1e3:.2f}ms/query, "
                f"{entry['marginal_speedup']}x marginal, "
                f"{entry['trees']} trees (max {entry['max_subscribers']} subscribers)"
            )
    at64 = [entry for entry in entries if entry["n_queries"] == 64]
    return {
        "description": "incremental standing-query refresh vs re-execute-per-"
        "refresh baseline; marginal = refresh wall / registered queries",
        "cpu_count": os.cpu_count(),
        "entries": entries,
        "best_marginal_speedup_at_64": max(
            (entry["marginal_speedup"] for entry in at64), default=None
        ),
    }


# ---------------------------------------------------------------------------
# pytest smoke benchmarks (tiny configs; run in the quick suite)
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="standing")
def test_bench_standing_refresh(benchmark):
    processor = build_standing_processor(300, 8)
    runtime = StandingQueryRuntime(processor)
    handles = [runtime.register(sql) for sql in standing_queries(16)]
    feed = synthetic_sensor_relation(200, seed=17)
    holders = processor.network.partition_holders("d")
    ticker = {"i": 0}

    def one_refresh():
        i = ticker["i"]
        ticker["i"] += 1
        delta = feed.slice_rows((i * 20) % 180, (i * 20) % 180 + 20, name="d")
        runtime.append(holders[i % len(holders)], delta)
        for handle in handles:
            handle.result()

    benchmark.pedantic(one_refresh, rounds=3, iterations=1)
    handle = handles[0]
    assert pack_state_relation(handle.result()) == pack_state_relation(
        runtime.reexecute(handle)
    )


def test_standing_marginal_speedup_bar():
    """The acceptance bar: >= 5x lower marginal cost at 64 standing queries."""
    entry = measure_standing(
        1200, n_sensors=8, n_queries=64, refreshes=3, chunk_rows=40
    )
    assert entry["max_subscribers"] > 1
    assert entry["marginal_speedup"] >= 5.0, entry["marginal_speedup"]


def main() -> int:
    report = run_standing()
    print_table(
        "standing queries: incremental refresh vs re-execute",
        [
            {
                "sensors": entry["n_sensors"],
                "queries": entry["n_queries"],
                "trees": entry["trees"],
                "refresh_ms": f"{entry['refresh']['median_s'] * 1e3:.1f}",
                "us_per_query": f"{entry['refresh_marginal_per_query_s'] * 1e6:.0f}",
                "speedup": f"{entry['marginal_speedup']}x",
            }
            for entry in report["entries"]
        ],
        ["sensors", "queries", "trees", "refresh_ms", "us_per_query", "speedup"],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
