"""Experiment F3 — Figure 3: vertical query fragmentation and data reduction.

Figure 3 shows the query travelling down the peer chain and only the reduced
result d' travelling back up to the cloud.  This benchmark measures, for
increasing amounts of raw sensor data, how many rows and bytes cross each hop
and in particular how much leaves the apartment, with pushdown enabled vs the
cloud-only baseline.  The shape claimed by the paper is that the pushed-down
variant ships orders of magnitude less data to the cloud.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    PAPER_SQL,
    build_processor,
    forget_kept_states,
    print_table,
    state_memo_hits,
)

SIZES = (500, 2000, 8000)


@pytest.mark.benchmark(group="fig3-pushdown")
@pytest.mark.parametrize("rows", SIZES)
def test_bench_pushdown_execution(benchmark, rows):
    processor = build_processor(rows)
    hits = state_memo_hits()
    result = benchmark.pedantic(
        processor.process,
        args=(PAPER_SQL, "ActionFilter"),
        kwargs={"anonymize": False},
        setup=lambda: forget_kept_states(processor),
        rounds=2,
        iterations=1,
    )
    assert result.admitted
    assert state_memo_hits() == hits, "a timed run decoded a kept state"
    assert result.rows_leaving_apartment <= rows


def test_fig3_transfer_series():
    """The per-hop transfer series the figure implies (printed with -s)."""
    rows_report = []
    for rows in SIZES:
        processor = build_processor(rows)
        pushdown = processor.process(PAPER_SQL, "ActionFilter", anonymize=False)
        baseline = processor.process(
            PAPER_SQL, "ActionFilter", pushdown=False, apply_rewriting=False, anonymize=False
        )
        reduction = (
            baseline.rows_leaving_apartment / pushdown.rows_leaving_apartment
            if pushdown.rows_leaving_apartment
            else float("inf")
        )
        rows_report.append(
            {
                "raw rows (d)": rows,
                "to cloud w/o PArADISE": baseline.rows_leaving_apartment,
                "to cloud with PArADISE (d')": pushdown.rows_leaving_apartment,
                "reduction": f"x{reduction:.0f}" if reduction != float("inf") else "all local",
                "bytes w/o": baseline.bytes_leaving_apartment,
                "bytes with": pushdown.bytes_leaving_apartment,
            }
        )
        # The paper's qualitative claim: d' is a small subset of d.
        assert pushdown.rows_leaving_apartment < baseline.rows_leaving_apartment
    print_table(
        "Figure 3 — data leaving the apartment (d vs d')",
        rows_report,
        [
            "raw rows (d)",
            "to cloud w/o PArADISE",
            "to cloud with PArADISE (d')",
            "reduction",
            "bytes w/o",
            "bytes with",
        ],
    )


def test_fig3_per_hop_breakdown():
    """Per-hop transfer log for one run (sensor→appliance→pc→cloud)."""
    processor = build_processor(2000)
    result = processor.process(PAPER_SQL, "ActionFilter", anonymize=False)
    hops = result.transfers.by_hop()
    print_table(
        "Figure 3 — per-hop transfers",
        hops,
        ["source", "target", "relation", "rows", "bytes", "leaves_apartment"],
    )
    # Volume decreases monotonically towards the cloud.
    volumes = [hop["rows"] for hop in hops]
    assert volumes == sorted(volumes, reverse=True)
    assert hops[-1]["leaves_apartment"] is True
