"""Experiment A1 (ablation) — pushdown on/off.

The central design choice of the paper is to evaluate maximal query parts as
close to the sensors as possible (Section 4: vertical fragmentation, so that
only the reduced result d' leaves the apartment).  The ablation compares three
configurations over the same workload and data:

* full PArADISE (rewrite + pushdown),
* rewrite only (policy enforced, but all data shipped to the cloud first),
* neither (the plain cloud service).
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

ROWS = 4000

CONFIGURATIONS = {
    "rewrite + pushdown": {"apply_rewriting": True, "pushdown": True},
    "rewrite only": {"apply_rewriting": True, "pushdown": False},
    "no protection": {"apply_rewriting": False, "pushdown": False},
}


@pytest.mark.benchmark(group="ablation-pushdown")
@pytest.mark.parametrize("name", list(CONFIGURATIONS))
def test_bench_configuration(benchmark, name):
    processor = build_processor(ROWS)
    kwargs = dict(CONFIGURATIONS[name], anonymize=False)
    hits = state_memo_hits()
    result = benchmark.pedantic(
        processor.process,
        args=(PAPER_SQL, "ActionFilter"),
        kwargs=kwargs,
        setup=lambda: forget_kept_states(processor),
        rounds=2,
        iterations=1,
    )
    assert result.admitted
    assert state_memo_hits() == hits, "a timed run decoded a kept state"


def test_ablation_pushdown_report():
    processor = build_processor(ROWS)
    rows = []
    measured = {}
    for name, kwargs in CONFIGURATIONS.items():
        result = processor.process(
            PAPER_SQL, "ActionFilter", anonymize=False, **kwargs
        )
        measured[name] = result
        rows.append(
            {
                "configuration": name,
                "rows to cloud": result.rows_leaving_apartment,
                "bytes to cloud": result.bytes_leaving_apartment,
                "work at cloud (rows in)": (
                    result.executions[-1].input_rows if kwargs["pushdown"] is False else 0
                ),
                "elapsed s": round(result.elapsed_seconds, 4),
            }
        )
    print_table(
        "Ablation A1 — pushdown on/off",
        rows,
        ["configuration", "rows to cloud", "bytes to cloud", "work at cloud (rows in)", "elapsed s"],
    )
    # Who wins and by what shape: full PArADISE ships the least, the plain
    # service ships everything.
    assert (
        measured["rewrite + pushdown"].rows_leaving_apartment
        < measured["rewrite only"].rows_leaving_apartment
        <= measured["no protection"].rows_leaving_apartment
    )
    assert measured["no protection"].rows_leaving_apartment == ROWS
