"""Experiment F2 — Figure 2: the privacy-aware query processor pipeline.

Figure 2 sketches the processor: preprocessor (policy check + rewriting),
query execution, postprocessor (anonymization) and the policy generator.
This benchmark measures the latency of each pipeline stage and of the whole
processor, with the privacy machinery enabled and disabled, over the
meeting-room workload.
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
from repro.anonymize import Anonymizer
from repro.policy.presets import figure4_policy, open_policy
from repro.rewrite import PolicyAnalyzer, QueryRewriter
from repro.sql.parser import parse

ROWS = 3000


@pytest.fixture(scope="module")
def processor():
    return build_processor(ROWS, anonymizer=Anonymizer(algorithm="k_anonymity", k=5))


@pytest.mark.benchmark(group="fig2-stages")
def test_bench_stage_admission(benchmark):
    analyzer = PolicyAnalyzer(figure4_policy())
    query = parse(PAPER_SQL)
    decision = benchmark(analyzer.admit, query, "ActionFilter")
    assert decision.admitted


@pytest.mark.benchmark(group="fig2-stages")
def test_bench_stage_rewriting(benchmark):
    rewriter = QueryRewriter(figure4_policy())
    query = parse(PAPER_SQL)
    result = benchmark(rewriter.rewrite, query, "ActionFilter")
    assert result.compliant


@pytest.mark.benchmark(group="fig2-pipeline")
def test_bench_full_pipeline_with_privacy(benchmark, processor):
    # Every round scans the sensor chunk: none decodes the leaf state a
    # previous round kept.
    hits = state_memo_hits()
    result = benchmark.pedantic(
        processor.process,
        args=(PAPER_SQL, "ActionFilter"),
        setup=lambda: forget_kept_states(processor),
        rounds=3,
        iterations=1,
    )
    assert result.admitted
    assert state_memo_hits() == hits, "a timed run decoded a kept state"


@pytest.mark.benchmark(group="fig2-pipeline")
def test_bench_full_pipeline_without_privacy(benchmark, processor):
    result = benchmark.pedantic(
        processor.process,
        args=(PAPER_SQL, "ActionFilter"),
        kwargs={"apply_rewriting": False, "anonymize": False, "pushdown": False},
        rounds=3,
        iterations=1,
    )
    assert result.admitted


def test_fig2_pipeline_report(processor):
    """Per-stage summary of one processing run (the Figure 2 boxes)."""
    protected = processor.process(PAPER_SQL, "ActionFilter")
    unprotected = processor.process(
        PAPER_SQL, "ActionFilter", apply_rewriting=False, anonymize=False, pushdown=False
    )
    rows = [
        {
            "configuration": "PArADISE (rewrite + pushdown + anonymize)",
            "rows to cloud": protected.rows_leaving_apartment,
            "bytes to cloud": protected.bytes_leaving_apartment,
            "elapsed s": round(protected.elapsed_seconds, 4),
        },
        {
            "configuration": "plain cloud processing",
            "rows to cloud": unprotected.rows_leaving_apartment,
            "bytes to cloud": unprotected.bytes_leaving_apartment,
            "elapsed s": round(unprotected.elapsed_seconds, 4),
        },
    ]
    print_table(
        "Figure 2 — processor pipeline", rows,
        ["configuration", "rows to cloud", "bytes to cloud", "elapsed s"],
    )
    assert protected.rows_leaving_apartment < unprotected.rows_leaving_apartment
