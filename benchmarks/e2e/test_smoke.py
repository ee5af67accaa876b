"""Smoke test of the end-to-end benchmark at tiny size.

Every workload runs with 2k rows and 8 ops in this process.  A traced run
alternates untraced and traced rounds, so it yields both the end-to-end and
the per-layer metrics; one untraced run covers the untraced mode.  Runs
must check every op clean and emit exactly the metrics ``BENCHMARK.json``
declares, each with its declared unit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.processor.paradise
import repro.sql.parser
from benchmarks.e2e.runner import run_in_process, select_metrics
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY = {"seed": 0, "seconds": 1, "rows": 2000, "ops": 8}


def declared_units(trace: bool):
    return {
        metric["name"]: metric["unit"]
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }


def emitted_units(report, trace: bool):
    return {name: entry["unit"] for name, entry in select_metrics(report, trace).items()}


def test_declared_workloads_are_the_benchmarks():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_declared_metric(workload):
    report = run_in_process(workload, trace=True, **TINY)
    assert report["attempted"] == 8
    assert report["failed"] == 0, report["failures"]
    for trace in (False, True):
        assert emitted_units(report, trace) == declared_units(trace)
    layers = select_metrics(report, True)
    assert layers["unattributed.cpu_s_per_op"]["value"] >= 0
    assert layers["trace.overhead"]["value"] > 0
    # The tracer restored every binding it replaced.
    assert repro.processor.paradise.parse is repro.sql.parser.parse
    assert not hasattr(repro.sql.parser.parse, "__wrapped__")


def test_untraced_run_emits_end_to_end_metrics():
    report = run_in_process("paper_chain_30k", trace=False, **TINY)
    assert report["failed"] == 0, report["failures"]
    assert emitted_units(report, False) == declared_units(False)
    assert all(entry["value"] > 0 for entry in select_metrics(report, False).values())
