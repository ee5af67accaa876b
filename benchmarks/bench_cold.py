"""Cold reads — the e2e read shapes with no kept state to reuse.

The end-to-end benchmark (``benchmarks/e2e``) times warm reads: from the
second read of a text on, every leaf partial outputs the state its chunk
kept, and every combine, finalize, query stage over shipped rows and
step A whose input bytes did not change the output its node kept, so its
headline CPU measures scheduling, shipping and the cloud's decode, not
the engine's work.  This benchmark times the same four read shapes at the
same sizes *cold*: :func:`~benchmarks.common.forget_kept_states` runs
before every op (outside its timed window), so each op's leaves scan
their chunks and every task after them computes again.  Plans, derived queries, built DAGs and column
statistics stay warm, as for a cached text whose data changed.

* ``paper_chain_30k`` — the paper's R query on the default chain;
* ``groupby_tree_30k`` — the rewritten GROUP BY on the 8-sensor tree;
* ``frontend_mix_3k`` — the front end's op stream (three templates, hot
  and fresh literals), one op at a time;
* ``standing_ingest_16s`` — one write-then-read cycle per op: a 100-row
  append on one of 16 sensors, then the parallel GROUP BY read.  The
  record also counts the cycle's folds (0: nothing was kept to fold into).

Every op is checked in-loop against
:func:`~repro.processor.reference.reference_result` by ``pack_relation``
bytes, and the run fails if any timed op output a kept state or a kept
task output (:func:`~benchmarks.common.state_memo_hits`).  Per shape it records CPU
seconds per op (median and quartiles of an untraced pass in which the
shapes take turns op by op: cold CPU drifts with the host's load over
seconds) and, from a second traced pass, the split by layer
(``benchmarks/e2e/tracer.py``'s layers: self CPU and calls per op).

``benchmarks/run_all.py --only cold`` writes it as the ``cold`` section
of ``BENCH_engine.json``; ``python benchmarks/bench_cold.py`` prints it.
"""

from __future__ import annotations

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

from benchmarks.common import forget_kept_states, state_memo_hits  # noqa: E402
from benchmarks.e2e.tracer import LayerTracer  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, _processor  # noqa: E402
from repro.engine.wire import pack_relation  # noqa: E402
from repro.obs.metrics import registry  # noqa: E402
from repro.processor.reference import reference_result  # noqa: E402
from repro.rlang.sqlable import extract_sql_from_r  # noqa: E402

#: The layers the split reports, in the order the e2e report prints them.
SPLIT_LAYERS = (
    "engine.partial",
    "engine.query",
    "wire.pack",
    "wire.unpack",
    "network.ship",
    "runtime.scheduler",
    "runtime.dag_build",
    "anonymize",
)


class _Shape:
    """One e2e workload's reads over its own processor, checked against
    the reference after every op."""

    def __init__(self, name: str, seed: int, ops: int) -> None:
        self.workload = WORKLOADS[name]
        inputs = self.workload.inputs(seed, self.workload.rows, 5 * ops + 5)
        self.processor = _processor(
            self.workload.policy(),
            self.workload.topology(),
            inputs.base,
            execution=self.workload.execution,
        )
        self.reads = [op for op in inputs.ops if op.kind == "read"]
        self.writes = [op for op in inputs.ops if op.kind == "write"]
        self.leaves = self.processor.network.partition_holders("d")
        self._expected: Dict[tuple, bytes] = {}
        #: Writes applied so far: the expected results are memoized per
        #: state of the data.
        self.writes_applied = 0

    def op(self, index: int):
        """Run op ``index`` (a standing cycle appends before it reads)."""
        read = self.reads[index % len(self.reads)]
        if self.writes:
            write = self.writes[index % len(self.writes)]
            self.processor.network.append_to_partition(
                self.leaves[write.leaf], "d", write.delta
            )
            self.writes_applied += 1
        return read, self.workload.read(self.processor, read)

    def check(self, read, result) -> None:
        """Fail unless ``result`` equals the reference over the data now."""
        key = (read.module, read.query, self.writes_applied)
        if key not in self._expected:
            sql = read.query
            if self.workload.name == "paper_chain_30k":
                sql = extract_sql_from_r(sql).sql
            self._expected[key] = pack_relation(
                reference_result(self.processor, sql, read.module)
            )
        assert result.admitted, f"{self.workload.name}: op refused"
        assert pack_relation(result.result) == self._expected[key], (
            f"{self.workload.name}: a cold read differs from the reference"
        )

    def cold(self, index: int, tracer: Optional[LayerTracer] = None) -> float:
        """One cold op: forget what was kept, run it, check it; its CPU.
        The check's own engine calls are taken out of ``tracer``'s totals."""
        forget_kept_states(self.processor)
        hits = state_memo_hits()
        started = time.process_time()
        read, result = self.op(index)
        cpu = time.process_time() - started
        assert state_memo_hits() == hits, (
            f"{self.workload.name}: a timed op output a kept state"
        )
        totals = {}
        if tracer is not None:
            totals = {layer: list(values) for layer, values in tracer.totals.items()}
        self.check(read, result)
        for layer, values in totals.items():
            tracer.totals[layer][:] = values
        return cpu


def _quartiles(samples: List[float]) -> Dict[str, float]:
    if len(samples) < 2:
        return {"p25": samples[0], "p75": samples[0]}
    p25, _, p75 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"p25": p25, "p75": p75}


def _split(shape: _Shape, first: int, traced_ops: int) -> Dict[str, Any]:
    """Per layer, self CPU ms and calls per op over ``traced_ops`` traced
    cold ops of ``shape`` (op indexes from ``first``), and its folds."""
    folds = registry.value("runtime.state_memo.folds")
    tracer = LayerTracer()
    with tracer:
        for index in range(first, first + traced_ops):
            shape.cold(index, tracer)
    folds = registry.value("runtime.state_memo.folds") - folds
    layers = {}
    for layer in SPLIT_LAYERS:
        calls, _, cpu = tracer.totals[layer]
        layers[layer] = {
            "calls_per_op": calls / traced_ops,
            "self_cpu_ms_per_op": 1e3 * cpu / traced_ops,
        }
    return {"layers": layers, "folds_per_op": folds / traced_ops}


def run_cold(ops: int = 20, traced_ops: int = 6, seed: int = 0) -> Dict[str, Any]:
    """The ``cold`` section: every read shape's cold record.

    The shapes take turns op by op, so a change in the host's load over
    the run touches every shape alike instead of one shape's whole run.
    """
    shapes = {name: _Shape(name, seed, ops + traced_ops + 1) for name in WORKLOADS}
    # One untimed op per shape warms its plan, executors and built DAG.
    for shape in shapes.values():
        shape.cold(0)
    samples: Dict[str, List[float]] = {name: [] for name in shapes}
    for index in range(1, ops + 1):
        for name, shape in shapes.items():
            samples[name].append(shape.cold(index))
    records = {}
    for name, shape in shapes.items():
        split = _split(shape, ops + 1, traced_ops)
        records[name] = {
            "rows": shape.workload.rows,
            "ops": ops,
            "cpu_s_per_op": statistics.median(samples[name]),
            **{
                f"cpu_s_per_op_{key}": value
                for key, value in _quartiles(samples[name]).items()
            },
            "traced_ops": traced_ops,
            "layers": split["layers"],
        }
        if shape.writes:
            records[name]["folds_per_cycle"] = split["folds_per_op"]
    return {
        "note": "CPU seconds per op with every kept leaf and combined state "
        "forgotten before each op (plans and built DAGs stay warm); shapes "
        "take turns op by op; every op equals reference_result by bytes and "
        "none output a kept state; layers: self CPU ms and calls per op from "
        "a traced pass",
        "seed": seed,
        "shapes": records,
    }


def test_cold_reads_equal_the_reference():
    """Two cold ops per shape: each equals the reference and none hits."""
    report = run_cold(ops=2, traced_ops=1)
    for name, record in report["shapes"].items():
        assert record["cpu_s_per_op"] > 0, name
        # A cold op computes: every op calls the engine.
        layers = record["layers"]
        calls = layers["engine.partial"]["calls_per_op"] + layers["engine.query"]["calls_per_op"]
        assert calls >= 1, name
    assert report["shapes"]["standing_ingest_16s"]["folds_per_cycle"] == 0


if __name__ == "__main__":
    print(json.dumps(run_cold(), indent=2))
