"""One workload's run: set-up, timed rounds, deferred checks, metrics.

A run builds its seeded inputs and the oracle, sets the pipeline up, then
executes the op list in ``ROUNDS`` contiguous rounds with ``gc.collect()``
before each.  Clients run closed loops: each sends its next op when the
previous one returns.  Every op is checked after its round, so oracle work
never lands in a timed window or in a round's metric-registry delta.

Timing at reference host speed
------------------------------
On a shared host the machine itself changes speed: phases from a fraction
of a second to minutes in which every instruction runs up to ~1.6x slower,
CPU time included.  They come from outside the program, and between runs
they moved the same workload's latency by 20-40%.  So each client thread
runs :func:`speed_probe` — a fixed loop that touches no program code —
before and after every op, and every time is reported scaled to
``PROBE_REFERENCE_S``: ``time * PROBE_REFERENCE_S / probe``, with the mean
of the probes either side of the op (around each set-up for ``setup_s``).
The probe costs ~1 ms of thread CPU per op, excluded from op latency and
subtracted from process CPU.  The full report keeps the raw seconds and the
per-round speed, so nothing is hidden.

Run as ``python -m benchmarks.e2e.runner CONFIG`` this module is the worker
process the command starts per workload: it sets up, answers ``round N``
lines on stdin by running that round, and ``finish`` with the report as one
JSON line on stdout.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import delta, registry

from benchmarks.e2e.tracer import LAYERS, LayerTracer
from benchmarks.e2e.workloads import WORKLOADS, Inputs, Op, Workload

ROUNDS = 8
#: Rounds run traced in trace mode (ABBA BAAB): traced and untraced rounds
#: sit at the same mean position, so the standing workload's growing base
#: favours neither side of ``trace.overhead``.
TRACED_ROUNDS = frozenset({1, 2, 4, 7})
#: ``setup_s`` is the median of the set-up before round 0 (the one the
#: rounds use) and one after each of these rounds, timed and discarded —
#: spread over the run rather than bunched at its start.
EXTRA_SETUP_ROUNDS = frozenset({1, 3, 5, 7})
WARMUP_OPS = 2

#: :func:`speed_probe`'s thread CPU time on the reference host (2 vCPUs,
#: Python 3.11) in its fast phases; the speed all times are scaled to.
PROBE_REFERENCE_S = 0.00105

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "cpu_s_per_op": "s",
    "cloud_bytes_per_op": "bytes",
    "peak_rss_mb": "MB",
}

#: Layers every workload enters, so their per-op times are never zero.
#: The others (R extraction, DAG build, scheduler, standing refresh,
#: partial aggregation) report call counts here and their times in the
#: full report.
TIMED_LAYERS = (
    "sql.parse",
    "rewrite.admit",
    "rewrite.rewrite",
    "fragment.fragment",
    "engine.query",
    "wire.pack",
    "wire.unpack",
    "network.ship",
    "anonymize",
)
LAYER_STATS = ("self", "cpu", "wait")

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER = {f"{layer}.calls_per_op": "count" for layer in LAYERS}
PER_LAYER.update(
    {
        f"{layer}.{stat}_s_per_op": "s"
        for layer in TIMED_LAYERS
        for stat in LAYER_STATS
    }
)
PER_LAYER.update(
    {
        "unattributed.cpu_s_per_op": "s",
        "trace.overhead": "ratio",
        "network.bytes_per_op": "bytes",
        "network.ships_per_op": "count",
        "runtime.tasks_per_op": "count",
        "runtime.overlap": "ratio",
        "engine.rows_examined_per_result_row": "ratio",
        "engine.vectorized_share": "ratio",
        "sql.parse_cache_hit_rate": "ratio",
        "runtime.standing.state_bytes": "bytes",
    }
)

#: Registry counters and probes read as deltas over each timed round.
COUNTERS = (
    "network.bytes",
    "network.transfers",
    "runtime.tasks_executed",
    "sql.parse_cache.hits",
    "sql.parse_cache.misses",
    "engine.vectorized.flat",
    "engine.vectorized.grouped",
    "engine.vectorized.partial",
    "engine.executor.selects",
    "engine.executor.partial_aggregations",
)


def speed_probe() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: the host's speed now.

    Thread CPU time leaves out waits for the GIL, so concurrent clients
    can probe too.
    """
    started = time.thread_time()
    table: Dict[int, float] = {}
    total = 0.0
    for index in range(6000):
        key = index % 97
        table[key] = table.get(key, 0.0) + index * 0.5
        total += index / 3.0
    return time.thread_time() - started


def op_count(workload: Workload, seconds: float) -> int:
    """Ops for a run of ``seconds`` on the reference host: whole rounds of
    whole op cycles, so every round has the same read/write mix."""
    unit = ROUNDS * workload.cycle
    return unit * max(1, round(workload.rate * seconds / unit))


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


@dataclass
class Record:
    op: Op
    latency: float
    #: Reference speed over this op: ``PROBE_REFERENCE_S / probe``.
    speed: float
    outcome: Any
    error: Optional[str]


@dataclass
class RoundStats:
    traced: bool
    ops: int = 0
    wall: float = 0.0
    #: Process CPU of the round minus the probes' CPU.
    cpu: float = 0.0
    #: Mean reference speed over the round's ops.
    speed: float = 1.0
    #: Latencies of the ops that passed their check, at reference speed.
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Layer -> [calls, self wall, self CPU] over the round, at reference
    #: speed (traced rounds only).
    layers: Dict[str, List[float]] = field(default_factory=dict)
    cloud_bytes: int = 0
    rows_examined: int = 0
    result_rows: int = 0
    busy_seconds: float = 0.0
    dag_seconds: float = 0.0
    standing_state_bytes: float = 0.0


class WorkloadRun:
    """Sets up one workload, runs its rounds and computes its metrics."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        rows: Optional[int] = None,
        ops: Optional[int] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.rows = rows or workload.rows
        self.n_ops = ops or op_count(workload, seconds)
        self.tracer = LayerTracer() if trace else None
        self.rounds: List[RoundStats] = []
        #: (raw seconds, seconds at reference speed) per timed set-up.
        self.setups: List[tuple] = []
        self.system = None

    def prepare(self) -> None:
        """Generate inputs, build the oracle, and set the pipeline up."""
        self.inputs: Inputs = self.workload.inputs(self.seed, self.rows, self.n_ops)
        self.oracle = self.workload.oracle(self.inputs)
        self.system = self._timed_setup()

    def _timed_setup(self):
        """Set-up plus ``WARMUP_OPS`` warm-up reads, timed into ``setup_s``."""
        warmups = [op for op in self.inputs.ops if op.kind == "read"][:WARMUP_OPS]
        gc.collect()
        probe_before = speed_probe()
        started = time.perf_counter()
        system = self.workload.setup(self.inputs)
        for op in warmups:
            system.execute(op)
        elapsed = time.perf_counter() - started
        probe = (probe_before + speed_probe()) / 2
        self.setups.append((elapsed, elapsed * PROBE_REFERENCE_S / probe))
        return system

    def round_ops(self, index: int) -> List[Op]:
        per_round = len(self.inputs.ops) // ROUNDS
        return self.inputs.ops[index * per_round : (index + 1) * per_round]

    # -- one round ------------------------------------------------------
    def run_round(self, index: int) -> None:
        ops = self.round_ops(index)
        stats = RoundStats(traced=self.trace and index in TRACED_ROUNDS, ops=len(ops))
        tracer = self.tracer if stats.traced else None
        gc.collect()
        before = registry.snapshot()
        if tracer is not None:
            layers_before = {layer: list(totals) for layer, totals in tracer.totals.items()}
            tracer.install()
        try:
            wall_start, cpu_start = time.perf_counter(), time.process_time()
            records, probe_cpu = self._closed_loop(ops, tracer)
            stats.wall = time.perf_counter() - wall_start
            stats.cpu = time.process_time() - cpu_start - probe_cpu
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = registry.snapshot()
        changes = delta(before, after)
        stats.counters = {name: changes.get(name, 0) for name in COUNTERS}
        stats.standing_state_bytes = after.get("standing.state_bytes", 0)
        stats.speed = statistics.fmean(record.speed for record in records)
        if tracer is not None:
            stats.layers = {
                layer: [
                    totals[0] - layers_before[layer][0],
                    (totals[1] - layers_before[layer][1]) * stats.speed,
                    (totals[2] - layers_before[layer][2]) * stats.speed,
                ]
                for layer, totals in tracer.totals.items()
            }
        for record in records:
            op = record.op
            try:
                verdict = self.oracle.check(
                    op, record.outcome if record.error is None else None
                )
            except Exception as exc:  # the checker itself broke: the op counts as failed
                verdict = f"oracle raised {type(exc).__name__}: {exc}"
            error = record.error or verdict
            if error is not None:
                stats.failures.append(f"op {op.index} ({op.kind}): {error}")
                continue
            stats.latencies.append(record.latency * record.speed)
            if op.kind == "read":
                self._read_facts(stats, record.outcome)
        self.rounds.append(stats)
        if index in EXTRA_SETUP_ROUNDS:
            self._timed_setup().close()

    @staticmethod
    def _read_facts(stats: RoundStats, result) -> None:
        stats.cloud_bytes += result.bytes_leaving_apartment
        stats.rows_examined += sum(e.input_rows for e in result.executions)
        stats.result_rows += len(result.result)
        if result.runtime is not None:
            stats.busy_seconds += result.runtime.busy_seconds
            stats.dag_seconds += result.runtime.wall_seconds

    def _closed_loop(self, ops: List[Op], tracer: Optional[LayerTracer]):
        """Run ``ops`` on the workload's clients; (records, probe CPU)."""
        records: List[Any] = [None] * len(ops)
        positions = iter(range(len(ops)))
        lock = threading.Lock()
        probe_cpu = [0.0]
        execute = self.system.execute
        single = self.workload.clients == 1

        def client() -> None:
            probe_before = speed_probe()
            spent = probe_before
            while True:
                with lock:
                    position = next(positions, None)
                if position is None:
                    break
                op = ops[position]
                if tracer is not None and single:
                    tracer.op = op.index
                started = time.perf_counter()
                try:
                    outcome, error = execute(op), None
                except Exception as exc:  # a failed op is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - started
                probe_after = speed_probe()
                spent += probe_after
                speed = 2 * PROBE_REFERENCE_S / (probe_before + probe_after)
                records[position] = Record(op, latency, speed, outcome, error)
                probe_before = probe_after
            with lock:
                probe_cpu[0] += spent

        if single:
            client()
        else:
            threads = [threading.Thread(target=client) for _ in range(self.workload.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return records, probe_cpu[0]

    # -- report ---------------------------------------------------------
    def finish(self, trace_path: Optional[str] = None) -> Dict[str, Any]:
        """Close the system, write the Chrome trace, return the report."""
        if self.system is not None:
            self.system.close()
            self.system = None
        if self.tracer is not None and trace_path:
            with open(trace_path, "w") as handle:
                json.dump(self.tracer.chrome_trace(), handle)
        failures = [failure for stats in self.rounds for failure in stats.failures]
        # Metrics first: hashing the inputs for the digest must not raise
        # the peak RSS they report.
        metrics = self.metrics()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "digest": self.inputs.digest,
            "rows": self.rows,
            "ops": self.n_ops,
            "rounds": ROUNDS,
            "clients": self.workload.clients,
            "repeated_text_share": round(self.inputs.repeated_text_share, 4),
            "traced": self.trace,
            "attempted": sum(stats.ops for stats in self.rounds),
            "failed": len(failures),
            "failures": failures[:20],
            "setup_seconds_raw": [raw for raw, _ in self.setups],
            "round_stats": [
                {
                    "traced": stats.traced,
                    "ops": stats.ops,
                    "wall_s_raw": stats.wall,
                    "cpu_s_raw": stats.cpu,
                    "speed": stats.speed,
                }
                for stats in self.rounds
            ],
            "metrics": metrics,
        }

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Every metric this run measured: name -> {value, unit}."""
        plain = [stats for stats in self.rounds if not stats.traced]
        ops = sum(stats.ops for stats in plain)
        latencies = [latency for stats in plain for latency in stats.latencies]
        values: Dict[str, Optional[float]] = {
            "setup_s": statistics.median(scaled for _, scaled in self.setups),
            # A closed loop's throughput is clients / mean latency.  With
            # every op failed there is no latency to report.
            "ops_per_s": self.workload.clients / statistics.fmean(latencies) if latencies else None,
            "latency_p50_s": statistics.median(latencies) if latencies else None,
            "latency_p90_s": _p90(latencies) if latencies else None,
            "cpu_s_per_op": sum(stats.cpu * stats.speed for stats in plain) / ops,
            "cloud_bytes_per_op": sum(stats.cloud_bytes for stats in plain) / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units: Dict[str, str] = dict(END_TO_END)
        if self.tracer is not None:
            values.update(self._layer_metrics())
            units.update(PER_LAYER)
            for layer in LAYERS:
                for stat in LAYER_STATS:
                    units[f"{layer}.{stat}_s_per_op"] = "s"
        return {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        }

    def _layer_metrics(self) -> Dict[str, Optional[float]]:
        rounds = self.rounds
        traced = [stats for stats in rounds if stats.traced]
        plain = [stats for stats in rounds if not stats.traced]
        traced_ops = sum(stats.ops for stats in traced)
        all_ops = sum(stats.ops for stats in rounds)
        values: Dict[str, Optional[float]] = {}
        layer_cpu = 0.0
        for layer in LAYERS:
            calls = sum(stats.layers[layer][0] for stats in traced)
            self_wall = sum(stats.layers[layer][1] for stats in traced)
            self_cpu = sum(stats.layers[layer][2] for stats in traced)
            values[f"{layer}.calls_per_op"] = calls / traced_ops
            values[f"{layer}.self_s_per_op"] = self_wall / traced_ops
            values[f"{layer}.cpu_s_per_op"] = self_cpu / traced_ops
            values[f"{layer}.wait_s_per_op"] = (self_wall - self_cpu) / traced_ops
            layer_cpu += self_cpu
        traced_cpu = sum(stats.cpu * stats.speed for stats in traced)
        values["unattributed.cpu_s_per_op"] = (traced_cpu - layer_cpu) / traced_ops
        traced_latencies = [latency for stats in traced for latency in stats.latencies]
        plain_latencies = [latency for stats in plain for latency in stats.latencies]
        values["trace.overhead"] = (
            statistics.fmean(traced_latencies) / statistics.fmean(plain_latencies)
            if traced_latencies and plain_latencies
            else None
        )

        def total(name: str) -> float:
            return sum(stats.counters[name] for stats in rounds)

        values["network.bytes_per_op"] = total("network.bytes") / all_ops
        values["network.ships_per_op"] = total("network.transfers") / all_ops
        values["runtime.tasks_per_op"] = total("runtime.tasks_executed") / all_ops
        dag_seconds = sum(stats.dag_seconds for stats in rounds)
        # A serial run overlaps nothing: busy time equals wall time.
        values["runtime.overlap"] = (
            sum(stats.busy_seconds for stats in rounds) / dag_seconds if dag_seconds else 1.0
        )
        result_rows = sum(stats.result_rows for stats in rounds)
        values["engine.rows_examined_per_result_row"] = (
            sum(stats.rows_examined for stats in rounds) / result_rows if result_rows else 0.0
        )
        executions = total("engine.executor.selects") + total(
            "engine.executor.partial_aggregations"
        )
        vectorized = (
            total("engine.vectorized.flat")
            + total("engine.vectorized.grouped")
            + total("engine.vectorized.partial")
        )
        values["engine.vectorized_share"] = vectorized / executions if executions else 0.0
        lookups = total("sql.parse_cache.hits") + total("sql.parse_cache.misses")
        values["sql.parse_cache_hit_rate"] = (
            total("sql.parse_cache.hits") / lookups if lookups else 0.0
        )
        values["runtime.standing.state_bytes"] = rounds[-1].standing_state_bytes
        return values


def select_metrics(report: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics the command prints: per-layer when traced, else end-to-end."""
    names = PER_LAYER if trace else END_TO_END
    return {name: report["metrics"][name] for name in names}


def run_in_process(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    rows: Optional[int] = None,
    ops: Optional[int] = None,
) -> Dict[str, Any]:
    """A whole run in this process (the smoke test's entry point)."""
    run = WorkloadRun(WORKLOADS[name], seed, seconds, trace, rows=rows, ops=ops)
    run.prepare()
    for index in range(ROUNDS):
        run.run_round(index)
    return run.finish()


def worker_main(argv: List[str]) -> int:
    """The per-workload worker process (see the module docstring)."""
    config = json.loads(argv[0])
    protocol = sys.stdout
    # The library's own output must not interleave with protocol lines.
    sys.stdout = sys.stderr

    def send(message: Dict[str, Any]) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    run = WorkloadRun(
        WORKLOADS[config["workload"]],
        config["seed"],
        config["seconds"],
        config["trace"],
    )
    run.prepare()
    send({"ready": config["workload"]})
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "round":
            run.run_round(int(argument))
            send({"done": int(argument)})
        elif command == "finish":
            send(run.finish(config.get("trace_path")))
            return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(worker_main(sys.argv[1:]))
