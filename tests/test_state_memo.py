"""Kept leaf states: a resident partial over an unchanged chunk decodes the
state it packed before instead of scanning the chunk again.

The memo (``Relation.kept_states``, filled by ``StageTask.execute``) is
keyed on the chunk's identity and version, the derived query object, the
output name and the ``EngineConfig``.  These tests pin that every write
through the ``Relation`` API and every re-placement misses, that hits are
byte-identical to computing runs on every backend, that the interpreted
oracle and the ``optimizer=False`` ablation never hit, and the hit counts
the end-to-end benchmark's traced reads now show.
"""

from __future__ import annotations

import sys
import time

import pytest

from tests.conftest import make_sensor_relation

from benchmarks.e2e.tracer import LayerTracer
from benchmarks.e2e.workloads import WORKLOADS
from repro.engine import EngineConfig
from repro.engine.table import Relation
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import CostModel, SessionFrontEnd
from repro.runtime.dag import MAX_KEPT_STATES
from repro.runtime.faults import KILL_NODE, Fault, FailureInjector
from repro.sql.parser import parse

SQL = (
    "SELECT x, y, COUNT(*) AS n, AVG(z) AS az, MIN(t) AS lo FROM d "
    "WHERE z < 1.5 AND valid GROUP BY x, y"
)
OPTIONS = {"apply_rewriting": False, "anonymize": False}

TOPOLOGIES = {
    "chain": (Topology.default_chain, 1),
    "tree8": (lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4), 8),
}


def _processor(topology: str = "tree8", rows: int = 2400, **options) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(), topology=TOPOLOGIES[topology][0](), **options
    )
    processor.load_data(make_sensor_relation(rows, grid=2.0))
    return processor


def _counts():
    return (
        registry.value("runtime.state_memo.hits"),
        registry.value("runtime.state_memo.misses"),
    )


def _run(processor, sql=SQL, **options):
    """One run; returns its result bytes and the (hits, misses) it added."""
    hits, misses = _counts()
    run = processor.process(sql, "ActionFilter", **OPTIONS, **options)
    after = _counts()
    return pack_relation(run.result), (after[0] - hits, after[1] - misses)


def _expected(processor, sql=SQL) -> bytes:
    return pack_relation(reference_result(processor, sql, "ActionFilter", **OPTIONS))


def _chunk(processor, position: int = 0) -> Relation:
    network = processor.network
    return network.database(network.partition_holders("d")[position]).table("d")


# ---------------------------------------------------------------------------
# every change to a chunk misses
# ---------------------------------------------------------------------------


def _row_view_write(processor):
    _chunk(processor).rows[0]["z"] = 0.25
    return 1


def _rows_setter(processor):
    chunk = _chunk(processor)
    chunk.rows = chunk.to_dicts()[::-1]
    return 1


def _append(processor):
    node = processor.network.partition_holders("d")[0]
    delta = make_sensor_relation(30, seed=7, grid=2.0)
    processor.network.append_to_partition(node, "d", delta)
    return 1


def _register(processor):
    node = processor.network.partition_holders("d")[0]
    database = processor.network.database(node)
    database.register("d", database.table("d").copy())
    return 1


def _load_data(processor):
    processor.load_data(make_sensor_relation(2400, seed=3, grid=2.0))
    return 8


def _fail_node(processor):
    # The chunk of sensor_1 merges into sensor_0's: one new chunk, one
    # partition fewer.
    processor.network.fail_node(processor.network.partition_holders("d")[1])
    return 1


MUTATIONS = {
    "row_view_write": _row_view_write,
    "rows_setter": _rows_setter,
    "append_to_partition": _append,
    "register": _register,
    "load_data": _load_data,
    "fail_node": _fail_node,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_chunk_change_misses(mutation):
    """Only the changed chunks compute again; every read equals the
    reference over the chunks as they are now."""
    processor = _processor()
    expected = _expected(processor)
    assert _run(processor) == (expected, (0, 8))
    assert _run(processor) == (expected, (8, 0))
    changed = MUTATIONS[mutation](processor)
    holders = len(processor.network.partition_holders("d"))
    expected = _expected(processor)
    assert _run(processor) == (expected, (holders - changed, changed))
    assert _run(processor) == (expected, (holders, 0))


def test_a_write_between_read_and_store_is_never_served():
    """A state stored into the memo of the version its rows were read at
    is never found once the chunk has changed."""
    chunk = make_sensor_relation(20)
    memo = chunk.kept_states()
    chunk.rows[0]["z"] = 1.0
    memo["key"] = "stale"
    assert chunk.kept_states() == {}
    assert chunk.kept_states() is chunk.kept_states()


def test_a_full_memo_is_emptied():
    """Past ``MAX_KEPT_STATES`` distinct leaf queries one chunk's memo
    starts over, so it never holds more."""
    processor = _processor(topology="chain", rows=400)
    for bound in range(MAX_KEPT_STATES + 1):
        processor.process(
            f"SELECT x, COUNT(*) AS n FROM d WHERE z < {bound + 2} GROUP BY x",
            "ActionFilter",
            **OPTIONS,
        )
    assert len(_chunk(processor).kept_states()) == 1


def test_a_raising_partial_keeps_nothing():
    processor = _processor(rows=400)
    sql = "SELECT x, SUM(activity) AS s FROM d GROUP BY x"
    for _ in range(2):
        before = _counts()
        with pytest.raises(Exception):
            processor.process(sql, "ActionFilter", **OPTIONS)
        assert _counts() == before
    assert _chunk(processor).kept_states() == {}


# ---------------------------------------------------------------------------
# hits equal computing runs on every backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("backend", ["serial", "parallel", "processes"])
def test_hits_are_byte_identical(topology, backend):
    options = {"execution": "serial" if backend == "serial" else "parallel"}
    if backend == "parallel":
        options["cost_model"] = CostModel(seconds_per_row=1e-6)
    if backend == "processes":
        options.update(workers="processes", process_workers=1)
    processor = _processor(topology, **options)
    sensors = TOPOLOGIES[topology][1]
    expected = _expected(processor)
    computed = processor.process(parse(SQL), "ActionFilter", **OPTIONS)
    assert pack_relation(computed.result) == expected
    assert _run(processor) == (expected, (0, sensors))
    for _ in range(2):
        assert _run(processor) == (expected, (sensors, 0))
    if backend == "parallel":
        assert computed.runtime.workers > 1


def test_hits_survive_a_kill_between_runs():
    """A sensor killed during a run re-places its chunk onto a sibling: the
    heir's merged chunk computes, and the next plan's repeats hit every
    live leaf with the reference bytes."""
    processor = _processor()
    expected = _expected(processor)
    assert _run(processor) == (expected, (0, 8))
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_2")])
    result, _ = _run(processor, faults=injector)
    assert injector.fired and result == expected
    assert processor.network.partition_holders("d") == [
        f"sensor_{index}" for index in range(8) if index != 2
    ]
    assert _run(processor)[0] == expected
    assert _run(processor) == (expected, (7, 0))


@pytest.mark.parametrize(
    "config", [EngineConfig(mode="interpreted"), EngineConfig(optimizer=False)]
)
def test_the_oracle_and_the_ablation_never_hit(config):
    processor = _processor()
    processor.engine = config
    expected = _expected(processor)
    for _ in range(3):
        assert _run(processor) == (expected, (0, 0))
    assert _chunk(processor).kept_states() == {}


def test_a_hit_is_traced_but_not_calibrated():
    processor = _processor(topology="chain")
    processor.process(SQL, "ActionFilter", **OPTIONS)
    run = processor.process(SQL, "ActionFilter", profile=True, **OPTIONS)
    spans = [span for span in run.trace.spans if span.attrs.get("memo")]
    assert [span.attrs["memo"] for span in spans] == ["hit"]
    assert run.profile.scan_paths["state_memo.hits"] == 1
    assert "memo hit" in run.profile.render()
    kinds = {entry.kind for entry in run.profile.calibration.kinds}
    assert "partial" not in kinds and "finalize_agg" in kinds
    [record] = [e for e in run.executions if e.fragment_name.endswith("~partial[sensor]")]
    assert record.input_rows == 2400


# ---------------------------------------------------------------------------
# concurrent sessions over a changing leaf
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_sessions_racing_over_appends_read_their_batch():
    """Four sessions repeat one text; between batches an append changes one
    leaf.  Every read equals the reference for its batch's data, and the
    reads both hit and miss: every leaf computes in the first batch and
    the appended one in each later batch."""
    processor = _processor(rows=1600)
    frontend = SessionFrontEnd(processor, max_concurrent=4)
    holders = processor.network.partition_holders("d")
    before = _counts()
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 60
    sys.setswitchinterval(1e-5)
    try:
        for batch in range(4):
            expected = _expected(processor)
            futures = [frontend.submit(SQL, "ActionFilter", **OPTIONS) for _ in range(12)]
            for future in futures:
                result = future.result(timeout=max(1.0, deadline - time.monotonic()))
                assert pack_relation(result.result) == expected, batch
            delta = make_sensor_relation(40, seed=batch + 11, grid=2.0)
            processor.network.append_to_partition(holders[batch % len(holders)], "d", delta)
    finally:
        sys.setswitchinterval(interval)
        frontend.close()
    hits, misses = (after - start for after, start in zip(_counts(), before))
    assert hits > 0 and misses >= len(holders) + 3


# ---------------------------------------------------------------------------
# the end-to-end benchmark's reads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload, leaves, engine_calls",
    [("paper_chain_30k", 1, 1), ("groupby_tree_30k", 8, 4)],
)
def test_benchmark_reads_hit_every_leaf(workload, leaves, engine_calls):
    """After the first read every leaf partial of the chain's and the
    group-by's reads is a hit: the traced split counts one partial-protocol
    call per chain op (the finalize) and four per group-by op (three
    combines and the finalize)."""
    spec = WORKLOADS[workload]
    inputs = spec.inputs(0, 2000, 4)
    system = spec.setup(inputs)
    try:
        system.execute(inputs.ops[0])
        before = _counts()
        with LayerTracer() as tracer:
            for op in inputs.ops[1:]:
                system.execute(op)
        after = _counts()
    finally:
        system.close()
    reads = len(inputs.ops) - 1
    assert (after[0] - before[0], after[1] - before[1]) == (leaves * reads, 0)
    assert tracer.totals["engine.partial"][0] == engine_calls * reads
