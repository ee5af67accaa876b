"""Kept leaf states: a resident partial over an unchanged chunk outputs the
state it packed before, as those bytes, instead of scanning the chunk
again; over a chunk grown by appends it scans only the appended rows and
folds their state into the one it inherited.

The memo (``Relation.kept_states``, filled by ``StageTask.execute``) is
keyed on the chunk's identity and version, the derived query object, the
output name and the ``EngineConfig``.  These tests pin that every write
through the ``Relation`` API and every re-placement misses while an
append folds, that hits and folds are byte-identical to computing runs
on every backend (a folded state to a fresh partial under every config),
that only a reader decodes a hit's bytes, that the interpreted oracle and
the ``optimizer=False`` ablation never hit, and the hit counts the
end-to-end benchmark's traced reads now show.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from tests.conftest import make_sensor_relation

from benchmarks.e2e.tracer import LayerTracer
from benchmarks.e2e.workloads import WORKLOADS
from repro.engine import EngineConfig
from repro.engine.database import Database
from repro.engine.table import Relation
from repro.engine.wire import PackedRelation, pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import CostModel, SessionFrontEnd
from repro.runtime.memo import MAX_KEPT_STATES, fold_state
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


def _folds() -> int:
    return registry.value("runtime.state_memo.folds")


def _combine_counts():
    return (
        registry.value("runtime.state_memo.combine_hits"),
        registry.value("runtime.state_memo.combine_misses"),
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
    # The chunk of sensor_1 is appended to sensor_0's: one grown chunk,
    # one partition fewer.
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
    """Only the changed chunks compute again, and a chunk grown by an
    append or by a dead successor's rows folds them into the state it
    inherited instead; every read equals the reference over the chunks as
    they are now."""
    processor = _processor()
    expected = _expected(processor)
    assert _run(processor) == (expected, (0, 8))
    assert _run(processor) == (expected, (8, 0))
    changed = MUTATIONS[mutation](processor)
    folded = changed if mutation in ("append_to_partition", "fail_node") else 0
    holders = len(processor.network.partition_holders("d"))
    expected = _expected(processor)
    folds = _folds()
    assert _run(processor) == (expected, (holders - changed, changed - folded))
    assert _folds() - folds == folded
    assert _run(processor) == (expected, (holders, 0))
    assert _folds() - folds == folded


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
    heir's grown chunk folds the dead rows, and the next plan's repeats
    hit every live leaf with the reference bytes."""
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


def test_a_dead_successors_rows_fold_into_the_heir():
    """A dead middle holder's chunk is appended to its predecessor's, which
    keeps its statistics and kept states like any append: the heir's next
    read folds the dead rows instead of rescanning, the other leaves hit,
    and the result equals the reference."""
    processor = _processor()
    _run(processor)
    network = processor.network
    network.fail_node("sensor_3")
    heir = network.database("sensor_2").table("d")
    assert heir.cached_stats() is not None and len(heir.kept_states()) == 1
    expected = _expected(processor)
    run = processor.process(SQL, "ActionFilter", profile=True, **OPTIONS)
    assert pack_relation(run.result) == expected
    leaves = {
        span.node: span.attrs["memo"]
        for span in run.trace.spans
        if span.kind == "task" and "~partial[" in span.name
    }
    assert leaves == {
        **{node: "hit" for node in network.partition_holders("d")},
        "sensor_2": "fold",
    }


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
    # The leaf partial and the finalize, whose input bytes did not change.
    assert [span.attrs["memo"] for span in spans] == ["hit", "hit"]
    assert run.profile.scan_paths["state_memo.hits"] == 1
    assert run.profile.scan_paths["state_memo.finalize_hits"] == 1
    assert "memo hit" in run.profile.render()
    kinds = {entry.kind for entry in run.profile.calibration.kinds}
    assert "partial" not in kinds and "finalize_agg" not in kinds and "finalize" in kinds
    [record] = [e for e in run.executions if e.fragment_name.endswith("~partial[sensor]")]
    assert record.input_rows == 2400


def _count_unpacks(monkeypatch) -> list:
    """Wrap ``PackedRelation.unpack``: the list collects one entry per
    decode of a kept state's bytes."""
    decoded = []
    real_unpack = PackedRelation.unpack

    def unpack(packed):
        decoded.append(packed.rows)
        return real_unpack(packed)

    monkeypatch.setattr(PackedRelation, "unpack", unpack)
    return decoded


def test_a_hit_ships_its_bytes_undecoded(monkeypatch):
    """A hit's output is its kept bytes: the shipment sends them, and the
    combines and the finalize receiving them find the inputs they kept
    and output their own kept bytes, so only the cloud decodes (the
    finalize's output); no sender decodes."""
    processor = _processor()
    expected = _expected(processor)
    _run(processor)
    decoded = _count_unpacks(monkeypatch)
    run = processor.process(SQL, "ActionFilter", **OPTIONS)
    assert pack_relation(run.result) == expected
    [finalize] = [
        entry
        for node in processor.network.topology
        for key, entry in processor.network.kept_outputs(node.name).items()
        if key[-1] == "finalize"
    ]
    assert decoded == [finalize.output.rows]
    leaves = [t for t in run.transfers.snapshot() if t.source.startswith("sensor_")]
    kept = {
        holder: next(iter(_chunk(processor, index).kept_states().values())).state
        for index, holder in enumerate(processor.network.partition_holders("d"))
    }
    assert sorted((t.source, t.bytes, t.rows) for t in leaves) == sorted(
        (holder, len(state.payload), state.rows) for holder, state in kept.items()
    )


def test_a_hit_consumed_on_its_own_node_decodes_there(monkeypatch):
    """On the chain a killed sensor's chunk moves up to the appliance,
    which also finalizes ``d3``: from the next read on the appliance's leaf
    partial hits and its consumer on the same node decodes the kept bytes
    once; no state ships."""
    processor = _processor("chain")
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor")])
    result, _ = _run(processor, faults=injector)
    assert injector.fired
    assert processor.network.partition_holders("d") == ["appliance"]
    expected = _expected(processor)
    assert result == expected
    assert _run(processor)[0] == expected
    decoded = _count_unpacks(monkeypatch)
    hits, misses = _counts()
    run = processor.process(SQL, "ActionFilter", **OPTIONS)
    assert pack_relation(run.result) == expected
    assert (_counts()[0] - hits, _counts()[1] - misses) == (1, 0)
    [partial] = [e for e in run.executions if e.fragment_name.endswith("~partial[appliance]")]
    [final] = [e for e in run.executions if e.fragment_name == "d3"]
    assert partial.node == final.node == "appliance"
    assert decoded == [partial.output_rows]
    assert [t.source for t in run.transfers.snapshot()] == ["appliance"]


def test_a_kill_after_a_hit_replans_from_its_checkpoint():
    """A node killed at a hit task's finish boundary discards its output;
    the re-plan restores a state from the checkpoint of its kept bytes,
    appends the dead chunk to its neighbour's, folds only that heir's new
    rows and returns the reference bytes.  The plan cache keeps the
    re-mapped plan for the pruned topology, so the next read hits every
    live leaf."""
    processor = _processor()
    expected = _expected(processor)
    _run(processor)
    injector = FailureInjector(
        [Fault(kind=KILL_NODE, node="sensor_2", at_task="partial", when="finish")]
    )
    hits, misses = _counts()
    folds = _folds()
    run = processor.process(SQL, "ActionFilter", faults=injector, **OPTIONS)
    assert injector.fired and run.runtime.replans == 1
    assert pack_relation(run.result) == expected
    # The first attempt hit on sensors 0-2 in build order and checkpointed
    # the bytes of sensors 0 and 1.  The re-plan shares the plan's derived
    # queries: it restores sensor_0's state, hits on sensors 3-7 and folds
    # sensor_2's rows into the state sensor_1's grown chunk inherited.
    assert run.runtime.restored_tasks == 1
    assert (_counts()[0] - hits, _counts()[1] - misses) == (3 + 5, 0)
    assert _folds() - folds == 1
    # The next submission's key names the dead node; under it the plan
    # cache holds the re-mapped plan, whose derived queries the leaves
    # kept their states for.
    assert _run(processor) == (expected, (7, 0))
    assert _run(processor) == (expected, (7, 0))


def test_hits_and_folds_under_processes():
    """On the process backend a hit, of a leaf, a combine or the
    finalize, dispatches no job and ships its kept bytes; a fold
    dispatches two (the appended rows' partial and the combine).  Both
    give the reference bytes."""
    processor = _processor(workers="processes", process_workers=1)
    expected = _expected(processor)
    assert _run(processor) == (expected, (0, 8))
    dispatcher = processor._process_dispatcher()
    jobs = dispatcher.jobs
    assert _run(processor) == (expected, (8, 0))
    # No leaf, combine or finalize runs.
    assert dispatcher.jobs - jobs == 0
    _append(processor)
    expected = _expected(processor)
    folds, jobs = _folds(), dispatcher.jobs
    assert _run(processor) == (expected, (7, 0))
    # The fold, the combines above the grown chunk and the finalize.
    assert _folds() - folds == 1 and dispatcher.jobs - jobs == 2 + 2 + 1


# ---------------------------------------------------------------------------
# an appended chunk folds the states it inherited
# ---------------------------------------------------------------------------

#: Every decomposable aggregate, a bare column (a first-value state) and a
#: WHERE that drops some appended rows; and a global aggregation.
FOLD_QUERIES = (
    "SELECT x, y, COUNT(*) AS n, SUM(z) AS s, AVG(z) AS az, MIN(t) AS lo, "
    "MAX(z) AS hi, STDDEV(z) AS sd, VAR_POP(t) AS vt, activity FROM d "
    "WHERE z < 1.5 AND valid GROUP BY x, y",
    "SELECT COUNT(*) AS n, SUM(person_id) AS s, AVG(z) AS az, MAX(t) AS hi FROM d WHERE valid",
)

FOLD_CONFIGS = {
    "default": EngineConfig(),
    "row_scan": EngineConfig(vectorized=False),
    "no_optimizer": EngineConfig(optimizer=False),
    "interpreted": EngineConfig(mode="interpreted"),
}


def _fresh_state(chunk: Relation, query, config, name: str = "s") -> Relation:
    """``query``'s partial state over ``chunk`` alone, named ``name``."""
    database = Database()
    database.register("d", chunk)
    state = database.partial_aggregate(query, config)
    state.name = name
    return state


@pytest.mark.parametrize("config", sorted(FOLD_CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_folded_states_equal_fresh_states(config, seed):
    """After k random-sized appends (empty ones included) to random
    leaves, every read equals the reference, and each leaf's kept state
    is, by packed bytes, the state a fresh partial computes over the grown
    chunk.  Where the memo is off (the oracle, the ablation) the fold rule
    itself is checked: each delta's state folded after the running one."""
    rng = random.Random(seed)
    engine = FOLD_CONFIGS[config]
    parsed = {sql: parse(sql) for sql in FOLD_QUERIES}
    processor = _processor(rows=800)
    processor.engine = engine
    network = processor.network
    holders = network.partition_holders("d")
    #: (query, leaf) -> the state folded over every append so far.
    folded = {}
    folds = _folds()
    for step in range(6):
        for sql in FOLD_QUERIES:
            assert _run(processor, sql)[0] == _expected(processor, sql), (step, sql)
        for index, holder in enumerate(holders):
            chunk = _chunk(processor, index)
            kept = chunk.kept_states()
            if engine.zone_maps:
                assert len(kept) == len(FOLD_QUERIES)
                for (_, name, _), entry in kept.items():
                    assert entry.covered == len(chunk)
                    fresh = _fresh_state(chunk, entry.query, engine, name)
                    assert entry.state.payload == pack_relation(fresh), (step, holder)
                continue
            assert kept == {}
            for sql, query in parsed.items():
                fresh = _fresh_state(chunk, query, engine)
                state = folded.setdefault((sql, holder), fresh)
                state.name = fresh.name
                assert pack_relation(state) == pack_relation(fresh), (step, holder)
        for _ in range(rng.randint(1, 3)):
            holder = rng.choice(holders)
            rows = rng.choice([0, 1, rng.randint(2, 60)])
            delta = make_sensor_relation(rows, seed=rng.randrange(1000), grid=2.0)
            if not engine.zone_maps:
                for sql, query in parsed.items():
                    folded[(sql, holder)] = fold_state(
                        folded[(sql, holder)],
                        _fresh_state(delta, query, engine),
                        lambda union: Database().combine_partials(query, union, engine),
                    )
            network.append_to_partition(holder, "d", delta)
    assert (_folds() > folds) == engine.zone_maps


def _with_z(relation: Relation, values) -> Relation:
    """``relation`` with its first ``len(values)`` values of ``z`` replaced."""
    rows = relation.to_dicts()
    for row, value in zip(rows, values):
        row["z"] = value
    return Relation(schema=relation.schema, rows=rows, name=relation.name)


def test_a_suffix_that_raises_gives_the_full_scan_error():
    """An appended row the derived query cannot take raises the error a
    full scan of the grown chunk raises (and the reference), and keeps
    nothing; the leaf still holds the state it inherited."""
    sql = "SELECT x, SUM(z) AS s FROM d GROUP BY x"
    processor = _processor()
    _run(processor, sql)
    holder = processor.network.partition_holders("d")[0]
    delta = _with_z(make_sensor_relation(6, seed=9, grid=2.0), [0.5, "oops"])
    processor.network.append_to_partition(holder, "d", delta)
    [entry] = _chunk(processor).kept_states().values()
    before, folds = _counts(), _folds()
    with pytest.raises(ValueError) as folded:
        processor.process(sql, "ActionFilter", **OPTIONS)
    assert (_counts(), _folds()) == (before, folds)
    assert list(_chunk(processor).kept_states().values()) == [entry]
    for index in range(len(processor.network.partition_holders("d"))):
        _chunk(processor, index).kept_states().clear()
    with pytest.raises(ValueError) as rescanned:
        processor.process(sql, "ActionFilter", **OPTIONS)
    with pytest.raises(ValueError) as reference:
        _expected(processor, sql)
    assert str(folded.value) == str(rescanned.value) == str(reference.value)


def test_a_suffix_that_fails_alone_takes_the_full_scan():
    """Appended rows whose own float sum is out of range, in a chunk whose
    whole sum is not: the fold raises, so the leaf scans the grown chunk,
    keeps that state and returns the reference."""
    sql = "SELECT COUNT(*) AS n, SUM(z) AS s FROM d"
    processor = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    processor.load_data(_with_z(make_sensor_relation(40, grid=2.0), [-1.7e308]))
    _run(processor, sql)
    delta = _with_z(make_sensor_relation(2, seed=5, grid=2.0), [1.7e308, 1.7e308])
    processor.network.append_to_partition("sensor", "d", delta)
    folds = _folds()
    assert _run(processor, sql) == (_expected(processor, sql), (0, 1))
    assert _folds() == folds
    [entry] = _chunk(processor).kept_states().values()
    assert entry.covered == 42
    assert _run(processor, sql) == (_expected(processor, sql), (1, 0))


def test_folds_run_on_the_node_with_the_scans_executor():
    """A fold runs its partial on the chunk's own node, with the appended
    rows bound as the base table: same shape, so it takes the executor
    the full scan built.  Only the first fold builds one, for the node's
    combine; each read still equals the reference, and the node's catalog
    keeps only its chunk."""
    processor = _processor()
    node = processor.network.partition_holders("d")[0]
    database = processor.network.database(node)
    _run(processor)
    scanned = database.executor_builds
    builds = []
    for batch in range(3):
        delta = make_sensor_relation(30, seed=batch + 7, grid=2.0)
        processor.network.append_to_partition(node, "d", delta)
        folds = _folds()
        assert _run(processor)[0] == _expected(processor)
        assert _folds() - folds == 1
        builds.append(database.executor_builds)
        assert sorted(database.table_names) == ["d", "stream"]
    assert builds == [scanned + 1] * 3


@pytest.mark.parametrize("write", ["extend", "row_view"])
def test_a_row_api_write_drops_inherited_states(write):
    """An appended chunk inherits its parent's states, and a write through
    the ``Relation`` row API drops every one: the leaf computes again."""
    processor = _processor()
    _run(processor)
    _append(processor)
    chunk = _chunk(processor)
    assert len(chunk.kept_states()) == 1
    if write == "extend":
        chunk.extend(make_sensor_relation(3, seed=4, grid=2.0).to_dicts())
    else:
        chunk.rows[0]["z"] = 0.25
    assert chunk.kept_states() == {}
    folds = _folds()
    assert _run(processor) == (_expected(processor), (7, 1))
    assert _folds() == folds


# ---------------------------------------------------------------------------
# concurrent sessions over a changing leaf
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_sessions_racing_over_appends_read_their_batch():
    """Four sessions repeat one text; between batches an append changes one
    leaf.  Every read equals the reference for its batch's data, and the
    reads hit, fold and miss: every leaf computes in the first batch, and
    the appended one folds its new rows in each later batch."""
    processor = _processor(rows=1600)
    frontend = SessionFrontEnd(processor, max_concurrent=4)
    holders = processor.network.partition_holders("d")
    before = _counts()
    folds = _folds()
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
    assert hits > 0 and misses >= len(holders) and _folds() - folds >= 3


# ---------------------------------------------------------------------------
# the end-to-end benchmark's reads
# ---------------------------------------------------------------------------


#: Per workload, the kept-output hits of one read after the first, by
#: stage op: the group-by's finalize runs at the PC, the chain's at the
#: appliance, whose output the PC's window stage (``query``) reads.
BENCHMARK_HITS = {
    "paper_chain_30k": {"combine": 0, "finalize": 1, "query": 1, "anonymize": 1},
    "groupby_tree_30k": {"combine": 3, "finalize": 1, "query": 0, "anonymize": 1},
}


def _output_counts():
    return {
        op: (
            registry.value(f"runtime.state_memo.{op}_hits"),
            registry.value(f"runtime.state_memo.{op}_misses"),
        )
        for op in ("combine", "finalize", "union", "query", "anonymize")
    }


@pytest.mark.parametrize(
    "workload, leaves",
    [("paper_chain_30k", 1), ("groupby_tree_30k", 8)],
)
def test_benchmark_reads_hit_every_leaf(workload, leaves):
    """After the first read every leaf partial and every task after it
    that runs in the apartment (combines, the finalize, the chain's
    window stage, step A) is a hit: the traced split counts no engine
    call and no anonymization, and one decode per op, the cloud's."""
    spec = WORKLOADS[workload]
    inputs = spec.inputs(0, 2000, 4)
    system = spec.setup(inputs)
    try:
        system.execute(inputs.ops[0])
        before, outputs = _counts(), _output_counts()
        with LayerTracer() as tracer:
            for op in inputs.ops[1:]:
                system.execute(op)
        after, outputs_after = _counts(), _output_counts()
    finally:
        system.close()
    reads = len(inputs.ops) - 1
    assert tuple(a - b for a, b in zip(after, before)) == (leaves * reads, 0)
    assert {
        op: (hits - outputs[op][0], misses - outputs[op][1])
        for op, (hits, misses) in outputs_after.items()
    } == {
        op: (hits * reads, 0)
        for op, hits in dict(BENCHMARK_HITS[workload], union=0).items()
    }
    for layer in ("engine.partial", "engine.query", "anonymize"):
        assert tracer.totals[layer][0] == 0, layer
    assert tracer.totals["wire.unpack"][0] == reads
