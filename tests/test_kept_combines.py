"""Kept combines: a combine whose inputs arrive as the bytes it merged last
time outputs the state it packed then, undecoded, instead of decoding and
merging them again.

The entries live per node (``NetworkSimulator.kept_outputs``), keyed like
a chunk's kept leaf states (``runtime.memo.kept_key``), and hold the input
payloads they merged.  These tests pin that a hit's bytes are a fresh
combine's under every config, the hit and decode counts of a repeated read
on the 8-sensor tree, that a changed leaf misses only on its path to the
root, that node deaths, link faults and concurrent sessions give the
reference bytes, and that the interpreted oracle and the
``optimizer=False`` ablation never keep an entry.
"""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import make_sensor_relation

from repro.engine import EngineConfig
from repro.engine import wire
from repro.engine.table import Relation
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor import network as network_module
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import CostModel, SessionFrontEnd
from repro.runtime.faults import DROP_LINK, KILL_NODE, Fault, FailureInjector
from repro.sensors.scenario import INTEGRATED_SCHEMA

SQL = (
    "SELECT x, y, COUNT(*) AS n, AVG(z) AS az, MIN(t) AS lo FROM d "
    "WHERE z < 1.5 AND valid GROUP BY x, y"
)
OPTIONS = {"apply_rewriting": False, "anonymize": False}

#: Every decomposable aggregate with a bare column (a first-value state),
#: and a global aggregation.
QUERIES = (
    SQL,
    "SELECT x, COUNT(*) AS n, SUM(z) AS s, MAX(t) AS hi, STDDEV(z) AS sd, "
    "VAR_POP(t) AS vt, activity FROM d WHERE valid GROUP BY x",
    "SELECT COUNT(*) AS n, SUM(person_id) AS s, AVG(z) AS az FROM d",
)

CONFIGS = {
    "default": EngineConfig(),
    "row_scan": EngineConfig(vectorized=False),
    "no_optimizer": EngineConfig(optimizer=False),
    "interpreted": EngineConfig(mode="interpreted"),
}

#: The combines of the 8-sensor tree: one per appliance and the PC's.
COMBINE_NODES = ("appliance_0", "appliance_1", "pc")


def _processor(rows: int = 2400, relation: Relation = None, **options) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        **options,
    )
    if relation is None:
        relation = make_sensor_relation(rows, grid=2.0)
    processor.load_data(relation)
    return processor


def _combine_counts():
    return (
        registry.value("runtime.state_memo.combine_hits"),
        registry.value("runtime.state_memo.combine_misses"),
    )


def _run(processor, sql=SQL, **options):
    """One run; returns its result bytes and the (combine hits, combine
    misses) it added."""
    hits, misses = _combine_counts()
    run = processor.process(sql, "ActionFilter", **OPTIONS, **options)
    after = _combine_counts()
    return pack_relation(run.result), (after[0] - hits, after[1] - misses)


def _expected(processor, sql=SQL) -> bytes:
    return pack_relation(reference_result(processor, sql, "ActionFilter", **OPTIONS))


def _combines(processor, node: str):
    """The entries of the combined states ``node`` keeps, by key (its other
    kept outputs, a finalize's or step A's, are left out)."""
    entries = processor.network.kept_outputs(node)
    return {key: entry for key, entry in entries.items() if key[-1] == "combine"}


def _kept(processor):
    """node -> the payloads of the combined states it keeps, by key."""
    return {
        node.name: {key: entry.output.payload for key, entry in entries.items()}
        for node in processor.network.topology
        for entries in [_combines(processor, node.name)]
        if entries
    }


def _forget(processor) -> None:
    network = processor.network
    for holder in network.partition_holders("d"):
        network.database(holder).table("d").kept_states().clear()
    for node in network.topology:
        network.kept_outputs(node.name).clear()


def _combine_spans(run):
    """node -> the ``memo`` outcome of each combine task span of ``run``."""
    return {
        span.node: span.attrs.get("memo")
        for span in run.trace.spans
        if span.kind == "task" and "~combine[" in span.name
    }


# ---------------------------------------------------------------------------
# a hit is a fresh combine's bytes
# ---------------------------------------------------------------------------

_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, 2.5]),
)


@st.composite
def _relations(draw) -> Relation:
    """Up to 80 readings on a coarse grid (few groups per chunk), with
    signed zeros and mixed magnitudes in ``z`` and ``t``."""
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "person_id": st.integers(1, 4),
                    "x": st.sampled_from([0.0, 2.0, 4.0]),
                    "y": st.sampled_from([0.0, 2.0]),
                    "z": _values,
                    "t": _values,
                    "valid": st.booleans(),
                    "activity": st.sampled_from(["walk", "sit", "stand"]),
                }
            ),
            max_size=80,
        )
    )
    return Relation(schema=INTEGRATED_SCHEMA, rows=rows, name="d")


@pytest.mark.parametrize("config", sorted(CONFIGS))
@given(relation=_relations(), sql=st.sampled_from(QUERIES))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_hit_is_a_fresh_combine(config, relation, sql):
    """Under every config: the repeated read equals the reference, and the
    bytes each combine kept (the ones its hits output) are the bytes the
    combines compute once every kept state is forgotten.  The interpreted
    oracle and the ``optimizer=False`` ablation keep none."""
    engine = CONFIGS[config]
    processor = _processor(relation=relation)
    processor.engine = engine
    expected = _expected(processor, sql)
    result, (hits, combines) = _run(processor, sql)
    assert result == expected and hits == 0
    kept = _kept(processor)
    assert len(kept) == (combines if engine.zone_maps else 0)
    assert _run(processor, sql) == (expected, (len(kept), 0))
    _forget(processor)
    assert _run(processor, sql)[0] == expected
    assert _kept(processor) == kept


# ---------------------------------------------------------------------------
# what a repeated read decodes, and what a change recomputes
# ---------------------------------------------------------------------------


def _count_decodes(monkeypatch) -> list:
    """Wrap the wire decoder wherever it is bound: the list collects every
    payload decoded."""
    decoded = []
    real_unpack = wire.unpack_relation

    def unpack(payload):
        decoded.append(payload)
        return real_unpack(payload)

    for module in (wire, network_module):
        monkeypatch.setattr(module, "unpack_relation", unpack)
    return decoded


def test_a_repeated_read_merges_nothing(monkeypatch):
    """Read 2 on the 8-sensor tree: its 8 leaves, 3 combines and the
    finalize hit, so no task decodes an input; the one decode is the
    result's, at the cloud, of the bytes the finalize kept."""
    processor = _processor()
    expected = _expected(processor)
    assert _run(processor) == (expected, (0, 3))
    decoded = _count_decodes(monkeypatch)
    result, counts = _run(processor)
    assert (result, counts) == (expected, (3, 0))
    [finalize] = [
        entry
        for node in processor.network.topology
        for key, entry in processor.network.kept_outputs(node.name).items()
        if key[-1] == "finalize"
    ]
    assert len(decoded) == 1 and decoded[0] is finalize.output.payload
    run = processor.process(SQL, "ActionFilter", profile=True, **OPTIONS)
    assert _combine_spans(run) == dict.fromkeys(COMBINE_NODES, "hit")
    assert run.profile.scan_paths["state_memo.combine_hits"] == 3


def test_a_hit_still_ships_every_input():
    """A hit's inputs ship as a computing run's do: the same transfers, the
    same bytes, and the same execution records, rows included."""
    processor = _processor()
    computed = processor.process(SQL, "ActionFilter", **OPTIONS)
    hit = processor.process(SQL, "ActionFilter", **OPTIONS)
    assert hit.transfers.by_hop() == computed.transfers.by_hop()
    records = [
        (e.fragment_name, e.node, e.input_rows, e.output_rows) for e in computed.executions
    ]
    assert [
        (e.fragment_name, e.node, e.input_rows, e.output_rows) for e in hit.executions
    ] == records


def test_an_append_misses_only_on_its_path():
    """Rows appended to one leaf change its state's bytes: its appliance's
    combine and the PC's miss, the other appliance's hits."""
    processor = _processor()
    _run(processor)
    _run(processor)
    holder = processor.network.partition_holders("d")[0]
    processor.network.append_to_partition(
        holder, "d", make_sensor_relation(30, seed=7, grid=2.0)
    )
    expected = _expected(processor)
    hits, misses = _combine_counts()
    run = processor.process(SQL, "ActionFilter", profile=True, **OPTIONS)
    assert pack_relation(run.result) == expected
    assert _combine_spans(run) == {
        "appliance_0": "miss",
        "appliance_1": "hit",
        "pc": "miss",
    }
    assert (_combine_counts()[0] - hits, _combine_counts()[1] - misses) == (1, 2)
    assert _run(processor) == (expected, (3, 0))


# ---------------------------------------------------------------------------
# failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lose_data", [False, True])
@pytest.mark.parametrize("victim", ["sensor_0", "sensor_5", "appliance_0"])
def test_a_node_death_gives_the_reference(victim, lose_data):
    """A node killed during a read with kept combines, under both
    ``fail_node`` semantics: the read and the ones after it equal the
    reference over the chunks as they are now, the dead node keeps no
    combined state, and the third read hits every combine it runs."""
    processor = _processor()
    _run(processor)
    _run(processor)
    injector = FailureInjector([Fault(kind=KILL_NODE, node=victim, lose_data=lose_data)])
    options = {"on_data_loss": "partial"} if lose_data else {}
    result, _ = _run(processor, faults=injector, **options)
    assert injector.fired
    expected = _expected(processor)
    assert result == expected
    assert processor.network.kept_outputs(victim) == {}
    assert _run(processor)[0] == expected
    result, (hits, misses) = _run(processor)
    assert result == expected and hits > 0 and misses == 0


@pytest.mark.parametrize("times, replans", [(2, 0), (999, 1)])
def test_a_dropped_link_under_a_hit_fails_as_before(times, replans):
    """A link that drops the shipment of a hit's input retries it, or
    re-plans once it stays down, exactly as a run that keeps nothing does:
    the same retries, re-plans, transfers and result bytes."""
    outcomes = []
    for warm in (True, False):
        processor = _processor()
        _run(processor)
        if not warm:
            _forget(processor)
        injector = FailureInjector(
            [Fault(kind=DROP_LINK, node="sensor_2", target="appliance_0", times=times)]
        )
        run = processor.process(SQL, "ActionFilter", faults=injector, **OPTIONS)
        assert pack_relation(run.result) == _expected(processor)
        assert run.runtime.replans == replans
        outcomes.append(
            (run.runtime.retried_attempts, run.runtime.replans, run.transfers.by_hop())
        )
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", ["interpreted", "no_optimizer"])
def test_the_oracle_and_the_ablation_never_hit(config):
    processor = _processor()
    processor.engine = CONFIGS[config]
    expected = _expected(processor)
    for _ in range(3):
        assert _run(processor) == (expected, (0, 0))
    assert _kept(processor) == {}


def test_a_full_node_memo_is_emptied():
    """Past ``MAX_KEPT_STATES`` distinct combines one node's memo starts
    over, so it never holds more."""
    from repro.runtime.memo import MAX_KEPT_STATES

    processor = _processor(rows=400)
    for bound in range(MAX_KEPT_STATES + 1):
        processor.process(
            f"SELECT x, COUNT(*) AS n FROM d WHERE z < {bound + 2} GROUP BY x",
            "ActionFilter",
            **OPTIONS,
        )
    assert len(processor.network.kept_outputs("pc")) == 1


# ---------------------------------------------------------------------------
# concurrent sessions
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_two_sessions_share_kept_combines():
    """Two sessions on pool threads, with the interpreter switching threads
    often, repeat two texts: every result equals the reference by bytes,
    the combines hit each other's entries, and each node keeps exactly one
    entry per text."""
    processor = _processor(rows=1600, cost_model=CostModel(seconds_per_row=1e-6))
    texts = QUERIES[:2]
    expected = {sql: _expected(processor, sql) for sql in texts}
    frontend = SessionFrontEnd(processor, max_concurrent=2)
    hits, _ = _combine_counts()
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 60
    sys.setswitchinterval(1e-5)
    try:
        futures = [
            (sql, frontend.submit(sql, "ActionFilter", **OPTIONS))
            for _ in range(6)
            for sql in texts
        ]
        for sql, future in futures:
            result = future.result(timeout=max(1.0, deadline - time.monotonic()))
            assert pack_relation(result.result) == expected[sql]
            assert result.runtime.workers > 1
    finally:
        sys.setswitchinterval(interval)
        frontend.close()
    assert _combine_counts()[0] - hits > 0
    assert {node: len(entries) for node, entries in _kept(processor).items()} == dict.fromkeys(
        COMBINE_NODES, len(texts)
    )
