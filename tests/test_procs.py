"""Tests for the process-pool execution backend (``workers="processes"``).

The contract under test: engine operations dispatched to spawned worker
processes return relations **byte-identical** to the unfragmented reference on every
workload shape, under both engine modes and under injected failures — while
nothing ever crosses the process boundary except wire bytes (no pickling of
relations or aggregate state, enforced by ``Relation.__reduce__``).
"""

from __future__ import annotations

import pickle

import pytest

from tests.test_runtime import RAW_WORKLOADS, build_tree_processor

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.table import Relation
from repro.engine.wire import WireFormatError, pack_relation, unpack_relation
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.policy.presets import figure4_policy
from repro.runtime.faults import KILL_NODE, TASK_ERROR, Fault, FailureInjector
from repro.runtime.procs import (
    ProcessDispatcher,
    decode_job,
    encode_job,
    execute_job,
    referenced_tables,
)
from repro.sql.parser import parse

pytestmark = pytest.mark.procs

ROWS = 120

PAPER_SQL = (
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) "
    "FROM (SELECT x, y, z, t FROM d)"
)


def procs_processor(**kwargs) -> ParadiseProcessor:
    kwargs.setdefault("workers", "processes")
    kwargs.setdefault("process_workers", 2)
    return build_tree_processor(n_sensors=4, rows=ROWS, **kwargs)


def reference_oracle(query: str, module_id: str = "fig4", **options) -> Relation:
    """The unfragmented reference over a fresh thread-backed processor."""
    processor = build_tree_processor(n_sensors=4, rows=ROWS)
    return reference_result(processor, query, module_id, **options)


def assert_same_relation(expected, actual):
    assert expected is not None and actual is not None
    assert pack_relation(actual) == pack_relation(expected)


# ---------------------------------------------------------------------------
# job framing
# ---------------------------------------------------------------------------


COMPILED = EngineConfig()
INTERPRETED = EngineConfig(mode="interpreted")


def test_job_codec_round_trip():
    tables = [("d", b"\x01\x02"), ("lookup", b"")]
    for config in (
        INTERPRETED,
        EngineConfig(mode="interpreted", vectorized=False, optimizer=False),
        EngineConfig(vectorized=False),
        EngineConfig(optimizer=False),
    ):
        payload = encode_job("partial", config, "SELECT 1", tables, b"state")
        assert payload[:4] == b"PJB2"
        assert decode_job(payload) == ("partial", config, "SELECT 1", tables, b"state")


def test_job_codec_without_state():
    payload = encode_job("query", COMPILED, "SELECT x FROM d", [("d", b"abc")])
    op, config, sql, tables, state = decode_job(payload)
    assert (op, config, sql) == ("query", COMPILED, "SELECT x FROM d")
    assert tables == [("d", b"abc")]
    assert state is None


def test_job_codec_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        encode_job("explain", COMPILED, "SELECT 1", [])
    with pytest.raises(ValueError):
        encode_job("query", EngineConfig(mode="jit"), "SELECT 1", [])


def test_job_codec_fails_loudly_on_malformed_payloads():
    payload = encode_job("query", COMPILED, "SELECT 1", [("d", b"abc")])
    with pytest.raises(WireFormatError):
        decode_job(b"NOPE" + payload[4:])
    with pytest.raises(WireFormatError):
        decode_job(payload[:-1])
    with pytest.raises(WireFormatError):
        decode_job(payload + b"\x00")
    bad_op = bytearray(payload)
    bad_op[4] = 0xFF
    with pytest.raises(WireFormatError):
        decode_job(bytes(bad_op))


def test_job_codec_rejects_unknown_config_flags():
    payload = bytearray(encode_job("query", COMPILED, "SELECT 1", []))
    payload[6] |= 0x80  # header: magic, opcode, mode, config flags
    with pytest.raises(WireFormatError, match="config flags"):
        decode_job(bytes(payload))


def test_referenced_tables_walks_subqueries():
    query = parse(
        "SELECT x FROM d WHERE z < (SELECT AVG(z) FROM calib) "
        "AND y IN (SELECT y FROM zones)"
    )
    names = [name.lower() for name in referenced_tables(query)]
    assert names[0] == "d"
    assert sorted(names) == ["calib", "d", "zones"]


# ---------------------------------------------------------------------------
# the worker function (in-process: correctness without spawning)
# ---------------------------------------------------------------------------


def make_relation():
    return Relation.from_rows(
        [
            {"device": i % 3, "value": float(i), "label": f"r{i}"}
            for i in range(30)
        ],
        name="d",
    )


def test_execute_job_query():
    relation = make_relation()
    payload = encode_job(
        "query",
        COMPILED,
        "SELECT device, value FROM d WHERE value < 10.0",
        [("d", pack_relation(relation))],
    )
    output = unpack_relation(execute_job(payload))
    database = Database()
    database.register("d", relation)
    expected = database.query("SELECT device, value FROM d WHERE value < 10.0")
    assert_same_relation(expected, output)


def test_execute_job_partial_combine_finalize_chain():
    relation = make_relation()
    sql = "SELECT device, AVG(value) AS mean, COUNT(*) AS n FROM d GROUP BY device"
    database = Database()
    database.register("d", relation)
    expected = database.query(sql)

    partial_payload = encode_job("partial", COMPILED, sql, [("d", pack_relation(relation))])
    states = unpack_relation(execute_job(partial_payload))
    assert all(name.startswith("__agg") for name in states.schema.names[1:])

    combined = unpack_relation(
        execute_job(encode_job("combine", COMPILED, sql, [], pack_relation(states)))
    )
    final = unpack_relation(
        execute_job(
            encode_job("finalize", COMPILED, sql, [], pack_relation(combined))
        )
    )
    assert_same_relation(expected, final)


# ---------------------------------------------------------------------------
# no pickling of relations or aggregate state
# ---------------------------------------------------------------------------


def test_relations_are_pickle_poisoned():
    relation = make_relation()
    with pytest.raises(TypeError, match="not picklable"):
        pickle.dumps(relation)
    database = Database()
    database.register("d", relation)
    states = database.partial_aggregate(
        "SELECT device, AVG(value) AS mean FROM d GROUP BY device"
    )
    with pytest.raises(TypeError, match="not picklable"):
        pickle.dumps(states)


def test_dispatcher_ships_bytes_not_objects():
    """A full dispatched run succeeds despite the pickle poison: only the
    framed byte payload ever crosses the pool boundary."""
    dispatcher = ProcessDispatcher(workers=1)
    relation = make_relation()
    query = parse("SELECT device, SUM(value) AS total FROM d GROUP BY device")
    output = dispatcher.run("query", COMPILED, query, [("d", relation)])
    database = Database()
    database.register("d", relation)
    assert_same_relation(database.query(query), output)
    assert dispatcher.jobs == 1
    assert dispatcher.bytes_out > 0


def test_dispatcher_validates_worker_count():
    with pytest.raises(ValueError):
        ProcessDispatcher(workers=0)
    with pytest.raises(ValueError):
        ParadiseProcessor(figure4_policy(), workers="fibers")
    with pytest.raises(ValueError):
        ParadiseProcessor(figure4_policy(), workers="processes", process_workers=0)


# ---------------------------------------------------------------------------
# reference differential through spawned workers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", RAW_WORKLOADS)
def test_process_backend_matches_serial_oracle(query):
    procs = procs_processor()
    oracle = reference_oracle(query, apply_rewriting=False)
    result = procs.process(
        query, "fig4", execution="parallel", apply_rewriting=False
    )
    assert_same_relation(oracle, result.result)
    assert procs._dispatcher is not None and procs._dispatcher.jobs > 0


def test_process_backend_matches_oracle_on_rewritten_paper_query():
    procs = procs_processor()
    oracle = reference_oracle(PAPER_SQL, "ActionFilter")
    result = procs.process(PAPER_SQL, "ActionFilter", execution="parallel")
    assert_same_relation(oracle, result.result)


def test_process_backend_matches_oracle_in_interpreted_mode():
    query = "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x"
    procs = procs_processor(engine_mode="interpreted")
    oracle = reference_oracle(query, apply_rewriting=False)
    result = procs.process(
        query, "fig4", execution="parallel", apply_rewriting=False
    )
    assert_same_relation(oracle, result.result)


@pytest.mark.parametrize(
    "query",
    [
        "SELECT activity, person_id, t, AVG(z) AS az FROM d "
        "GROUP BY activity HAVING MAX(z) > y ORDER BY t",
        "SELECT t, x, COUNT(*) AS n FROM d WHERE z < 1.5",
    ],
)
def test_process_backend_carries_first_value_states(query):
    """Bare non-key columns travel as first-value states through the
    worker processes' partial, combine and finalize jobs."""
    procs = procs_processor()
    oracle = reference_oracle(query, apply_rewriting=False)
    result = procs.process(query, "fig4", execution="parallel", apply_rewriting=False)
    assert_same_relation(oracle, result.result)
    assert result.runtime.partial_count == 4


def test_process_backend_profile_spans_hold():
    procs = procs_processor()
    result = procs.process(
        RAW_WORKLOADS[2],
        "fig4",
        execution="parallel",
        apply_rewriting=False,
        profile=True,
    )
    assert result.profile is not None
    rendered = result.profile.render()
    assert "partial" in rendered or "fragment" in rendered
    assert result.trace is not None
    assert any(span.kind == "task" for span in result.trace.snapshot())


# ---------------------------------------------------------------------------
# fault tolerance through spawned workers
# ---------------------------------------------------------------------------


def test_process_backend_survives_node_kill():
    query = RAW_WORKLOADS[2]
    oracle = reference_oracle(query, apply_rewriting=False)
    injector = FailureInjector([Fault(kind=KILL_NODE, node="sensor_1")])
    procs = procs_processor()
    result = procs.process(
        query,
        "fig4",
        execution="parallel",
        apply_rewriting=False,
        faults=injector,
    )
    assert injector.fired
    assert_same_relation(oracle, result.result)


def test_process_backend_retries_transient_errors():
    query = RAW_WORKLOADS[0]
    oracle = reference_oracle(query, apply_rewriting=False)
    injector = FailureInjector([Fault(kind=TASK_ERROR, node="sensor_2")])
    procs = procs_processor()
    result = procs.process(
        query,
        "fig4",
        execution="parallel",
        apply_rewriting=False,
        faults=injector,
    )
    assert injector.fired
    assert result.runtime is not None and result.runtime.retried_attempts >= 1
    assert_same_relation(oracle, result.result)
