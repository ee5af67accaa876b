"""Kept stage outputs: a task whose inputs all arrive as bytes equal to the
ones it computed from last time outputs the bytes its node kept, undecoded.

The rule (``runtime.memo.kept_output``) covers combines, finalizes,
unions, query stages over shipped rows and step A; entries live per node
(``NetworkSimulator.kept_outputs``).  These tests pin, on the default
chain (a GROUP BY under a window: leaf partial, finalize, the window
stage, step A), on the 8-sensor tree (partials, combines, finalize,
step A) and on the no-pushdown baseline (the sensors' rows unioned at
the PC, the whole query and step A at the cloud), that every kind hits
on a repeated read and misses once its input bytes change, that only a
deterministic release is kept, that a link fault under a hit behaves as
under a computing run, that no two runs share a relation, and that every
result equals the reference by bytes.
"""

from __future__ import annotations

import pytest

from tests.conftest import make_sensor_relation

from repro.anonymize.anonymizer import Anonymizer
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime.faults import DROP_LINK, Fault, FailureInjector
from repro.runtime.memo import KEPT_OPS, forget

GROUPBY_SQL = (
    "SELECT x, y, COUNT(*) AS n, AVG(z) AS az, MIN(t) AS lo FROM d "
    "WHERE z < 1.5 AND valid GROUP BY x, y"
)

#: A GROUP BY under a window: on the chain the sensor's partial, the
#: appliance's finalize and the window stage over its shipped rows.
WINDOW_SQL = (
    "SELECT x, n, RANK() OVER (ORDER BY n, x) AS r "
    "FROM (SELECT x, COUNT(*) AS n FROM d WHERE valid GROUP BY x)"
)

#: case -> (topology, SQL, process options, the kept ops a read runs).
CASES = {
    "chain": (
        Topology.default_chain,
        WINDOW_SQL,
        {"apply_rewriting": False},
        {"finalize": 1, "query": 1, "anonymize": 1},
    ),
    "tree8": (
        lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        GROUPBY_SQL,
        {"apply_rewriting": False},
        {"combine": 3, "finalize": 1, "anonymize": 1},
    ),
    "no_pushdown": (
        lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        GROUPBY_SQL,
        {"apply_rewriting": False, "pushdown": False},
        {"union": 1, "anonymize": 1},
    ),
}


def _processor(case: str, rows: int = 1200, **kwargs) -> ParadiseProcessor:
    topology, *_ = CASES[case]
    processor = ParadiseProcessor(figure4_policy(), topology=topology(), **kwargs)
    processor.load_data(make_sensor_relation(rows, grid=2.0))
    return processor


def _counts():
    return {
        op: (
            registry.value(f"runtime.state_memo.{op}_hits"),
            registry.value(f"runtime.state_memo.{op}_misses"),
        )
        for op in KEPT_OPS
    }


def _run(processor, case: str, **extra):
    """One run of ``case``; returns it and the (hits, misses) per kept op
    it added (ops with neither left out)."""
    _, sql, options, _ = CASES[case]
    before = _counts()
    run = processor.process(sql, "ActionFilter", **options, **extra)
    counts = {
        op: (hits - before[op][0], misses - before[op][1])
        for op, (hits, misses) in _counts().items()
    }
    return run, {op: count for op, count in counts.items() if count != (0, 0)}


def _expected(processor, case: str) -> bytes:
    _, sql, options, _ = CASES[case]
    reference = reference_result(
        processor, sql, "ActionFilter", apply_rewriting=options.get("apply_rewriting", True)
    )
    return pack_relation(reference)


def _assert_reference(processor, case: str, *runs) -> None:
    expected = _expected(processor, case)
    for run in runs:
        assert pack_relation(run.result) == expected


# ---------------------------------------------------------------------------
# a repeated read hits, a change misses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_stage_kind_hits_on_the_second_run(case):
    processor = _processor(case)
    ops = CASES[case][3]
    first, counts = _run(processor, case)
    assert counts == {op: (0, n) for op, n in ops.items()}
    second, counts = _run(processor, case)
    assert counts == {op: (n, 0) for op, n in ops.items()}
    _assert_reference(processor, case, first, second)
    # A hit records its stage as a computing run does, in no time.
    records = [
        [(e.fragment_name, e.node, e.input_rows, e.output_rows) for e in run.executions]
        for run in (first, second)
    ]
    assert records[0] == records[1]
    if case != "no_pushdown":  # whose sensors run their resident queries
        assert all(e.elapsed_seconds == 0 for e in second.executions if e.node != "cloud")
    assert second.transfers.by_hop() == first.transfers.by_hop()
    assert second.anonymization.algorithm == first.anonymization.algorithm
    assert second.anonymization.applied == first.anonymization.applied
    assert second.anonymization.notes == first.anonymization.notes


def _holder(processor) -> str:
    return processor.network.partition_holders("d")[0]


def _append(processor) -> None:
    processor.network.append_to_partition(
        _holder(processor), "d", make_sensor_relation(40, seed=7, grid=2.0)
    )


def _row_view_write(processor) -> None:
    row = processor.network.database(_holder(processor)).table("d").rows[0]
    row.update({"x": 7.0, "z": 0.5, "valid": True})


def _load_rows(processor) -> None:
    database = processor.network.database(_holder(processor))
    chunk = database.table("d")
    rows = make_sensor_relation(len(chunk), seed=11, grid=2.0).to_dicts()
    database.load_rows("d", rows, chunk.schema)


def _lose_a_chunk(processor) -> None:
    holder = processor.network.partition_holders("d")[-1]
    processor.topology.mark_dead(holder)
    processor.network.fail_node(holder, lose_data=True)


CHANGES = {
    "append": _append,
    "row_view_write": _row_view_write,
    "load_rows": _load_rows,
    "fail_node_lose_data": _lose_a_chunk,
}


@pytest.mark.parametrize(
    "case, change",
    [
        (case, change)
        for case in sorted(CASES)
        for change in sorted(CHANGES)
        # The chain's one sensor holds every row.
        if (case, change) != ("chain", "fail_node_lose_data")
    ],
)
def test_every_stage_kind_misses_after_a_change(case, change):
    """A change to the rows reaches every kind's input bytes, and the
    read after it hits again."""
    processor = _processor(case)
    _run(processor, case)
    _run(processor, case)
    CHANGES[change](processor)
    options = {"on_data_loss": "partial"} if change == "fail_node_lose_data" else {}
    run, counts = _run(processor, case, **options)
    _assert_reference(processor, case, run)
    for op in CASES[case][3]:
        assert counts[op][1] >= 1, (op, counts)
    again, counts = _run(processor, case, **options)
    _assert_reference(processor, case, again)
    assert all(misses == 0 for _, misses in counts.values()), counts


@pytest.mark.parametrize("case", ["tree8", "no_pushdown"])
def test_a_crashed_node_gives_the_reference(case):
    """Under process-crash semantics a dead sensor's rows move to its
    neighbour: the tasks whose input bytes changed compute, and those
    whose inputs merge to the same bytes may hit; every read equals the
    reference."""
    processor = _processor(case)
    _run(processor, case)
    victim = processor.network.partition_holders("d")[1]
    processor.topology.mark_dead(victim)
    processor.network.fail_node(victim)
    assert processor.network.kept_outputs(victim) == {}
    run, counts = _run(processor, case)
    _assert_reference(processor, case, run)
    changed = "combine" if case == "tree8" else "union"
    assert counts[changed][1] >= 1
    again, counts = _run(processor, case)
    _assert_reference(processor, case, again)
    assert all(misses == 0 for _, misses in counts.values()), counts


# ---------------------------------------------------------------------------
# step A: only a deterministic release is kept
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["slicing", "differential_privacy"])
def test_unseeded_releases_compute_on_every_run(algorithm):
    processor = _processor("tree8", anonymizer=Anonymizer(algorithm=algorithm, k=2))
    for _ in range(3):
        _, counts = _run(processor, "tree8")
        assert "anonymize" not in counts
        assert counts["finalize"][1] + counts["finalize"][0] == 1


@pytest.mark.parametrize("algorithm", ["slicing", "differential_privacy"])
def test_seeded_releases_are_kept(algorithm):
    processor = _processor("tree8", anonymizer=Anonymizer(algorithm=algorithm, k=2, seed=5))
    first, counts = _run(processor, "tree8")
    assert counts["anonymize"] == (0, 1)
    second, counts = _run(processor, "tree8")
    assert counts["anonymize"] == (1, 0)
    assert pack_relation(second.result) == pack_relation(first.result)
    _assert_reference(processor, "tree8", first, second)


@pytest.mark.parametrize("case", sorted(CASES))
def test_changing_k_misses(case):
    processor = _processor(case)
    _run(processor, case)
    _run(processor, case)
    processor.anonymizer.k = 2
    run, counts = _run(processor, case)
    assert counts["anonymize"] == (0, 1)
    _assert_reference(processor, case, run)
    _, counts = _run(processor, case)
    assert counts["anonymize"] == (1, 0)


# ---------------------------------------------------------------------------
# link faults, sharing, the gate
# ---------------------------------------------------------------------------

#: case -> the link carrying a kept task's input: the chain's finalize
#: output into the window stage, the tree's combine output into the PC.
LINKS = {"chain": ("appliance", "pc"), "tree8": ("appliance_0", "pc")}


@pytest.mark.parametrize("times, replans", [(2, 0), (999, 1)])
@pytest.mark.parametrize("case", sorted(LINKS))
def test_a_dropped_link_under_a_hit_fails_as_before(case, times, replans):
    """A link that drops the shipment of a hit's input retries it, or
    re-plans once it stays down, exactly as a run that keeps nothing
    does: the same retries, re-plans, transfers and result bytes."""
    source, target = LINKS[case]
    outcomes = []
    for warm in (True, False):
        processor = _processor(case)
        _run(processor, case)
        if not warm:
            forget(processor.network)
        injector = FailureInjector(
            [Fault(kind=DROP_LINK, node=source, target=target, times=times)]
        )
        run, _ = _run(processor, case, faults=injector)
        _assert_reference(processor, case, run)
        assert run.runtime.replans == replans
        outcomes.append(
            (run.runtime.retried_attempts, run.runtime.replans, run.transfers.by_hop())
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_two_runs_share_no_relation(case):
    processor = _processor(case)
    runs = [_run(processor, case)[0] for _ in range(3)]
    relations = [
        relation
        for run in runs
        for relation in (run.result, run.anonymization.relation)
    ]
    # Within one run the no-pushdown release is the result itself.
    assert len({id(relation) for relation in relations}) >= 2 * len(runs) - (
        len(runs) if case == "no_pushdown" else 0
    )
    if len(runs[1].result):
        runs[1].result.rows[0][runs[1].result.schema.names[0]] = None
    _assert_reference(processor, case, runs[0], runs[2])
    assert pack_relation(_run(processor, case)[0].result) == _expected(processor, case)


@pytest.mark.parametrize("mode", ["interpreted", "no_optimizer"])
def test_the_oracle_and_the_ablation_keep_nothing(mode):
    options = {"engine_mode": "interpreted"} if mode == "interpreted" else {"optimizer": False}
    processor = _processor("chain", **options)
    for _ in range(2):
        run, counts = _run(processor, "chain")
        assert counts == {}
        _assert_reference(processor, "chain", run)
    assert all(not processor.network.kept_outputs(node.name) for node in processor.topology)
