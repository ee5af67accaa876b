"""Seeded traffic and the four workloads of the end-to-end benchmark.

Everything the program receives is generated here from ``--seed``: the
base sensor relation, the query stream, the standing queries and the delta
stream.  The generators deliberately live in this package (not
``benchmarks/common.py`` or ``bench_standing.py``) so that editing another
benchmark can never change this traffic; :func:`traffic_digest` pins it.

A workload supplies three things to the runner:

* ``inputs`` — the seeded base relation and op list;
* ``setup`` — the timed set-up (processor construction, ``load_data``,
  standing registration), returning a :class:`System` whose ``execute``
  runs one op through the public API;
* ``oracle`` — an independent checker built on an
  ``engine_mode="interpreted"``, ``execution="serial"`` processor over the
  same inputs.  It judges every op after its round, outside the timed
  window.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.engine.table import Relation
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.policy.builder import PolicyBuilder
from repro.policy.model import PrivacyPolicy
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.result import ProcessingResult
from repro.runtime.session import SessionFrontEnd
from repro.runtime.standing import StandingQueryRuntime
from repro.sensors.scenario import INTEGRATED_SCHEMA

#: The paper's Section 4.2 analysis: an R call around an SQL island.
PAPER_R_CODE = (
    "filterByClass(sqldf(SELECT regr_intercept(y, x) OVER "
    "(PARTITION BY z ORDER BY t) FROM (SELECT x, y, z, t FROM d)), "
    "action='walk', do.plot=F)"
)

GROUPBY_SQL = (
    "SELECT activity, person_id, COUNT(*), AVG(z), SUM(z), MIN(t), MAX(t) "
    "FROM d WHERE valid GROUP BY activity, person_id"
)

#: Grouped by person too: four activity groups alone are fewer than the
#: anonymizer's k=5, so every read would be suppressed to an empty result.
STANDING_READ_SQL = (
    "SELECT activity, person_id, COUNT(*), AVG(z) FROM d GROUP BY activity, person_id"
)

ACTIVITIES = ("walk", "sit", "stand", "present")

#: Seconds between consecutive readings; ``t`` of row i is ``i * TICK``.
TICK = 0.1


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def sensor_relation(rng: random.Random, count: int, first_index: int = 0) -> Relation:
    """``count`` zone-quantised readings shaped like the integrated relation d."""
    rows = []
    for index in range(first_index, first_index + count):
        rows.append(
            {
                "person_id": rng.randint(1, 6),
                "x": float(rng.randint(0, 8)),
                "y": float(rng.randint(0, 6)),
                "z": round(rng.uniform(0.1, 1.9), 3),
                "t": round(index * TICK, 3),
                "valid": rng.random() > 0.05,
                "activity": rng.choice(ACTIVITIES),
            }
        )
    return Relation(schema=INTEGRATED_SCHEMA, rows=rows, name="d")


def occupancy_policy() -> PrivacyPolicy:
    """The Figure 4 policy plus an ``Occupancy`` module.

    ``Occupancy`` may read identities, positions, time and validity, and
    ``z`` only under ``z < 2`` — so every query touching ``z`` gets that
    predicate injected by the rewriter.
    """
    policy = figure4_policy()
    occupancy = (
        PolicyBuilder(owner=policy.owner)
        .module("Occupancy")
        .allow("activity")
        .allow("person_id")
        .allow("x")
        .allow("y")
        .allow("t")
        .allow("valid")
        .allow("z", condition="z < 2")
        .build()
        .module("Occupancy")
    )
    policy.add_module(occupancy)
    return policy


@dataclass
class Op:
    """One closed-loop operation of a workload."""

    index: int
    kind: str  # "read" or "write"
    query: str = ""
    module: str = ""
    #: Writes: position of the receiving sensor leaf, and the delta rows.
    leaf: int = 0
    delta: Optional[Relation] = None
    #: Whether the oracle compares this op's outcome (sampled on the
    #: standing workload, every op elsewhere).
    check: bool = True


@dataclass
class Inputs:
    base: Relation
    ops: List[Op]
    #: Standing queries registered at set-up (standing workload only).
    standing: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return traffic_digest(self)

    @property
    def repeated_text_share(self) -> float:
        """Share of reads whose query text already occurred earlier in the
        stream (what a cache keyed on query text could reuse)."""
        seen = set()
        reads = repeated = 0
        for op in self.ops:
            if op.kind == "read":
                reads += 1
                repeated += op.query in seen
                seen.add(op.query)
        return repeated / reads if reads else 0.0


def traffic_digest(inputs: Inputs) -> str:
    """SHA-256 over the base data, the op list (deltas included) and the
    standing queries."""
    hasher = hashlib.sha256()

    def relation(data: Relation) -> None:
        for column in data.schema.names:
            hasher.update(repr(list(data.column_array(column))).encode())

    relation(inputs.base)
    for op in inputs.ops:
        hasher.update(f"{op.index}|{op.kind}|{op.module}|{op.leaf}|{op.query}".encode())
        if op.delta is not None:
            relation(op.delta)
    for sql in inputs.standing:
        hasher.update(sql.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# systems under test and their oracles
# ---------------------------------------------------------------------------


@dataclass
class System:
    """A set-up pipeline: ``execute(op)`` runs one op, ``close()`` ends it."""

    execute: Callable[[Op], Any]
    close: Callable[[], None] = lambda: None


def _processor(policy, topology, base, **options) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        policy, topology=topology, schema=INTEGRATED_SCHEMA, **options
    )
    processor.load_data(base)
    return processor


def _oracle_processor(policy, topology, base) -> ParadiseProcessor:
    return _processor(
        policy, topology, base, engine_mode="interpreted", execution="serial"
    )


def _compare(outcome: ProcessingResult, expected: ProcessingResult) -> Optional[str]:
    """Failure reason when a live read disagrees with the oracle's read."""
    if not expected.admitted:
        return "the oracle refused the op"
    if not outcome.admitted:
        return "refused"
    if pack_relation(outcome.result) != pack_relation(expected.result):
        return "result differs from the interpreted serial oracle"
    return None


class QueryOracle:
    """Expected reads per (module, query text), computed once per distinct
    text by an interpreted, serial processor over the same base relation."""

    def __init__(self, processor: ParadiseProcessor, read) -> None:
        self.processor = processor
        self.read = read
        self._expected: Dict[tuple, ProcessingResult] = {}

    def check(self, op: Op, outcome: Optional[ProcessingResult]) -> Optional[str]:
        """``outcome`` is ``None`` when the op raised (already a failure)."""
        if outcome is None:
            return None
        key = (op.module, op.query)
        if key not in self._expected:
            self._expected[key] = self.read(self.processor, op)
        return _compare(outcome, self._expected[key])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads; subclasses fill in the rest."""

    name = ""
    why = ""
    rows = 0
    #: Nominal ops per second on the reference host (2 cores, Python 3.11).
    #: With ``--seconds`` it fixes the op count, so two commits given the
    #: same ``--seconds`` do exactly the same work.
    rate = 1.0
    clients = 1
    #: Ops per repeating read/write pattern; rounds hold whole cycles.
    cycle = 1
    execution = "parallel"
    module = "Occupancy"

    def inputs(self, seed: int, rows: int, n_ops: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        base = sensor_relation(rng, rows)
        return Inputs(base, self.make_ops(rng, rows, n_ops))

    def make_ops(self, rng: random.Random, rows: int, n_ops: int) -> List[Op]:
        raise NotImplementedError

    def topology(self) -> Topology:
        return Topology.smart_home_tree(n_sensors=8)

    def policy(self) -> PrivacyPolicy:
        return occupancy_policy()

    @staticmethod
    def read(processor: ParadiseProcessor, op: Op) -> ProcessingResult:
        return processor.process(op.query, op.module)

    def setup(self, inputs: Inputs) -> System:
        processor = _processor(
            self.policy(), self.topology(), inputs.base, execution=self.execution
        )
        return System(execute=lambda op: self.read(processor, op))

    def oracle(self, inputs: Inputs):
        return QueryOracle(
            _oracle_processor(self.policy(), self.topology(), inputs.base), self.read
        )


class PaperChain(Workload):
    name = "paper_chain_30k"
    why = (
        "the paper's R query on the default serial chain; 30k raw rows cross "
        "one hop, so engine scans and wire encode/decode do almost all the work"
    )
    rows = 30_000
    rate = 6.0
    # The default users get: serial execution on the Figure 3 chain.
    execution = "serial"

    def make_ops(self, rng, rows, n_ops):
        return [Op(i, "read", PAPER_R_CODE, "ActionFilter") for i in range(n_ops)]

    def topology(self):
        return Topology.default_chain()

    def policy(self):
        return figure4_policy()

    @staticmethod
    def read(processor, op):
        return processor.process_r(op.query, op.module)


class GroupbyTree(Workload):
    name = "groupby_tree_30k"
    why = (
        "a rewritten GROUP BY on an 8-sensor tree, parallel; partial/combine "
        "aggregation and the scheduler do the work and only group states cross hops"
    )
    rows = 30_000
    rate = 2.7

    def make_ops(self, rng, rows, n_ops):
        return [Op(i, "read", GROUPBY_SQL, self.module) for i in range(n_ops)]


#: The frontend mix's templates: (module, SQL with a ``{lo}``/``{hi}`` time
#: window, window width in seconds).  A 5 s window selects ~50 rows for
#: k-anonymity; the GROUP BY is per person; the ActionFilter selection gets
#: ``x > y`` injected.
FRONTEND_TEMPLATES = (
    ("Occupancy", "SELECT person_id, activity, x, y, t FROM d WHERE t BETWEEN {lo} AND {hi}", 5.0),
    ("Occupancy", "SELECT person_id, COUNT(*), AVG(z) FROM d WHERE t > {lo} GROUP BY person_id", 0.0),
    ("ActionFilter", "SELECT x, y, t FROM d WHERE t BETWEEN {lo} AND {hi}", 10.0),
)

#: Hot texts repeat verbatim; fresh texts take one of this many literal
#: positions per template.  The bound keeps the oracle affordable: it runs
#: once per distinct text.
HOT_TEXTS = 8
FRESH_LITERALS = 20


class FrontendMix(Workload):
    name = "frontend_mix_3k"
    why = (
        "two closed-loop clients on SessionFrontEnd over 3k rows; half hot repeated "
        "texts, half fresh literals, so per-task overhead and anonymization dominate"
    )
    rows = 3_000
    rate = 30.0
    clients = 2
    #: One hot and one fresh op per template.
    cycle = 2 * len(FRONTEND_TEMPLATES)

    @staticmethod
    def _op(index: int, template: int, lo: float) -> Op:
        module, sql, width = FRONTEND_TEMPLATES[template]
        return Op(index, "read", sql.format(lo=lo, hi=round(lo + width, 1)), module)

    def make_ops(self, rng, rows, n_ops):
        span = rows * TICK - 15.0
        templates = len(FRONTEND_TEMPLATES)
        # Hot literals sit on eighths of the time span and fresh ones a
        # quarter step past twentieths, so a fresh text never equals a hot
        # one.  Every cycle holds one hot and one fresh op per template, so
        # only literals and data vary with the seed.
        hot = [
            [round(position * span / HOT_TEXTS, 1) for position in range(template, HOT_TEXTS, templates)]
            for template in range(templates)
        ]
        ops = []
        for index in range(n_ops):
            template = index % templates
            if (index // templates) % 2 == 0:
                lo = rng.choice(hot[template])
            else:
                lo = round((rng.randrange(FRESH_LITERALS) + 0.25) * span / FRESH_LITERALS, 1)
            ops.append(self._op(index, template, lo))
        return ops

    def setup(self, inputs):
        processor = _processor(
            self.policy(), self.topology(), inputs.base, execution=self.execution
        )
        frontend = SessionFrontEnd(processor, max_concurrent=self.clients)
        return System(
            execute=lambda op: frontend.submit(op.query, op.module).result(),
            close=frontend.close,
        )


#: Standing-query families: members of one family share table, WHERE and
#: group keys, so they attach to one maintained state tree.
STANDING_FAMILIES = (
    ("activity, COUNT(*) AS n, AVG(z) AS az, SUM(z) AS sz", "", "activity"),
    ("person_id, COUNT(*) AS n, MIN(z) AS lo, MAX(z) AS hi", "", "person_id"),
    ("activity, COUNT(*) AS n, AVG(x) AS ax, STDDEV(y) AS sy", "WHERE z < 1.5", "activity"),
    ("person_id, activity, COUNT(*) AS n, AVG(t) AS at", "", "person_id, activity"),
)
STANDING_QUERIES = 64
STANDING_SENSORS = 16
DELTA_ROWS = 100
READ_CHECK_EVERY = 20
WRITE_CHECK_EVERY = 32


class StandingIngest(Workload):
    name = "standing_ingest_16s"
    why = (
        "64 standing queries on a 16-sensor tree; 100-row appends refresh them while "
        "parallel GROUP BY reads run over the growing base, 4 writes per read"
    )
    rows = 30_000
    rate = 12.5
    #: Every fifth op is a read; the four before it are writes.
    cycle = 5

    def inputs(self, seed, rows, n_ops):
        inputs = super().inputs(seed, rows, n_ops)
        rng = random.Random(f"{self.name}:{seed}:standing")
        for index in range(STANDING_QUERIES):
            select, where, keys = STANDING_FAMILIES[index % len(STANDING_FAMILIES)]
            direction = rng.choice(("ASC", "DESC"))
            inputs.standing.append(
                f"SELECT {select} FROM d {where} GROUP BY {keys} "
                f"HAVING COUNT(*) > {rng.randint(1, 7)} ORDER BY COUNT(*) {direction}"
            )
        return inputs

    def make_ops(self, rng, rows, n_ops):
        ops = []
        reads = writes = 0
        for index in range(n_ops):
            if index % self.cycle == self.cycle - 1:
                check = reads % READ_CHECK_EVERY == 0
                ops.append(Op(index, "read", STANDING_READ_SQL, self.module, check=check))
                reads += 1
            else:
                delta = sensor_relation(rng, DELTA_ROWS, rows + writes * DELTA_ROWS)
                check = writes % WRITE_CHECK_EVERY == 0
                ops.append(
                    Op(index, "write", leaf=writes % STANDING_SENSORS, delta=delta, check=check)
                )
                writes += 1
        return ops

    def topology(self):
        return Topology.smart_home_tree(n_sensors=STANDING_SENSORS)

    def setup(self, inputs):
        processor = _processor(
            self.policy(), self.topology(), inputs.base, execution=self.execution
        )
        runtime = StandingQueryRuntime(processor)
        handles = [
            runtime.register(sql, self.module, apply_rewriting=True)
            for sql in inputs.standing
        ]
        leaves = processor.network.partition_holders("d")

        def execute(op: Op):
            if op.kind == "read":
                return self.read(processor, op)
            runtime.append(leaves[op.leaf], op.delta)
            if not op.check:
                return None
            # A handle's result object is replaced on every refresh, so
            # holding it pins this epoch's answer for the deferred check.
            handle = handles[(op.index // WRITE_CHECK_EVERY) % len(handles)]
            return handle, handle.result()

        return System(execute=execute)

    def oracle(self, inputs):
        return StandingMirror(
            _oracle_processor(self.policy(), self.topology(), inputs.base), self.read
        )


class StandingMirror:
    """Replays the write stream on an interpreted, serial copy of the base.

    Called after each round for every op in order: a write appends its
    delta to the mirror and, when sampled, compares the live handle's
    refreshed result with ``StandingQueryRuntime.reexecute`` over the
    mirror; a sampled read compares with the mirror's answer at the same
    epoch.
    """

    def __init__(self, processor: ParadiseProcessor, read) -> None:
        self.processor = processor
        self.read = read
        self.runtime = StandingQueryRuntime(processor)
        self.leaves = processor.network.partition_holders("d")

    def check(self, op: Op, outcome) -> Optional[str]:
        """``outcome`` is ``None`` when the op raised (already a failure)."""
        if op.kind == "write":
            self.processor.network.append_to_partition(
                self.leaves[op.leaf], "d", op.delta
            )
        if outcome is None or not op.check:
            return None
        if op.kind == "read":
            return _compare(outcome, self.read(self.processor, op))
        handle, result = outcome
        if pack_relation(result) != pack_relation(self.runtime.reexecute(handle)):
            return f"standing query {handle.query_id} differs from re-execution"
        return None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperChain(), GroupbyTree(), FrontendMix(), StandingIngest())
}
