"""One run of an execution DAG: its tasks and the state they share.

:func:`~repro.runtime.dag.build_execution_dag` lays a plan out as
:class:`Task` objects, which hold no run state; the
:class:`~repro.runtime.scheduler.Scheduler` runs them against one
:class:`ExecutionContext`, which holds everything a run writes.  So one
DAG serves many runs.  A leaf partial over its resident chunk goes
through the states its chunk keeps, and a task whose inputs all arrive as
bytes through the outputs its node keeps (:mod:`repro.runtime.memo`);
shipped relations stay bytes until a task that computes over them decodes
them (:func:`_rows`).
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.anonymize.anonymizer import AnonymizationOutcome
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.table import Relation, union_partials
from repro.engine.vectorized import estimate_select_rows
from repro.engine.wire import PackedRelation, pack_relation, state_size_feedback
from repro.fragment.capabilities import permitted_features
from repro.fragment.plan import QueryFragment
from repro.fragment.topology import Topology
from repro.obs.profile import CalibrationLog
from repro.obs.trace import QueryTrace, current_span
from repro.processor.result import FragmentExecution
from repro.runtime.cost import CostModel
from repro.runtime.faults import CheckpointStore, EpochAbandoned, FailureInjector
from repro.runtime.memo import (
    kept_output,
    leaf_state,
    pack_state,
    release_key,
    stage_key,
)
from repro.sql import ast
from repro.sql.analysis import analyze_query
from repro.sql.visitor import referenced_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> memo)
    from repro.processor.network import NetworkSimulator, TransferLog


#: What a task outputs: a relation, or an aggregate state kept as its bytes.
Output = Union[Relation, PackedRelation]


def _rows(output: Output) -> Relation:
    """The relation ``output`` holds, decoding it when it is bytes."""
    return output.unpack() if isinstance(output, PackedRelation) else output


class ExecutionContext:
    """Shared mutable state of one DAG run (thread-safe where it must be)."""

    def __init__(
        self,
        network: NetworkSimulator,
        log: TransferLog,
        config: EngineConfig = DEFAULT_CONFIG,
        cost_model: Optional[CostModel] = None,
        anonymizer: Optional[object] = None,
        checkpoints: Optional[CheckpointStore] = None,
        injector: Optional[FailureInjector] = None,
        trace: Optional[QueryTrace] = None,
        calibration: Optional[CalibrationLog] = None,
        dispatcher: Optional[object] = None,
    ) -> None:
        self.network = network
        self.log = log
        #: The engine config every engine operation of the run executes
        #: under, whichever scheduler thread or worker process runs it.
        self.config = config
        #: Process-pool dispatcher (:class:`repro.runtime.procs.ProcessDispatcher`)
        #: when the run uses ``workers="processes"``; ``None`` keeps engine
        #: operations in the scheduler's threads.
        self.dispatcher = dispatcher
        self.cost_model = cost_model
        self.anonymizer = anonymizer
        #: Signature-keyed aggregate-state checkpoints; shared across the
        #: re-plan attempts of one processing run (``None`` disables).
        self.checkpoints = checkpoints
        #: The run's failure-injection harness (``None`` outside chaos runs).
        self.injector = injector
        #: Per-query span collection (``None`` outside profiled runs; every
        #: producer guards on that, keeping tracing near-zero-cost off).
        self.trace = trace
        #: Predicted-vs-observed task costs, filled by the scheduler.
        self.calibration = calibration
        #: Which re-plan attempt is executing (0 = the healthy first plan);
        #: each re-run gets its own context from :meth:`next_attempt`.
        self.attempt = 0
        #: In-place retries that transient failures cost, summed over the
        #: run's attempts (a re-plan's context starts from this count).
        self.retried_attempts = 0
        #: Set by the scheduler when it gives this attempt up without
        #: draining its workers; :meth:`engine_call` then refuses to start.
        self.abandoned = False
        #: task id -> output (a kept leaf state stays its packed bytes);
        #: each task writes only its own key.
        self.outputs: Dict[str, Output] = {}
        #: task id -> the packed output of a task that encoded one: every
        #: ``partial`` and ``combine``, and a task whose node keeps its
        #: output (:func:`~repro.runtime.memo.kept_output`).  The task
        #: encodes it once; these bytes are its checkpoint, what every
        #: shipment of it sends and its consumer's key.  Handed over
        #: explicitly rather than cached on the relation, whose columns
        #: are live lists.
        self.payloads: Dict[str, bytes] = {}
        #: (attempt, task order) -> record.  Keyed, not appended: a task
        #: retried in place overwrites its own slot, so a transient failure
        #: after the engine call no longer double-charges the task's time in
        #: report sums.  Completion order is scheduling noise, so reports
        #: read :meth:`ordered_executions`.
        self._executions: Dict[Tuple[int, int], FragmentExecution] = {}
        self.capacity_warnings: List[str] = []
        self.anonymization = None
        self._lock = threading.Lock()

    def next_attempt(self) -> "ExecutionContext":
        """The context of the re-plan attempt after this one.

        It shares the run-wide stores (checkpoints, transfer log, trace,
        execution records) but has fresh outputs and its own ``abandoned``
        flag, so a worker left behind by this attempt stays tied to it.
        """
        successor = copy.copy(self)
        successor.attempt = self.attempt + 1
        successor.abandoned = False
        successor.outputs = {}
        successor.payloads = {}
        return successor

    @property
    def can_wait(self) -> bool:
        """True when a task of this run can block without holding the GIL.

        Simulated compute and link costs sleep, the process dispatcher
        waits on worker processes, and an injector's hangs, link delays
        and retry backoff sleep (a hung task also needs a pool worker so
        it can be abandoned at its deadline).  Only such waits overlap on
        threads; every other task is GIL-bound engine work.
        """
        return (
            (self.cost_model is not None and not self.cost_model.is_free)
            or self.dispatcher is not None
            or self.injector is not None
        )

    def record_execution(self, order: int, execution: FragmentExecution) -> None:
        with self._lock:
            self._executions[(self.attempt, order)] = execution

    def ordered_executions(self) -> List[FragmentExecution]:
        """Execution records in deterministic attempt-then-build order."""
        with self._lock:
            return [record for _, record in sorted(self._executions.items())]

    def engine_call(self, fn, *args) -> Tuple[Relation, float]:
        """Run one engine operation, timed.  The single timing site for DAG
        task work: returns ``(output, elapsed_seconds)`` and, when tracing,
        accumulates the elapsed time on the current task span.  Raises
        :class:`~repro.runtime.faults.EpochAbandoned` once the scheduler
        has given this attempt up."""
        if self.abandoned:
            raise EpochAbandoned(f"attempt {self.attempt} was abandoned")
        started = time.perf_counter()
        output = fn(*args)
        elapsed = time.perf_counter() - started
        if self.trace is not None:
            span = current_span()
            if span is not None and span.trace is self.trace:
                span.attrs["engine_seconds"] = (
                    span.attrs.get("engine_seconds", 0.0) + elapsed
                )
        return output, elapsed

    def annotate(self, **attrs) -> None:
        """Attach attributes to the current task span (no-op untraced)."""
        if self.trace is None:
            return
        span = current_span()
        if span is not None and span.trace is self.trace:
            span.attrs.update(attrs)

    def annotate_io(self, input_rows: int, output: Output) -> None:
        """Record a task's row counts and output size on its span.

        ``estimated_bytes`` walks every value of the output (a kept state
        is decoded for it), so it is only computed when tracing is on.
        """
        if self.trace is None:
            return
        output = _rows(output)
        self.annotate(
            input_rows=input_rows,
            output_rows=len(output),
            estimated_bytes=output.estimated_bytes(),
        )

    def save_checkpoint(self, task: "Task", relation: Output) -> bool:
        """Checkpoint an aggregate-state task's output (partial/combine)."""
        if self.checkpoints is not None and task.kind in ("partial", "combine"):
            return self.checkpoints.save(
                task.signature, relation, self.payloads.get(task.task_id)
            )
        return False

    def restore_checkpoint(self, task: "Task") -> Optional[Relation]:
        """The checkpointed output for ``task``'s signature, if any."""
        if self.checkpoints is None or task.kind not in ("partial", "combine"):
            return None
        return self.checkpoints.restore(task.signature)

    def warn_capacity(self, message: str) -> None:
        with self._lock:
            self.capacity_warnings.append(message)

    def charge_compute(self, rows: int, node_name: str) -> None:
        if self.cost_model is None:
            return
        power = self.network.topology.node(node_name).cpu_power or 1.0
        self.cost_model.charge_compute(rows, power)


#: One input of a task: ``(task_id, node)`` for the output of a producing
#: task, ``(None, node)`` for the base-table chunk resident on ``node``.
Part = Tuple[Optional[str], str]


@dataclass(slots=True)
class Task:
    """One unit of work pinned to a topology node.

    Slotted: a kept DAG (:func:`~repro.runtime.dag.cached_execution_dag`)
    holds its tasks for as long as the plan is cached.
    """

    task_id: str
    node: str
    #: Position in deterministic build order; fixes report ordering.
    order: int
    #: Inputs in partition order (see :data:`Part`).
    parts: List[Part] = field(default_factory=list)
    kind: str = "task"
    #: Content identity: a Merkle-style hash over the task's kind,
    #: placement, relation names, dependency signatures and the placement
    #: epochs of its resident inputs — *not* the task id, which shifts
    #: between re-plans.  Equal signatures mean "produces the identical
    #: output", which is what checkpoint restoration keys on.
    signature: str = ""

    @property
    def deps(self) -> List[str]:
        """Ids of the tasks whose outputs this task consumes."""
        return [task_id for task_id, _ in self.parts if task_id is not None]

    def execute(self, context: ExecutionContext) -> Output:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _receive(
        self,
        context: ExecutionContext,
        relation: Output,
        name: str,
        source_node: str,
        payload: Optional[bytes] = None,
    ) -> Output:
        """Move an input relation to this task's node.

        Returns the relation *as received on this node*.  An actual
        inter-node hop sends bytes and delivers them undecoded (a
        :class:`PackedRelation`), which the task decodes (:func:`_rows`)
        only when it computes, so downstream work consumes exactly what
        crossed the link.  ``payload`` is the producer's packed output when
        it encoded one: the shipment sends those bytes; otherwise the
        relation is packed here (a :class:`~repro.engine.wire.WireFormatError`
        ships nothing).  Nothing is registered: the task binds what it
        received for its own engine call.
        """
        node = context.network.topology.node(self.node)
        if not node.can_hold_rows(len(relation)):
            context.warn_capacity(
                f"{self.node}: {len(relation)} rows of {name} exceed "
                f"{node.free_memory_mb:g} MB of free memory"
            )
        if source_node == self.node:
            return relation
        if not isinstance(relation, PackedRelation):
            if payload is None:
                payload = pack_relation(relation)
            relation = PackedRelation(payload, len(relation), len(relation.schema))
        return context.network.ship(
            relation,
            name,
            source_node,
            self.node,
            log=context.log,
            injector=context.injector,
        )

    def _engine(
        self,
        context: ExecutionContext,
        database,
        op: str,
        query: ast.Query,
        state: Optional[Relation] = None,
        inputs: Optional[Dict[str, Relation]] = None,
    ) -> Tuple[Relation, float]:
        """Run one engine operation on the configured compute backend,
        ``query`` reading ``inputs`` (bound by name for this call) before
        the node's catalog.

        Thread backend (default): the bound database method runs in this
        scheduler thread.  Process backend: the operation, its referenced
        input relations and the optional merged state cross the process
        boundary as wire bytes (:mod:`repro.runtime.procs`) — the timing
        then honestly includes serialization and IPC.
        """
        dispatcher = context.dispatcher
        config = context.config
        if dispatcher is not None:
            tables = dispatcher.gather_tables(database, query, inputs or {})
            return context.engine_call(dispatcher.run, op, config, query, tables, state)
        if op == "query":
            return context.engine_call(database.query, query, config, inputs)
        if op == "partial":
            return context.engine_call(database.partial_aggregate, query, config, inputs)
        if op == "combine":
            return context.engine_call(database.combine_partials, query, state, config)
        return context.engine_call(database.finalize_partials, query, state, config)


def _observe_rows_estimate(
    context: ExecutionContext,
    query: Optional[ast.Query],
    source: Optional[Relation],
    output: Relation,
) -> None:
    """Annotate a task span with its estimated output rows (trace-gated).

    Also feeds the run's calibration log so ``calibration_report()`` can
    score the estimator against the observed counts.
    """
    if context.trace is None or query is None or source is None:
        return
    estimated = estimate_select_rows(query, source)
    if estimated is None:
        return
    context.annotate(estimated_rows=estimated)
    if context.calibration is not None:
        context.calibration.observe(
            "rows", float(estimated), float(len(output)), rows=len(output)
        )


#: Stage operation -> (task kind, execution-record name, execution-record
#: SQL).  The kinds are what checkpoints, ``RuntimeStats`` counts,
#: ``explain()`` and the calibration report key on.
STAGE_OPS = {
    "query": ("fragment", "{name}", "{sql}"),
    "partial": ("partial", "{name}", "partial({sql})"),
    "combine": (
        "combine",
        "combine({name})",
        "merge of {parts} partial-state relations",
    ),
    "finalize": ("finalize_agg", "{name}", "{sql}"),
    "union": ("merge", "merge({name})", "UNION ALL of {parts} partials"),
}


@dataclass(slots=True)
class StageTask(Task):
    """One stage of the plan: gather the parts here, run ``op``.

    ``query`` and ``partial`` take a single part: a base chunk resident on
    this node is read in place, anything else is shipped here and bound
    as ``in_name`` for the one engine call.  ``combine``, ``finalize`` and ``union``
    ship every part here and concatenate them in partition order first —
    partial states for the first two, which then merge into one state row
    per group (``combine``) or into the fragment's finalized output
    (``finalize``: HAVING, select items and ORDER BY over the merged
    aggregates, byte-identical to running the fragment over the globally
    merged raw input, which never had to exist).  No output is registered:
    its consumers take it from the run.  A leaf partial over its resident
    chunk may output the chunk's kept state as its bytes, and a stage that
    :attr:`keeps` its output, whose inputs did not change, the output its
    node kept (:mod:`repro.runtime.memo`).

    A ``query`` or ``partial`` task may run several in-place fragments as
    one query (:func:`~repro.runtime.dag.merge_views`); ``composes``
    names them.
    """

    op: str = "query"
    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    #: The base table that resident parts are chunks of.
    base: str = ""
    in_name: str = ""
    display_name: str = ""
    #: The fragments merged into ``query``, innermost first and ending with
    #: ``fragment``; empty when ``query`` is ``fragment`` alone.
    composes: Tuple[str, ...] = ()
    #: The SQL text the execution record shows: ``query`` rendered when it
    #: merges fragments, else the fragment's own.  Rendered once per plan.
    sql: str = ""
    #: WHERE conjuncts the zone map of this task's resident chunk proves.
    proves: Tuple[str, ...] = ()
    #: ``(node, refuting conjunct)`` of the sibling partitions pruned when
    #: this task's stage was built (recorded on its first task).
    pruned: Tuple[Tuple[str, str], ...] = ()
    #: True when the output is a function of the inputs' bytes alone, so
    #: the node may keep it: every combine, finalize and union, and a
    #: ``query`` stage over shipped rows that reads no table but them.
    keeps: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.kind = STAGE_OPS[self.op][0]
        self.keeps = self.op in ("combine", "finalize", "union") or (
            self.op == "query"
            and not self.resident
            and all(
                name.lower() == self.in_name.lower()
                for name in referenced_tables(self.query)
            )
        )

    @property
    def resident(self) -> bool:
        """True when the task reads only the base chunk held on its node."""
        return self.parts == [(None, self.node)]

    def uses_resident_rule(self, topology: Topology) -> bool:
        """True when the task runs work beyond its node's Table 1 class
        over the base chunk it holds: the resident-partition rule of
        :mod:`repro.fragment.capabilities`."""
        level = topology.node(self.node).level
        return self.resident and not self.features() <= permitted_features(level)

    def features(self) -> FrozenSet[str]:
        """The Table 1 features of the work this task runs on its node.

        A partial evaluates WHERE, the group keys and the aggregate
        arguments; a combine only merges states by key.  Both leave HAVING,
        the select items and ORDER BY to the finalize.  A merge only
        concatenates.
        """
        if self.op == "union":
            return frozenset()
        if self.op == "combine":
            keys = {"group_by"} if self.query.group_by else set()
            return frozenset({"aggregation"} | keys)
        query = self.query
        if self.op == "partial":
            query = dataclasses.replace(query, having=None, order_by=[])
        return analyze_query(query).features

    def _fetch(self, context: ExecutionContext, part: Part) -> Output:
        task_id, node = part
        if task_id is not None:
            return context.outputs[task_id]
        if node != self.node and context.injector is not None:
            # The holder serves its chunk: a fault armed for it fires here.
            context.injector.before_read(node, self)
        return context.network.database(node).table(self.base)

    def execute(self, context: ExecutionContext) -> Output:
        database = context.network.database(self.node)
        packed: Optional[PackedRelation] = None
        if self.resident:
            # A base chunk resident here is read in place.
            source = database.table(self.base) if self.base in database else None
            input_rows = len(source) if source is not None else 0
            context.charge_compute(input_rows, self.node)
            if self.op == "partial" and source is not None and context.config.zone_maps:
                # A partial reads one table and no subquery
                # (``decomposition_error``), so its state depends on this
                # chunk's version, the query, the output name and the
                # config alone: the chunk keeps it.  The oracle and the
                # ``optimizer=False`` ablation always compute.
                output, packed, elapsed, outcome = leaf_state(
                    self.base,
                    source,
                    self.query,
                    self.display_name,
                    context.config,
                    lambda op, state, bound: self._engine(
                        context, database, op, self.query, state, bound
                    ),
                )
                context.annotate(memo=outcome)
            else:
                output, elapsed = self._engine(context, database, self.op, self.query)
            _observe_rows_estimate(context, self.query, source, output)
        else:
            output, packed, elapsed, input_rows = self._gather(context, database)
        if not isinstance(output, PackedRelation):
            output.name = self.display_name
        if packed is None and self.op in ("partial", "combine"):
            packed = pack_state(output)
        if packed is not None:
            # An output is encoded once: the same bytes become its
            # checkpoint, every shipment of it and its consumer's key.
            context.payloads[self.task_id] = packed.payload
            if self.op == "partial":
                # Observed state size feeds the adaptive partial-
                # aggregation ratio: future placement decisions use real
                # packed bytes per state cell.
                state_size_feedback.record(
                    packed.rows,
                    len(packed.payload),
                    cells=packed.rows * packed.columns,
                )
        context.annotate_io(input_rows, output)
        _, name, sql = STAGE_OPS[self.op]
        if self.op in ("combine", "union"):
            level = context.network.topology.node(self.node).level.short_name
        else:
            level = self.fragment.level.short_name
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=name.format(name=self.display_name),
                node=self.node,
                level=level,
                sql=sql.format(sql=self.sql, parts=len(self.parts)),
                input_rows=input_rows,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            ),
        )
        return output

    def _gather(
        self, context: ExecutionContext, database
    ) -> Tuple[Output, Optional[PackedRelation], float, int]:
        """Ship every part here and run ``op`` over them; returns the
        output, its packed bytes (when encoded), the engine seconds and
        the input rows.

        When the stage :attr:`keeps` its output and every input arrived
        as bytes, the output goes through the ones the node keeps
        (:func:`~repro.runtime.memo.kept_output`), under
        ``EngineConfig.zone_maps``: the oracle and the ``optimizer=False``
        ablation always compute.
        """
        union_name = self.display_name
        if self.op == "finalize":
            union_name += "~partial"
        if self.op in ("query", "partial"):
            names = [self.in_name]
        else:
            names = [f"{union_name}@{node}" for _, node in self.parts]
        received = [
            self._receive(
                context,
                self._fetch(context, part),
                name,
                part[1],
                payload=context.payloads.get(part[0]),
            )
            for part, name in zip(self.parts, names)
        ]
        input_rows = sum(len(relation) for relation in received)
        if self.op != "union":
            context.charge_compute(input_rows, self.node)

        def compute() -> Tuple[Relation, float, None]:
            if self.op in ("query", "partial"):
                source = _rows(received[0])
                output, elapsed = self._engine(
                    context, database, self.op, self.query, inputs={self.in_name: source}
                )
                _observe_rows_estimate(context, self.query, source, output)
            else:
                relations = [_rows(relation) for relation in received]
                if self.op == "union":
                    output, elapsed = context.engine_call(
                        union_partials, relations, union_name
                    )
                else:
                    merged = union_partials(relations, union_name)
                    output, elapsed = self._engine(
                        context, database, self.op, self.query, state=merged
                    )
            output.name = self.display_name
            return output, elapsed, None

        inputs = [
            _payload(context, part, relation)
            for part, relation in zip(self.parts, received)
        ]
        if not (self.keeps and context.config.zone_maps and None not in inputs):
            output, elapsed, _ = compute()
            return output, None, elapsed, input_rows
        output, packed, elapsed, outcome, _ = kept_output(
            context.network,
            self.node,
            self.op,
            stage_key(self.op, self.query, self.display_name, context.config),
            self.query,
            inputs,
            compute,
        )
        context.annotate(memo=outcome)
        return output, packed, elapsed, input_rows


def _payload(context: ExecutionContext, part: Part, received: Output) -> Optional[bytes]:
    """The bytes an input arrived as: its producer's packed output, or
    what a shipment sent; None for a relation that never was encoded."""
    if isinstance(received, PackedRelation):
        return received.payload
    return context.payloads.get(part[0])


@dataclass(slots=True)
class AnonymizeTask(Task):
    """The postprocessing step A on the node
    :func:`~repro.runtime.dag.anonymization_node` picks.

    The no-pushdown baseline runs it at the cloud, on the result of the
    whole query, with ``power_node`` the node that function picks.

    A deterministic release (:func:`~repro.runtime.memo.release_key`) is
    kept on the node like a stage's output, keyed on its input's bytes
    (packed here when its producer encoded none): a hit outputs the kept
    bytes and reports the kept algorithm, QI report and notes, its
    relations decoded only when read.
    """

    kind: str = "anonymize"
    in_name: str = ""
    #: The node whose power decides whether A applies (default: this one).
    power_node: str = ""

    def execute(self, context: ExecutionContext) -> Output:
        [part] = self.parts
        source_id, source_node = part
        relation = self._receive(
            context,
            context.outputs[source_id],
            self.in_name,
            source_node,
            payload=context.payloads.get(source_id),
        )
        context.charge_compute(len(relation), self.node)
        anonymizer = context.anonymizer
        power = context.network.topology.node(self.power_node or self.node).cpu_power or 1.0
        computed: List[AnonymizationOutcome] = []

        def compute() -> Tuple[Relation, float, Tuple]:
            source = _rows(relation)
            outcome, elapsed = context.engine_call(
                lambda: anonymizer.anonymize(source, node_cpu_power=power)
            )
            computed.append(outcome)
            detail = (
                outcome.algorithm,
                outcome.applied,
                outcome.quasi_identifier_report,
                tuple(outcome.notes),
            )
            return outcome.relation, elapsed, detail

        key = None
        if context.config.zone_maps:
            payload = _payload(context, part, relation)
            if payload is None:
                packed_input = pack_state(relation)
                payload = packed_input.payload if packed_input is not None else None
            if payload is not None:
                key = release_key(anonymizer, power, payload)
        if key is None:
            output, _, _ = compute()
        else:
            output, packed, _, memo, detail = kept_output(
                context.network, self.node, "anonymize", key, None, (payload,), compute
            )
            context.annotate(memo=memo)
            if packed is not None:
                context.payloads[self.task_id] = packed.payload
            if not computed:
                algorithm, applied, report, notes = detail
                computed.append(
                    AnonymizationOutcome(
                        relation=output,
                        algorithm=algorithm,
                        applied=applied,
                        quasi_identifier_report=report,
                        notes=list(notes),
                        original=relation if applied else None,
                    )
                )
        context.anonymization = computed[0]
        context.annotate_io(len(relation), output)
        return output


@dataclass(slots=True)
class FinalizeTask(Task):
    """Ship d' across the boundary and run the remainder at the cloud."""

    kind: str = "finalize"
    result_name: str = ""
    remainder_query: Optional[ast.Query] = None
    remainder_input_alias: str = ""
    remainder_description: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        [(source_id, source_node)] = self.parts
        # What arrives as bytes is decoded: every run returns a relation
        # of its own.
        relation = _rows(
            self._receive(
                context,
                context.outputs[source_id],
                self.result_name,
                source_node,
                payload=context.payloads.get(source_id),
            )
        )
        if self.remainder_query is None:
            context.annotate_io(len(relation), relation)
            return relation
        context.charge_compute(len(relation), self.node)
        output, elapsed = self._engine(
            context,
            context.network.database(self.node),
            "query",
            self.remainder_query,
            inputs={self.remainder_input_alias: relation},
        )
        context.annotate_io(len(relation), output)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name="Q_delta",
                node=self.node,
                level="E1",
                sql=self.remainder_description,
                input_rows=len(relation),
                output_rows=len(output),
                elapsed_seconds=elapsed,
            )
        )
        return output
