"""Execution-DAG construction for fragment plans over tree topologies.

:func:`build_execution_dag` turns a :class:`~repro.fragment.plan.FragmentPlan`
plus a (possibly tree-shaped) :class:`~repro.fragment.topology.Topology` into
a dependency graph of :class:`Task` objects the
:class:`~repro.runtime.scheduler.Scheduler` can run concurrently:

* When the base relation is horizontally partitioned across sibling sensor
  leaves (see :meth:`~repro.processor.network.NetworkSimulator.load_sensor_data`),
  the bottom fragment fans out into one task per leaf chunk.
* Row-distributive follow-up fragments (``partitionable``) are *lifted* one
  tree level per stage: the partials of each sibling group merge at their
  common parent, which then applies the fragment to its group — appliances
  keep working on their own sensors' data, exactly the placement of Figure 3.
* GROUP BY fragments whose aggregates all decompose
  (``QueryFragment.decomposable``) never force a global merge: every
  partition runs the fragment in *partial* mode where it lives (emitting
  mergeable aggregate states, see :mod:`repro.engine.aggregates`), sibling
  states *combine* at their common parent one tree level at a time, and the
  fragment *finalizes* (HAVING, select items, ORDER BY) at its assigned
  node.  Distributive fragments leading up to such an aggregation run in
  place on their partitions instead of lifting, so only group states — a
  few rows per node — ever cross a hop.
* The first non-distributive fragment that cannot be decomposed (windows,
  ordering, DISTINCT aggregates, MEDIAN, ...) forces a global merge at its
  assigned node; from there the plan chains serially.
* Anonymization and the cloud remainder become the final tasks of the DAG.

Chunks are contiguous slices of the original relation in leaf order, and
merge tasks concatenate partials in exactly that order, so the DAG's result
is row-for-row identical to the serial oracle
(:meth:`~repro.processor.paradise.ParadiseProcessor._execute_plan`) — the
differential tests in ``tests/test_runtime.py`` enforce this.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.columns import copy_column, extend_column
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.fragment.plan import FragmentPlan, QueryFragment
from repro.fragment.topology import Topology
from repro.obs.profile import CalibrationLog
from repro.obs.trace import QueryTrace, current_span
from repro.processor.network import NetworkSimulator, TransferLog
from repro.processor.result import FragmentExecution
from repro.runtime.cost import CostModel
from repro.runtime.faults import CheckpointStore, EpochAbandoned, FailureInjector
from repro.sql import ast
from repro.sql.visitor import clone


#: Cardinality fallback for the partial-aggregation protocol: when a leaf
#: chunk's observed group count reaches this share of its row count, state
#: rows would be nearly as numerous as raw rows (and individually larger),
#: so the DAG falls back to the global-merge path for that fragment.
GROUP_FALLBACK_RATIO = 0.75

#: Chunks below this row count skip the fallback check: either way only a
#: handful of rows cross the hop, and tiny chunks make the ratio noisy.
GROUP_FALLBACK_MIN_ROWS = 16

#: At most this many leading rows of a chunk are observed per DAG build.
#: The observation is planner-side statistics gathering (no data leaves the
#: node, so the cost model rightly never charges a transfer), but it runs
#: serially on the coordinator per query admission — the prefix cap keeps it
#: O(1) per chunk regardless of chunk size.
GROUP_FALLBACK_SAMPLE_ROWS = 512


def _aggregate_call_count(query: ast.SelectQuery) -> int:
    """Number of aggregate calls in the query — its partial state width
    (one packed state column per call) minus the group keys."""
    count = 0
    sources: List[ast.Node] = [item.expression for item in query.items]
    if query.having is not None:
        sources.append(query.having)
    sources.extend(item.expression for item in query.order_by)
    stack = sources
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, ast.FunctionCall) and ast.is_aggregate_function(node.name):
            count += 1
            continue  # nested aggregates are not decomposable anyway
        stack.extend(child for child in node.children() if child is not None)
    return count


def partial_aggregation_pays(
    network: NetworkSimulator,
    holders: Sequence[str],
    fragment: QueryFragment,
    observe_table: str,
    config: EngineConfig = DEFAULT_CONFIG,
) -> bool:
    """Cardinality heuristic: is leaf-level partial aggregation worthwhile?

    Observes the distinct group-key count over a bounded prefix of every
    leaf chunk of ``observe_table`` (at most
    :data:`GROUP_FALLBACK_SAMPLE_ROWS` rows, straight off the key column
    arrays).  When some chunk's observed group count approaches the
    observed row count (:data:`GROUP_FALLBACK_RATIO`), partial states
    would not shrink the shipment — each state row is bigger than the raw
    row it summarizes — so the builder should fall back to the
    global-merge path.

    Global aggregations (no GROUP BY) always pay: they ship one state row.
    Chunks that do not expose the key columns (a preceding fragment renames
    or derives them) cannot be observed and are assumed worthwhile.

    With the cost-based optimizer enabled (``config.optimizer``), the
    sampled-prefix observation is replaced by per-leaf distinct-key
    statistics from the chunk's maintained column stats, and the fixed
    ratio becomes a two-stage rule:
    below the :data:`GROUP_FALLBACK_RATIO` distinct share partial always
    pays (sibling states keep merging at every tree level while raw rows
    concatenate with fan-in); at or above it, a byte-level estimate
    decides — the query's state width (keys plus one packed state per
    aggregate call) times the observed packed bytes per state *cell* (fed
    back by :data:`repro.engine.wire.state_size_feedback` from previously
    shipped partial states) is compared against the chunk's raw
    ``estimated_bytes()``, so genuinely small states keep the partial path
    even at high shares.  Both modes decide *placement only* — results are
    identical either way.
    """
    from repro.engine.stats import optimizer_stats
    from repro.engine.vectorized import freeze_value
    from repro.engine.wire import state_size_feedback

    query = fragment.query
    if not isinstance(query, ast.SelectQuery) or not query.group_by:
        return True
    keys = [
        expression.name
        for expression in query.group_by
        if isinstance(expression, ast.Column)
    ]
    if len(keys) != len(query.group_by):
        return True  # non-column keys are not observable on the base chunks
    adaptive = config.optimizer
    for holder in holders:
        database = network.database(holder)
        if observe_table not in database:
            continue
        chunk = database.table(observe_table)
        if adaptive:
            rows = len(chunk)
            if rows < GROUP_FALLBACK_MIN_ROWS:
                continue
            table_stats = chunk.stats()
            groups = 1
            observable = True
            for key in keys:
                summary = table_stats.column(key)
                if summary is None:
                    observable = False
                    break
                groups *= max(summary.distinct, 1)
            if not observable:
                return True
            groups = min(groups, rows)
            # Low distinct share: sibling states keep merging all the way up
            # the tree while raw rows would concatenate — partial always
            # pays, whatever a single state row weighs.
            if groups < GROUP_FALLBACK_RATIO * rows:
                optimizer_stats.adaptive_partial += 1
                continue
            # High share: states barely merge, so the decision comes down to
            # bytes at the leaf hop.  State width for *this* query (keys +
            # one state per aggregate call) times the observed packed bytes
            # per state cell — per-cell feedback transfers across query
            # shapes where a per-row average would let wide states inflate
            # narrow ones.  Unlike the fixed-ratio rule, genuinely small
            # states (few aggregates over wide raw rows) keep the partial
            # path even at high shares.
            state_width = len(keys) + max(_aggregate_call_count(query), 1)
            est_state_bytes = (
                groups * state_width * state_size_feedback.bytes_per_cell()
            )
            raw_bytes = chunk.estimated_bytes()
            if est_state_bytes >= raw_bytes:
                optimizer_stats.adaptive_fallback += 1
                return False
            optimizer_stats.adaptive_partial += 1
            continue
        rows = min(len(chunk), GROUP_FALLBACK_SAMPLE_ROWS)
        if rows < GROUP_FALLBACK_MIN_ROWS:
            continue
        arrays = [chunk.column_array(key) for key in keys]
        if any(array is None for array in arrays):
            return True
        if len(arrays) == 1:
            observed = len({freeze_value(value) for value in arrays[0][:rows]})
        else:
            observed = len(
                {
                    tuple(freeze_value(value) for value in values)
                    for values in zip(*(array[:rows] for array in arrays))
                }
            )
        if observed >= GROUP_FALLBACK_RATIO * rows:
            return False
    return True


def last_inside_node(topology: Topology, current: str) -> str:
    """The node the anonymization step A runs on.

    ``current`` itself when it is inside the apartment, otherwise the most
    powerful in-apartment node (the paper's placement of the postprocessor).
    """
    node = topology.node(current)
    if node.inside_apartment:
        return current
    inside = [n for n in topology.nodes if n.inside_apartment]
    return inside[-1].name if inside else current


def rebase_table_refs(query: ast.Query, old_name: str, new_name: str) -> ast.Query:
    """Clone ``query`` with every ``old_name`` table reference renamed.

    The original name survives as the alias (unless one exists), so
    qualified column references keep resolving.  Used to point fragment
    queries at namespaced per-session table names.
    """
    rebased = clone(query)
    if old_name.lower() == new_name.lower():
        return rebased
    stack: List[ast.Node] = [rebased]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, ast.TableRef) and node.name.lower() == old_name.lower():
            if node.alias is None:
                node.alias = node.name
            node.name = new_name
        stack.extend(child for child in node.children() if child is not None)
    return rebased


def union_partials(parts: Sequence[Relation], name: str) -> Relation:
    """Concatenate partial relations in order (the merge/union operator).

    The schema comes from the first non-empty partial: every partial is the
    same query over same-schema chunks, so non-empty ones agree; empty ones
    may carry weaker inferred types.  Degenerate inputs are handled too: an
    empty ``parts`` sequence yields an empty relation, and when *every*
    partial is empty the column types are merged across partials so one
    explicitly typed (but empty) chunk is not shadowed by the first
    partial's inferred-from-nothing defaults.

    Relations are columnar, so the union is a per-column ``extend`` over
    the partials' value arrays (aligned by column name) — no per-row dict
    copies, which is what makes the merge points of large parallel plans
    cheap.  Typed column backings are preserved: int64/float64 partials
    union into one contiguous typed buffer (degrading to a generic list
    only when a partial carries a different backing).
    """
    parts = list(parts)
    if not parts:
        return Relation(schema=Schema([]), rows=[], name=name)
    schema_source = next((part for part in parts if len(part)), None)
    if schema_source is not None:
        schema = schema_source.schema
    else:
        # All partials are empty.  Empty relations infer FLOAT for every
        # column, so prefer, per column, the first partial carrying a more
        # specific type.
        columns = []
        for index, column in enumerate(parts[0].schema.columns):
            data_type = column.data_type
            if data_type is DataType.FLOAT:
                for part in parts[1:]:
                    if index < len(part.schema.columns):
                        other = part.schema.columns[index].data_type
                        if other is not DataType.FLOAT:
                            data_type = other
                            break
            columns.append(ColumnDef(name=column.name, data_type=data_type))
        schema = Schema(columns)
    merged: List[Optional[list]] = [None for _ in schema.columns]
    for part in parts:
        if not len(part):
            continue
        for position, column_def in enumerate(schema.columns):
            source = part.column_array(column_def.name)
            if source is None:
                source = [None] * len(part)
            if merged[position] is None:
                merged[position] = copy_column(source)
            else:
                merged[position] = extend_column(merged[position], source)
    return Relation.from_columns(
        schema,
        [column if column is not None else [] for column in merged],
        name=name,
    )


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
        #: Set by the scheduler when it gives this attempt up without
        #: draining its workers; :meth:`engine_call` then refuses to start.
        self.abandoned = False
        #: task id -> output relation; each task writes only its own key.
        self.outputs: Dict[str, Relation] = {}
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
        return successor

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

    def annotate_io(self, input_rows: int, output: Relation) -> None:
        """Record a task's row counts and output size on its span.

        ``estimated_bytes`` walks every value of the output, so it is only
        computed when tracing is on.
        """
        if self.trace is None:
            return
        self.annotate(
            input_rows=input_rows,
            output_rows=len(output),
            estimated_bytes=output.estimated_bytes(),
        )

    def save_checkpoint(self, task: "Task", relation: Relation) -> bool:
        """Checkpoint an aggregate-state task's output (partial/combine)."""
        if self.checkpoints is not None and task.kind in ("partial", "combine"):
            return self.checkpoints.save(task.signature, relation)
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


@dataclass
class Task:
    """One unit of work pinned to a topology node."""

    task_id: str
    node: str
    #: Position in deterministic build order; fixes report ordering.
    order: int
    deps: List[str] = field(default_factory=list)
    kind: str = "task"
    #: Content identity: a Merkle-style hash over the task's kind,
    #: placement, relation names, dependency signatures and (for leaves)
    #: the input chunk's placement epoch — *not* the task id, which shifts
    #: between re-plans.  Equal signatures mean "produces the identical
    #: output", which is what checkpoint restoration keys on.
    signature: str = ""

    def execute(self, context: ExecutionContext) -> Relation:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _receive(
        self,
        context: ExecutionContext,
        relation: Relation,
        name: str,
        source_node: str,
        register: bool = True,
    ) -> Relation:
        """Move a dependency's output to this task's node (ship + register).

        Returns the relation *as received on this node* — for an actual
        inter-node hop that is the wire-deserialized copy, so downstream
        work consumes exactly what crossed the link.
        """
        node = context.network.topology.node(self.node)
        if not node.can_hold_rows(len(relation)):
            context.warn_capacity(
                f"{self.node}: {len(relation)} rows of {name} exceed "
                f"{node.free_memory_mb:g} MB of free memory"
            )
        if source_node == self.node:
            if register:
                context.network.database(self.node).register(name, relation)
            return relation
        return context.network.ship(
            relation,
            name,
            source_node,
            self.node,
            log=context.log,
            register=register,
            injector=context.injector,
        )

    def _engine(
        self,
        context: ExecutionContext,
        database,
        op: str,
        query: ast.Query,
        state: Optional[Relation] = None,
    ) -> Tuple[Relation, float]:
        """Run one engine operation on the configured compute backend.

        Thread backend (default): the bound database method runs in this
        scheduler thread.  Process backend: the operation, its referenced
        input relations and the optional merged state cross the process
        boundary as wire bytes (:mod:`repro.runtime.procs`) — the timing
        then honestly includes serialization and IPC.
        """
        dispatcher = context.dispatcher
        config = context.config
        if dispatcher is not None:
            tables = dispatcher.gather_tables(database, query)
            return context.engine_call(dispatcher.run, op, config, query, tables, state)
        if op == "query":
            return context.engine_call(database.query, query, config)
        if op == "partial":
            return context.engine_call(database.partial_aggregate, query, config)
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
    from repro.engine.vectorized import estimate_select_rows

    estimated = estimate_select_rows(query, source)
    if estimated is None:
        return
    context.annotate(estimated_rows=estimated)
    if context.calibration is not None:
        context.calibration.observe(
            "rows", float(estimated), float(len(output)), rows=len(output)
        )


@dataclass
class FragmentTask(Task):
    """Run one fragment query on this node (a leaf scan or a chained hop)."""

    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    #: Producing task of the input relation; ``None`` when the input is
    #: already resident on the node (base chunks, device tables).
    source_id: Optional[str] = None
    source_node: Optional[str] = None
    in_name: str = ""
    out_name: str = ""
    display_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        network = context.network
        database = network.database(self.node)
        if self.source_id is not None:
            source = context.outputs[self.source_id]
            self._receive(context, source, self.in_name, self.source_node or self.node)
            input_rows = len(source)
        else:
            source = database.table(self.in_name) if self.in_name in database else None
            input_rows = len(source) if source is not None else 0
        context.charge_compute(input_rows, self.node)
        output, elapsed = self._engine(context, database, "query", self.query)
        output.name = self.display_name
        database.register(self.out_name, output)
        context.annotate_io(input_rows, output)
        _observe_rows_estimate(context, self.query, source, output)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=self.display_name,
                node=self.node,
                level=self.fragment.level.short_name if self.fragment else "",
                sql=self.fragment.sql if self.fragment else "",
                input_rows=input_rows,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            )
        )
        return output


@dataclass
class RawScanTask(Task):
    """Expose a node's resident chunk of a base table as a task output."""

    table_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        output = context.network.database(self.node).table(self.table_name)
        context.annotate(input_rows=len(output), output_rows=len(output))
        return output


@dataclass
class MergeTask(Task):
    """Union sibling partials, in deterministic partition order."""

    parts: List[Tuple[str, str]] = field(default_factory=list)  # (task_id, node)
    out_name: str = ""
    display_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        partials: List[Relation] = []
        total_in = 0
        for part_id, part_node in self.parts:
            relation = context.outputs[part_id]
            total_in += len(relation)
            # Log the shipment of each partial towards the merge point; the
            # union itself is registered once below, so partials are not
            # individually registered (keeps the catalog shape stable).
            received = self._receive(
                context,
                relation,
                f"{self.display_name}@{part_node}",
                part_node,
                register=False,
            )
            partials.append(received)
        merged, elapsed = context.engine_call(
            union_partials, partials, self.display_name
        )
        context.network.database(self.node).register(self.out_name, merged)
        context.annotate_io(total_in, merged)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=f"merge({self.display_name})",
                node=self.node,
                level=self.network_level(context),
                sql=f"UNION ALL of {len(self.parts)} partials",
                input_rows=total_in,
                output_rows=len(merged),
                elapsed_seconds=elapsed,
            )
        )
        return merged

    def network_level(self, context: ExecutionContext) -> str:
        return context.network.topology.node(self.node).level.short_name


@dataclass
class PartialAggregateTask(Task):
    """Run a decomposable GROUP BY fragment in *partial* mode on this node.

    Emits mergeable aggregate states (one row per group of the local
    chunk) instead of the fragment's finalized output — the rows that
    travel up the tree from here on are group states, not raw data.
    """

    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    source_id: Optional[str] = None
    source_node: Optional[str] = None
    in_name: str = ""
    out_name: str = ""
    display_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        network = context.network
        database = network.database(self.node)
        if self.source_id is not None:
            source = context.outputs[self.source_id]
            self._receive(context, source, self.in_name, self.source_node or self.node)
            input_rows = len(source)
        else:
            source = database.table(self.in_name) if self.in_name in database else None
            input_rows = len(source) if source is not None else 0
        context.charge_compute(input_rows, self.node)
        output, elapsed = self._engine(context, database, "partial", self.query)
        output.name = self.display_name
        database.register(self.out_name, output)
        # Observed state size feeds the adaptive partial-aggregation ratio:
        # future placement decisions use real packed bytes per state cell.
        from repro.engine.wire import state_size_feedback

        state_size_feedback.record(
            len(output),
            output.estimated_bytes(),
            cells=len(output) * len(output.schema),
        )
        context.annotate_io(input_rows, output)
        _observe_rows_estimate(context, self.query, source, output)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=self.display_name,
                node=self.node,
                level=self.fragment.level.short_name if self.fragment else "",
                sql=f"partial({self.fragment.sql})" if self.fragment else "",
                input_rows=input_rows,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            ),
        )
        return output


@dataclass
class CombinePartialsTask(Task):
    """Merge sibling partial-state relations per group at this node.

    The states of sibling subtrees union in partition order and merge into
    one state row per group — the tree-level combine of the
    partial-aggregation protocol.  Output stays in partial-state form.
    """

    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    parts: List[Tuple[str, str]] = field(default_factory=list)  # (task_id, node)
    out_name: str = ""
    display_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        partials: List[Relation] = []
        total_in = 0
        for part_id, part_node in self.parts:
            relation = context.outputs[part_id]
            total_in += len(relation)
            received = self._receive(
                context,
                relation,
                f"{self.display_name}@{part_node}",
                part_node,
                register=False,
            )
            partials.append(received)
        merged = union_partials(partials, self.display_name)
        context.charge_compute(total_in, self.node)
        database = context.network.database(self.node)
        output, elapsed = self._engine(
            context, database, "combine", self.query, state=merged
        )
        output.name = self.display_name
        database.register(self.out_name, output)
        context.annotate_io(total_in, output)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=f"combine({self.display_name})",
                node=self.node,
                level=context.network.topology.node(self.node).level.short_name,
                sql=f"merge of {len(self.parts)} partial-state relations",
                input_rows=total_in,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            ),
        )
        return output


@dataclass
class FinalizeAggregationTask(Task):
    """Merge the remaining partial states and emit the fragment's output.

    Runs where the serial oracle runs the GROUP BY fragment; applies
    HAVING, the select items and ORDER BY over the finalized aggregates,
    so the output is byte-identical to executing the fragment over the
    globally merged raw input — which never had to exist.
    """

    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    parts: List[Tuple[str, str]] = field(default_factory=list)  # (task_id, node)
    out_name: str = ""
    display_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        partials: List[Relation] = []
        total_in = 0
        for part_id, part_node in self.parts:
            relation = context.outputs[part_id]
            total_in += len(relation)
            received = self._receive(
                context,
                relation,
                f"{self.display_name}~partial@{part_node}",
                part_node,
                register=False,
            )
            partials.append(received)
        merged = union_partials(partials, f"{self.display_name}~partial")
        context.charge_compute(total_in, self.node)
        database = context.network.database(self.node)
        output, elapsed = self._engine(
            context, database, "finalize", self.query, state=merged
        )
        output.name = self.display_name
        database.register(self.out_name, output)
        context.annotate_io(total_in, output)
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=self.display_name,
                node=self.node,
                level=self.fragment.level.short_name if self.fragment else "",
                sql=self.fragment.sql if self.fragment else "",
                input_rows=total_in,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            ),
        )
        return output


@dataclass
class AnonymizeTask(Task):
    """The postprocessing step A on the last in-apartment node."""

    source_id: str = ""
    source_node: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        relation = context.outputs[self.source_id]
        context.charge_compute(len(relation), self.node)
        node = context.network.topology.node(self.node)
        outcome, _ = context.engine_call(
            lambda: context.anonymizer.anonymize(
                relation, node_cpu_power=node.cpu_power or 1.0
            )
        )
        context.anonymization = outcome
        context.annotate_io(len(relation), outcome.relation)
        return outcome.relation


@dataclass
class FinalizeTask(Task):
    """Ship d' across the boundary and run the remainder at the cloud."""

    source_id: str = ""
    source_node: str = ""
    result_name: str = ""
    remainder_query: Optional[ast.Query] = None
    remainder_input_alias: str = ""
    remainder_description: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        relation = context.outputs[self.source_id]
        if self.source_node != self.node:
            relation = self._receive(
                context, relation, self.result_name, self.source_node
            )
        if self.remainder_query is None:
            context.annotate_io(len(relation), relation)
            return relation
        database = context.network.database(self.node)
        database.register(self.remainder_input_alias, relation)
        context.charge_compute(len(relation), self.node)
        output, elapsed = self._engine(
            context, database, "query", self.remainder_query
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


@dataclass
class ExecutionDag:
    """A topologically buildable set of tasks plus its final task."""

    tasks: List[Task]
    final_task_id: str
    #: Number of leaf partitions the bottom fragment fanned out over.
    partition_width: int

    def by_id(self) -> Dict[str, Task]:
        return {task.task_id: task for task in self.tasks}


def build_execution_dag(
    plan: FragmentPlan,
    topology: Topology,
    network: NetworkSimulator,
    anonymize: bool = True,
    namespace: Optional[str] = None,
    partial_aggregation: bool = True,
    config: EngineConfig = DEFAULT_CONFIG,
) -> ExecutionDag:
    """Build the execution DAG for ``plan`` over ``topology``.

    ``namespace`` suffixes every intermediate table name (``d1__s3``) so
    concurrent sessions sharing one simulator never clobber each other's
    intermediates; base tables stay un-suffixed (shared, read-only).

    ``partial_aggregation`` enables the distributed GROUP BY protocol:
    fragments marked :attr:`~repro.fragment.plan.QueryFragment.decomposable`
    run as per-partition partial aggregation whose mergeable states combine
    at each tree level (reusing the sibling-lift machinery) and finalize at
    the fragment's assigned node — no global merge of raw rows ever
    happens.  ``False`` restores the merge-then-group behaviour (the
    ablation baseline the pushdown benchmark compares against).
    ``config.optimizer`` selects the adaptive placement rule of
    :func:`partial_aggregation_pays`.
    """
    if not plan.fragments:
        raise ValueError("Cannot build an execution DAG for an empty plan")

    def ns(name: str) -> str:
        return f"{name}__{namespace}" if namespace else name

    tasks: List[Task] = []
    counter = [0]

    def next_id(prefix: str) -> Tuple[str, int]:
        counter[0] += 1
        return f"t{counter[0]:03d}:{prefix}", counter[0]

    def add(task: Task) -> Task:
        tasks.append(task)
        return task

    fragments = list(plan.fragments)
    base_table = fragments[0].input_name
    holders = network.partition_holders(base_table)
    partition_width = len(holders)

    #: Ordered (task, node) partials of the current intermediate relation.
    partitions: List[Task] = []
    remaining = fragments

    def combine_and_finalize(fragment: QueryFragment, partial_tasks: List[Task]) -> Task:
        """Lift partial states up the tree, then finalize the fragment.

        Sibling partial-state relations combine at their common parent one
        tree level at a time (the same lift rule distributive fragments
        use); whatever states remain merge and finalize where the serial
        oracle runs the fragment.
        """
        partial_name = ns(f"{fragment.name}__partial")
        current = partial_tasks
        while len(current) > 1:
            lifted = _lift_groups(topology, current)
            if lifted is None:
                break
            next_level: List[Task] = []
            for parent, group in lifted:
                task_id, order = next_id(f"{fragment.name}~combine[{parent}]")
                next_level.append(
                    add(
                        CombinePartialsTask(
                            task_id=task_id,
                            node=parent,
                            order=order,
                            deps=[task.task_id for task in group],
                            kind="combine",
                            fragment=fragment,
                            query=fragment.query,
                            parts=[(task.task_id, task.node) for task in group],
                            out_name=partial_name,
                            display_name=f"{fragment.name}~partial",
                        )
                    )
                )
            current = next_level
        target = fragment.assigned_node or topology.cloud.name
        task_id, order = next_id(f"{fragment.name}~finalize")
        return add(
            FinalizeAggregationTask(
                task_id=task_id,
                node=target,
                order=order,
                deps=[task.task_id for task in current],
                kind="finalize_agg",
                fragment=fragment,
                query=fragment.query,
                parts=[(task.task_id, task.node) for task in current],
                out_name=ns(fragment.name),
                display_name=fragment.name,
            )
        )

    if len(holders) > 1:
        first = fragments[0]
        if first.partitionable:
            # Fan the bottom fragment out over the leaf chunks.
            for holder in holders:
                task_id, order = next_id(f"{first.name}[{holder}]")
                partitions.append(
                    add(
                        FragmentTask(
                            task_id=task_id,
                            node=holder,
                            order=order,
                            kind="fragment",
                            fragment=first,
                            query=rebase_table_refs(first.query, base_table, base_table),
                            in_name=base_table,
                            out_name=ns(first.name),
                            display_name=f"{first.name}[{holder}]",
                        )
                    )
                )
            remaining = fragments[1:]
        elif (
            partial_aggregation
            and first.decomposable
            and partial_aggregation_pays(network, holders, first, base_table, config)
        ):
            # The bottom fragment is itself a decomposable aggregation:
            # partial-aggregate every leaf chunk in place, combine states
            # up the tree, finalize at the assigned node.
            partial_tasks: List[Task] = []
            for holder in holders:
                task_id, order = next_id(f"{first.name}~partial[{holder}]")
                partial_tasks.append(
                    add(
                        PartialAggregateTask(
                            task_id=task_id,
                            node=holder,
                            order=order,
                            kind="partial",
                            fragment=first,
                            query=rebase_table_refs(first.query, base_table, base_table),
                            in_name=base_table,
                            out_name=ns(f"{first.name}__partial"),
                            display_name=f"{first.name}~partial[{holder}]",
                        )
                    )
                )
            partitions = [combine_and_finalize(first, partial_tasks)]
            remaining = fragments[1:]
        else:
            # Bottom fragment needs the whole relation: gather the raw
            # chunks first, then run it where the serial oracle would.
            for holder in holders:
                task_id, order = next_id(f"scan[{holder}]")
                partitions.append(
                    add(
                        RawScanTask(
                            task_id=task_id,
                            node=holder,
                            order=order,
                            kind="scan",
                            table_name=base_table,
                        )
                    )
                )
            ancestor = topology.common_ancestor(holders).name
            merge_id, order = next_id(f"merge[{base_table}]")
            merge = add(
                MergeTask(
                    task_id=merge_id,
                    node=ancestor,
                    order=order,
                    deps=[task.task_id for task in partitions],
                    kind="merge",
                    parts=[(task.task_id, task.node) for task in partitions],
                    out_name=ns(base_table),
                    display_name=base_table,
                )
            )
            target = first.assigned_node or topology.cloud.name
            task_id, order = next_id(first.name)
            partitions = [
                add(
                    FragmentTask(
                        task_id=task_id,
                        node=target,
                        order=order,
                        deps=[merge.task_id],
                        kind="fragment",
                        fragment=first,
                        query=rebase_table_refs(first.query, base_table, ns(base_table)),
                        source_id=merge.task_id,
                        source_node=merge.node,
                        in_name=ns(base_table),
                        out_name=ns(first.name),
                        display_name=first.name,
                    )
                )
            ]
            remaining = fragments[1:]

    for index, fragment in enumerate(remaining):
        in_base = fragment.input_name
        if (
            len(partitions) > 1
            and partial_aggregation
            and fragment.partitionable
            and _next_blocker_decomposable(remaining, index)
        ):
            # A decomposable aggregation is coming: run this distributive
            # fragment *in place* on every partition instead of lifting, so
            # the partition is still at the leaves when partial aggregation
            # starts — only aggregate states will ever climb the tree.
            in_place: List[Task] = []
            for previous in partitions:
                task_id, order = next_id(f"{fragment.name}[{previous.node}]")
                in_place.append(
                    add(
                        FragmentTask(
                            task_id=task_id,
                            node=previous.node,
                            order=order,
                            deps=[previous.task_id],
                            kind="fragment",
                            fragment=fragment,
                            query=rebase_table_refs(fragment.query, in_base, ns(in_base)),
                            source_id=previous.task_id,
                            source_node=previous.node,
                            in_name=ns(in_base),
                            out_name=ns(fragment.name),
                            display_name=f"{fragment.name}[{previous.node}]",
                        )
                    )
                )
            partitions = in_place
            continue
        if (
            len(partitions) > 1
            and partial_aggregation
            and fragment.decomposable
            and partial_aggregation_pays(
                network, [task.node for task in partitions], fragment, base_table, config
            )
        ):
            # Decomposable aggregation: keep the partition, aggregate each
            # chunk into mergeable states where it lives, combine states
            # per tree level, finalize at the assigned node.  Only group
            # states cross hops from here on — never the raw rows a global
            # merge would have shipped.
            partial_tasks = []
            for previous in partitions:
                task_id, order = next_id(f"{fragment.name}~partial[{previous.node}]")
                partial_tasks.append(
                    add(
                        PartialAggregateTask(
                            task_id=task_id,
                            node=previous.node,
                            order=order,
                            deps=[previous.task_id],
                            kind="partial",
                            fragment=fragment,
                            query=rebase_table_refs(fragment.query, in_base, ns(in_base)),
                            source_id=previous.task_id,
                            source_node=previous.node,
                            in_name=ns(in_base),
                            out_name=ns(f"{fragment.name}__partial"),
                            display_name=f"{fragment.name}~partial[{previous.node}]",
                        )
                    )
                )
            partitions = [combine_and_finalize(fragment, partial_tasks)]
            continue
        if len(partitions) > 1:
            lifted = _lift_groups(topology, partitions)
            if fragment.partitionable and lifted is not None:
                # Merge each sibling group at its parent, then apply the
                # fragment there: the partition narrows one tree level.
                new_partitions: List[Task] = []
                for parent, group in lifted:
                    merge_id, order = next_id(f"merge[{in_base}@{parent}]")
                    merge = add(
                        MergeTask(
                            task_id=merge_id,
                            node=parent,
                            order=order,
                            deps=[task.task_id for task in group],
                            kind="merge",
                            parts=[(task.task_id, task.node) for task in group],
                            out_name=ns(in_base),
                            display_name=in_base,
                        )
                    )
                    task_id, order = next_id(f"{fragment.name}[{parent}]")
                    new_partitions.append(
                        add(
                            FragmentTask(
                                task_id=task_id,
                                node=parent,
                                order=order,
                                deps=[merge.task_id],
                                kind="fragment",
                                fragment=fragment,
                                query=rebase_table_refs(
                                    fragment.query, in_base, ns(in_base)
                                ),
                                source_id=merge.task_id,
                                source_node=merge.node,
                                in_name=ns(in_base),
                                out_name=ns(fragment.name),
                                display_name=f"{fragment.name}[{parent}]",
                            )
                        )
                    )
                partitions = new_partitions
                continue
            # Non-distributive fragment (or nowhere left to lift): merge
            # everything at the node the serial oracle uses and chain on.
            target = fragment.assigned_node or topology.cloud.name
            merge_id, order = next_id(f"merge[{in_base}]")
            merge = add(
                MergeTask(
                    task_id=merge_id,
                    node=target,
                    order=order,
                    deps=[task.task_id for task in partitions],
                    kind="merge",
                    parts=[(task.task_id, task.node) for task in partitions],
                    out_name=ns(in_base),
                    display_name=in_base,
                )
            )
            task_id, order = next_id(fragment.name)
            partitions = [
                add(
                    FragmentTask(
                        task_id=task_id,
                        node=target,
                        order=order,
                        deps=[merge.task_id],
                        kind="fragment",
                        fragment=fragment,
                        query=rebase_table_refs(fragment.query, in_base, ns(in_base)),
                        source_id=merge.task_id,
                        source_node=merge.node,
                        in_name=ns(in_base),
                        out_name=ns(fragment.name),
                        display_name=fragment.name,
                    )
                )
            ]
            continue
        # Single-stream chain: exactly the serial oracle's hop.
        target = fragment.assigned_node or topology.cloud.name
        previous = partitions[0] if partitions else None
        task_id, order = next_id(fragment.name)
        rebased_in = ns(in_base) if previous is not None else in_base
        partitions = [
            add(
                FragmentTask(
                    task_id=task_id,
                    node=target,
                    order=order,
                    deps=[previous.task_id] if previous is not None else [],
                    kind="fragment",
                    fragment=fragment,
                    query=rebase_table_refs(fragment.query, in_base, rebased_in),
                    source_id=previous.task_id if previous is not None else None,
                    source_node=previous.node if previous is not None else None,
                    in_name=rebased_in,
                    out_name=ns(fragment.name),
                    display_name=fragment.name,
                )
            )
        ]

    if len(partitions) > 1:
        # Every fragment was distributive: one final union before leaving.
        ancestor = topology.common_ancestor([task.node for task in partitions]).name
        final_name = fragments[-1].name
        merge_id, order = next_id(f"merge[{final_name}]")
        partitions = [
            add(
                MergeTask(
                    task_id=merge_id,
                    node=ancestor,
                    order=order,
                    deps=[task.task_id for task in partitions],
                    kind="merge",
                    parts=[(task.task_id, task.node) for task in partitions],
                    out_name=ns(final_name),
                    display_name=final_name,
                )
            )
        ]

    current = partitions[0]

    if anonymize:
        boundary = last_inside_node(topology, current.node)
        task_id, order = next_id("anonymize")
        current = add(
            AnonymizeTask(
                task_id=task_id,
                node=boundary,
                order=order,
                deps=[current.task_id],
                kind="anonymize",
                source_id=current.task_id,
                source_node=current.node,
            )
        )

    cloud = topology.cloud.name
    remainder_query = None
    if plan.remainder_query is not None:
        remainder_query = rebase_table_refs(
            plan.remainder_query,
            plan.remainder_input_alias,
            ns(plan.remainder_input_alias),
        )
    task_id, order = next_id("finalize")
    final = add(
        FinalizeTask(
            task_id=task_id,
            node=cloud,
            order=order,
            deps=[current.task_id],
            kind="finalize",
            source_id=current.task_id,
            source_node=current.node,
            result_name=ns(plan.result_name),
            remainder_query=remainder_query,
            remainder_input_alias=ns(plan.remainder_input_alias),
            remainder_description=plan.remainder_description,
        )
    )

    _assign_signatures(tasks, network)
    return ExecutionDag(
        tasks=tasks, final_task_id=final.task_id, partition_width=partition_width
    )


def _assign_signatures(tasks: Sequence[Task], network: NetworkSimulator) -> None:
    """Give every task its content signature (Merkle-style, leaves up).

    Tasks are in build order, so every dependency's signature exists by the
    time its dependents hash it.  Leaf tasks (no deps, reading a resident
    chunk) fold in the chunk's placement epoch: after a failure re-places a
    chunk, the tasks over the *moved* data get fresh signatures while
    untouched subtrees keep theirs — exactly the distinction checkpoint
    restoration needs.
    """
    by_id: Dict[str, str] = {}
    for task in tasks:
        parts = [task.kind, task.node]
        for attr in ("display_name", "out_name", "in_name", "table_name", "result_name"):
            parts.append(str(getattr(task, attr, "")))
        if not task.deps:
            chunk_name = getattr(task, "in_name", "") or getattr(task, "table_name", "")
            if chunk_name:
                parts.append(f"epoch={network.data_epoch(task.node, chunk_name)}")
        parts.extend(by_id[dep] for dep in task.deps)
        task.signature = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
        by_id[task.task_id] = task.signature


def replan_without(
    plan: FragmentPlan, topology: Topology, dead_names: Sequence[str]
) -> Tuple[FragmentPlan, Topology]:
    """Re-map ``plan`` onto ``topology`` minus the dead nodes.

    Returns the remapped plan plus the pruned topology to rebuild the
    execution DAG over (``build_execution_dag`` then re-derives the leaf
    fan-out from the network's updated partition map and re-lifts sibling
    groups with the same machinery as the healthy plan).  Fragments whose
    assigned node died re-root to the nearest live ancestor — except that a
    fragment placed *inside the apartment* never re-roots outside it: the
    privacy boundary outranks placement economics, so it falls back to the
    most powerful surviving in-apartment node instead.

    ``topology`` must be the original (healthy) topology and ``dead_names``
    the full accumulated death list, so repeated re-plans are independent of
    the order nodes died in.
    """
    pruned = topology.without(dead_names)
    dead = set(dead_names)
    live_inside = [node for node in pruned.nodes if node.inside_apartment]

    def replacement(name: str) -> str:
        original = topology.node(name)
        heir = next(
            (
                ancestor
                for ancestor in topology.path_to_root(name)[1:]
                if ancestor.name not in dead
            ),
            topology.cloud,
        )
        if original.inside_apartment and not heir.inside_apartment and live_inside:
            heir = live_inside[-1]
        return heir.name

    fragments = [
        dataclasses.replace(fragment, assigned_node=replacement(fragment.assigned_node))
        if fragment.assigned_node in dead
        else fragment
        for fragment in plan.fragments
    ]
    return dataclasses.replace(plan, fragments=fragments), pruned


def _next_blocker_decomposable(fragments: Sequence[QueryFragment], index: int) -> bool:
    """True when the first non-distributive fragment after ``index`` is a
    decomposable aggregation.

    Decides whether distributive fragments should stay on their partitions
    (the aggregation will shrink the data to group states before anything
    climbs the tree) or follow the default lift-per-level placement.
    """
    for fragment in fragments[index + 1 :]:
        if not fragment.partitionable:
            return fragment.decomposable
    return False


def lift_node_groups(
    topology: Topology, node_names: Sequence[str]
) -> Optional[List[Tuple[str, List[str]]]]:
    """Group partition-holding nodes by parent, preserving partition order.

    The placement primitive shared by the DAG builder (which lifts
    :class:`Task` partitions one level per plan stage) and the standing-query
    runtime (which computes the per-level combine placement of a maintained
    state tree once, at tree-creation time).

    Returns ``None`` when lifting is not possible or not useful: a partition
    node without a parent, a parent outside the apartment (data may not
    cross the boundary before anonymization), sibling groups that are not
    contiguous runs of the partition order (concatenating them would permute
    rows relative to the serial oracle), or a lift that would not reduce the
    number of partitions.
    """
    groups: List[Tuple[str, List[str]]] = []
    seen: Dict[str, int] = {}
    for name in node_names:
        parent = topology.parent_of(name)
        if parent is None or not parent.inside_apartment:
            return None
        if parent.name in seen:
            if seen[parent.name] != len(groups) - 1:
                # The parent's children are interleaved with another group:
                # a per-parent union would reorder rows.
                return None
            groups[-1][1].append(name)
        else:
            seen[parent.name] = len(groups)
            groups.append((parent.name, [name]))
    if len(groups) >= len(node_names):
        return None
    return groups


def _lift_groups(
    topology: Topology, partitions: Sequence[Task]
) -> Optional[List[Tuple[str, List[Task]]]]:
    """Group partition tasks by parent node (see :func:`lift_node_groups`)."""
    named = lift_node_groups(topology, [task.node for task in partitions])
    if named is None:
        return None
    tasks = iter(partitions)
    return [
        (parent, [next(tasks) for _ in children]) for parent, children in named
    ]
