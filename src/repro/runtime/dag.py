"""Execution-DAG construction for fragment plans over tree topologies.

:func:`build_execution_dag` turns a :class:`~repro.fragment.plan.FragmentPlan`
plus a (possibly tree-shaped) :class:`~repro.fragment.topology.Topology` into
a dependency graph of :class:`Task` objects the
:class:`~repro.runtime.scheduler.Scheduler` can run concurrently.

The builder tracks the current intermediate relation as an ordered list of
*parts*: the base relation starts as the chunks resident on the sensor
leaves that hold it (see
:meth:`~repro.processor.network.NetworkSimulator.load_sensor_data`), and
every stage replaces the parts it consumed with its own outputs.  One loop
applies the same rules to every fragment:

* **In place.** A row-distributive fragment (``partitionable``) runs on
  every part where it lives when its input is still the resident base
  chunks (the leaf fan-out) or when a decomposable aggregation follows.
  Consecutive in-place fragments run as one query per part
  (:func:`merge_views`), inside the leaf partial when a decomposable
  aggregation follows.  The fragment plan stays the paper's; only the
  DAG has fewer tasks.
* **Partial → combine → finalize.** A GROUP BY fragment whose aggregates
  all decompose (``QueryFragment.decomposable``) runs in *partial* mode on
  every part (emitting mergeable aggregate states, see
  :mod:`repro.engine.aggregates`); sibling states *combine* at their common
  parent one tree level at a time, and the fragment *finalizes* (HAVING,
  select items, ORDER BY) at its assigned node.  Only group states — a few
  rows per node — cross a hop.
* **Lift.** Any other row-distributive fragment lifts one tree level: the
  parts of each sibling group merge at their common parent, which applies
  the fragment to its group — appliances keep working on their own
  sensors' data, exactly the placement of Figure 3.
* **Merge at the assigned node.** A fragment that needs the whole relation
  (joins, set operations, windows, ordering, DISTINCT aggregates, MEDIAN,
  ...) merges every part at its assigned node and runs there; from there
  the plan chains serially.
* **Single hop.** A single part moves to the fragment's assigned node,
  shipping it when it lives elsewhere.

Every stage is one :class:`StageTask`: it gathers its parts on its node,
runs one engine operation and registers the output.  Anonymization and the
cloud remainder are the DAG's final tasks.

Chunks are contiguous slices of the original relation in leaf order, and
every stage concatenates its parts in exactly that order, so the DAG's
result is row-for-row identical to running the query once over the
unfragmented relation (:func:`~repro.processor.reference.reference_result`)
— the differential tests in ``tests/test_reference.py`` and
``tests/test_runtime.py`` enforce this.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.anonymize.anonymizer import Anonymizer
from repro.engine.columns import copy_column, extend_column
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.wire import WireFormatError, pack_relation, state_size_feedback
from repro.fragment.capabilities import permitted_features
from repro.fragment.plan import (
    FragmentPlan,
    QueryFragment,
    ordered_aggregate_calls,
)
from repro.fragment.topology import Topology
from repro.obs.profile import CalibrationLog
from repro.obs.trace import QueryTrace, current_span
from repro.processor.network import NetworkSimulator, TransferLog
from repro.processor.result import FragmentExecution
from repro.runtime.cost import CostModel
from repro.runtime.faults import CheckpointStore, EpochAbandoned, FailureInjector
from repro.sql import ast
from repro.sql.analysis import analyze_query
from repro.sql.render import render
from repro.sql.visitor import clone, walk


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
    distinct aggregate call) times the observed packed bytes per state
    *cell* (fed back by :data:`repro.engine.wire.state_size_feedback` from
    previously shipped partial states) is compared against the chunk's raw
    ``estimated_bytes()``, so genuinely small states keep the partial path
    even at high shares.  Both modes decide *placement only* — results are
    identical either way.
    """
    from repro.engine.stats import optimizer_stats
    from repro.engine.vectorized import freeze_value

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
            # one state per distinct aggregate call) times the observed
            # packed bytes per state cell — per-cell feedback transfers
            # across query shapes where a per-row average would let wide states inflate
            # narrow ones.  Unlike the fixed-ratio rule, genuinely small
            # states (few aggregates over wide raw rows) keep the partial
            # path even at high shares.
            state_width = len(keys) + len(ordered_aggregate_calls(query))
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


def anonymization_node(topology: Topology, current: str, anonymizer: Anonymizer) -> str:
    """The node the anonymization step A runs on.

    The first node on ``current``'s path to the cloud that is inside the
    apartment and powerful enough for ``anonymizer``
    (:attr:`~repro.anonymize.anonymizer.Anonymizer.minimum_cpu_power`), so
    A never lands on a sensor too weak to perform it.  When the path offers
    no such node, the most powerful in-apartment node (the paper's
    placement of the postprocessor; the highest-level one on a tie), or
    ``current`` itself when the topology has no in-apartment node.  So A
    applies exactly when some in-apartment node is powerful enough.
    """
    for node in topology.path_to_root(current):
        if node.inside_apartment and (node.cpu_power or 1.0) >= anonymizer.minimum_cpu_power:
            return node.name
    inside = [n for n in reversed(topology.nodes) if n.inside_apartment]
    if not inside:
        return current
    return max(inside, key=lambda node: node.cpu_power or 1.0).name


def rebase_table_refs(query: ast.Query, old_name: str, new_name: str) -> ast.Query:
    """Clone ``query`` with every ``old_name`` table reference renamed.

    The original name survives as the alias (unless one exists), so
    qualified column references keep resolving.  Used to point fragment
    queries at namespaced per-session table names.  An identity rename
    returns ``query`` itself: planned queries are never mutated.
    """
    if old_name.lower() == new_name.lower():
        return query
    rebased = clone(query)
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


#: Nodes that make a query a non-candidate for view merging: their rows or
#: names do not come from the one table the merge rewires.
_UNMERGEABLE = (
    ast.Query,
    ast.SubqueryRef,
    ast.InSubquery,
    ast.Exists,
    ast.ScalarSubquery,
)


def _merge_columns(
    query: ast.Query, reads: Optional[str] = None
) -> Optional[List[ast.Column]]:
    """The column references of a view-merging candidate, or ``None``.

    A candidate is one SELECT over one unaliased table (named ``reads``,
    when given) without DISTINCT, LIMIT/OFFSET, subqueries or qualified
    names.
    """
    if (
        not isinstance(query, ast.SelectQuery)
        or query.distinct
        or query.limit is not None
        or query.offset is not None
    ):
        return None
    source = query.from_clause
    if not isinstance(source, ast.TableRef) or source.alias is not None:
        return None
    if reads is not None and source.name.lower() != reads.lower():
        return None
    columns: List[ast.Column] = []
    for node in walk(query):
        if node is query or node is source:
            continue
        if isinstance(node, _UNMERGEABLE):
            return None
        if isinstance(node, (ast.Column, ast.Star)) and node.table is not None:
            return None
        if isinstance(node, ast.Column):
            columns.append(node)
    return columns


def merge_views(
    inner: ast.Query, inner_name: str, outer: ast.Query
) -> Optional[ast.SelectQuery]:
    """``outer`` over the relation ``inner_name`` that ``inner`` defines, as
    one query over ``inner``'s input — or ``None`` when the shapes refuse.

    View merging, i.e. query modification (Stonebraker, SIGMOD 1975),
    restricted to the shapes the fragmenter runs in place.  ``inner`` is a
    single-table ``SELECT *`` or a list of plain, unaliased columns with an
    optional WHERE: no grouping, ordering, LIMIT/OFFSET, DISTINCT,
    aggregate or window call, subquery or qualified column.  ``outer``
    reads ``inner_name`` unaliased, with no DISTINCT, LIMIT/OFFSET,
    subquery or qualified column; it may group, which is how a leaf
    partial aggregation takes the merged query.  Over a column list,
    ``outer`` must read every listed column and nothing else, and no item
    alias of ``outer`` may shadow one, so the merged query still resolves
    — and fails on — exactly the columns the chain did.

    The merged WHERE is ``inner``'s conjuncts, then ``outer``'s: the order
    the chain evaluates them in, which keeps the row oracle's
    short-circuit order.  A ``SELECT *`` outer takes ``inner``'s items.
    The result shares subtrees with both inputs; clone it before use.
    """
    inner_columns = _merge_columns(inner)
    outer_columns = _merge_columns(outer, reads=inner_name)
    if inner_columns is None or outer_columns is None:
        return None
    if inner.group_by or inner.having is not None or inner.order_by:
        return None
    if inner.where is not None and any(
        isinstance(node, ast.FunctionCall)
        and (node.window is not None or ast.is_aggregate_function(node.name))
        for node in walk(inner.where)
    ):
        return None
    stars = [item for item in outer.items if isinstance(item.expression, ast.Star)]
    if stars and len(outer.items) > 1:
        return None
    if not inner.is_select_star:
        if any(
            not isinstance(item.expression, ast.Column) or item.alias is not None
            for item in inner.items
        ):
            return None
        provided = [item.expression.name.lower() for item in inner.items]
        if len(set(provided)) != len(provided):
            return None
        referenced = {column.name.lower() for column in outer_columns}
        if stars:
            referenced.update(provided)  # the star reads every listed column
        aliases = {item.alias.lower() for item in outer.items if item.alias}
        if referenced != set(provided) or aliases & referenced:
            return None
    merged = copy.copy(outer)
    merged.from_clause = inner.from_clause
    merged.where = ast.conjunction(
        *ast.conjunction_terms(inner.where), *ast.conjunction_terms(outer.where)
    )
    if stars:
        merged.items = inner.items
    return merged


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
        #: task id -> the packed output of a ``partial``/``combine`` task.
        #: The task encodes its state once; these bytes are both its
        #: checkpoint and what every shipment of it sends.  Handed over
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


@dataclass
class Task:
    """One unit of work pinned to a topology node."""

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
        payload: Optional[bytes] = None,
    ) -> Relation:
        """Move an input relation to this task's node (ship + register).

        Returns the relation *as received on this node* — for an actual
        inter-node hop that is the wire-deserialized copy, so downstream
        work consumes exactly what crossed the link.  ``payload`` is the
        producer's packed output when it encoded one (aggregate states).
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
            payload=payload,
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


@dataclass
class StageTask(Task):
    """One stage of the plan: gather the parts here, run ``op``, register.

    ``query`` and ``partial`` take a single part: a base chunk resident on
    this node is read in place, anything else is shipped here and
    registered under ``in_name``.  ``combine``, ``finalize`` and ``union``
    ship every part here and concatenate them in partition order first —
    partial states for the first two, which then merge into one state row
    per group (``combine``) or into the fragment's finalized output
    (``finalize``: HAVING, select items and ORDER BY over the merged
    aggregates, byte-identical to running the fragment over the globally
    merged raw input, which never had to exist).  Every output is
    registered under ``out_name``.

    A ``query`` or ``partial`` task may run several in-place fragments as
    one query (:func:`merge_views`); ``composes`` names them.
    """

    op: str = "query"
    fragment: Optional[QueryFragment] = None
    query: Optional[ast.Query] = None
    #: The base table that resident parts are chunks of.
    base: str = ""
    in_name: str = ""
    out_name: str = ""
    display_name: str = ""
    #: The fragments merged into ``query``, innermost first and ending with
    #: ``fragment``; empty when ``query`` is ``fragment`` alone.
    composes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.kind = STAGE_OPS[self.op][0]

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

    def _fetch(self, context: ExecutionContext, part: Part) -> Relation:
        task_id, node = part
        if task_id is not None:
            return context.outputs[task_id]
        if node != self.node and context.injector is not None:
            # The holder serves its chunk: a fault armed for it fires here.
            context.injector.before_read(node, self)
        return context.network.database(node).table(self.base)

    def execute(self, context: ExecutionContext) -> Relation:
        database = context.network.database(self.node)
        source: Optional[Relation] = None
        if self.op in ("query", "partial"):
            [part] = self.parts
            if part == (None, self.node):
                # A base chunk resident here is read in place.
                if self.base in database:
                    source = database.table(self.base)
            else:
                source = self._fetch(context, part)
                self._receive(context, source, self.in_name, part[1])
            input_rows = len(source) if source is not None else 0
            context.charge_compute(input_rows, self.node)
            output, elapsed = self._engine(context, database, self.op, self.query)
            output.name = self.display_name
        else:
            union_name = self.display_name
            if self.op == "finalize":
                union_name += "~partial"
            received = [
                self._receive(
                    context,
                    self._fetch(context, part),
                    f"{union_name}@{part[1]}",
                    part[1],
                    register=False,
                    payload=context.payloads.get(part[0]),
                )
                for part in self.parts
            ]
            input_rows = sum(len(relation) for relation in received)
            if self.op == "union":
                output, elapsed = context.engine_call(
                    union_partials, received, union_name
                )
            else:
                merged = union_partials(received, union_name)
                context.charge_compute(input_rows, self.node)
                output, elapsed = self._engine(
                    context, database, self.op, self.query, state=merged
                )
                output.name = self.display_name
        database.register(self.out_name, output)
        if self.op in ("partial", "combine"):
            # An aggregate state is encoded once, here: the same bytes
            # become its checkpoint and every shipment of it.  A state
            # outside the wire vocabulary is simply not checkpointed.
            try:
                context.payloads[self.task_id] = payload = pack_relation(output)
            except WireFormatError:
                payload = None
            if self.op == "partial" and payload is not None:
                # Observed state size feeds the adaptive partial-aggregation
                # ratio: future placement decisions use real packed bytes
                # per state cell.
                state_size_feedback.record(
                    len(output), len(payload), cells=len(output) * len(output.schema)
                )
        context.annotate_io(input_rows, output)
        _observe_rows_estimate(context, self.query, source, output)
        _, name, sql = STAGE_OPS[self.op]
        if self.op in ("combine", "union"):
            level = context.network.topology.node(self.node).level.short_name
        else:
            level = self.fragment.level.short_name
        if self.composes:
            text = render(self.query)
        else:
            text = self.fragment.sql if self.fragment else ""
        context.record_execution(
            self.order,
            FragmentExecution(
                fragment_name=name.format(name=self.display_name),
                node=self.node,
                level=level,
                sql=sql.format(sql=text, parts=len(self.parts)),
                input_rows=input_rows,
                output_rows=len(output),
                elapsed_seconds=elapsed,
            ),
        )
        return output


@dataclass
class AnonymizeTask(Task):
    """The postprocessing step A on the node :func:`anonymization_node` picks."""

    kind: str = "anonymize"
    in_name: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        [(source_id, source_node)] = self.parts
        relation = context.outputs[source_id]
        if source_node != self.node:
            relation = self._receive(
                context, relation, self.in_name, source_node, register=False
            )
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

    kind: str = "finalize"
    result_name: str = ""
    remainder_query: Optional[ast.Query] = None
    remainder_input_alias: str = ""
    remainder_description: str = ""

    def execute(self, context: ExecutionContext) -> Relation:
        [(source_id, source_node)] = self.parts
        relation = context.outputs[source_id]
        if source_node != self.node:
            relation = self._receive(context, relation, self.result_name, source_node)
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
    anonymizer: Optional[Anonymizer] = None,
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
    :func:`partial_aggregation_pays`.  With an ``anonymizer`` the DAG
    runs step A before the result leaves the apartment, on the node
    :func:`anonymization_node` picks for it; without one, no step A.
    """
    if not plan.fragments:
        raise ValueError("Cannot build an execution DAG for an empty plan")

    def ns(name: str) -> str:
        return f"{name}__{namespace}" if namespace else name

    fragments = list(plan.fragments)
    base_table = fragments[0].input_name
    holders = network.partition_holders(base_table)
    tasks: List[Task] = []

    def add(cls, label: str, node: str, parts: Sequence[Part], **fields) -> Task:
        """Append a task; its id and order follow from its position, its
        deps from ``parts``."""
        order = len(tasks) + 1
        task = cls(
            task_id=f"t{order:03d}:{label}",
            node=node,
            order=order,
            parts=list(parts),
            **fields,
        )
        tasks.append(task)
        return task

    def stage(
        op: str, label: str, node: str, parts: Sequence[Part], **fields
    ) -> Part:
        """Add a :class:`StageTask`; returns its output as a part."""
        task = add(StageTask, label, node, parts, op=op, base=base_table, **fields)
        return task.task_id, node

    #: One query per (fragment chain, input name), shared by sibling
    #: partitions: tasks never mutate their query.
    queries: Dict[Tuple[Tuple[str, ...], str], ast.Query] = {}

    def run(
        op: str,
        chain: Sequence[QueryFragment],
        label: str,
        node: str,
        part: Part,
        merged: Optional[ast.Query] = None,
    ) -> Part:
        """Run the fragments ``chain`` (``op`` ``query`` or ``partial``) on
        ``node`` as one query: ``merged`` (:func:`merge_views`), or the
        query of a lone fragment.

        A base chunk resident on ``node`` is read in place under its own
        name; any other input is registered under the namespaced input
        name the query is rebased onto.
        """
        fragment = chain[-1]
        if merged is None:
            merged = fragment.query
        in_base = chain[0].input_name
        in_name = in_base if part == (None, node) else ns(in_base)
        out_name = fragment.name if op == "query" else f"{fragment.name}__partial"
        names = tuple(link.name for link in chain)
        query = queries.get((names, in_name))
        if query is None:
            query = rebase_table_refs(merged, in_base, in_name)
            if query is merged and len(chain) > 1:
                # The merged query shares subtrees with the plan's.
                query = clone(merged)
            queries[names, in_name] = query
        return stage(
            op,
            label,
            node,
            [part],
            fragment=fragment,
            query=query,
            in_name=in_name,
            out_name=ns(out_name),
            display_name=label,
            composes=names if len(chain) > 1 else (),
        )

    def union(label: str, node: str, parts: Sequence[Part], name: str) -> Part:
        """Concatenate ``parts`` at ``node`` into the relation ``name``."""
        return stage(
            "union",
            f"merge[{label}]",
            node,
            parts,
            out_name=ns(name),
            display_name=name,
        )

    def aggregate(
        chain: Sequence[QueryFragment],
        merged: ast.Query,
        target: str,
        parts: Sequence[Part],
    ) -> Part:
        """Partial-aggregate every part where it lives, combine sibling
        states one tree level at a time, finalize at ``target``."""
        fragment = chain[-1]
        name = fragment.name
        states = [
            run(
                "partial", chain, f"{name}~partial[{node}]", node, (task_id, node), merged
            )
            for task_id, node in parts
        ]
        lifted = _lift_groups(topology, states)
        while lifted is not None:
            states = [
                stage(
                    "combine",
                    f"{name}~combine[{parent}]",
                    parent,
                    group,
                    fragment=fragment,
                    query=fragment.query,
                    out_name=ns(f"{name}__partial"),
                    display_name=f"{name}~partial",
                )
                for parent, group in lifted
            ]
            lifted = _lift_groups(topology, states)
        return stage(
            "finalize",
            f"{name}~finalize",
            target,
            states,
            fragment=fragment,
            query=fragment.query,
            out_name=ns(name),
            display_name=name,
        )

    #: The current intermediate relation, in partition order.
    partitions: List[Part] = [(None, holder) for holder in holders]
    #: In-place fragments not yet emitted, innermost first, and their merged
    #: query: they run inside the next task over every part of
    #: ``partitions`` — a leaf partial when one follows, else one ``query``
    #: task per part.
    chain: List[QueryFragment] = []
    chained: Optional[ast.Query] = None

    def extend_chain(
        fragment: QueryFragment,
    ) -> Tuple[List[Part], List[QueryFragment], ast.Query]:
        """The parts, chain and merged query ``fragment`` runs with: the
        pending chain plus ``fragment`` when :func:`merge_views` accepts
        it; otherwise the pending chain's output and ``fragment`` alone."""
        if chain:
            merged = merge_views(chained, chain[-1].name, fragment.query)
            if merged is not None:
                return partitions, chain + [fragment], merged
        return emit_chain(), [fragment], fragment.query

    def emit_chain() -> List[Part]:
        """``partitions`` after the pending chain runs as ``query`` tasks."""
        if not chain:
            return partitions
        name = chain[-1].name
        return [
            run("query", chain, f"{name}[{node}]", node, (task_id, node), chained)
            for task_id, node in partitions
        ]

    for index, fragment in enumerate(fragments):
        name, in_base = fragment.name, fragment.input_name
        target = fragment.assigned_node or topology.cloud.name
        if len(partitions) == 1:
            # Single stream: one hop to the fragment's assigned node.
            partitions = [run("query", [fragment], name, target, partitions[0])]
            continue
        resident = not chain and all(task_id is None for task_id, _ in partitions)
        if fragment.partitionable and (
            resident
            or (partial_aggregation and _next_blocker_decomposable(fragments, index))
        ):
            # In place: fan the fragment out over the leaf chunks, or keep
            # the partition at the leaves until the coming decomposable
            # aggregation shrinks it to group states.  It joins the pending
            # chain, so each part runs the chain as one query.
            partitions, chain, chained = extend_chain(fragment)
            continue
        if (
            partial_aggregation
            and fragment.decomposable
            and partial_aggregation_pays(
                network,
                [node for _, node in partitions],
                fragment,
                base_table,
                config,
            )
        ):
            parts, leaf_chain, leaf_query = extend_chain(fragment)
            partitions, chain = [aggregate(leaf_chain, leaf_query, target, parts)], []
            continue
        partitions, chain = emit_chain(), []
        lifted = _lift_groups(topology, partitions) if fragment.partitionable else None
        if lifted is not None:
            # Merge each sibling group at its parent, then apply the
            # fragment there: the partition narrows one tree level.
            partitions = [
                run(
                    "query",
                    [fragment],
                    f"{name}[{parent}]",
                    parent,
                    union(f"{in_base}@{parent}", parent, group, in_base),
                )
                for parent, group in lifted
            ]
            continue
        # The fragment needs the whole relation (or there is nowhere left
        # to lift): merge every part at its assigned node and chain on.
        merged = union(in_base, target, partitions, in_base)
        partitions = [run("query", [fragment], name, target, merged)]
    partitions = emit_chain()

    if len(partitions) > 1:
        # Every fragment was distributive: one final union before leaving.
        ancestor = topology.common_ancestor([node for _, node in partitions]).name
        final_name = fragments[-1].name
        partitions = [union(final_name, ancestor, partitions, final_name)]

    current = partitions[0]
    if anonymizer is not None:
        boundary = anonymization_node(topology, current[1], anonymizer)
        anonymize = add(
            AnonymizeTask,
            "anonymize",
            boundary,
            [current],
            in_name=ns(plan.result_name),
        )
        current = (anonymize.task_id, boundary)

    remainder_query = None
    if plan.remainder_query is not None:
        remainder_query = rebase_table_refs(
            plan.remainder_query,
            plan.remainder_input_alias,
            ns(plan.remainder_input_alias),
        )
    final = add(
        FinalizeTask,
        "finalize",
        topology.cloud.name,
        [current],
        result_name=ns(plan.result_name),
        remainder_query=remainder_query,
        remainder_input_alias=ns(plan.remainder_input_alias),
        remainder_description=plan.remainder_description,
    )

    _assign_signatures(tasks, network)
    return ExecutionDag(
        tasks=tasks, final_task_id=final.task_id, partition_width=len(holders)
    )


def _assign_signatures(tasks: Sequence[Task], network: NetworkSimulator) -> None:
    """Give every task its content signature (Merkle-style, leaves up).

    Tasks are in build order, so every dependency's signature exists by the
    time its dependents hash it.  A resident input (a base chunk) folds in
    the chunk's placement epoch instead: after a failure re-places a chunk,
    the tasks over the *moved* data — and everything downstream of them —
    get fresh signatures while untouched subtrees keep theirs, exactly the
    distinction checkpoint restoration needs.
    """
    by_id: Dict[str, str] = {}
    for task in tasks:
        fields = [task.kind, task.node]
        for attr in ("display_name", "out_name", "in_name", "result_name"):
            fields.append(str(getattr(task, attr, "")))
        for task_id, node in task.parts:
            if task_id is None:
                fields.append(f"{node}:epoch={network.data_epoch(node, task.base)}")
            else:
                fields.append(by_id[task_id])
        task.signature = hashlib.sha1("\x1f".join(fields).encode("utf-8")).hexdigest()
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

    The placement primitive shared by the DAG builder (which lifts the
    parts of a partition one level per plan stage) and the standing-query
    runtime (which computes the per-level combine placement of a maintained
    state tree once, at tree-creation time).

    Returns ``None`` when lifting is not possible or not useful: a partition
    node without a parent, a parent outside the apartment (data may not
    cross the boundary before anonymization), sibling groups that are not
    contiguous runs of the partition order (concatenating them would permute
    rows relative to the loaded relation), or a lift that would not reduce the
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
    topology: Topology, partitions: Sequence[Part]
) -> Optional[List[Tuple[str, List[Part]]]]:
    """Group partition parts by parent node (see :func:`lift_node_groups`)."""
    named = lift_node_groups(topology, [node for _, node in partitions])
    if named is None:
        return None
    parts = iter(partitions)
    return [
        (parent, [next(parts) for _ in children]) for parent, children in named
    ]
