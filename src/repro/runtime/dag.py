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

* **In place.** While every part is still a resident base chunk — one
  on the chain's sensor, one per leaf on a tree — a row-distributive
  fragment (``partitionable``) joins the pending in-place chain whenever
  :func:`merge_views` folds it into the fragments before it, and each
  part runs the chain as one query on the node that holds its chunk (the
  resident-partition rule of :mod:`repro.fragment.capabilities`).  Ahead
  of a decomposable aggregation a multi-part partition also stays in
  place when its parts are no longer resident, and the chain runs inside
  the leaf partial.  The fragment plan stays the paper's; only the DAG
  has fewer tasks.
* **Partial → combine → finalize.** A GROUP BY fragment whose aggregates
  all decompose (``QueryFragment.decomposable``) runs in *partial* mode on
  every part — a chain's lone resident chunk included — (emitting
  mergeable aggregate states, see
  :mod:`repro.engine.aggregates`); sibling states *combine* at their common
  parent one tree level at a time, and the fragment *finalizes* (HAVING,
  select items, ORDER BY) at its assigned node.  Only group states — a few
  rows per node — cross a hop.
* **Lift.** A row-distributive fragment that does not run in place —
  :func:`merge_views` refused it, so its input is no longer the resident
  chunks — lifts one tree level: the parts of each sibling group merge at
  their common parent, which applies the fragment to its group —
  appliances keep working on their own sensors' data, exactly the
  placement of Figure 3.
* **Merge at the assigned node.** A fragment that needs the whole relation
  (joins, set operations, windows, ordering, DISTINCT aggregates, MEDIAN,
  ...) merges every part at its assigned node and runs there; from there
  the plan chains serially.
* **Single hop.** A single part that does not run in place (the fragment
  is neither row-distributive nor a decomposable aggregation, or its input
  is no longer a resident chunk) moves to the fragment's assigned node,
  shipping it when it lives elsewhere.
* **Zone maps.** Wherever resident chunks run the in-place chain or a
  leaf partial, a chunk whose exact min/max refute a WHERE conjunct gets
  no task (:func:`~repro.engine.vectorized.zone_verdicts`,
  ``EngineConfig.zone_maps``); the first part stays when all are refuted.

Every stage is one :class:`~repro.runtime.tasks.StageTask`; anonymization
and the cloud remainder are the DAG's final tasks.  This module is plan
time only: what one run does with the tasks is in
:mod:`repro.runtime.tasks`, and what outlives a run (kept states, derived
queries, built DAGs: :func:`cached_execution_dag`) is in
:mod:`repro.runtime.memo`.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.anonymize.anonymizer import Anonymizer
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.executor import aggregate_calls, first_value_columns
from repro.engine.stats import optimizer_stats
from repro.engine.table import Relation
from repro.engine.vectorized import freeze_value, is_grouped, where_conjuncts, zone_verdicts
from repro.engine.wire import state_size_feedback
from repro.fragment.plan import FragmentPlan, QueryFragment
from repro.fragment.topology import Topology
from repro.runtime.memo import kept_dag, plan_memo
from repro.runtime.tasks import AnonymizeTask, FinalizeTask, Part, StageTask, Task
from repro.sql import ast
from repro.sql.render import render, render_expression
from repro.sql.visitor import clone, walk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> memo)
    from repro.processor.network import NetworkSimulator


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
    consulted: Optional[List[float]] = None,
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
    distinct aggregate call and per bare non-key column) times the
    observed packed bytes per state *cell* (fed back by
    :data:`repro.engine.wire.state_size_feedback` from previously shipped
    partial states) is compared against the chunk's raw
    ``estimated_bytes()``, so genuinely small states keep the partial path
    even at high shares.  Both modes decide *placement only* — results are
    identical either way.  The feedback reading is appended to
    ``consulted`` when one is given, so a kept DAG knows what it read.
    """
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
            # one state per distinct aggregate call and bare column) times
            # the observed packed bytes per state cell — per-cell feedback transfers
            # across query shapes where a per-row average would let wide states inflate
            # narrow ones.  Unlike the fixed-ratio rule, genuinely small
            # states (few aggregates over wide raw rows) keep the partial
            # path even at high shares.
            state_width = len(keys) + len(aggregate_calls(query) + first_value_columns(query))
            per_cell = state_size_feedback.bytes_per_cell()
            if consulted is not None:
                consulted.append(per_cell)
            est_state_bytes = groups * state_width * per_cell
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
    ``outer`` must read every listed column and nothing else (an ORDER BY
    column naming one of its outputs reads that output), and no item
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
        # An ORDER BY column naming an output of ``outer`` reads that
        # output, not an input column (``ORDER BY n`` over ``COUNT(*) AS
        # n``); one that also names an input column still counts, so the
        # shadowing check below refuses it.
        order_aliases = ast.order_by_aliases(outer)
        referenced = {
            column.name.lower()
            for column in outer_columns
            if id(column) not in order_aliases or column.name.lower() in provided
        }
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


@dataclass
class ExecutionDag:
    """A topologically buildable set of tasks plus its final task.

    Tasks hold no run state (outputs live in :class:`ExecutionContext`),
    so one DAG serves every run, and every concurrent session, of its
    plan while the inputs it was built from are unchanged
    (:func:`cached_execution_dag`).
    """

    tasks: List[Task]
    final_task_id: str
    #: Number of leaf partitions the bottom fragment fanned out over.
    partition_width: int
    #: The :data:`~repro.engine.wire.state_size_feedback` readings the
    #: placement consulted while building (see
    #: :func:`partial_aggregation_pays`); a later reading that differs
    #: could place differently.
    feedback: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self._by_id = {task.task_id: task for task in self.tasks}
        #: Resident partitions a zone map refuted, which got no task.
        self.pruned_partitions = sum(
            len(getattr(task, "pruned", ())) for task in self.tasks
        )

    def by_id(self) -> Dict[str, Task]:
        return self._by_id


def build_execution_dag(
    plan: FragmentPlan,
    topology: Topology,
    network: NetworkSimulator,
    anonymizer: Optional[Anonymizer] = None,
    partial_aggregation: bool = True,
    config: EngineConfig = DEFAULT_CONFIG,
) -> ExecutionDag:
    """Build the execution DAG for ``plan`` over ``topology``.

    A task reads its inputs from the run, bound under the plan's own
    names (``d1``, ``d2``, ...) for its one engine call, so every run and
    every concurrent caller shares one DAG and nothing it builds is
    registered on a node.

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

    def derive(key: Tuple, make) -> Tuple:
        """One derived query and SQL text per fragment chain, shared by
        sibling partitions and by every build of the plan: tasks never
        mutate their query."""
        return plan_memo(plan, key, make)

    #: The state-size feedback readings placement consulted.
    consulted: List[float] = []

    def fragment_sql(fragment: QueryFragment) -> str:
        return derive(("sql", fragment.name), lambda: (fragment.sql,))[0]

    def run(
        op: str,
        chain: Sequence[QueryFragment],
        label: str,
        node: str,
        part: Part,
        merged: Optional[ast.Query] = None,
        display_name: Optional[str] = None,
        proves: Tuple[str, ...] = (),
        pruned: Tuple[Tuple[str, str], ...] = (),
    ) -> Part:
        """Run the fragments ``chain`` (``op`` ``query`` or ``partial``) on
        ``node`` as one query: ``merged`` (:func:`merge_views`), or the
        query of a lone fragment.

        A base chunk resident on ``node`` is read in place under its own
        name; any other input is bound under the chain's input name.  The
        output relation is named ``display_name`` (default ``label``);
        ``proves`` and ``pruned`` are the zone map verdicts :func:`judge`
        recorded.
        """
        fragment = chain[-1]
        if merged is None:
            merged = fragment.query
        names = tuple(link.name for link in chain)
        composes = names if len(chain) > 1 else ()

        def make() -> Tuple[ast.Query, str]:
            if not composes:
                return merged, fragment_sql(fragment)
            # The merged query shares subtrees with the plan's.
            query = clone(merged)
            return query, render(query)

        query, sql = derive(("query", names), make)
        return stage(
            op,
            label,
            node,
            [part],
            fragment=fragment,
            query=query,
            in_name=chain[0].input_name,
            display_name=display_name or label,
            composes=composes,
            sql=sql,
            proves=proves,
            pruned=pruned,
        )

    def union(label: str, node: str, parts: Sequence[Part], name: str) -> Part:
        """Concatenate ``parts`` at ``node`` into the relation ``name``."""
        return stage(
            "union",
            f"merge[{label}]",
            node,
            parts,
            display_name=name,
        )

    def judge(
        op: str, chain: Sequence[QueryFragment], query: ast.Query, parts: Sequence[Part]
    ) -> Tuple[List[Tuple[Part, Tuple[str, ...]]], Tuple[Tuple[str, str], ...]]:
        """The parts that still run ``query`` (``op``), each with the
        conjuncts its zone map proves, and the ``(node, conjunct)`` of
        each part pruned.

        Every resident chunk is judged by the engine's zone map rule
        (:func:`~repro.engine.vectorized.zone_verdicts`): a refuted chunk
        yields no row and raises nothing, so it gets no task.  The chunks
        are long-lived, so their stats are built here; the conjuncts are
        planned once per derived query.  The first part stays when every
        part is refuted, so an empty result keeps its typing.
        """
        zone = None
        if config.zone_maps:
            names = tuple(link.name for link in chain)
            [zone] = derive(("zone", op, names), lambda: (_zone_plan(op, query, base_table),))
        if zone is None:
            return [(part, ()) for part in parts], ()
        predicates, texts = zone
        kept: List[Tuple[Part, Tuple[str, ...]]] = []
        pruned: List[Tuple[str, str]] = []
        for part in parts:
            chunk = _resident_chunk(network, part, base_table)
            if chunk is None:
                kept.append((part, ()))
                continue
            proven, refuted = zone_verdicts(predicates, chunk, chunk.stats().column)
            if refuted is not None:
                pruned.append((part[1], texts[refuted]))
            else:
                kept.append((part, tuple(texts[i] for i in proven)))
        if not kept:
            kept.append((parts[0], ()))
            pruned.pop(0)
        return kept, tuple(pruned)

    def run_parts(
        op: str,
        chain: Sequence[QueryFragment],
        label: str,
        query: ast.Query,
        parts: Sequence[Part],
    ) -> List[Part]:
        """Run ``chain`` (``op``) on every part the zone maps leave, where
        it lives.  A lone ``query`` survivor of several parts takes the
        name the union of their outputs would have had."""
        kept, pruned = judge(op, chain, query, parts)
        lone = chain[-1].name if op == "query" and len(kept) == 1 < len(parts) else None
        return [
            run(
                op,
                chain,
                f"{label}[{part[1]}]",
                part[1],
                part,
                query,
                display_name=lone,
                proves=proves,
                pruned=() if position else pruned,
            )
            for position, (part, proves) in enumerate(kept)
        ]

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
        states = run_parts("partial", chain, f"{name}~partial", merged, parts)
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
            display_name=name,
            sql=fragment_sql(fragment),
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
        return run_parts("query", chain, chain[-1].name, chained, partitions)

    for index, fragment in enumerate(fragments):
        name, in_base = fragment.name, fragment.input_name
        target = fragment.assigned_node or topology.cloud.name
        resident = all(task_id is None for task_id, _ in partitions)
        ahead = (
            partial_aggregation
            and len(partitions) > 1
            and _next_blocker_decomposable(fragments, index)
        )
        if fragment.partitionable and (resident or ahead):
            merged = (
                merge_views(chained, chain[-1].name, fragment.query)
                if chain
                else fragment.query
            )
            if merged is not None:
                # In place: the fragment joins the pending chain, so each
                # part runs the chain as one query — over the base chunk
                # its node holds, or ahead of a decomposable aggregation
                # that shrinks the partition to group states.
                chain, chained = chain + [fragment], merged
                continue
            if ahead:
                partitions, chain, chained = emit_chain(), [fragment], fragment.query
                continue
        if (
            partial_aggregation
            and fragment.decomposable
            and (resident or len(partitions) > 1)
            and partial_aggregation_pays(
                network,
                # Only resident chunks are observed: a task output's node
                # may hold a base chunk, but that is not the output's data.
                [node for task_id, node in partitions if task_id is None],
                fragment,
                base_table,
                config,
                consulted,
            )
        ):
            # A lone resident chunk aggregates where it lives too: only
            # its group states take the hop.
            parts, leaf_chain, leaf_query = extend_chain(fragment)
            partitions, chain = [aggregate(leaf_chain, leaf_query, target, parts)], []
            continue
        if len(partitions) == 1:
            # Single stream: one hop to the fragment's assigned node.
            [part] = emit_chain()
            partitions, chain = [run("query", [fragment], name, target, part)], []
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
    boundary = None
    if anonymizer is not None:
        boundary = anonymization_node(topology, current[1], anonymizer)
    if boundary is not None and plan.remainder_query is None:
        anonymize = add(
            AnonymizeTask,
            "anonymize",
            boundary,
            [current],
            in_name=plan.result_name,
        )
        current = (anonymize.task_id, boundary)

    final = add(
        FinalizeTask,
        "finalize",
        topology.cloud.name,
        [current],
        result_name=plan.result_name,
        remainder_query=plan.remainder_query,
        remainder_input_alias=plan.remainder_input_alias,
        remainder_description=plan.remainder_description,
    )
    if boundary is not None and plan.remainder_query is not None:
        # The no-pushdown baseline ships the raw rows and runs the whole
        # query at the cloud, so step A protects the result it releases,
        # applied as the in-apartment node that would have run it decides.
        final = add(
            AnonymizeTask,
            "anonymize",
            final.node,
            [(final.task_id, final.node)],
            in_name=plan.result_name,
            power_node=boundary,
        )

    _assign_signatures(tasks, network)
    return ExecutionDag(
        tasks=tasks,
        final_task_id=final.task_id,
        partition_width=len(holders),
        feedback=tuple(consulted),
    )


def cached_execution_dag(
    plan: FragmentPlan,
    topology: Topology,
    network: NetworkSimulator,
    anonymizer: Optional[Anonymizer] = None,
    partial_aggregation: bool = True,
    config: EngineConfig = DEFAULT_CONFIG,
) -> Tuple[ExecutionDag, bool]:
    """:func:`build_execution_dag`'s DAG for these arguments, built once
    per data version; returns it and whether it was kept.

    ``plan``'s memo keeps one DAG per (topology, config, step A,
    ``partial_aggregation``), reused while the base table's
    placement and the state-size feedback it consulted are unchanged
    (:func:`~repro.runtime.memo.kept_dag`); a run that finds one changed
    builds again and replaces it.  Callers pass the same topology object
    for the same live view, since a topology is keyed by identity.  Plans
    that share a memo (a plan and its re-mappings, :func:`replan_without`)
    keep one DAG per topology: the last one built.
    """
    if not plan.fragments:
        return build_execution_dag(plan, topology, network), False
    key = (
        "dag",
        id(topology),
        config,
        anonymizer,
        anonymizer.minimum_cpu_power if anonymizer is not None else None,
        partial_aggregation,
    )
    return kept_dag(
        plan,
        key,
        topology,
        # Read before building: a write racing the build only costs a rebuild.
        network.placement(plan.fragments[0].input_name),
        lambda: build_execution_dag(
            plan, topology, network, anonymizer, partial_aggregation, config
        ),
    )


def _zone_plan(
    op: str, query: ast.Query, base: str
) -> Optional[Tuple[List, List[str]]]:
    """The WHERE conjuncts a resident chunk of ``base`` is judged by when it
    runs ``query`` (``op``), with their SQL text; None when a refuted chunk
    could still contribute output: a query reading anything but ``base``
    itself, or a global aggregate run as a ``query`` (one row even over
    no rows).  A leaf ``partial``'s global group over no rows is an
    empty state, which merges as nothing.
    """
    if (
        not isinstance(query, ast.SelectQuery)
        or not isinstance(query.from_clause, ast.TableRef)
        or query.from_clause.name.lower() != base.lower()
        or (op == "query" and is_grouped(query) and not query.group_by)
    ):
        return None
    predicates = where_conjuncts(query)
    if not any(getattr(predicate, "ranges", ()) for predicate in predicates):
        return None
    return predicates, [
        render_expression(term) for term in ast.conjunction_terms(query.where)
    ]


def _resident_chunk(network: NetworkSimulator, part: Part, base: str) -> Optional[Relation]:
    """The base chunk ``part`` reads in place, or None for a task output."""
    task_id, node = part
    if task_id is not None:
        return None
    database = network.database(node)
    return database.table(base) if base in database else None


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
        for attr in ("display_name", "in_name", "result_name"):
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
    the order nodes died in.  The re-mapped plan shares ``plan.derived``:
    a derived query depends on fragment queries and input names, never on
    placement, so the re-plan's leaves find the states their chunks keep.
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
    remapped = dataclasses.replace(plan, fragments=fragments)
    remapped.derived = plan.derived
    return remapped, pruned


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

    The DAG builder's placement primitive: it lifts the parts of a
    partition one level per plan stage (:func:`_lift_groups`).

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
