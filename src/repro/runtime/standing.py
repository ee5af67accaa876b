"""Incremental standing queries: aggregate state trees over kept leaf states.

The ROADMAP's north star is heavy continuous traffic against one smart
environment, yet re-executing every registered query from scratch on each
arriving sensor chunk makes the per-query cost O(all data ever loaded).
This module turns PR 3's mergeable partial-state protocol
(``partial()``/``merge()``/``finalize()`` — an *exact* delta algebra, see
:mod:`repro.engine.aggregates`) into the refresh path:

* Sessions **register** standing decomposable GROUP BY/aggregate queries
  (the same admissibility rule as the distributed pushdown,
  :func:`repro.engine.executor.decomposition_error`, optionally after
  the paper's admission + privacy rewriting).
* Each distinct core query (keys, aggregate calls, bare columns) is a
  **state tree** over the partitioned table, but the tree keeps no state
  of its own: every sensor chunk keeps its packed leaf states
  (:meth:`~repro.engine.table.Relation.kept_states`), the same store the
  DAG's leaf partials use.
* On each arriving chunk the runtime appends it at the **end** of the
  owning leaf's partition (``NetworkSimulator.append_to_partition``): the
  grown chunk keeps its states, and the table's placement changes.  Nothing
  else runs: a write runs no partial, merge or tail, whatever the
  subscriber count.
* A subscriber's result is finalized when it is read (lazy view
  maintenance): the first read of a tree after a change takes each
  holder's leaf state from its chunk through
  :func:`~repro.runtime.memo.leaf_state` — a hit, a fold of the rows
  appended since (O(delta x groups)), or a full partial — unions the
  states in partition order and merges them **once per tree** at the
  cloud; each read handle runs its HAVING / select-item / ORDER BY tail
  over those shared groups at most once per change.

Why the results are *byte-identical* to from-scratch re-execution: group
output order is first-occurrence order over the input, deltas append at the
end of a leaf chunk, and :func:`~repro.runtime.memo.fold_state` feeds the
merge the kept state first — so the merged group order (and every MIN/MAX
tie, which keeps the first-seen value) equals a single pass over the full
chunk.  Leaf states union in partition order, which is the loaded
relation's row order.  The accumulators themselves are exact (float sums
as one scaled integer, exact int sums, Fraction moments), so there is no
drift for the differential tests to forgive.

Cross-session sharing: queries over the same table, WHERE clause and group
keys whose aggregate calls are a subset of an existing tree's attach to
that tree as additional *subscribers* — per-query finalize tails (HAVING /
ORDER BY / projection) over one maintained state stream.  A tail reads
group keys by name and finalized aggregates by render key, so permuted
keys and subset or permuted aggregate calls need no state remapping.
Every attach is
gated by :func:`repro.rewrite.containment.check_leakage`: the subscriber
must be answerable from the tree's core view, the same containment
reasoning the privacy layer uses for d'.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.executor import aggregate_calls, decomposition_error, first_value_columns
from repro.engine.vectorized import FinalizedGroups
from repro.engine.schema import Schema
from repro.engine.table import Relation, union_partials
from repro.engine.wire import PackedRelation
from repro.obs.metrics import registry as _metrics
from repro.obs.trace import QueryTrace, Span
from repro.rewrite.containment import check_leakage
from repro.runtime.memo import leaf_state, leaf_state_bytes, note_placement, same_placement
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.render import render, render_expression
from repro.sql.visitor import clone, transform

if False:  # pragma: no cover - import cycle guard (typing only)
    from repro.processor.paradise import ParadiseProcessor

__all__ = [
    "StandingQueryError",
    "StandingQueryHandle",
    "StandingQueryRuntime",
]

#: The name a tree's leaf states carry, part of their kept-state key.
LEAF_NAME = ""


class StandingQueryError(ExecutionError):
    """A query that cannot be registered as a standing query."""


def _core_query(
    sample: ast.SelectQuery, calls: Sequence[ast.FunctionCall], firsts: Sequence[str]
) -> ast.SelectQuery:
    """The tree's maintained view: keys, aggregate calls and bare non-key
    columns, no finalize tail.

    ``SELECT k1..kn, agg1 AS __agg0, ..., c1, ... FROM t WHERE ... GROUP BY
    k1..kn`` — the query partial/combine run against.  Each aggregate item
    is aliased to its state-column name, and each bare column ``c`` (a
    first-value state) is exposed under its own name, so the view the
    containment checker sees exposes what the finalized groups carry.
    HAVING / ORDER BY / projection stay per subscriber (they only touch
    finalized values).
    """
    core = clone(sample)
    core.items = (
        [ast.SelectItem(expression=clone(key)) for key in sample.group_by]
        + [
            ast.SelectItem(expression=clone(call), alias=f"__agg{index}")
            for index, call in enumerate(calls)
        ]
        + [ast.SelectItem(expression=ast.Column(name=name)) for name in firsts]
    )
    core.having = None
    core.order_by = []
    return core


def _view_image(
    query: ast.SelectQuery, alias_by_key: Mapping[str, str], firsts: Sequence[str]
) -> ast.SelectQuery:
    """Rewrite ``query`` as it would read against the tree's core view.

    Every aggregate call becomes a reference to the view's aliased output
    column (``AVG(z)`` -> ``__agg1``), leaving only group keys and view
    columns — the form :func:`check_leakage` can reason about: a query is
    answerable from d' exactly when everything it needs survives in d'.
    A bare column in ``firsts`` reads the first value the tree keeps for
    it, which the checker's grouped view cannot express, so it becomes a
    constant; the caller checks that the tree carries it.
    """

    def visitor(node: ast.Node) -> Optional[ast.Node]:
        if (
            isinstance(node, ast.FunctionCall)
            and node.window is None
            and ast.is_aggregate_function(node.name)
        ):
            alias = alias_by_key.get(render_expression(node))
            if alias is not None:
                return ast.Column(name=alias)
        return None

    def first_value(node: ast.Node) -> Optional[ast.Node]:
        if isinstance(node, ast.Column) and node.name.lower() in firsts:
            return ast.Literal(value=None)
        return None

    # Aggregate arguments are gone before bare columns are replaced.
    image = transform(transform(clone(query), visitor), first_value)
    # The sharing signature already guarantees the subscriber's WHERE
    # renders identically to the view's, i.e. the view has applied exactly
    # this filter; a query rewritten against d' would not repeat it.  Kept,
    # its raw columns (which the grouped view cannot expose) would fail the
    # attribute check for the wrong reason.
    image.where = None
    # A decomposable ORDER BY reads group keys, aggregate calls (the
    # subset check covers them) and select items by output name, none of
    # which needs an attribute the image's items do not; an output name
    # would read as a missing view column.
    image.order_by = []
    return image


class StandingQueryHandle:
    """One registered standing query (a subscriber of a state tree)."""

    def __init__(
        self,
        query_id: str,
        query: ast.SelectQuery,
        sql: str,
        tree: "_StateTree",
    ) -> None:
        self.query_id = query_id
        self.query = query
        self.sql = sql
        self.tree = tree
        self._result: Optional[Relation] = None
        #: The tree's groups ``_result`` was finalized from.
        self._groups: Optional[FinalizedGroups] = None

    @property
    def epoch(self) -> int:
        """The refresh epoch :meth:`result` answers for: the latest one."""
        return self.tree.runtime.refresh_epoch

    @property
    def shared(self) -> bool:
        """True when this handle shares its state tree with other queries."""
        return len(self.tree.subscribers) > 1

    def result(self) -> Relation:
        """The result at the latest refresh epoch.

        Finalized on the first read after the table's chunks changed
        (:meth:`_StateTree.current`) and cached until they change again,
        under the runtime's lock, so a read never sees a half-applied
        delta.  A leaf state or a tail that raises raises here, on every
        read of this handle, and leaves appends and the other trees alone.
        """
        runtime = self.tree.runtime
        with runtime._lock:
            if not self.tree.current(self._groups):
                runtime._finalize(self)
            return self._result


class _StateTree:
    """The subscribers of one core query and the groups it last merged.

    The tree keeps no state of its own: a read takes each holder's leaf
    state from the states its chunk keeps (:func:`leaf_state`).
    """

    def __init__(
        self,
        runtime: "StandingQueryRuntime",
        tree_id: int,
        table: str,
        core: ast.SelectQuery,
        agg_keys: List[str],
    ) -> None:
        self.runtime = runtime
        self.tree_id = tree_id
        self.table = table
        self.core = core
        #: Ordered render keys of the core's aggregate calls: ``agg_keys[i]``
        #: is the call whose state lives in core state column ``__agg{i}``.
        self.agg_keys = agg_keys
        #: The bare non-key columns whose first values the tree carries.
        self.first_names = first_value_columns(core)
        self.subscribers: List[StandingQueryHandle] = []
        #: Per holder, the kept bytes of its last leaf state and their
        #: decode, so a hit on the same bytes decodes nothing.
        self._leaves: Dict[str, Tuple[Optional[PackedRelation], Relation]] = {}
        #: The merged, finalized groups every subscriber's tail reads, and
        #: the placement they were merged over (:func:`note_placement`).
        self._groups: Optional[FinalizedGroups] = None
        self._placement: Tuple[tuple, ...] = ()

    def _engine(
        self,
        database: Database,
        op: str,
        state: Optional[Relation],
        inputs: Optional[Mapping[str, Relation]],
    ) -> Tuple[Relation, float]:
        config = self.runtime.engine
        if op == "partial":
            return database.partial_aggregate(self.core, config, inputs), 0.0
        return database.combine_partials(self.core, state, config), 0.0

    def current(self, groups: Optional[FinalizedGroups]) -> bool:
        """True when ``groups`` are this tree's, merged over the chunks the
        table still has (:func:`same_placement`)."""
        return (
            groups is not None
            and groups is self._groups
            and same_placement(self._placement, self.runtime.network.placement(self.table))
        )

    def groups(self, span: Optional[Span] = None) -> FinalizedGroups:
        """The merged groups over every holder's chunk, aggregates
        finalized; rebuilt at most once per change of the table's chunks.

        Each holder's leaf state is a hit, a fold of the rows appended
        since or a full partial (:func:`leaf_state`).  The states union in
        partition order and merge once at the cloud, under the core query,
        whose aggregate calls cover every subscriber's.  ``span`` (a
        traced read's finalize span) parents the merge span, which counts
        the three outcomes.
        """
        runtime = self.runtime
        network = runtime.network
        # Read first: a change after it only makes the next read recompute.
        placement = network.placement(self.table)
        if self._groups is not None and same_placement(self._placement, placement):
            return self._groups
        with runtime._stage(span, "merge", self) as merge:
            config = runtime.engine
            outcomes = {"hit": 0, "fold": 0, "miss": 0}
            leaves = {}
            for holder, chunk, *_ in placement:
                if chunk is None:
                    continue  # a holder the table never landed on
                known = self._leaves.get(holder)
                state, packed, _, outcome = leaf_state(
                    self.table,
                    chunk,
                    self.core,
                    LEAF_NAME,
                    config,
                    functools.partial(self._engine, network.database(holder)),
                    known,
                )
                if outcome == "hit":
                    if known is not None and known[0] is packed:
                        state = known[1]
                    else:
                        state = packed.unpack()
                leaves[holder] = (packed, state)
                outcomes[outcome] += 1
            self._leaves = leaves
            if leaves:
                root = union_partials([state for _, state in leaves.values()], name="")
            else:
                # Every chunk is lost: the state of no rows, typed as
                # re-execution over the empty table types it.
                root = self._cloud().partial_aggregate(
                    self.core, config, {self.table: union_partials([], name=self.table)}
                )
            self._groups = self._cloud().finalize_groups(self.core, root, config)
            self._placement = note_placement(placement)
            if merge is not None:
                merge.attrs.update(
                    hits=outcomes["hit"], folds=outcomes["fold"], misses=outcomes["miss"]
                )
        return self._groups

    def finalize(
        self, handle: StandingQueryHandle, span: Optional[Span] = None
    ) -> Relation:
        """Run the subscriber's finalize tail over the shared groups."""
        groups = self.groups(span)
        with self.runtime._stage(span, "tail", self):
            return self._cloud().finalize_tail(handle.query, groups, self.runtime.engine)

    def _cloud(self) -> Database:
        return self.runtime.network.database(self.runtime.topology.cloud.name)

    def state_bytes(self) -> int:
        """Payload bytes of the leaf states the table's chunks keep for
        the core (already packed: nothing is encoded to count them)."""
        return leaf_state_bytes(
            self.runtime.network, self.table, self.core, LEAF_NAME, self.runtime.engine
        )


def _state_bytes_probe(
    runtime: "weakref.ReferenceType[StandingQueryRuntime]",
) -> Callable[[], int]:
    """A probe reading ``runtime``'s state bytes, 0 once it is gone; it
    holds the runtime weakly, so the process-wide registry keeps no
    network alive."""

    def probe() -> int:
        live = runtime()
        return 0 if live is None else live.state_bytes()

    return probe


class StandingQueryRuntime:
    """Registers standing queries and maintains their shared state trees.

    One runtime per shared :class:`~repro.processor.paradise.ParadiseProcessor`
    (one topology + network).  All ingestion goes through :meth:`append`
    (or a stream bound via :meth:`bind_stream`); a single lock serializes
    appends and the finalizes of reads, so concurrent producers interleave
    at chunk granularity — each read observes a consistent prefix and the
    differential oracle holds at every epoch.
    """

    def __init__(
        self,
        processor: "ParadiseProcessor",
        table_name: str = "d",
        trace: Optional[QueryTrace] = None,
    ) -> None:
        self.processor = processor
        self.network = processor.network
        self.topology = processor.topology
        self.default_table = table_name
        self.trace = trace
        self._lock = threading.RLock()
        self._trees: Dict[Tuple[str, str, frozenset], List[_StateTree]] = {}
        self._handles: Dict[str, StandingQueryHandle] = {}
        self._epoch = 0
        self._next_tree_id = 0
        self._next_query_id = 0
        self._last_refresh_span_id: Optional[int] = None
        #: ``standing.state_bytes`` while this runtime is the last to
        #: register or refresh, read at snapshot time.
        self._state_bytes_probe = _state_bytes_probe(weakref.ref(self))

    @property
    def engine(self) -> EngineConfig:
        """The processor's engine config; every tree operation runs under it."""
        return self.processor.engine

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @property
    def refresh_epoch(self) -> int:
        """Number of ingested deltas (each one refresh epoch)."""
        with self._lock:
            return self._epoch

    @property
    def tree_count(self) -> int:
        with self._lock:
            return sum(len(trees) for trees in self._trees.values())

    def handles(self) -> List[StandingQueryHandle]:
        with self._lock:
            return list(self._handles.values())

    def _signature(
        self, query: ast.SelectQuery
    ) -> Tuple[str, str, frozenset]:
        table = query.from_clause.name.lower()
        where = render_expression(query.where) if query.where is not None else ""
        keys = frozenset(column.name.lower() for column in query.group_by)
        return (table, where, keys)

    def register(
        self,
        query: Union[str, ast.Query],
        module_id: str = "ActionFilter",
        apply_rewriting: bool = False,
    ) -> StandingQueryHandle:
        """Register a standing query; returns its live handle.

        ``apply_rewriting=True`` routes the query through the processor's
        :meth:`~repro.processor.paradise.ParadiseProcessor.prepare` —
        the paper's admission check and privacy rewriting, the same gate
        interactive queries pass — so a standing subscription can never
        see more than a one-shot query could.  Registering is a submission:
        it counts against the module's query interval like ``process``.
        The (possibly rewritten) query must be a decomposable aggregation —
        the same class the distributed GROUP BY pushdown handles.
        """
        parsed = parse(query) if isinstance(query, str) else clone(query)
        if apply_rewriting:
            prepared = self.processor._prepare(
                parsed, module_id, apply_rewriting=True, submit=True
            )
            if prepared.admission is not None and not prepared.admission.admitted:
                raise StandingQueryError(
                    f"Standing query refused by admission: {prepared.admission.explain()}"
                )
            if not prepared.admitted:
                raise StandingQueryError("Standing query rewriting found no compliant form")
            parsed = prepared.query
        error = decomposition_error(parsed)
        if error is not None:
            raise StandingQueryError(
                f"Standing queries must be decomposable aggregations: {error}"
            )
        sub_keys = [key for key, _ in aggregate_calls(parsed)]
        signature = self._signature(parsed)
        with self._lock:
            tree, shared = self._attach_tree(parsed, signature, sub_keys)
            handle = StandingQueryHandle(
                query_id=f"q{self._next_query_id}",
                query=parsed,
                sql=render(parsed),
                tree=tree,
            )
            tree.subscribers.append(handle)
            try:
                # A tail that cannot run over the current groups refuses
                # the registration here rather than failing a later read.
                handle._result = tree.finalize(handle)
            except BaseException:
                self._detach(handle, signature)
                raise
            handle._groups = tree._groups
            self._next_query_id += 1
            self._handles[handle.query_id] = handle
            _metrics.counter("standing.registered").inc()
            if shared:
                _metrics.counter("standing.shared_attach").inc()
            _metrics.gauge("standing.trees").set(self.tree_count)
            _metrics.gauge("standing.subscribers").set(len(self._handles))
            self._report_state_bytes()
            return handle

    def _detach(
        self, handle: StandingQueryHandle, signature: Tuple[str, str, frozenset]
    ) -> None:
        """Undo a registration that failed: the handle leaves its tree, and
        a tree left without subscribers is no longer maintained."""
        tree = handle.tree
        tree.subscribers.remove(handle)
        if tree.subscribers:
            return
        trees = self._trees[signature]
        trees.remove(tree)
        if not trees:
            del self._trees[signature]

    def _attach_tree(
        self,
        parsed: ast.SelectQuery,
        signature: Tuple[str, str, frozenset],
        sub_keys: List[str],
    ) -> Tuple[_StateTree, bool]:
        """Find a compatible existing tree or materialize a new one.

        Compatible: same table/WHERE/group keys, the subscriber's aggregate
        calls and bare non-key columns subsets of the tree's, and the
        subscriber answerable from the tree's core view per the containment
        checker (the same reasoning that decides whether d' leaks).
        """
        firsts = first_value_columns(parsed)
        for tree in self._trees.get(signature, []):
            if all(key in tree.agg_keys for key in sub_keys) and set(firsts) <= set(
                tree.first_names
            ):
                alias_by_key = {
                    key: f"__agg{index}"
                    for index, key in enumerate(tree.agg_keys)
                }
                image = _view_image(parsed, alias_by_key, firsts)
                # The view copy drops its WHERE for the same reason the
                # image does (see _view_image): the signature guarantees
                # both filters render identically, so predicate containment
                # holds by construction and the check focuses on whether
                # every needed attribute survives grouping.
                view = clone(tree.core)
                view.where = None
                if check_leakage(view, image).answerable:
                    return tree, True
        calls = [call for _, call in aggregate_calls(parsed)]
        core = _core_query(parsed, calls, firsts)
        tree = _StateTree(
            runtime=self,
            tree_id=self._next_tree_id,
            table=parsed.from_clause.name,
            core=core,
            agg_keys=sub_keys,
        )
        self._next_tree_id += 1
        self._trees.setdefault(signature, []).append(tree)
        return tree, False

    # ------------------------------------------------------------------
    # ingestion + refresh
    # ------------------------------------------------------------------
    def _as_relation(
        self,
        node_name: str,
        table: str,
        delta: Union[Relation, Sequence[Mapping[str, Any]]],
    ) -> Relation:
        if isinstance(delta, Relation):
            return delta
        database = self.network.database(node_name)
        if table in database:
            schema = database.table(table).schema
        else:
            schema = Schema.infer(list(delta))
        from repro.streams.stream import readings_to_relation

        return readings_to_relation(schema, list(delta), name=table)

    def append(
        self,
        node_name: str,
        delta: Union[Relation, Sequence[Mapping[str, Any]]],
        table_name: Optional[str] = None,
    ) -> int:
        """Ingest one delta chunk at ``node_name``.

        The delta lands at the end of the node's partition chunk (keeping
        the concatenated stream identical to a from-scratch load), which
        keeps its leaf states, and changes the table's placement.  Nothing is
        computed here: each handle finalizes when it is next read
        (:meth:`StandingQueryHandle.result`), and its tree folds the
        appended rows then.  Returns the new refresh epoch.
        """
        table = table_name or self.default_table
        with self._lock:
            relation = self._as_relation(node_name, table, delta)
            self._epoch += 1
            epoch = self._epoch
            span = None
            if self.trace is not None:
                span = self.trace.begin(
                    f"refresh[epoch={epoch}]",
                    kind="standing",
                    node=node_name,
                    epoch=epoch,
                    delta_rows=len(relation),
                )
                if self._last_refresh_span_id is not None:
                    span.attrs["previous_epoch_span"] = self._last_refresh_span_id
            started = time.perf_counter()
            try:
                self.network.append_to_partition(node_name, table, relation)
                _metrics.counter("standing.refreshes").inc()
                _metrics.counter("standing.delta_rows").inc(len(relation))
                _metrics.histogram("standing.refresh_seconds").observe(
                    time.perf_counter() - started
                )
                self._report_state_bytes()
            except BaseException:
                if span is not None:
                    self.trace.finish(span, status="error")
                raise
            if span is not None:
                self._last_refresh_span_id = span.span_id
                self.trace.finish(span)
            return epoch

    def _finalize(self, handle: StandingQueryHandle) -> None:
        """Finalize ``handle`` at the current epoch, on its first read
        since the table changed.  The caller holds the lock."""
        started = time.perf_counter()
        if self.trace is None:
            handle._result = handle.tree.finalize(handle)
        else:
            with self.trace.span(
                f"finalize[query={handle.query_id}]",
                kind="standing_read",
                node=self.topology.cloud.name,
                epoch=self._epoch,
                query=handle.query_id,
                tree=handle.tree.tree_id,
            ) as span:
                handle._result = handle.tree.finalize(handle, span)
        handle._groups = handle.tree._groups
        _metrics.counter("standing.subscriber_refreshes").inc()
        _metrics.histogram("standing.finalize_seconds").observe(
            time.perf_counter() - started
        )

    def _stage(
        self, parent: Optional[Span], stage: str, tree: _StateTree
    ) -> ContextManager[Optional[Span]]:
        """A ``stage[tree=N]`` child span of a read's finalize span
        ``parent`` (when tracing): ``merge`` (the tree's leaf states and
        shared merge, when this read builds them) or ``tail`` (the
        handle's HAVING/items/ORDER BY).
        """
        if parent is None or self.trace is None:
            return nullcontext()
        return self.trace.span(
            f"{stage}[tree={tree.tree_id}]",
            kind="standing_stage",
            node=self.topology.cloud.name,
            parent=parent,
            stage=stage,
            tree=tree.tree_id,
        )

    def state_bytes(self) -> int:
        """Payload bytes of every tree's kept leaf states."""
        with self._lock:
            return sum(tree.state_bytes() for tree in self._trees_for_all())

    def _report_state_bytes(self) -> None:
        """Make this runtime the one ``standing.state_bytes`` reports on."""
        _metrics.probe("standing.state_bytes", self._state_bytes_probe)

    def _trees_for_all(self) -> List[_StateTree]:
        return [tree for trees in self._trees.values() for tree in trees]

    # ------------------------------------------------------------------
    # stream binding
    # ------------------------------------------------------------------
    def bind_stream(
        self, stream: Any, node_name: str, table_name: Optional[str] = None
    ) -> Any:
        """Subscribe to a :class:`~repro.streams.stream.SensorStream`.

        Every batch pushed to the stream becomes one delta chunk appended
        at ``node_name``.  Returns the listener (pass it to
        ``stream.unsubscribe`` to detach).
        """
        table = table_name or self.default_table

        def _on_push(readings: List[Mapping[str, Any]]) -> None:
            self.append(node_name, readings, table_name=table)

        stream.subscribe(_on_push)
        return _on_push

    # ------------------------------------------------------------------
    # differential oracle
    # ------------------------------------------------------------------
    def reexecute(self, handle: StandingQueryHandle) -> Relation:
        """From-scratch execution of ``handle`` over the *current* data.

        The differential oracle: concatenates the partition chunks in
        partition order (exactly the relation a fresh ``load_sensor_data``
        of the same stream would have produced), registers it on a scratch
        database, and runs the standing query end to end under the same
        engine config.  Every refresh result must be byte-identical to this.
        """
        table = handle.tree.table
        chunks = []
        for holder in self.network.partition_holders(table):
            database = self.network.database(holder)
            if table in database:
                chunks.append(database.table(table))
        full = union_partials(chunks, name=table)
        scratch = Database(name="standing-oracle")
        scratch.register(table, full)
        with self._lock:
            return scratch.query(handle.query, self.engine)
