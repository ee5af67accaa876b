"""Incremental standing queries: delta-maintained aggregate state trees.

The ROADMAP's north star is heavy continuous traffic against one smart
environment, yet re-executing every registered query from scratch on each
arriving sensor chunk makes the per-query cost O(all data ever loaded).
This module turns PR 3's mergeable partial-state protocol
(``partial()``/``merge()``/``finalize()`` — an *exact* delta algebra, see
:mod:`repro.engine.aggregates`) into the refresh path:

* Sessions **register** standing decomposable GROUP BY/aggregate queries
  (the same admissibility rules as the distributed pushdown,
  :func:`repro.fragment.plan.is_decomposable_aggregation`, optionally after
  the paper's admission + privacy rewriting).
* The runtime plans each query once and materializes a **state tree** over
  the shared topology: one partial-state relation per leaf chunk, combined
  per level along the placement :func:`repro.runtime.dag.lift_node_groups`
  computes — the same shape the DAG scheduler would build, but *kept alive*
  between refreshes.  States are stored packed through the wire codec
  (:func:`repro.engine.wire.pack_state_relation`), so the recorded
  ``standing.state_bytes`` are honest shipped-size bytes.
* On each arriving chunk the runtime appends it at the **end** of the
  owning leaf's partition (``NetworkSimulator.append_to_partition``),
  folds a partial state over only the delta rows into the stored leaf
  state, re-combines only the leaf's root path, and re-finalizes the
  affected trees' subscribers.  Maintenance cost is O(delta x groups), not
  O(data).

Why the results are *byte-identical* to from-scratch re-execution: group
output order is first-occurrence order over the input, deltas append at the
end of a leaf chunk, and ``union_partials([old_state, delta_state])`` feeds
the merge in exactly that order — so the merged group order (and every
MIN/MAX tie, which keeps the first-seen value) equals a single pass over
the full chunk.  Sibling states union in partition order up the tree,
which is the loaded relation's row order.  The accumulators
themselves are exact (Shewchuk float expansions, exact int sums, Fraction
moments), so there is no drift for the differential tests to forgive.

Cross-session sharing: queries over the same table, WHERE clause and group
keys whose aggregate calls are a subset of an existing tree's attach to
that tree as additional *subscribers* — per-query finalize (HAVING /
ORDER BY / projection) over one maintained state stream.  Every attach is
gated by :func:`repro.rewrite.containment.check_leakage`: the subscriber
must be answerable from the tree's core view, the same containment
reasoning the privacy layer uses for d'.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Any,
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
from repro.engine.executor import _shallow_function_calls
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.wire import pack_state_relation, unpack_state_relation
from repro.fragment.plan import is_decomposable_aggregation
from repro.obs.metrics import registry as _metrics
from repro.obs.trace import QueryTrace
from repro.rewrite.containment import check_leakage
from repro.runtime.dag import lift_node_groups, rebase_table_refs, union_partials
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

#: Reserved per-leaf table name the delta chunk is registered under while
#: its partial state is computed (dropped immediately after).
DELTA_TABLE = "__standing_delta"


class StandingQueryError(ExecutionError):
    """A query that cannot be registered as a standing query."""


def _ordered_aggregate_calls(
    query: ast.SelectQuery,
) -> List[Tuple[str, ast.FunctionCall]]:
    """Distinct aggregate calls in the executor's state-column order.

    Mirrors ``QueryExecutor._collect_aggregate_calls`` + the
    ``_partial_plan`` dedup exactly: the i-th entry here is what the
    partial plan stores under state column ``__agg{i}`` — the contract the
    cross-tree state remapping below relies on.
    """
    sources: List[ast.Node] = [item.expression for item in query.items]
    if query.having is not None:
        sources.append(query.having)
    sources.extend(item.expression for item in query.order_by)
    ordered: List[Tuple[str, ast.FunctionCall]] = []
    seen: set = set()
    for source in sources:
        for call in _shallow_function_calls(source):
            if call.window is None and ast.is_aggregate_function(call.name):
                key = render_expression(call)
                if key not in seen:
                    seen.add(key)
                    ordered.append((key, call))
    return ordered


def _core_query(
    sample: ast.SelectQuery, calls: Sequence[ast.FunctionCall]
) -> ast.SelectQuery:
    """The tree's maintained view: keys + aggregate calls, no finalize tail.

    ``SELECT k1..kn, agg1 AS __agg0, ... FROM t WHERE ... GROUP BY k1..kn``
    — the query partial/combine run against.  Each aggregate item is aliased
    to its state-column name, so the view the containment checker sees
    exposes exactly the columns the state relation carries.  HAVING /
    ORDER BY / projection stay per subscriber (they only touch finalized
    values).
    """
    core = clone(sample)
    core.items = [
        ast.SelectItem(expression=clone(key)) for key in sample.group_by
    ] + [
        ast.SelectItem(expression=clone(call), alias=f"__agg{index}")
        for index, call in enumerate(calls)
    ]
    core.having = None
    core.order_by = []
    return core


def _view_image(
    query: ast.SelectQuery, alias_by_key: Mapping[str, str]
) -> ast.SelectQuery:
    """Rewrite ``query`` as it would read against the tree's core view.

    Every aggregate call becomes a reference to the view's aliased output
    column (``AVG(z)`` -> ``__agg1``), leaving only group keys and view
    columns — the form :func:`check_leakage` can reason about: a query is
    answerable from d' exactly when everything it needs survives in d'.
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

    image = transform(clone(query), visitor)
    # The sharing signature already guarantees the subscriber's WHERE
    # renders identically to the view's, i.e. the view has applied exactly
    # this filter; a query rewritten against d' would not repeat it.  Kept,
    # its raw columns (which the grouped view cannot expose) would fail the
    # attribute check for the wrong reason.
    image.where = None
    return image


class StandingQueryHandle:
    """One registered standing query (a subscriber of a state tree)."""

    def __init__(
        self,
        query_id: str,
        query: ast.SelectQuery,
        sql: str,
        tree: "_StateTree",
        state_map: List[int],
    ) -> None:
        self.query_id = query_id
        self.query = query
        self.sql = sql
        self.tree = tree
        #: For each of this query's state columns ``__agg{j}``, the index of
        #: the corresponding state column in the tree's core state relation.
        self.state_map = state_map
        #: Refresh epoch the cached result was finalized at.
        self.epoch = -1
        self._result: Optional[Relation] = None

    @property
    def shared(self) -> bool:
        """True when this handle shares its state tree with other queries."""
        return len(self.tree.subscribers) > 1

    def result(self) -> Relation:
        """The latest finalized result (refreshed eagerly on each delta)."""
        if self._result is None:
            raise StandingQueryError(f"Standing query {self.query_id} never finalized")
        return self._result


class _StateTree:
    """The maintained partial-state tree one or more subscribers share."""

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
        self.subscribers: List[StandingQueryHandle] = []
        #: Packed partial-state relation per holder node (leaf chunks).
        self.leaf_states: Dict[str, bytes] = {}
        #: Packed combined state per lifted (non-leaf) node.
        self.node_states: Dict[str, bytes] = {}
        #: Per-level combine placement, computed once from
        #: :func:`lift_node_groups` (the DAG scheduler's lifting rule).
        self.levels: List[List[Tuple[str, List[str]]]] = []
        #: Nodes whose states union (in partition order) into the root state.
        self.top_nodes: List[str] = []
        self._delta_query = rebase_table_refs(core, table, DELTA_TABLE)
        #: Root-state cache: every subscriber of a refresh epoch finalizes
        #: over the same root union, so it is materialized once per delta.
        self._root_cache: Optional[Relation] = None
        self._build_initial()

    # -- construction ---------------------------------------------------
    def _build_initial(self) -> None:
        network = self.runtime.network
        for holder in network.partition_holders(self.table):
            database = network.database(holder)
            if self.table not in database:
                continue  # registered before any data landed on this node
            state = database.partial_aggregate(self.core, self.runtime.engine)
            self.leaf_states[holder] = pack_state_relation(state)
        self._rebuild_placement()

    def _rebuild_placement(self) -> None:
        """(Re)compute the per-level combine placement and all lifted states.

        Runs at tree creation and again when a *new* holder appears (a node
        that received its first chunk after the tree was built) — holders
        stay in partition order, so the root union keeps matching the
        oracle's concatenation order.
        """
        holders = [
            holder
            for holder in self.runtime.network.partition_holders(self.table)
            if holder in self.leaf_states
        ]
        self.levels = []
        self.node_states = {}
        current = list(holders)
        while len(current) > 1:
            groups = lift_node_groups(self.runtime.topology, current)
            if groups is None:
                break
            self.levels.append(groups)
            current = [parent for parent, _ in groups]
        self.top_nodes = current
        self._root_cache = None
        for groups in self.levels:
            for parent, children in groups:
                self._recombine(parent, children)

    def _state_of(self, node: str) -> Relation:
        packed = self.node_states.get(node)
        if packed is None:
            packed = self.leaf_states[node]
        return unpack_state_relation(packed)

    def _recombine(self, parent: str, children: Sequence[str]) -> None:
        merged = union_partials(
            [self._state_of(child) for child in children], name=""
        )
        combined = self.runtime.network.database(parent).combine_partials(
            self.core, merged, self.runtime.engine
        )
        self.node_states[parent] = pack_state_relation(combined)

    # -- refresh --------------------------------------------------------
    def apply_delta(self, leaf: str, delta: Relation) -> int:
        """Fold ``delta``'s partial state into ``leaf`` and its root path.

        Returns the number of groups whose state changed (the delta state's
        group count) — everything else in the tree is untouched.
        """
        network = self.runtime.network
        database = network.database(leaf)
        config = self.runtime.engine
        if leaf not in self.leaf_states:
            # First chunk on a node the tree has never covered: its current
            # chunk (delta included — it was already appended) becomes a new
            # leaf state, and the placement rebuilds over the grown holder
            # list so the root union stays in partition order.
            state = database.partial_aggregate(self.core, config)
            self.leaf_states[leaf] = pack_state_relation(state)
            self._rebuild_placement()
            return len(state)
        # The reserved delta table stays registered between refreshes:
        # re-registering a same-shaped relation keeps the leaf executor and
        # its compiled partial plan warm (dropping it would invalidate them
        # on every delta).
        database.register(DELTA_TABLE, delta)
        delta_state = database.partial_aggregate(self._delta_query, config)
        old_state = unpack_state_relation(self.leaf_states[leaf])
        # Old state first, delta state second: first-occurrence order over
        # the concatenation equals one pass over the full chunk.
        merged = database.combine_partials(
            self.core, union_partials([old_state, delta_state], name=""), config
        )
        self.leaf_states[leaf] = pack_state_relation(merged)
        self._root_cache = None
        node = leaf
        for groups in self.levels:
            for parent, children in groups:
                if node in children:
                    self._recombine(parent, children)
                    node = parent
                    break
        return len(delta_state)

    # -- finalize -------------------------------------------------------
    def root_state(self) -> Relation:
        """Union of the top-level states, in partition order (cached)."""
        if self._root_cache is None:
            self._root_cache = union_partials(
                [self._state_of(node) for node in self.top_nodes], name=""
            )
        return self._root_cache

    def _remap_state(self, state: Relation, handle: StandingQueryHandle) -> Relation:
        """Project/rename the core state columns into the subscriber's layout.

        A subscriber whose aggregate calls are a strict subset (or a
        different order) of the core's expects state columns ``__agg0..``
        in *its own* spec order; group-key columns pass through by name.
        """
        if handle.state_map == list(range(len(self.agg_keys))):
            return state
        key_count = len(state.schema.columns) - len(self.agg_keys)
        key_columns = state.schema.columns[:key_count]
        columns: List[Any] = [
            state.column_array(column.name) for column in key_columns
        ]
        schema_columns = list(key_columns)
        for position, core_index in enumerate(handle.state_map):
            source = state.schema.columns[key_count + core_index]
            schema_columns.append(
                ColumnDef(name=f"__agg{position}", data_type=source.data_type)
            )
            columns.append(state.column_array(source.name))
        return Relation.from_columns(Schema(schema_columns), columns, name="")

    def finalize(self, handle: StandingQueryHandle) -> Relation:
        """Run the subscriber's finalize tail over the shared root state."""
        state = self._remap_state(self.root_state(), handle)
        database = self.runtime.network.database(self.runtime.topology.cloud.name)
        return database.finalize_partials(handle.query, state, self.runtime.engine)

    def state_bytes(self) -> int:
        """Total packed size of every stored state (wire-codec bytes)."""
        return sum(len(packed) for packed in self.leaf_states.values()) + sum(
            len(packed) for packed in self.node_states.values()
        )


class StandingQueryRuntime:
    """Registers standing queries and maintains their shared state trees.

    One runtime per shared :class:`~repro.processor.paradise.ParadiseProcessor`
    (one topology + network).  All ingestion goes through :meth:`append`
    (or a stream bound via :meth:`bind_stream`); a single ingest lock
    serializes appends and refreshes, so concurrent producers interleave at
    chunk granularity — each refresh observes a consistent prefix and the
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
        if not isinstance(parsed, ast.SelectQuery) or not is_decomposable_aggregation(
            parsed
        ):
            raise StandingQueryError(
                "Standing queries must be decomposable aggregations "
                "(single-table GROUP BY with mergeable aggregate calls)"
            )
        sub_keys = [key for key, _ in _ordered_aggregate_calls(parsed)]
        signature = self._signature(parsed)
        with self._lock:
            tree, shared = self._attach_tree(parsed, signature, sub_keys)
            self._next_query_id += 1
            handle = StandingQueryHandle(
                query_id=f"q{self._next_query_id - 1}",
                query=parsed,
                sql=render(parsed),
                tree=tree,
                state_map=[tree.agg_keys.index(key) for key in sub_keys],
            )
            tree.subscribers.append(handle)
            handle._result = tree.finalize(handle)
            handle.epoch = self._epoch
            self._handles[handle.query_id] = handle
            _metrics.counter("standing.registered").inc()
            if shared:
                _metrics.counter("standing.shared_attach").inc()
            _metrics.gauge("standing.trees").set(self.tree_count)
            _metrics.gauge("standing.subscribers").set(len(self._handles))
            self._record_state_bytes()
            return handle

    def _attach_tree(
        self,
        parsed: ast.SelectQuery,
        signature: Tuple[str, str, frozenset],
        sub_keys: List[str],
    ) -> Tuple[_StateTree, bool]:
        """Find a compatible existing tree or materialize a new one.

        Compatible: same table/WHERE/group keys, the subscriber's aggregate
        calls a subset of the tree's, and the subscriber answerable from
        the tree's core view per the containment checker (the same
        reasoning that decides whether d' leaks).
        """
        for tree in self._trees.get(signature, []):
            if all(key in tree.agg_keys for key in sub_keys):
                alias_by_key = {
                    key: f"__agg{index}"
                    for index, key in enumerate(tree.agg_keys)
                }
                image = _view_image(parsed, alias_by_key)
                # The view copy drops its WHERE for the same reason the
                # image does (see _view_image): the signature guarantees
                # both filters render identically, so predicate containment
                # holds by construction and the check focuses on whether
                # every needed attribute survives grouping.
                view = clone(tree.core)
                view.where = None
                if check_leakage(view, image).answerable:
                    return tree, True
        calls = [call for _, call in _ordered_aggregate_calls(parsed)]
        core = _core_query(parsed, calls)
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
        """Ingest one delta chunk at ``node_name`` and refresh every tree.

        The delta lands at the end of the node's partition chunk (keeping
        the concatenated stream identical to a from-scratch load), the
        touched leaf state absorbs the delta's partial state, the leaf's
        root path re-combines, and every subscriber of an affected tree is
        re-finalized.  Returns the new refresh epoch.
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
                groups_touched = 0
                refinalized = 0
                for tree in self._trees_for(table):
                    if len(relation) == 0:
                        # Empty delta: the state (hence every result) is
                        # unchanged; only the epoch advances.
                        for handle in tree.subscribers:
                            handle.epoch = epoch
                        continue
                    groups_touched += tree.apply_delta(node_name, relation)
                    for handle in tree.subscribers:
                        finalize_started = time.perf_counter()
                        handle._result = tree.finalize(handle)
                        handle.epoch = epoch
                        refinalized += 1
                        _metrics.histogram("standing.finalize_seconds").observe(
                            time.perf_counter() - finalize_started
                        )
                _metrics.counter("standing.refreshes").inc()
                _metrics.counter("standing.delta_rows").inc(len(relation))
                _metrics.counter("standing.groups_refinalized").inc(groups_touched)
                _metrics.counter("standing.subscriber_refreshes").inc(refinalized)
                _metrics.histogram("standing.refresh_seconds").observe(
                    time.perf_counter() - started
                )
                self._record_state_bytes()
            except BaseException:
                if span is not None:
                    self.trace.finish(span, status="error")
                raise
            if span is not None:
                self._last_refresh_span_id = span.span_id
                self.trace.finish(span)
            return epoch

    def _trees_for(self, table: str) -> List[_StateTree]:
        wanted = table.lower()
        return [
            tree
            for trees in self._trees.values()
            for tree in trees
            if tree.table.lower() == wanted
        ]

    def _record_state_bytes(self) -> None:
        total = sum(tree.state_bytes() for tree in self._trees_for_all())
        _metrics.gauge("standing.state_bytes").set(total)

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
