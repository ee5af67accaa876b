"""Query executor: evaluates a parsed query against a catalog of relations.

The executor has two execution paths over the same AST and the same scope
dicts:

* **Compiled (default).** Expressions are lowered once per query to Python
  closures (:mod:`repro.engine.compile`): column keys are pre-lowered,
  operators and scalar functions are resolved at compile time, and provably
  uncorrelated subqueries execute once per query.  Equi-joins run as hash
  joins and uncorrelated ``IN (SELECT ...)`` conjuncts as hash semi-joins
  (:mod:`repro.engine.join`); GROUP BY is a single pass over the input that
  feeds incremental aggregate accumulators
  (:func:`repro.engine.aggregates.make_accumulator`).
* **Interpreted (reference oracle).** The original per-row ``evaluate()``
  tree walk with nested-loop joins and per-group aggregate recomputation.
  It intentionally favours clarity over speed and is kept as the auditable
  reference — the privacy claims of the rewriter are verified by executing
  original and rewritten queries and comparing results, and the differential
  test harness asserts that the compiled path returns relations identical to
  this oracle over the whole query corpus.

Each executor runs under one :class:`~repro.engine.config.EngineConfig`
(``QueryExecutor(catalog, config=EngineConfig(mode="interpreted"))``): its
``mode`` picks the path, ``vectorized`` gates the columnar fast paths and
``optimizer`` the statistics-driven plan choices.
"""

from __future__ import annotations

from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.aggregates import (
    FirstValueAccumulator,
    compute_aggregate,
    is_decomposable_aggregate,
    make_accumulator,
)
from repro.engine.columns import gather, take_column
from repro.engine.compile import CompiledExpr, ExpressionCompiler
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.errors import ExecutionError
from repro.engine.evaluator import (
    EvaluationContext,
    evaluate,
    evaluate_predicate,
    make_evaluator,
)
from repro.engine.join import (
    UnhashableJoinKey,
    extract_equi_keys,
    hash_join,
    hash_semi_join,
)
from repro.engine.table import Relation, _OrderKey, freeze_value as _freeze
from repro.engine.stats import optimizer_stats
from repro.engine.vectorized import (
    BailReason,
    FinalizedGroups,
    _aggregate_call_nodes,
    _plain_column,
    _shallow_function_calls,
    columns_relation,
    having_kernels,
    having_selection,
    is_grouped,
    state_relation,
    stats as _scan_stats,
    tail_positions,
    try_execute_partial,
    try_execute_select,
)
from repro.engine.window import compute_window_values
from repro.sql import ast
from repro.sql.render import render_expression

Scope = Dict[str, Any]

_EMPTY_AGGREGATES: Dict[str, Any] = {}
_STAR_ROW = (1,)

#: [SELECT executions, partial-aggregation executions] — plain ints on the
#: per-query path; read via pull-based probes so fast-path hit *rates*
#: (vectorized hits / executions) can be derived from metric snapshots.
_exec_counts = [0, 0]

from repro.obs.metrics import registry as _obs_registry  # noqa: E402

_obs_registry.probe("engine.executor.selects", lambda: _exec_counts[0])
_obs_registry.probe("engine.executor.partial_aggregations", lambda: _exec_counts[1])


def aggregate_calls(query: ast.SelectQuery) -> List[Tuple[str, ast.FunctionCall]]:
    """The distinct aggregate calls of ``query`` as ``(render key, call)``.

    First-occurrence order over the select items, HAVING and ORDER BY.  The
    i-th entry is the i-th aggregate of every grouped scan and, in the
    partial protocol, the state column ``__agg{i}``.
    """
    calls: Dict[str, ast.FunctionCall] = {}
    for call in _aggregate_call_nodes(query):
        calls.setdefault(render_expression(call), call)
    return list(calls.items())


def decomposition_error(query: ast.Query) -> Optional[str]:
    """Why ``query`` cannot run as partial -> combine -> finalize, or None.

    The one decomposability rule, for the fragmenter, standing registration
    and every partial-protocol call: a single-table grouped SELECT without
    DISTINCT/LIMIT/OFFSET, grouped by distinct plain columns (the state
    relation's key columns, so none named ``__agg...``; a qualified key
    matches by name), whose aggregate calls all merge and take no
    aggregate arguments, with no subquery (its result could differ per
    node) and no window.  Any other column may appear outside aggregate
    arguments: it travels as a first-value state (:func:`first_value_columns`).
    """
    if not isinstance(query, ast.SelectQuery) or not isinstance(
        query.from_clause, ast.TableRef
    ):
        return "Partial aggregation requires a single-table SELECT"
    if query.distinct or query.limit is not None or query.offset is not None:
        return "Partial aggregation does not support DISTINCT/LIMIT/OFFSET"
    for expression in query.group_by:
        if not isinstance(expression, ast.Column):
            return "Partial aggregation requires plain-column GROUP BY keys"
        if expression.name.lower().startswith("__agg"):
            return f"Partial aggregation cannot group by reserved column {expression.name}"
    if len({expression.name.lower() for expression in query.group_by}) != len(query.group_by):
        return "Partial aggregation requires distinct GROUP BY keys"
    grouped = bool(query.group_by)
    # (node, inside an aggregate argument or WHERE)
    stack = [(item.expression, False) for item in query.items + query.order_by]
    stack += [(query.having, False), (query.where, True)]
    while stack:
        node, inside = stack.pop()
        if node is None:
            continue
        if isinstance(node, (ast.Query, ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return "Partial aggregation does not support subqueries"
        if isinstance(node, ast.FunctionCall):
            if node.window is not None:
                return "Partial aggregation does not support window functions"
            if ast.is_aggregate_function(node.name):
                if inside:
                    return (
                        "Partial aggregation does not support aggregates "
                        "in WHERE or aggregate arguments"
                    )
                arguments = node.arguments
                if not is_decomposable_aggregate(
                    node.name,
                    is_star=len(arguments) == 1 and isinstance(arguments[0], ast.Star),
                    distinct=node.distinct,
                    arg_count=len(arguments) or 1,
                ):
                    return f"Aggregate {node.name} is not decomposable"
                grouped, inside = True, True
        stack.extend((child, inside) for child in node.children() if child is not None)
    if not grouped:
        return "Partial aggregation requires a GROUP BY or an aggregate call"
    return None


def first_value_columns(query: ast.SelectQuery) -> List[str]:
    """The bare non-key columns of a grouped query, lower-cased, in
    first-reference order: what its items, HAVING and ORDER BY read
    outside aggregate arguments that name no group key.  An ORDER BY
    column naming a select item's output reads that item instead
    (:func:`~repro.sql.ast.order_by_aliases`).  A grouped scan reads each
    from its group's first row; the partial protocol carries each as a
    first-value state (:class:`~repro.engine.aggregates.FirstValueAccumulator`).
    """
    return list(_bare_columns(query))


def _bare_columns(query: ast.SelectQuery) -> Dict[str, ast.Column]:
    """:func:`first_value_columns`, each with its first reference."""
    keys = {key.name.lower() for key in query.group_by if isinstance(key, ast.Column)}
    aliases = ast.order_by_aliases(query)
    names: Dict[str, ast.Column] = {}
    stack: List[ast.Node] = [item.expression for item in reversed(query.order_by)]
    stack.append(query.having)
    stack.extend(item.expression for item in reversed(query.items))
    while stack:
        node = stack.pop()
        if node is None or isinstance(node, ast.Query):
            continue
        if isinstance(node, ast.FunctionCall) and (
            node.window is None and ast.is_aggregate_function(node.name)
        ):
            continue
        if isinstance(node, ast.Column) and id(node) not in aliases:
            name = node.name.lower()
            if name not in keys:
                names.setdefault(name, node)
        stack.extend(child for child in reversed(node.children()) if child is not None)
    return names


class _AggregateSpec:
    """One :func:`aggregate_calls` entry of a grouped query."""

    __slots__ = ("key", "name", "is_star", "distinct", "arg_fns", "arg_count", "arg_columns")

    def __init__(
        self,
        key: str,
        call: ast.FunctionCall,
        compiler: Optional[ExpressionCompiler],
    ) -> None:
        self.key = key
        self.name = call.name
        self.is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
        self.distinct = call.distinct
        #: Per-row argument evaluators, and the arguments' lower-cased
        #: column names for columnar scans (None when one is not a plain
        #: column).  ``COUNT(*)`` and argument-free calls feed the star row:
        #: no evaluators, no columns.
        self.arg_fns: Optional[List[Callable[[EvaluationContext], Any]]] = None
        self.arg_columns: Optional[List[str]] = []
        if not self.is_star and call.arguments:
            self.arg_fns = [make_evaluator(argument, compiler) for argument in call.arguments]
            columns = [_plain_column(argument) for argument in call.arguments]
            self.arg_columns = None if None in columns else columns
        self.arg_count = len(self.arg_fns) if self.arg_fns else 1

    def make(self) -> Any:
        return make_accumulator(
            self.name,
            is_star=self.is_star,
            distinct=self.distinct,
            arg_count=self.arg_count,
        )


class _FlatPlan:
    """Compile-once artefacts for a flat (non-grouped) SELECT."""

    __slots__ = ("query", "items", "output_names", "window_calls", "item_fns", "columns_only")

    def __init__(self, query, items, output_names, window_calls, item_fns, columns_only) -> None:
        self.query = query
        self.items = items
        self.output_names = output_names
        self.window_calls = window_calls
        self.item_fns = item_fns
        #: ``[(output_name, Column)]`` when every item is a plain column
        #: reference and no window is involved — enables direct key copies.
        self.columns_only = columns_only


class _GroupPlan:
    """Compile-once artefacts of a grouped query, for every grouped run.

    A grouped SELECT is the partial-aggregation protocol run on one
    partition, so one plan serves both: the SELECT's scan, and the
    protocol's *partial* (rows -> mergeable state rows), *combine* (state
    rows -> one state row per group) and *finalize* (state rows -> the
    query's output) phases.  A state relation carries the group keys under
    their original names, one state column per aggregate spec, then one
    first-value state column per bare non-key column
    (:func:`first_value_columns`).
    """

    __slots__ = (
        "query",
        "key_fns",
        "key_columns",
        "key_names",
        "state_names",
        "specs",
        "first_names",
        "first_fns",
        "first_columns",
        "partial_error",
    )

    def __init__(self, query, key_fns, specs, first_columns, first_fns) -> None:
        self.query = query
        self.key_fns = key_fns
        #: GROUP BY expressions as plain Columns, and their names (original
        #: case); both None when any key is complex.
        self.key_columns = None
        self.key_names = None
        if all(isinstance(expression, ast.Column) for expression in query.group_by):
            self.key_columns = [("", expression) for expression in query.group_by]
            self.key_names = [expression.name for expression in query.group_by]
        self.specs = specs
        #: Bare non-key columns (name -> first reference) and their per-row
        #: evaluators.
        self.first_columns = first_columns
        self.first_names = list(first_columns)
        self.first_fns = first_fns
        self.state_names = [
            f"__agg{index}" for index in range(len(specs) + len(self.first_names))
        ]
        #: Why the partial protocol cannot run this query, or None.
        self.partial_error = decomposition_error(query)

    def make_states(self) -> List[Any]:
        """Fresh accumulators for one group's state columns, in order."""
        states = [spec.make() for spec in self.specs]
        for _ in self.first_names:
            states.append(FirstValueAccumulator())
        return states


#: A grouped tail's operand: ``("scope", position)``, ``("agg", render
#: key)``, ``("fn", compiled expr)`` evaluated per row, or, for an ORDER BY
#: key, ``("out", item position)`` (an output name shadows a scope name).
Operand = Tuple[str, Any]


class _TailPlan:
    """A grouped query's tail resolved against one scope layout (compiled).

    ``having`` holds WHERE kernels over ``view`` (kernel column ->
    operand) when every HAVING conjunct has one; otherwise ``having_fn``
    runs per row.  ``bails`` are the per-row fallbacks, counted per run.
    """

    __slots__ = (
        "query",
        "output_names",
        "lowered_names",
        "items",
        "orders",
        "having",
        "view",
        "having_fn",
        "bails",
    )

    def __init__(
        self, query, output_names, lowered_names, items, orders, having, view, having_fn, bails
    ) -> None:
        self.query = query
        self.output_names = output_names
        self.lowered_names = lowered_names
        #: One operand per select item.
        self.items: List[Operand] = items
        #: ``(operand, ascending)`` per ORDER BY key.
        self.orders: List[Tuple[Operand, bool]] = orders
        self.having = having
        self.view = view
        self.having_fn = having_fn
        self.bails: List[BailReason] = bails


class _WherePlan:
    """WHERE conjuncts split into ordered semi-join and predicate segments.

    Segment order follows the original conjunct order so the compiled path
    evaluates (and raises from) predicates exactly where the oracle's
    short-circuiting AND would.
    """

    __slots__ = ("where", "segments")

    def __init__(self, where, segments) -> None:
        self.where = where
        #: ``("semi", InSubquery)`` or ``("pred", Expression)`` entries.
        self.segments = segments


#: The inputs of a call that binds none.
NO_INPUTS: Mapping[str, Relation] = MappingProxyType({})


class QueryExecutor:
    """Execute :class:`~repro.sql.ast.Query` nodes against named relations."""

    def __init__(
        self, catalog: Mapping[str, Relation], config: EngineConfig = DEFAULT_CONFIG
    ) -> None:
        # Names resolve lower-cased.  A catalog keyed that way is read live,
        # so the owner's later registrations are visible (a
        # :class:`~repro.engine.database.Database` keys its executors by the
        # shapes of the tables a query reads); any other mapping is copied.
        if all(name == name.lower() for name in catalog):
            self._catalog = catalog
        else:
            self._catalog = {name.lower(): relation for name, relation in catalog.items()}
        #: The relations the running call binds by (lower-cased) name,
        #: read before the catalog's same-named tables.
        self._inputs = NO_INPUTS
        self.config = config
        self._use_compiled = config.mode == "compiled"
        self._vectorized = self._use_compiled and config.vectorized
        self._compiler: Optional[ExpressionCompiler] = (
            ExpressionCompiler(self._subquery_is_constant) if self._use_compiled else None
        )
        # Plan memos keyed by id(node); each entry keeps the node alive so the
        # id stays valid.  Queries re-executed per outer row (correlated
        # subqueries) hit these instead of re-deriving plans.
        self._flat_plans: Dict[int, _FlatPlan] = {}
        self._group_plans: Dict[int, _GroupPlan] = {}
        self._tail_plans: Dict[Tuple[int, Tuple[str, ...]], _TailPlan] = {}
        self._where_plans: Dict[int, _WherePlan] = {}
        self._qualified_memo: Dict[int, Tuple[ast.Node, bool]] = {}
        # Vectorized scan plans (repro.engine.vectorized); entries cache the
        # "ineligible" verdict too, so bailing queries plan only once.
        self._vector_plans: Dict[int, Tuple[ast.Node, Any]] = {}

    #: Plan memos are flushed wholesale past this size so a long-lived
    #: executor serving many distinct queries cannot grow without bound.
    _MAX_PLAN_ENTRIES = 512

    def _store_plan(self, memo: Dict[Any, Any], key: Any, plan: Any) -> None:
        if len(memo) >= self._MAX_PLAN_ENTRIES:
            memo.clear()
        memo[key] = plan

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self, query: ast.Query, inputs: Mapping[str, Relation] = NO_INPUTS
    ) -> Relation:
        """Execute ``query`` and return the result relation.

        ``inputs`` binds relations by lower-cased name for this call: a
        name found there shadows the catalog's table of that name.
        """
        if self._compiler is not None:
            self._compiler.new_execution()
        self._inputs = inputs
        try:
            return self._execute_query(query, parent=None)
        finally:
            self._inputs = NO_INPUTS

    def _relation(self, name: str) -> Optional[Relation]:
        """The relation ``name`` reads: the call's input, else the catalog's."""
        key = name.lower()
        relation = self._inputs.get(key)
        return relation if relation is not None else self._catalog.get(key)

    def lookup_table(self, name: str) -> Relation:
        """Return the relation ``name`` reads (:meth:`_relation`)."""
        relation = self._relation(name)
        if relation is None:
            raise ExecutionError(f"Unknown table: {name}")
        return relation

    # ------------------------------------------------------------------
    # query dispatch
    # ------------------------------------------------------------------
    def _execute_query(self, query: ast.Query, parent: Optional[EvaluationContext]) -> Relation:
        if isinstance(query, ast.SetOperation):
            return self._execute_set_operation(query, parent)
        if isinstance(query, ast.SelectQuery):
            return self._execute_select(query, parent)
        raise ExecutionError(f"Cannot execute query of type {type(query).__name__}")

    def _execute_set_operation(
        self, query: ast.SetOperation, parent: Optional[EvaluationContext]
    ) -> Relation:
        left = self._execute_query(query.left, parent)
        right = self._execute_query(query.right, parent)
        if len(left.schema) != len(right.schema):
            raise ExecutionError("Set operation operands have different arity")
        operator = query.operator.upper()
        left_rows = [tuple(row[name] for name in left.schema.names) for row in left]
        right_rows = [tuple(row[name] for name in right.schema.names) for row in right]

        if operator == "UNION":
            combined = left_rows + right_rows
            result_rows = combined if query.all else _unique(combined)
        elif operator == "INTERSECT":
            right_set = set(map(_freeze_tuple, right_rows))
            result_rows = [row for row in left_rows if _freeze_tuple(row) in right_set]
            if not query.all:
                result_rows = _unique(result_rows)
        elif operator == "EXCEPT":
            right_set = set(map(_freeze_tuple, right_rows))
            result_rows = [row for row in left_rows if _freeze_tuple(row) not in right_set]
            if not query.all:
                result_rows = _unique(result_rows)
        else:
            raise ExecutionError(f"Unknown set operator: {query.operator}")

        rows = [dict(zip(left.schema.names, row)) for row in result_rows]
        return Relation(schema=left.schema, rows=rows, name="")

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _execute_select(
        self, query: ast.SelectQuery, parent: Optional[EvaluationContext]
    ) -> Relation:
        # Columnar fast path: plain projections, simple predicates and
        # aggregate scans over a single catalog table evaluate directly on
        # the column arrays — no row scopes at all.  Ineligible shapes
        # return None and fall through to the row-at-a-time path below.
        _exec_counts[0] += 1
        if self._vectorized:
            vectorized = try_execute_select(self, query, parent)
            if vectorized is not None:
                return vectorized

        grouped = is_grouped(query)
        if grouped and parent is None:
            self.check_bare_columns(query)
        scopes, source_columns = self._filtered_scopes(query, parent)
        if grouped:
            if self._use_compiled:
                return self._execute_grouped_compiled(query, scopes, source_columns, parent)
            return self._execute_grouped(query, scopes, source_columns, parent)
        if self._use_compiled:
            output_rows, output_names = self._execute_flat_compiled(
                query, scopes, source_columns, parent
            )
        else:
            output_rows, output_names = self._execute_flat(query, scopes, source_columns, parent)
        return self._finish_rows(query, output_rows, output_names, scopes, parent)

    def _filtered_scopes(
        self, query: ast.SelectQuery, parent: Optional[EvaluationContext]
    ) -> Tuple[List[Scope], List[str]]:
        """FROM and WHERE: the surviving row scopes and the source columns."""
        # Scopes only need alias-qualified keys when something in the query
        # subtree (including correlated subqueries) uses the qualified form.
        needs_qualified = not self._use_compiled or self._needs_qualified_scopes(query)
        scopes, source_columns = self._evaluate_from(
            query.from_clause, parent, needs_qualified
        )
        if query.where is not None:
            if self._use_compiled:
                scopes = self._filter_where_compiled(query, scopes, parent)
            else:
                scopes = [
                    scope
                    for scope in scopes
                    if evaluate_predicate(query.where, self._context(scope, parent))
                ]
        return scopes, source_columns

    def _finish_rows(
        self,
        query: ast.SelectQuery,
        output_rows: List[Dict[str, Any]],
        output_names: List[str],
        scopes: Sequence[Scope],
        parent: Optional[EvaluationContext],
        group_aggregates: Optional[List[Dict[str, Any]]] = None,
    ) -> Relation:
        """The row-at-a-time tail: DISTINCT, ORDER BY (over ``scopes`` and,
        grouped, ``group_aggregates``, aligned with ``output_rows``) and
        OFFSET/LIMIT."""
        if query.distinct:
            columns = [[row.get(name) for row in output_rows] for name in output_names]
            keep = tail_positions(list(range(len(output_rows))), columns, (), None, None)
            output_rows = [output_rows[position] for position in keep]
            if group_aggregates is not None:
                group_aggregates = [group_aggregates[position] for position in keep]
                scopes = [scopes[position] for position in keep]
        if query.order_by:
            output_rows = self._apply_order_by(query, output_rows, scopes, parent, group_aggregates)
        if query.offset is not None:
            output_rows = output_rows[query.offset :]
        if query.limit is not None:
            output_rows = output_rows[: query.limit]
        return columns_relation(
            output_names, [[row.get(name) for row in output_rows] for name in output_names]
        )

    # ------------------------------------------------------------------
    # WHERE (compiled)
    # ------------------------------------------------------------------
    def _where_plan(self, query: ast.SelectQuery) -> _WherePlan:
        where = query.where
        plan = self._where_plans.get(id(where))
        if plan is not None and plan.where is where:
            return plan
        segments: List[Tuple[str, ast.Expression]] = []
        run: List[ast.Expression] = []
        any_semi = False
        for term in ast.conjunction_terms(where):
            if isinstance(term, ast.InSubquery) and self._subquery_is_constant(term.query):
                if run:
                    segments.append(("pred", ast.conjunction(*run)))
                    run = []
                segments.append(("semi", term))
                any_semi = True
            else:
                run.append(term)
        if not any_semi:
            segments = [("pred", where)]  # keep the original node so compile caching hits
        elif run:
            segments.append(("pred", ast.conjunction(*run)))
        plan = _WherePlan(where, segments)
        self._store_plan(self._where_plans, id(where), plan)
        return plan

    def _filter_where_compiled(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        parent: Optional[EvaluationContext],
    ) -> List[Scope]:
        if not scopes:
            return scopes
        plan = self._where_plan(query)
        compiler = self._compiler
        assert compiler is not None
        context = self._fresh_context(parent)

        for kind, term in plan.segments:
            if kind == "semi":
                probe_fn = compiler.compile(term.expression)

                def probe(scope: Scope, _fn: CompiledExpr = probe_fn) -> Any:
                    context.scope = scope
                    return _fn(context)

                def key_source(_query: ast.Query = term.query) -> set:
                    relation = self._execute_query(_query, parent=context)
                    if len(relation.schema) != 1:
                        raise ExecutionError("IN subquery must return exactly one column")
                    name = relation.schema.names[0]
                    return {row[name] for row in relation if row[name] is not None}

                scopes = hash_semi_join(scopes, probe, key_source, negated=term.negated)
            else:
                predicate = compiler.compile_predicate(term)
                kept: List[Scope] = []
                for scope in scopes:
                    context.scope = scope
                    if predicate(context):
                        kept.append(scope)
                scopes = kept
            if not scopes:
                return scopes
        return scopes

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _needs_qualified_scopes(self, query: ast.SelectQuery) -> bool:
        """True when the query subtree references any ``alias.column`` form."""
        memo = self._qualified_memo.get(id(query))
        if memo is not None and memo[0] is query:
            return memo[1]
        needed = False
        stack: List[ast.Node] = [query]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if isinstance(node, (ast.Column, ast.Star)) and node.table:
                needed = True
                break
            stack.extend(child for child in node.children() if child is not None)
        self._store_plan(self._qualified_memo, id(query), (query, needed))
        return needed

    def _evaluate_from(
        self,
        relation: Optional[ast.Relation],
        parent: Optional[EvaluationContext],
        needs_qualified: bool = True,
    ) -> Tuple[List[Scope], List[str]]:
        """Return per-row scopes and the ordered unqualified column names."""
        scopes, columns, _ = self._evaluate_from_sources(relation, parent, needs_qualified)
        return scopes, columns

    def _evaluate_from_sources(
        self,
        relation: Optional[ast.Relation],
        parent: Optional[EvaluationContext],
        needs_qualified: bool = True,
    ) -> Tuple[List[Scope], List[str], Optional[Relation]]:
        """Like :meth:`_evaluate_from`, plus the backing columnar relation.

        The backing is the source :class:`Relation` when the FROM item is a
        single catalog table or derived table (one scope per row, in row
        order) — the hash-join fast path builds its key arrays from the
        backing's columns instead of probing every scope dict.  Join trees
        return ``None``.
        """
        if relation is None:
            return [{}], [], None
        if isinstance(relation, ast.TableRef):
            table = self.lookup_table(relation.name)
            scopes = _relation_scopes(
                table,
                relation.effective_name if needs_qualified else "",
                allow_reuse=self._use_compiled,
            )
            return scopes, list(table.schema.names), table
        if isinstance(relation, ast.SubqueryRef):
            result = self._execute_query(relation.query, parent)
            scopes = _relation_scopes(
                result,
                (relation.alias or "") if needs_qualified else "",
                allow_reuse=self._use_compiled,
            )
            return scopes, list(result.schema.names), result
        if isinstance(relation, ast.Join):
            scopes, columns = self._evaluate_join(relation, parent, needs_qualified)
            return scopes, columns, None
        raise ExecutionError(f"Cannot evaluate FROM item of type {type(relation).__name__}")

    def _evaluate_join(
        self, join: ast.Join, parent: Optional[EvaluationContext], needs_qualified: bool = True
    ) -> Tuple[List[Scope], List[str]]:
        left_scopes, left_columns, left_backing = self._evaluate_from_sources(
            join.left, parent, needs_qualified
        )
        right_scopes, right_columns, right_backing = self._evaluate_from_sources(
            join.right, parent, needs_qualified
        )
        join_type = join.join_type.upper()
        columns = left_columns + [c for c in right_columns if c not in left_columns]

        if self._use_compiled:
            combined = self._join_compiled(
                join, join_type, left_scopes, right_scopes, left_columns, right_columns, parent,
                left_backing, right_backing,
            )
            return combined, columns

        condition = join.condition
        if join.using:
            condition = None  # handled explicitly below

        def combine(left: Scope, right: Scope) -> Optional[Scope]:
            if join.using:
                if not all(
                    left.get(name.lower()) == right.get(name.lower()) for name in join.using
                ):
                    return None
                return {**left, **right}
            if condition is None:
                return {**left, **right}
            merged = {**left, **right}
            if evaluate_predicate(condition, self._context(merged, parent)):
                return merged
            return None

        combined = self._nested_loop_join(
            join_type, left_scopes, right_scopes, left_columns, right_columns, combine
        )
        return combined, columns

    @staticmethod
    def _nested_loop_join(
        join_type: str,
        left_scopes: List[Scope],
        right_scopes: List[Scope],
        left_columns: List[str],
        right_columns: List[str],
        combine: Callable[[Scope, Scope], Optional[Scope]],
    ) -> List[Scope]:
        """Shared nested-loop scaffold; ``combine`` merges matching pairs.

        Both execution paths and all outer-join padding flow through this one
        loop, so LEFT/RIGHT/FULL bookkeeping exists exactly once (hash joins
        replicate the same output order in :func:`repro.engine.join.hash_join`).
        """
        combined: List[Scope] = []
        matched_right: set[int] = set()
        for left_scope in left_scopes:
            matched = False
            for right_index, right_scope in enumerate(right_scopes):
                merged = combine(left_scope, right_scope)
                if merged is None:
                    continue
                combined.append(merged)
                matched = True
                matched_right.add(right_index)
            if not matched and join_type in {"LEFT", "FULL"}:
                combined.append({**left_scope, **_null_scope(right_columns, right_scopes)})
        if join_type in {"RIGHT", "FULL"}:
            for right_index, right_scope in enumerate(right_scopes):
                if right_index not in matched_right:
                    combined.append({**_null_scope(left_columns, left_scopes), **right_scope})
        return combined

    # ------------------------------------------------------------------
    # joins (compiled)
    # ------------------------------------------------------------------
    def _join_compiled(
        self,
        join: ast.Join,
        join_type: str,
        left_scopes: List[Scope],
        right_scopes: List[Scope],
        left_columns: List[str],
        right_columns: List[str],
        parent: Optional[EvaluationContext],
        left_backing: Optional[Relation] = None,
        right_backing: Optional[Relation] = None,
    ) -> List[Scope]:
        if left_scopes and right_scopes and join_type in {"INNER", "LEFT", "RIGHT", "FULL"}:
            if self.config.optimizer and len(left_scopes) * len(right_scopes) <= 64:
                # Tiny inputs: hash-table setup costs more than the O(n*m)
                # scan.  Output-identical — the nested loop is the oracle
                # order the hash join replicates.
                optimizer_stats.nested_loop_joins += 1
                return self._nested_loop_join_compiled(
                    join, join_type, left_scopes, right_scopes,
                    left_columns, right_columns, parent,
                )
            try:
                combined = self._try_hash_join(
                    join, join_type, left_scopes, right_scopes, left_columns, right_columns,
                    parent, left_backing, right_backing,
                )
                if combined is not None:
                    return combined
            except UnhashableJoinKey:
                pass
        return self._nested_loop_join_compiled(
            join, join_type, left_scopes, right_scopes, left_columns, right_columns, parent
        )

    @staticmethod
    def _backed_key_arrays(
        backing: Optional[Relation],
        scopes: List[Scope],
        exprs: Sequence[ast.Expression],
        keep_nulls: bool,
    ) -> Optional[List[Optional[Tuple[Any, ...]]]]:
        """Per-row join key tuples built straight from the backing columns.

        Possible when the join side is a single table/derived relation (one
        scope per row) and every key expression is a plain column of it —
        then the hash table is built from the column arrays, with no
        per-scope closure calls.  ``keep_nulls`` selects USING semantics
        (``None == None`` matches) over ON semantics (NULL keys match
        nothing, signalled as a ``None`` key).
        """
        if backing is None or len(backing) != len(scopes):
            return None
        arrays = []
        for expression in exprs:
            if not isinstance(expression, ast.Column):
                return None
            array = backing.column_array(expression.name)
            if array is None:
                return None
            arrays.append(array)
        if len(arrays) == 1:
            array = arrays[0]
            if keep_nulls:
                return [(value,) for value in array]
            return [None if value is None else (value,) for value in array]
        if keep_nulls:
            return list(zip(*arrays))
        return [
            None if any(value is None for value in values) else values
            for values in zip(*arrays)
        ]

    def _try_hash_join(
        self,
        join: ast.Join,
        join_type: str,
        left_scopes: List[Scope],
        right_scopes: List[Scope],
        left_columns: List[str],
        right_columns: List[str],
        parent: Optional[EvaluationContext],
        left_backing: Optional[Relation] = None,
        right_backing: Optional[Relation] = None,
    ) -> Optional[List[Scope]]:
        compiler = self._compiler
        assert compiler is not None
        residual_fn: Optional[Callable[[Scope], bool]] = None
        left_key: Optional[Callable[[Scope], Optional[Tuple[Any, ...]]]] = None
        right_key: Optional[Callable[[Scope], Optional[Tuple[Any, ...]]]] = None

        if join.using:
            using = [name.lower() for name in join.using]
            using_columns = [ast.Column(name=name) for name in using]
            # USING compares with ``==`` where None matches None, so keys keep
            # their None values instead of signalling "no match".
            left_keys = self._backed_key_arrays(
                left_backing, left_scopes, using_columns, keep_nulls=True
            )
            right_keys = self._backed_key_arrays(
                right_backing, right_scopes, using_columns, keep_nulls=True
            )
            if left_keys is None or right_keys is None:
                def using_key(scope: Scope) -> Tuple[Any, ...]:
                    return tuple(scope.get(key) for key in using)

                left_key = right_key = using_key
                left_keys = right_keys = None
        else:
            if join.condition is None:
                return None
            plan = extract_equi_keys(
                join.condition, set(left_scopes[0]), set(right_scopes[0])
            )
            if plan is None:
                return None
            left_keys = self._backed_key_arrays(
                left_backing, left_scopes, plan.left_exprs, keep_nulls=False
            )
            right_keys = self._backed_key_arrays(
                right_backing, right_scopes, plan.right_exprs, keep_nulls=False
            )

            def make_key(
                fns: List[CompiledExpr], context: EvaluationContext
            ) -> Callable[[Scope], Optional[Tuple[Any, ...]]]:
                def key(scope: Scope) -> Optional[Tuple[Any, ...]]:
                    context.scope = scope
                    values = []
                    for fn in fns:
                        value = fn(context)
                        if value is None:
                            return None  # NULL keys never equi-match under ON
                        values.append(value)
                    return tuple(values)

                return key

            if left_keys is None:
                left_fns = [compiler.compile(expression) for expression in plan.left_exprs]
                left_key = make_key(left_fns, self._fresh_context(parent))
            if right_keys is None:
                right_fns = [compiler.compile(expression) for expression in plan.right_exprs]
                right_key = make_key(right_fns, self._fresh_context(parent))
            if plan.residual is not None:
                residual_pred = compiler.compile_predicate(plan.residual)
                residual_context = self._fresh_context(parent)

                def residual_fn(merged: Scope) -> bool:
                    residual_context.scope = merged
                    return residual_pred(residual_context)

        build_side = "right"
        if self.config.optimizer and len(left_scopes) < len(right_scopes):
            # Build the hash table over the smaller side; purely physical,
            # the emitted scopes and their order are identical either way.
            build_side = "left"
            optimizer_stats.build_side_flips += 1
        return hash_join(
            left_scopes,
            right_scopes,
            left_key,
            right_key,
            join_type=join_type,
            residual=residual_fn,
            left_null=_null_scope(left_columns, left_scopes),
            right_null=_null_scope(right_columns, right_scopes),
            left_keys=left_keys,
            right_keys=right_keys,
            build_side=build_side,
        )

    def _nested_loop_join_compiled(
        self,
        join: ast.Join,
        join_type: str,
        left_scopes: List[Scope],
        right_scopes: List[Scope],
        left_columns: List[str],
        right_columns: List[str],
        parent: Optional[EvaluationContext],
    ) -> List[Scope]:
        compiler = self._compiler
        assert compiler is not None
        using = [name.lower() for name in join.using] if join.using else None
        condition = None if using else join.condition
        predicate = compiler.compile_predicate(condition) if condition is not None else None
        context = self._fresh_context(parent)

        def combine(left: Scope, right: Scope) -> Optional[Scope]:
            if using is not None:
                if not all(left.get(key) == right.get(key) for key in using):
                    return None
                return {**left, **right}
            merged = {**left, **right}
            if predicate is not None:
                context.scope = merged
                if not predicate(context):
                    return None
            return merged

        return self._nested_loop_join(
            join_type, left_scopes, right_scopes, left_columns, right_columns, combine
        )

    # ------------------------------------------------------------------
    # projection without grouping
    # ------------------------------------------------------------------
    def _execute_flat(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        source_columns: List[str],
        parent: Optional[EvaluationContext],
    ) -> Tuple[List[Dict[str, Any]], List[str]]:
        items = self._expand_star_items(query.items, source_columns)
        window_calls = [
            call
            for item in items
            for call in _shallow_function_calls(item.expression)
            if call.window is not None
        ]
        window_values: Dict[str, List[Any]] = {}
        if window_calls:
            window_values = compute_window_values(window_calls, scopes, parent)

        output_names = self._output_names(items)
        output_rows: List[Dict[str, Any]] = []
        for index, scope in enumerate(scopes):
            aggregates = {key: values[index] for key, values in window_values.items()}
            context = self._context(scope, parent, aggregates)
            row = {}
            for item, name in zip(items, output_names):
                row[name] = evaluate(item.expression, context)
            output_rows.append(row)
        return output_rows, output_names

    def _flat_plan(self, query: ast.SelectQuery, source_columns: List[str]) -> _FlatPlan:
        plan = self._flat_plans.get(id(query))
        if plan is not None and plan.query is query:
            return plan
        compiler = self._compiler
        assert compiler is not None
        items = self._expand_star_items(query.items, source_columns)
        window_calls = [
            call
            for item in items
            for call in _shallow_function_calls(item.expression)
            if call.window is not None
        ]
        output_names = self._output_names(items)
        item_fns = [compiler.compile(item.expression) for item in items]
        columns_only = None
        if not window_calls and all(
            isinstance(item.expression, ast.Column) for item in items
        ):
            columns_only = [
                (name, item.expression) for name, item in zip(output_names, items)
            ]
        plan = _FlatPlan(query, items, output_names, window_calls, item_fns, columns_only)
        self._store_plan(self._flat_plans, id(query), plan)
        return plan

    @staticmethod
    def _resolve_fast_keys(
        columns_only: List[Tuple[str, ast.Column]],
        scope: Scope,
        parent: Optional[EvaluationContext],
    ) -> Optional[List[Tuple[str, str]]]:
        """Map column-only projections to direct scope keys, if unambiguous.

        All scopes of one FROM evaluation share a key set, so probing the
        first scope decides for all rows.  Columns that would resolve through
        a parent context (or not at all) return None — the closure path owns
        those.
        """
        keys: List[Tuple[str, str]] = []
        for name, column in columns_only:
            low = column.name.lower()
            if column.table:
                qualified = f"{column.table.lower()}.{low}"
                if qualified in scope:
                    keys.append((name, qualified))
                    continue
                if parent is not None:
                    return None  # the parent chain may own the qualified key
            if low in scope:
                keys.append((name, low))
            else:
                return None
        return keys

    def _execute_flat_compiled(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        source_columns: List[str],
        parent: Optional[EvaluationContext],
    ) -> Tuple[List[Dict[str, Any]], List[str]]:
        plan = self._flat_plan(query, source_columns)
        window_values: Dict[str, List[Any]] = {}
        if plan.window_calls:
            window_values = compute_window_values(
                plan.window_calls, scopes, parent, compiler=self._compiler
            )

        output_names = plan.output_names
        if plan.columns_only is not None and scopes:
            keys = self._resolve_fast_keys(plan.columns_only, scopes[0], parent)
            if keys is not None:
                return [
                    {name: scope[key] for name, key in keys} for scope in scopes
                ], output_names

        item_fns = plan.item_fns
        context = self._fresh_context(parent)
        output_rows: List[Dict[str, Any]] = []
        if window_values:
            for index, scope in enumerate(scopes):
                context.scope = scope
                context.aggregates = {
                    key: values[index] for key, values in window_values.items()
                }
                output_rows.append(
                    {name: fn(context) for name, fn in zip(output_names, item_fns)}
                )
        else:
            for scope in scopes:
                context.scope = scope
                output_rows.append(
                    {name: fn(context) for name, fn in zip(output_names, item_fns)}
                )
        return output_rows, output_names

    # ------------------------------------------------------------------
    # grouped projection
    # ------------------------------------------------------------------
    def _execute_grouped(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        source_columns: Sequence[str],
        parent: Optional[EvaluationContext],
    ) -> Relation:
        _check_grouped_items(query)

        groups: Dict[Tuple[Any, ...], List[Scope]] = {}
        for scope in scopes:
            context = self._context(scope, parent)
            key = tuple(
                _freeze(evaluate(expression, context)) for expression in query.group_by
            )
            groups.setdefault(key, []).append(scope)

        # A query with aggregates but no GROUP BY forms one global group, even
        # when the input is empty (COUNT(*) over an empty table is 0).
        if not query.group_by and not groups:
            groups[()] = []

        calls = aggregate_calls(query)
        # The global group over empty input has no row: its bare columns
        # are NULL.
        rows = (
            (
                members[0] if members else _null_scope(source_columns, []),
                self._compute_group_aggregates(calls, members, parent),
            )
            for members in groups.values()
        )
        return self._emit_grouped(query, rows, parent)

    def _emit_grouped(
        self,
        query: ast.SelectQuery,
        groups: Iterable[Tuple[Scope, Dict[str, Any]]],
        parent: Optional[EvaluationContext],
    ) -> Relation:
        """The interpreted grouped tail: HAVING and items per ``(scope,
        aggregates)`` group, in order, then :meth:`_finish_rows`."""
        items = query.items
        output_names = self._output_names(items)
        output_rows: List[Dict[str, Any]] = []
        group_aggregates: List[Dict[str, Any]] = []
        group_scopes: List[Scope] = []
        for scope, aggregates in groups:
            context = self._context(scope, parent, aggregates)
            if query.having is not None and not evaluate_predicate(query.having, context):
                continue
            output_rows.append(
                {name: evaluate(item.expression, context) for item, name in zip(items, output_names)}
            )
            group_aggregates.append(aggregates)
            group_scopes.append(scope)
        return self._finish_rows(
            query, output_rows, output_names, group_scopes, parent, group_aggregates
        )

    def _group_plan(self, query: ast.SelectQuery) -> _GroupPlan:
        plan = self._group_plans.get(id(query))
        if plan is not None and plan.query is query:
            return plan
        firsts = _bare_columns(query)
        plan = _GroupPlan(
            query,
            [make_evaluator(expression, self._compiler) for expression in query.group_by],
            [_AggregateSpec(key, call, self._compiler) for key, call in aggregate_calls(query)],
            firsts,
            [make_evaluator(ast.Column(name=name), self._compiler) for name in firsts],
        )
        self._store_plan(self._group_plans, id(query), plan)
        return plan

    def check_bare_columns(self, query: ast.SelectQuery) -> None:
        """Raise ``Unknown column`` for a bare non-key column of grouped
        ``query`` that its FROM table lacks, before any row is read.

        The row-at-a-time paths would read such a column only from a
        group's first row, so whether they raised would depend on the
        data: never for the global group over no rows, never when HAVING
        drops every group, always in a leaf partial.  Resolving it here
        makes every config, the partial protocol and every partitioning
        agree.  A grouped subquery may read an outer column, so only the
        caller knows when to ask (no enclosing scope).
        """
        if not isinstance(query.from_clause, ast.TableRef):
            return
        plan = self._group_plan(query)
        if not plan.first_names:
            return
        table = self.lookup_table(query.from_clause.name)
        for name, column in plan.first_columns.items():
            if table.column_array(name) is None:
                shown = column.qualified_name if column.table else column.name
                raise ExecutionError(f"Unknown column: {shown}")

    def _execute_grouped_compiled(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        source_columns: Sequence[str],
        parent: Optional[EvaluationContext],
    ) -> Relation:
        _check_grouped_items(query)
        plan = self._group_plan(query)
        groups = self._group_scopes(plan, scopes, parent)
        # One FROM evaluation's scopes share a key set.  The global group
        # over empty input has no row: its bare columns are NULL.
        representatives = [
            scope if scopes else _null_scope(source_columns, [])
            for scope, _ in groups.values()
        ]
        names = list(representatives[0]) if representatives else []
        finalized = FinalizedGroups.from_accumulators(
            names,
            [[scope[name] for scope in representatives] for name in names],
            plan.specs,
            [accumulators for _, accumulators in groups.values()],
            "result",
        )
        return self._grouped_tail(query, finalized, parent)

    def _group_scopes(
        self, plan: _GroupPlan, scopes: List[Scope], parent: Optional[EvaluationContext]
    ) -> Dict[Tuple[Any, ...], Tuple[Scope, List[Any]]]:
        """One pass over ``scopes``: each group's first scope and fed
        accumulators, keyed by group key in first-occurrence order.  A
        query without GROUP BY forms one global group, even over no rows
        (COUNT(*) over an empty table is 0); its scope is then empty."""
        key_fns = plan.key_fns
        specs = plan.specs
        context = self._fresh_context(parent)
        # Plain-column GROUP BY keys can skip expression evaluation entirely.
        fast_keys: Optional[List[str]] = None
        if plan.key_columns is not None and scopes:
            resolved = self._resolve_fast_keys(plan.key_columns, scopes[0], parent)
            if resolved is not None:
                fast_keys = [key for _, key in resolved]
        groups: Dict[Tuple[Any, ...], Tuple[Scope, List[Any]]] = {}
        for scope in scopes:
            context.scope = scope
            if fast_keys is not None:
                key = tuple(scope[k] for k in fast_keys)
                try:
                    group = groups.get(key)
                except TypeError:
                    # Unhashable key values: fall back to the frozen form the
                    # oracle always uses (identical on hashable values).
                    key = tuple(_freeze(value) for value in key)
                    group = groups.get(key)
            else:
                key = tuple(_freeze(fn(context)) for fn in key_fns)
                group = groups.get(key)
            if group is None:
                group = groups[key] = (scope, [spec.make() for spec in specs])
            for spec, accumulator in zip(specs, group[1]):
                arg_fns = spec.arg_fns
                if arg_fns is None:
                    accumulator.add(_STAR_ROW)
                elif len(arg_fns) == 1:
                    accumulator.add((arg_fns[0](context),))
                else:
                    accumulator.add(tuple(fn(context) for fn in arg_fns))
        if not plan.query.group_by and not groups:
            groups[()] = ({}, [spec.make() for spec in specs])
        return groups

    def _compute_group_aggregates(
        self,
        calls: Sequence[Tuple[str, ast.FunctionCall]],
        group_scopes: List[Scope],
        parent: Optional[EvaluationContext],
    ) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        for key, call in calls:
            is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
            if is_star:
                argument_columns = [[1] * len(group_scopes)]
            else:
                argument_columns = []
                for argument in call.arguments:
                    column_values = [
                        evaluate(argument, self._context(scope, parent))
                        for scope in group_scopes
                    ]
                    argument_columns.append(column_values)
                if not argument_columns:
                    argument_columns = [[1] * len(group_scopes)]
            results[key] = compute_aggregate(
                call.name, argument_columns, is_star=is_star, distinct=call.distinct
            )
        return results

    # ------------------------------------------------------------------
    # partial aggregation (the distributed GROUP BY protocol)
    # ------------------------------------------------------------------
    def _partial_plan(self, query: ast.SelectQuery) -> _GroupPlan:
        """``query``'s group plan; raises before any scan if the partial
        protocol cannot run it."""
        plan = self._group_plan(query)
        if plan.partial_error is not None:
            raise ExecutionError(plan.partial_error)
        return plan

    def execute_partial_aggregation(
        self, query: ast.SelectQuery, inputs: Mapping[str, Relation] = NO_INPUTS
    ) -> Relation:
        """Run ``query``'s FROM/WHERE, then group into mergeable state rows;
        ``inputs`` binds relations for the call as in :meth:`execute`.

        Emits one row per group in first-occurrence order: the group-key
        columns under their original names, one ``partial()`` state per
        distinct aggregate call and one ``(has, value)`` first-value state
        per bare non-key column.  HAVING, select items and ORDER BY are
        deferred to :meth:`finalize_partial_aggregation` — they must see
        fully merged groups.  A query without GROUP BY always emits exactly
        one (global) group row, even over an empty input, mirroring the
        one-row output the full execution produces.
        """
        if self._compiler is not None:
            self._compiler.new_execution()
        self._inputs = inputs
        try:
            return self._partial_states(query)
        finally:
            self._inputs = NO_INPUTS

    def _partial_states(self, query: ast.SelectQuery) -> Relation:
        plan = self._partial_plan(query)
        _exec_counts[1] += 1
        if self._vectorized:
            vectorized = try_execute_partial(self, query)
            if vectorized is not None:
                return vectorized
        self.check_bare_columns(query)
        scopes, _ = self._filtered_scopes(query, None)
        groups = self._group_scopes(plan, scopes, None)
        context = self._fresh_context(None)
        for scope, accumulators in groups.values():
            context.scope = scope
            for fn in plan.first_fns:
                accumulators.append(FirstValueAccumulator())
                if scopes:  # the global group over no rows has no first row
                    accumulators[-1].add((fn(context),))
        return self._partial_state_relation(
            plan, {key: accumulators for key, (_, accumulators) in groups.items()}
        )

    def _merge_partial_groups(
        self, plan: _GroupPlan, relation: Relation
    ) -> Dict[Tuple[Any, ...], List[Any]]:
        """Group state rows by key (first-occurrence order), merging states.

        Input rows are concatenated partials in partition order, and every
        chunk holds rows the original relation ordered before later chunks'
        rows, so first-occurrence order here equals the group order a
        single pass over the whole input would produce.  Keys and states
        are read straight off the column arrays, zipped per row.
        """
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        key_columns = [_state_column(relation, name) for name in plan.key_names]
        state_columns = [_state_column(relation, name) for name in plan.state_names]
        keys = zip(*key_columns) if key_columns else repeat((), len(relation))
        # A GROUP BY without aggregate calls has keys but no state columns.
        state_rows = (
            zip(*state_columns) if state_columns else repeat((), len(relation))
        )
        for key, states in zip(keys, state_rows):
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = plan.make_states()
            for accumulator, state in zip(accumulators, states):
                accumulator.merge(state)
        if not plan.query.group_by and not groups:
            groups[()] = plan.make_states()
        return groups

    def _partial_state_relation(
        self, plan: _GroupPlan, groups: Dict[Tuple[Any, ...], List[Any]]
    ) -> Relation:
        """One row per group (in ``groups`` order): keys, then states."""
        rows = list(groups.values())
        return state_relation(
            plan,
            list(groups),
            [[row[i].partial() for row in rows] for i in range(len(plan.state_names))],
        )

    def combine_partial_aggregation(
        self, query: ast.SelectQuery, relation: Relation
    ) -> Relation:
        """Merge a relation of partial-state rows into one row per group."""
        plan = self._partial_plan(query)
        return self._partial_state_relation(plan, self._merge_partial_groups(plan, relation))

    def finalize_partial_aggregation(
        self, query: ast.SelectQuery, relation: Relation
    ) -> Relation:
        """Merge partial-state rows and produce ``query``'s actual output.

        The two finalize steps in sequence: :meth:`finalize_partial_groups`
        merges and finalizes the groups, :meth:`finalize_tail` applies
        HAVING, the select items and ORDER BY — exactly the tail of the
        grouped execution path, so the result is identical to running
        ``query`` over the concatenated raw input.
        """
        return self.finalize_tail(query, self.finalize_partial_groups(query, relation))

    def finalize_partial_groups(
        self, query: ast.SelectQuery, relation: Relation
    ) -> FinalizedGroups:
        """Merge partial-state rows per group and finalize every aggregate.

        The finalized values are keyed by each call's render key, the key
        :meth:`finalize_tail` looks them up by; the scope columns are the
        keys, then the bare non-key columns' first values — what a scan's
        first source row gives.  So any query whose group keys match
        ``query``'s and whose aggregate calls and bare columns are subsets
        of ``query``'s can run its tail over the result.
        """
        plan = self._partial_plan(query)
        groups = self._merge_partial_groups(plan, relation)
        width = len(plan.specs)
        rows = list(groups.values())
        return FinalizedGroups.from_accumulators(
            [name.lower() for name in plan.key_names] + plan.first_names,
            # One column per key, even when no group formed.
            (list(zip(*groups)) if groups else [[] for _ in plan.key_names])
            + [
                [row[width + index].finalize() for row in rows]
                for index in range(len(plan.first_names))
            ],
            plan.specs,
            (row[:width] for row in rows),
            "finalize",
        )

    def finalize_tail(
        self,
        query: ast.SelectQuery,
        groups: FinalizedGroups,
        parent: Optional[EvaluationContext] = None,
    ) -> Relation:
        """HAVING, select items, DISTINCT, ORDER BY and OFFSET/LIMIT over
        finalized groups.

        Scope columns resolve by (lower-cased) name and aggregates by render
        key, so the groups may come from a query with permuted keys or a
        superset of ``query``'s aggregate calls.
        """
        if self._compiler is not None:
            self._compiler.new_execution()
        return self._grouped_tail(query, groups, parent)

    def _grouped_tail(
        self,
        query: ast.SelectQuery,
        groups: FinalizedGroups,
        parent: Optional[EvaluationContext],
    ) -> Relation:
        """The one grouped tail: every grouped result ends here.

        Interpreted, it is the row-at-a-time oracle.  Compiled, it works on
        columns: HAVING through the WHERE kernels, plain items as gathers,
        DISTINCT/ORDER BY/OFFSET/LIMIT as one permutation.  Operands with
        no column evaluate per row over scope dicts in the row path's order
        (HAVING, then items, group by group), so the first error is the
        row path's.
        """
        if not self._use_compiled:
            return self._emit_grouped(query, groups.rows(), parent)
        plan = self._tail_plan(query, groups)
        for reason in plan.bails:
            _scan_stats.bail(reason)
        having_fn = plan.having_fn
        survivors = None
        if plan.having is not None:
            view = {name: groups.column(operand) for name, operand in plan.view.items()}
            survivors = having_selection(plan.having, view, groups.size)
        if survivors is None:
            survivors = list(range(groups.size))
        else:
            having_fn = None
        per_row = [(index, ref) for index, (kind, ref) in enumerate(plan.items) if kind == "fn"]
        values: Dict[int, List[Any]] = {index: [] for index, _ in per_row}
        context = self._fresh_context(parent)
        if having_fn is not None or per_row:
            kept = []
            for group in survivors:
                context.scope = groups.scope_at(group)
                context.aggregates = groups.aggregates_at(group)
                if having_fn is not None and not having_fn(context):
                    continue
                for index, fn in per_row:
                    values[index].append(fn(context))
                kept.append(group)
            survivors = kept
        if groups.error is not None:
            raise groups.error

        columns = [
            values[index] if operand[0] == "fn" else take_column(groups.column(operand), survivors)
            for index, operand in enumerate(plan.items)
        ]
        positions = list(range(len(survivors)))
        if query.distinct:
            positions = tail_positions(positions, columns, (), None, None)
        order_arrays = []
        for operand, ascending in plan.orders:
            kind, ref = operand
            if kind == "out":
                array = columns[ref]
            elif kind != "fn":
                array = gather(groups.column(operand), survivors)
            else:
                # Per row, over the output row merged into its group's scope
                # (output names win); a key that raises sorts as NULL.
                array = [None] * len(survivors)
                for position in positions:
                    context.scope = groups.scope_at(survivors[position])
                    context.scope.update(
                        zip(plan.lowered_names, [column[position] for column in columns])
                    )
                    context.aggregates = groups.aggregates_at(survivors[position])
                    try:
                        array[position] = ref(context)
                    except ExecutionError:
                        pass
            order_arrays.append((array, ascending))
        positions = tail_positions(positions, None, order_arrays, query.offset, query.limit)
        _scan_stats.tail += 1
        return columns_relation(
            plan.output_names, [take_column(column, positions) for column in columns]
        )

    def _tail_plan(self, query: ast.SelectQuery, groups: FinalizedGroups) -> _TailPlan:
        # Subscribers with permuted keys share one tree, so the scope layout
        # is part of the key.
        memo_key = (id(query), groups.scope_names)
        plan = self._tail_plans.get(memo_key)
        if plan is not None and plan.query is query:
            return plan
        compiler = self._compiler
        assert compiler is not None
        _check_grouped_items(query)
        positions = {name: index for index, name in enumerate(groups.scope_names)}

        def resolve(expression: ast.Expression) -> Optional[Tuple[str, Any]]:
            if isinstance(expression, ast.Column):
                position = positions.get(_scope_key(expression))
                if position is not None:
                    return "scope", position
            elif (
                isinstance(expression, ast.FunctionCall)
                and expression.window is None
                and ast.is_aggregate_function(expression.name)
            ):
                key = render_expression(expression)
                if key in groups.aggregates:
                    return "agg", key
            return None

        def operand(expression: ast.Expression) -> Tuple[str, Any]:
            return resolve(expression) or ("fn", compiler.compile(expression))

        output_names = self._output_names(query.items)
        lowered_names = [name.lower() for name in output_names]
        orders = []
        for item in query.order_by:
            expression = item.expression
            shadowed = isinstance(expression, ast.Column) and _scope_key(expression)
            if shadowed in lowered_names:
                orders.append((("out", lowered_names.index(shadowed)), item.ascending))
            else:
                orders.append((operand(expression), item.ascending))
        items = [operand(item.expression) for item in query.items]
        bails = [
            reason
            for reason, operands in (
                (BailReason.TAIL_EXPRESSION_ITEM, items),
                (BailReason.TAIL_EXPRESSION_ORDER_KEY, [order for order, _ in orders]),
            )
            if any(kind == "fn" for kind, _ in operands)
        ]
        having = view = having_fn = None
        if query.having is not None:
            having_fn = compiler.compile_predicate(query.having)
            planned = having_kernels(query.having, resolve, self.config.optimizer)
            if planned is None:
                bails.append(BailReason.TAIL_COMPLEX_HAVING)
            else:
                having, view = planned
        plan = _TailPlan(
            query, output_names, lowered_names, items, orders, having, view, having_fn, bails
        )
        self._store_plan(self._tail_plans, memo_key, plan)
        return plan

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _context(
        self,
        scope: Scope,
        parent: Optional[EvaluationContext],
        aggregates: Optional[Dict[str, Any]] = None,
    ) -> EvaluationContext:
        return EvaluationContext(
            scope=scope,
            aggregates=aggregates or {},
            subquery_executor=self._execute_subquery,
            parent=parent,
        )

    def _fresh_context(self, parent: Optional[EvaluationContext]) -> EvaluationContext:
        """A reusable context for the compiled path (``scope`` is swapped per row)."""
        return EvaluationContext(
            scope={},
            aggregates=_EMPTY_AGGREGATES,
            subquery_executor=self._execute_subquery,
            parent=parent,
        )

    def _execute_subquery(
        self, query: ast.SelectQuery, context: EvaluationContext
    ) -> Relation:
        return self._execute_query(query, parent=context)

    def _subquery_is_constant(self, query: ast.Query) -> bool:
        """True when ``query`` provably does not reference enclosing rows.

        Conservative, but not limited to single-table FROM clauses: the FROM
        tree may be a catalog table, a join tree of catalog tables, or a
        derived table ``(SELECT ...) alias`` that is itself provably
        constant.  Every column reference of the query (including join ON
        conditions) must resolve against the columns those sources expose,
        and qualified references must use a source's effective name.
        Anything else — including columns the catalog does not know — is
        treated as potentially correlated and evaluated per row.
        """
        if not isinstance(query, ast.SelectQuery):
            return False
        sources = self._constant_from_sources(query.from_clause)
        if sources is None:
            return False
        visible, qualifiers, join_conditions = sources
        stack: List[ast.Node] = [
            child for child in query.children() if child is not query.from_clause
        ]
        # Join conditions live inside the FROM subtree but reference columns
        # like any predicate, so they re-enter the reference walk here.
        stack.extend(join_conditions)
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if isinstance(node, ast.Query):
                return False
            if isinstance(node, ast.Column):
                if node.table is not None and node.table.lower() not in qualifiers:
                    return False
                if node.name.lower() not in visible:
                    return False
            stack.extend(child for child in node.children() if child is not None)
        return True

    def _constant_from_sources(
        self, from_clause: Optional[ast.Node]
    ) -> Optional[Tuple[set, set, List[ast.Expression]]]:
        """Resolve a FROM tree into provably constant sources.

        Returns ``(visible column names, valid qualifiers, join conditions)``
        in lower case, or ``None`` when any source cannot be proven
        row-independent (unknown table, set operation, derived table whose
        shape cannot be determined).
        """
        if from_clause is None:
            return set(), set(), []
        if isinstance(from_clause, ast.TableRef):
            relation = self._relation(from_clause.name)
            if relation is None:
                return None
            visible = {name.lower() for name in relation.schema.names}
            return visible, {from_clause.effective_name.lower()}, []
        if isinstance(from_clause, ast.Join):
            left = self._constant_from_sources(from_clause.left)
            right = self._constant_from_sources(from_clause.right)
            if left is None or right is None:
                return None
            conditions = left[2] + right[2]
            if from_clause.condition is not None:
                conditions = conditions + [from_clause.condition]
            return left[0] | right[0], left[1] | right[1], conditions
        if isinstance(from_clause, ast.SubqueryRef):
            if not self._subquery_is_constant(from_clause.query):
                return None
            columns = self._subquery_output_columns(from_clause.query)
            if columns is None:
                return None
            qualifiers = (
                {from_clause.alias.lower()} if from_clause.alias else set()
            )
            return {column.lower() for column in columns}, qualifiers, []
        return None

    def _subquery_output_columns(self, query: ast.Query) -> Optional[List[str]]:
        """Output column names of ``query`` when statically determinable."""
        if isinstance(query, ast.SetOperation):
            return self._subquery_output_columns(query.left)
        if not isinstance(query, ast.SelectQuery):
            return None
        columns: List[str] = []
        for item in query.items:
            if isinstance(item.expression, ast.Star):
                if not isinstance(query.from_clause, ast.TableRef):
                    return None
                relation = self._relation(query.from_clause.name)
                if relation is None:
                    return None
                columns.extend(relation.schema.names)
                continue
            name = item.output_name
            if name is None:
                # Unnamed computed items get renderer-derived names; stay
                # conservative rather than guessing them.
                return None
            columns.append(name)
        return columns

    def _expand_star_items(
        self, items: Sequence[ast.SelectItem], source_columns: List[str]
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                if item.expression.table:
                    qualifier = item.expression.table
                    expanded.extend(
                        ast.SelectItem(expression=ast.Column(name=name, table=qualifier))
                        for name in source_columns
                    )
                else:
                    expanded.extend(
                        ast.SelectItem(expression=ast.Column(name=name))
                        for name in source_columns
                    )
            else:
                expanded.append(item)
        return expanded

    def _output_names(self, items: Sequence[ast.SelectItem]) -> List[str]:
        names: List[str] = []
        used: set[str] = set()
        for index, item in enumerate(items):
            name = item.output_name or render_expression(item.expression)
            base = name
            suffix = 1
            while name.lower() in used:
                suffix += 1
                name = f"{base}_{suffix}"
            used.add(name.lower())
            names.append(name)
        return names

    def _apply_order_by(
        self,
        query: ast.SelectQuery,
        output_rows: List[Dict[str, Any]],
        scopes: Sequence[Scope],
        parent: Optional[EvaluationContext],
        group_aggregates: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> List[Dict[str, Any]]:
        # ORDER BY expressions are evaluated against the output row, with
        # ``scopes[index]`` merged in as fallback: the source row of a flat
        # query, the group's scope (its keys) of a grouped one, so
        # ``GROUP BY a ORDER BY a`` sorts by ``a`` even when ``a`` is not
        # selected.  A grouped row also sees its group aggregates
        # (``group_aggregates``, aligned with ``output_rows``: ``ORDER BY
        # COUNT(*)`` needs no select item).
        order_fns = [make_evaluator(item.expression, self._compiler) for item in query.order_by]

        def sort_key(pair: Tuple[int, Dict[str, Any]]) -> Tuple:
            index, row = pair
            scope = {key.lower(): value for key, value in row.items()}
            if index < len(scopes):
                scope = {**scopes[index], **scope}
            context = self._context(
                scope, parent, None if group_aggregates is None else group_aggregates[index]
            )
            keys = []
            for fn, item in zip(order_fns, query.order_by):
                try:
                    value = fn(context)
                except ExecutionError:
                    value = None
                keys.append(_OrderKey(value, item.ascending))
            return tuple(keys)

        ordered = sorted(enumerate(output_rows), key=sort_key)
        return [row for _, row in ordered]


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


# _OrderKey lives in repro.engine.table (imported above) so the columnar
# ORDER BY fast path, the row-at-a-time sort and window ordering share one
# comparator and can never drift apart.


def _scope_key(column: ast.Column) -> str:
    """The scope key a column reference reads first."""
    name = column.name.lower()
    return f"{column.table.lower()}.{name}" if column.table else name


def _check_grouped_items(query: ast.SelectQuery) -> None:
    if any(isinstance(item.expression, ast.Star) for item in query.items):
        raise ExecutionError("SELECT * cannot be combined with GROUP BY / aggregates")


def _state_column(relation: Relation, name: str) -> Sequence[Any]:
    """``name``'s value array in a partial-state relation (KeyError if absent)."""
    column = relation.column_array(name)
    if column is None:
        raise KeyError(name)
    return column


def _relation_scopes(relation: Relation, qualifier: str, allow_reuse: bool) -> List[Scope]:
    """Per-row scope dicts built straight from a relation's column arrays.

    Keys are lowered once per relation, and rows materialize via C-level
    ``zip`` over the columns.  With ``allow_reuse`` (compiled path) the
    unqualified scopes come from :meth:`Relation.scope_rows`, which caches
    them on the relation until it mutates — scopes are read-only throughout
    the executor, so repeated executions over the same table pay zero scope
    construction.  The interpreted oracle always builds fresh dicts.
    """
    names = relation.schema.names
    if not names:
        return [{} for _ in range(len(relation))]
    lowered = [name.lower() for name in names]
    if qualifier:
        prefix = qualifier.lower()
        keys = lowered + [f"{prefix}.{low}" for low in lowered]
        return [dict(zip(keys, values + values)) for values in zip(*relation.columns())]
    if allow_reuse:
        return relation.scope_rows()
    return [dict(zip(lowered, values)) for values in zip(*relation.columns())]


def _null_scope(columns: Sequence[str], scopes: List[Scope]) -> Scope:
    template = scopes[0] if scopes else {name.lower(): None for name in columns}
    return {key: None for key in template}


def _freeze_tuple(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
    return tuple(_freeze(value) for value in row)


def _unique(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen: set = set()
    result = []
    for row in rows:
        key = _freeze_tuple(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


# tail_positions lives in repro.engine.vectorized and _freeze in
# repro.engine.table (both imported above) so the columnar paths and the
# row-at-a-time tail share one implementation and can never drift apart.
