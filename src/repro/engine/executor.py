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

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.aggregates import (
    compute_aggregate,
    is_decomposable_aggregate,
    make_accumulator,
)
from repro.engine.compile import CompiledExpr, ExpressionCompiler
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.errors import ExecutionError
from repro.engine.evaluator import EvaluationContext, evaluate, evaluate_predicate
from repro.engine.join import (
    UnhashableJoinKey,
    extract_equi_keys,
    hash_join,
    hash_semi_join,
)
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import infer_type
from repro.engine.stats import optimizer_stats
from repro.engine.vectorized import (
    _OrderKey,
    build_schema as _build_schema,
    distinct_rows as _distinct_rows,
    freeze_value as _freeze,
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

def _shallow_function_calls(node: ast.Node) -> List[ast.FunctionCall]:
    """Function calls in ``node`` that do not sit inside a nested subquery.

    Aggregates/windows belonging to a scalar/EXISTS/IN subquery are evaluated
    by that subquery's own executor pass, not by the enclosing query.
    """
    calls: List[ast.FunctionCall] = []
    stack: List[ast.Node] = [node]
    while stack:
        current = stack.pop()
        if current is None or isinstance(current, ast.Query):
            continue
        if isinstance(current, ast.FunctionCall):
            calls.append(current)
        stack.extend(child for child in current.children() if child is not None)
    return calls


class _AggregateSpec:
    """One distinct aggregate call of a grouped query (compiled path)."""

    __slots__ = ("key", "name", "is_star", "distinct", "arg_fns", "arg_count")

    def __init__(
        self,
        key: str,
        name: str,
        is_star: bool,
        distinct: bool,
        arg_fns: Optional[List[CompiledExpr]],
    ) -> None:
        self.key = key
        self.name = name
        self.is_star = is_star
        self.distinct = distinct
        self.arg_fns = arg_fns
        self.arg_count = len(arg_fns) if arg_fns else 1

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
    """Compile-once artefacts for a grouped SELECT."""

    __slots__ = (
        "query",
        "output_names",
        "key_fns",
        "key_columns",
        "specs",
        "having_fn",
        "item_fns",
    )

    def __init__(
        self, query, output_names, key_fns, key_columns, specs, having_fn, item_fns
    ) -> None:
        self.query = query
        self.output_names = output_names
        self.key_fns = key_fns
        #: GROUP BY expressions as plain Columns (None when any is complex).
        self.key_columns = key_columns
        self.specs = specs
        self.having_fn = having_fn
        self.item_fns = item_fns


class _PartialSpec:
    """One decomposable aggregate call of a partially-aggregated query."""

    __slots__ = ("key", "name", "is_star", "distinct", "arg_eval")

    def __init__(
        self,
        key: str,
        name: str,
        is_star: bool,
        distinct: bool,
        arg_eval: Optional[Callable[[EvaluationContext], Any]],
    ) -> None:
        self.key = key
        self.name = name
        self.is_star = is_star
        self.distinct = distinct
        #: Evaluates the single argument for one row; ``None`` feeds the
        #: star row (``COUNT(*)`` / argument-free calls).
        self.arg_eval = arg_eval

    def make(self) -> Any:
        return make_accumulator(
            self.name, is_star=self.is_star, distinct=self.distinct, arg_count=1
        )


class _PartialPlan:
    """Compile-once artefacts for the partial-aggregation protocol.

    The same plan drives all three phases of a distributed GROUP BY: the
    *partial* phase (leaf chunks -> mergeable state rows), the *combine*
    phase (state rows -> fewer state rows, one per group) and the
    *finalize* phase (state rows -> the query's actual output).  State
    relations carry the group-key columns under their original names plus
    one opaque state column per distinct aggregate call.
    """

    __slots__ = ("query", "key_names", "state_names", "specs", "key_evals")

    def __init__(self, query, key_names, state_names, specs, key_evals) -> None:
        self.query = query
        #: Group-key column names, in GROUP BY order (original case).
        self.key_names = key_names
        #: State column names (``__agg0``, ``__agg1``, ...).
        self.state_names = state_names
        self.specs = specs
        #: Evaluates each group-key column for one row scope.
        self.key_evals = key_evals


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


class QueryExecutor:
    """Execute :class:`~repro.sql.ast.Query` nodes against named relations."""

    def __init__(
        self, catalog: Mapping[str, Relation], config: EngineConfig = DEFAULT_CONFIG
    ) -> None:
        self._catalog = {name.lower(): relation for name, relation in catalog.items()}
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
        self._where_plans: Dict[int, _WherePlan] = {}
        self._partial_plans: Dict[int, _PartialPlan] = {}
        self._qualified_memo: Dict[int, Tuple[ast.Node, bool]] = {}
        # Vectorized scan plans (repro.engine.vectorized); entries cache the
        # "ineligible" verdict too, so bailing queries plan only once.
        self._vector_plans: Dict[int, Tuple[ast.Node, Any]] = {}
        self._vector_partial_plans: Dict[int, Tuple[ast.Node, Any]] = {}

    #: Plan memos are flushed wholesale past this size so a long-lived
    #: executor serving many distinct queries cannot grow without bound.
    _MAX_PLAN_ENTRIES = 512

    def _store_plan(self, memo: Dict[int, Any], key: int, plan: Any) -> None:
        if len(memo) >= self._MAX_PLAN_ENTRIES:
            memo.clear()
        memo[key] = plan

    def replace_relation(self, name: str, relation: Relation) -> None:
        """Swap a catalog entry whose column names are unchanged.

        Compiled plans only capture column *names* (star expansion, fast
        scope keys, subquery-constancy decisions), so a same-shape swap keeps
        every cached plan valid — the pipeline registers each fragment result
        under a stable name and schema on every run.
        """
        self._catalog[name.lower()] = relation

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, query: ast.Query) -> Relation:
        """Execute ``query`` and return the result relation."""
        if self._compiler is not None:
            self._compiler.new_execution()
        return self._execute_query(query, parent=None)

    def lookup_table(self, name: str) -> Relation:
        """Return the catalog relation registered under ``name``."""
        relation = self._catalog.get(name.lower())
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

        # Scopes only need alias-qualified keys when something in the query
        # subtree (including correlated subqueries) uses the qualified form.
        needs_qualified = not self._use_compiled or self._needs_qualified_scopes(query)
        scopes, source_columns = self._evaluate_from(
            query.from_clause, parent, needs_qualified
        )

        # WHERE
        if query.where is not None:
            if self._use_compiled:
                scopes = self._filter_where_compiled(query, scopes, parent)
            else:
                scopes = [
                    scope
                    for scope in scopes
                    if evaluate_predicate(query.where, self._context(scope, parent))
                ]

        has_group_by = bool(query.group_by)
        has_aggregates = self._select_has_aggregates(query)

        if has_group_by or has_aggregates:
            if self._use_compiled:
                output_rows, output_names = self._execute_grouped_compiled(query, scopes, parent)
            else:
                output_rows, output_names = self._execute_grouped(query, scopes, parent)
        else:
            if self._use_compiled:
                output_rows, output_names = self._execute_flat_compiled(
                    query, scopes, source_columns, parent
                )
            else:
                output_rows, output_names = self._execute_flat(query, scopes, source_columns, parent)

        # DISTINCT
        if query.distinct:
            output_rows = _distinct_rows(output_rows, output_names)

        # ORDER BY (may reference output aliases or source columns)
        if query.order_by:
            output_rows = self._apply_order_by(query, output_rows, scopes, parent, has_group_by or has_aggregates)

        # LIMIT / OFFSET
        if query.offset is not None:
            output_rows = output_rows[query.offset :]
        if query.limit is not None:
            output_rows = output_rows[: query.limit]

        schema = _build_schema(output_names, output_rows)
        return Relation(schema=schema, rows=output_rows, name="")

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
        parent: Optional[EvaluationContext],
    ) -> Tuple[List[Dict[str, Any]], List[str]]:
        items = query.items
        if any(isinstance(item.expression, ast.Star) for item in items):
            raise ExecutionError("SELECT * cannot be combined with GROUP BY / aggregates")

        groups: Dict[Tuple[Any, ...], List[Scope]] = {}
        order: List[Tuple[Any, ...]] = []
        for scope in scopes:
            context = self._context(scope, parent)
            key = tuple(
                _freeze(evaluate(expression, context)) for expression in query.group_by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(scope)

        # A query with aggregates but no GROUP BY forms one global group, even
        # when the input is empty (COUNT(*) over an empty table is 0).
        if not query.group_by and not groups:
            groups[()] = []
            order.append(())

        aggregate_calls = self._collect_aggregate_calls(query)
        output_names = self._output_names(items)
        output_rows: List[Dict[str, Any]] = []

        for key in order:
            group_scopes = groups[key]
            aggregates = self._compute_group_aggregates(aggregate_calls, group_scopes, parent)
            representative = group_scopes[0] if group_scopes else {}
            context = self._context(representative, parent, aggregates)

            if query.having is not None and not evaluate_predicate(query.having, context):
                continue

            row = {}
            for item, name in zip(items, output_names):
                row[name] = evaluate(item.expression, context)
            output_rows.append(row)
        return output_rows, output_names

    def _group_plan(self, query: ast.SelectQuery) -> _GroupPlan:
        plan = self._group_plans.get(id(query))
        if plan is not None and plan.query is query:
            return plan
        compiler = self._compiler
        assert compiler is not None
        items = query.items
        if any(isinstance(item.expression, ast.Star) for item in items):
            raise ExecutionError("SELECT * cannot be combined with GROUP BY / aggregates")
        key_fns = [compiler.compile(expression) for expression in query.group_by]
        specs: List[_AggregateSpec] = []
        seen: set[str] = set()
        for call in self._collect_aggregate_calls(query):
            key = render_expression(call)
            if key in seen:
                continue
            seen.add(key)
            is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
            if is_star or not call.arguments:
                arg_fns = None
            else:
                arg_fns = [compiler.compile(argument) for argument in call.arguments]
            specs.append(_AggregateSpec(key, call.name, is_star, call.distinct, arg_fns))
        having_fn = (
            compiler.compile_predicate(query.having) if query.having is not None else None
        )
        item_fns = [compiler.compile(item.expression) for item in items]
        key_columns = None
        if query.group_by and all(
            isinstance(expression, ast.Column) for expression in query.group_by
        ):
            key_columns = [("", expression) for expression in query.group_by]
        plan = _GroupPlan(
            query, self._output_names(items), key_fns, key_columns, specs, having_fn, item_fns
        )
        self._store_plan(self._group_plans, id(query), plan)
        return plan

    def _execute_grouped_compiled(
        self,
        query: ast.SelectQuery,
        scopes: List[Scope],
        parent: Optional[EvaluationContext],
    ) -> Tuple[List[Dict[str, Any]], List[str]]:
        plan = self._group_plan(query)
        specs = plan.specs
        key_fns = plan.key_fns
        context = self._fresh_context(parent)

        # Plain-column GROUP BY keys can skip expression evaluation entirely.
        fast_keys: Optional[List[str]] = None
        if plan.key_columns is not None and scopes:
            resolved = self._resolve_fast_keys(plan.key_columns, scopes[0], parent)
            if resolved is not None:
                fast_keys = [key for _, key in resolved]

        # Single pass: group keys and aggregate accumulators in one scan.
        groups: Dict[Tuple[Any, ...], Tuple[Scope, List[Any]]] = {}
        order: List[Tuple[Any, ...]] = []
        for scope in scopes:
            context.scope = scope
            context.aggregates = _EMPTY_AGGREGATES
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
                group = (scope, [spec.make() for spec in specs])
                groups[key] = group
                order.append(key)
            accumulators = group[1]
            for spec, accumulator in zip(specs, accumulators):
                arg_fns = spec.arg_fns
                if arg_fns is None:
                    accumulator.add(_STAR_ROW)
                elif len(arg_fns) == 1:
                    accumulator.add((arg_fns[0](context),))
                else:
                    accumulator.add(tuple(fn(context) for fn in arg_fns))

        if not query.group_by and not groups:
            groups[()] = ({}, [spec.make() for spec in specs])
            order.append(())

        output_names = plan.output_names
        item_fns = plan.item_fns
        output_rows: List[Dict[str, Any]] = []
        for key in order:
            representative, accumulators = groups[key]
            context.scope = representative
            context.aggregates = {
                spec.key: accumulator.result()
                for spec, accumulator in zip(specs, accumulators)
            }
            if plan.having_fn is not None and not plan.having_fn(context):
                continue
            output_rows.append(
                {name: fn(context) for name, fn in zip(output_names, item_fns)}
            )
        return output_rows, output_names

    def _collect_aggregate_calls(self, query: ast.SelectQuery) -> List[ast.FunctionCall]:
        calls: List[ast.FunctionCall] = []
        sources: List[ast.Node] = [item.expression for item in query.items]
        if query.having is not None:
            sources.append(query.having)
        for item in query.order_by:
            sources.append(item.expression)
        for source in sources:
            for call in _shallow_function_calls(source):
                if call.window is None and ast.is_aggregate_function(call.name):
                    calls.append(call)
        return calls

    def _compute_group_aggregates(
        self,
        calls: Sequence[ast.FunctionCall],
        group_scopes: List[Scope],
        parent: Optional[EvaluationContext],
    ) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        for call in calls:
            key = render_expression(call)
            if key in results:
                continue
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
    def _expr_eval(self, expression: ast.Expression) -> Callable[[EvaluationContext], Any]:
        """A per-row evaluator for ``expression``, honouring the engine mode."""
        if self._compiler is not None:
            return self._compiler.compile(expression)
        return lambda context, _expr=expression: evaluate(_expr, context)

    def _partial_plan(self, query: ast.SelectQuery) -> _PartialPlan:
        plan = self._partial_plans.get(id(query))
        if plan is not None and plan.query is query:
            return plan
        if query.distinct or query.limit is not None or query.offset is not None:
            raise ExecutionError(
                "Partial aggregation does not support DISTINCT/LIMIT/OFFSET"
            )
        key_names: List[str] = []
        key_evals: List[Callable[[EvaluationContext], Any]] = []
        for expression in query.group_by:
            if not isinstance(expression, ast.Column):
                raise ExecutionError(
                    "Partial aggregation requires plain-column GROUP BY keys"
                )
            if expression.name.lower().startswith("__agg"):
                # Reserved for the state columns of the partial relation.
                raise ExecutionError(
                    f"Partial aggregation cannot group by reserved column "
                    f"{expression.name}"
                )
            key_names.append(expression.name)
            key_evals.append(self._expr_eval(expression))
        if len({name.lower() for name in key_names}) != len(key_names):
            raise ExecutionError("Partial aggregation requires distinct GROUP BY keys")
        specs: List[_PartialSpec] = []
        seen: set[str] = set()
        for call in self._collect_aggregate_calls(query):
            key = render_expression(call)
            if key in seen:
                continue
            seen.add(key)
            is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
            if not is_decomposable_aggregate(
                call.name,
                is_star=is_star,
                distinct=call.distinct,
                arg_count=len(call.arguments) or 1,
            ):
                raise ExecutionError(f"Aggregate {call.name} is not decomposable")
            arg_eval = (
                None
                if is_star or not call.arguments
                else self._expr_eval(call.arguments[0])
            )
            specs.append(_PartialSpec(key, call.name, is_star, call.distinct, arg_eval))
        state_names = [f"__agg{index}" for index in range(len(specs))]
        plan = _PartialPlan(query, key_names, state_names, specs, key_evals)
        self._store_plan(self._partial_plans, id(query), plan)
        return plan

    def execute_partial_aggregation(self, query: ast.SelectQuery) -> Relation:
        """Run ``query``'s FROM/WHERE, then group into mergeable state rows.

        Emits one row per group in first-occurrence order: the group-key
        columns under their original names plus one ``partial()`` state per
        distinct aggregate call.  HAVING, select items and ORDER BY are
        deferred to :meth:`finalize_partial_aggregation` — they must see
        fully merged groups.  A query without GROUP BY always emits exactly
        one (global) group row, even over an empty input, mirroring the
        one-row output the full execution produces.
        """
        if self._compiler is not None:
            self._compiler.new_execution()
        plan = self._partial_plan(query)
        _exec_counts[1] += 1
        if self._vectorized:
            vectorized = try_execute_partial(self, query)
            if vectorized is not None:
                return vectorized
        needs_qualified = not self._use_compiled or self._needs_qualified_scopes(query)
        scopes, _ = self._evaluate_from(query.from_clause, None, needs_qualified)
        if query.where is not None:
            if self._use_compiled:
                scopes = self._filter_where_compiled(query, scopes, None)
            else:
                scopes = [
                    scope
                    for scope in scopes
                    if evaluate_predicate(query.where, self._context(scope, None))
                ]
        context = self._fresh_context(None)
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        order: List[Tuple[Any, ...]] = []
        specs = plan.specs
        for scope in scopes:
            context.scope = scope
            key = tuple(_freeze(fn(context)) for fn in plan.key_evals)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [spec.make() for spec in specs]
                groups[key] = accumulators
                order.append(key)
            for spec, accumulator in zip(specs, accumulators):
                if spec.arg_eval is None:
                    accumulator.add(_STAR_ROW)
                else:
                    accumulator.add((spec.arg_eval(context),))
        if not query.group_by and not groups:
            groups[()] = [spec.make() for spec in specs]
            order.append(())
        return self._partial_state_relation(plan, groups, order)

    def _merge_partial_groups(
        self, plan: _PartialPlan, relation: Relation
    ) -> Tuple[Dict[Tuple[Any, ...], List[Any]], List[Tuple[Any, ...]]]:
        """Group state rows by key (first-occurrence order), merging states.

        Input rows are concatenated partials in partition order, and every
        chunk holds rows the original relation ordered before later chunks'
        rows, so first-occurrence order here equals the group order a
        single pass over the whole input would produce.
        """
        groups: Dict[Tuple[Any, ...], List[Any]] = {}
        order: List[Tuple[Any, ...]] = []
        specs = plan.specs
        for row in relation.rows:
            key = tuple(row[name] for name in plan.key_names)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [spec.make() for spec in specs]
                groups[key] = accumulators
                order.append(key)
            for spec, accumulator, state_name in zip(
                specs, accumulators, plan.state_names
            ):
                accumulator.merge(row[state_name])
        if not plan.query.group_by and not groups:
            groups[()] = [spec.make() for spec in specs]
            order.append(())
        return groups, order

    def _partial_state_relation(
        self,
        plan: _PartialPlan,
        groups: Dict[Tuple[Any, ...], List[Any]],
        order: List[Tuple[Any, ...]],
    ) -> Relation:
        rows: List[Dict[str, Any]] = []
        for key in order:
            row = dict(zip(plan.key_names, key))
            for state_name, accumulator in zip(plan.state_names, groups[key]):
                row[state_name] = accumulator.partial()
            rows.append(row)
        schema = _build_schema(plan.key_names + plan.state_names, rows)
        return Relation(schema=schema, rows=rows, name="")

    def combine_partial_aggregation(
        self, query: ast.SelectQuery, relation: Relation
    ) -> Relation:
        """Merge a relation of partial-state rows into one row per group."""
        plan = self._partial_plan(query)
        groups, order = self._merge_partial_groups(plan, relation)
        return self._partial_state_relation(plan, groups, order)

    def finalize_partial_aggregation(
        self, query: ast.SelectQuery, relation: Relation
    ) -> Relation:
        """Merge partial-state rows and produce ``query``'s actual output.

        Applies HAVING, the select items and ORDER BY over the finalized
        aggregate values — exactly the tail of the grouped execution path,
        so the result is identical to running ``query`` over the
        concatenated raw input.
        """
        if self._compiler is not None:
            self._compiler.new_execution()
        plan = self._partial_plan(query)
        groups, order = self._merge_partial_groups(plan, relation)
        specs = plan.specs
        lowered_keys = [name.lower() for name in plan.key_names]
        context = self._fresh_context(None)
        output_rows: List[Dict[str, Any]] = []
        if self._use_compiled:
            group_plan = self._group_plan(query)
            output_names = group_plan.output_names
            for key in order:
                context.scope = dict(zip(lowered_keys, key))
                context.aggregates = {
                    spec.key: accumulator.finalize()
                    for spec, accumulator in zip(specs, groups[key])
                }
                if group_plan.having_fn is not None and not group_plan.having_fn(context):
                    continue
                output_rows.append(
                    {
                        name: fn(context)
                        for name, fn in zip(output_names, group_plan.item_fns)
                    }
                )
        else:
            output_names = self._output_names(query.items)
            for key in order:
                scope = dict(zip(lowered_keys, key))
                aggregates = {
                    spec.key: accumulator.finalize()
                    for spec, accumulator in zip(specs, groups[key])
                }
                row_context = self._context(scope, None, aggregates)
                if query.having is not None and not evaluate_predicate(
                    query.having, row_context
                ):
                    continue
                output_rows.append(
                    {
                        name: evaluate(item.expression, row_context)
                        for item, name in zip(query.items, output_names)
                    }
                )
        if query.order_by:
            output_rows = self._apply_order_by(query, output_rows, [], None, True)
        schema = _build_schema(output_names, output_rows)
        return Relation(schema=schema, rows=output_rows, name="")

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
            relation = self._catalog.get(from_clause.name.lower())
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
                relation = self._catalog.get(query.from_clause.name.lower())
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

    def _select_has_aggregates(self, query: ast.SelectQuery) -> bool:
        sources: List[ast.Node] = [item.expression for item in query.items]
        if query.having is not None:
            sources.append(query.having)
        for source in sources:
            for call in _shallow_function_calls(source):
                if call.window is None and ast.is_aggregate_function(call.name):
                    return True
        return False

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
        scopes: List[Scope],
        parent: Optional[EvaluationContext],
        grouped: bool,
    ) -> List[Dict[str, Any]]:
        # After grouping the source scopes no longer align with the output
        # rows, so ORDER BY expressions are evaluated against the output row
        # only.  For flat queries the source scope is merged in as fallback.
        def row_scope(index: int, row: Dict[str, Any]) -> Scope:
            scope = {key.lower(): value for key, value in row.items()}
            if not grouped and index < len(scopes):
                merged = dict(scopes[index])
                merged.update(scope)
                return merged
            return scope

        if self._use_compiled:
            compiler = self._compiler
            assert compiler is not None
            order_fns = [compiler.compile(item.expression) for item in query.order_by]
            context = self._fresh_context(parent)

            def sort_key_compiled(pair: Tuple[int, Dict[str, Any]]) -> Tuple:
                index, row = pair
                context.scope = row_scope(index, row)
                keys = []
                for fn, item in zip(order_fns, query.order_by):
                    try:
                        value = fn(context)
                    except ExecutionError:
                        value = None
                    keys.append(_OrderKey(value, item.ascending))
                return tuple(keys)

            ordered = sorted(enumerate(output_rows), key=sort_key_compiled)
            return [row for _, row in ordered]

        def sort_key(pair: Tuple[int, Dict[str, Any]]) -> Tuple:
            index, row = pair
            context = self._context(row_scope(index, row), parent)
            keys = []
            for item in query.order_by:
                try:
                    value = evaluate(item.expression, context)
                except ExecutionError:
                    value = None
                keys.append(_OrderKey(value, item.ascending))
            return tuple(keys)

        ordered = sorted(enumerate(output_rows), key=sort_key)
        return [row for _, row in ordered]


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


# _OrderKey lives in repro.engine.vectorized (imported above) so the
# columnar ORDER BY fast path and the row-at-a-time sort share one
# comparator and can never drift apart.


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


# _build_schema / _distinct_rows / _freeze live in repro.engine.vectorized
# (imported above) so the columnar fast paths and the row-at-a-time tail
# share one implementation and can never drift apart.
