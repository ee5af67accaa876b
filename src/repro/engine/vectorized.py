"""Vectorized scan/aggregate fast paths over columnar relations.

The compiled executor's default path still walks one row scope at a time:
every scanned row costs a scope dict, a closure call per expression and a
tuple per aggregate feed.  For the most common fragment shapes — a plain
projection, a conjunction of simple comparisons, a GROUP BY over plain
columns — none of that is necessary once relations are columnar
(:mod:`repro.engine.table`): the answer is a column slice away.

This module plans and executes those shapes directly over the column
arrays:

* **Flat projection** (``SELECT a, b FROM t [WHERE ...] [LIMIT/OFFSET]``
  with plain-column items): output columns are sliced/gathered straight
  from the input arrays into :meth:`Relation.from_columns` — no row scope,
  no output dict, no per-row anything.
* **Simple predicates** (``col <op> literal``, ``col <op> col``,
  ``col IS [NOT] NULL``, ``col [NOT] BETWEEN lit AND lit``,
  ``col [NOT] LIKE 'pat'``, ``col [NOT] IN (literals)`` joined by ``AND``)
  filter an index selection per conjunct with exact three-valued NULL
  semantics and the same error behaviour as the compiled closures.
* **Aggregate scans** (GROUP BY over plain columns, aggregate arguments
  that are plain columns or ``*``): rows are partitioned into per-group
  index lists in one pass, then every accumulator consumes its argument
  column slice in bulk (:meth:`add_many`).  HAVING, select items and
  ORDER BY reuse the executor's compiled group plan, so results are
  byte-identical to the row-at-a-time path.
* **Partial aggregation scans** — the distributed GROUP BY leaf phase —
  use the same machinery and emit mergeable state relations.

Anything outside these shapes (joins, subqueries, window functions,
qualified references, expression keys...) bails to the executor's
row-at-a-time path by returning ``None`` from the planner.  The executor's
:class:`~repro.engine.config.EngineConfig` decides whether these paths run
at all (``vectorized=False`` is the row-path ablation; the interpreted
oracle never takes them, which is what the differential suite leans on)
and whether the planner may use the optimizer-era widenings
(``optimizer``).  Plans are cached per executor, and an executor's config
never changes, so plan memos need no config key.

**Error identity.**  The vectorized scan evaluates conjunct-major and
group-major, so when row-level evaluation fails (incomparable types in a
predicate, a NaN/Inf reaching an exact accumulator) the *first* failure it
hits may differ from the row-major order of the compiled closures.  Both
scans evaluate exactly the same (row, expression) pairs, so an error on
one path implies an error on the other — the fast path therefore abandons
the scan on any such error and lets the row path re-raise its own
row-major error, keeping error identity byte-for-byte.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.columns import BOOL, INT64, TypedColumn, take_column
from repro.engine.errors import ExecutionError
from repro.engine.evaluator import _like_to_regex
from repro.engine.schema import ColumnDef, Schema
from repro.engine.stats import TableStats, optimizer_stats
from repro.engine.table import Relation
from repro.engine.types import DataType, infer_type
from repro.sql import ast
from repro.sql.render import render_expression

class BailReason(str, Enum):
    """Why a query fell back to the row-at-a-time path.

    Plan-time reasons are recorded on *every* bailing call (cache hits
    included), so the counters measure fallback executions, not distinct
    queries; runtime reasons (``COLUMN_DRIFT``, ``SCAN_ABANDONED``) fire
    when an eligible plan could not finish over the column arrays.
    """

    NOT_SELECT = "not_select"
    COMPOUND_SOURCE = "compound_source"  # join / subquery / derived table
    QUALIFIED_SCOPES = "qualified_scopes"
    UNKNOWN_TABLE = "unknown_table"
    COMPLEX_PREDICATE = "complex_predicate"
    STAR_IN_GROUP_BY = "star_in_group_by"
    EXPRESSION_GROUP_KEY = "expression_group_key"
    AGGREGATE_ARGS = "aggregate_args"
    DISTINCT_OR_ORDER_BY = "distinct_or_order_by"
    EXPRESSION_ITEM = "expression_item"
    COLUMN_DRIFT = "column_drift"
    SCAN_ABANDONED = "scan_abandoned"
    #: A consumed column is declared int/float but its backing degraded to
    #: a generic Python list, forcing the boxed per-cell path through an
    #: otherwise vectorized scan.  Unlike the other reasons this does not
    #: mean the scan fell back to the row path — it measures lost typed
    #: throughput (surfaced in the profile report's scan-path section).
    UNTYPED_BACKING = "untyped_backing"


class ScanStats:
    """Counters of fast-path hits and bail reasons (advisory; plain-int
    increments so the per-query hot path stays lock-free)."""

    __slots__ = ("flat", "grouped", "partial", "typed", "bails")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.flat = 0
        self.grouped = 0
        self.partial = 0
        #: Completed scans that consumed at least one typed-backed column.
        self.typed = 0
        self.bails: Dict[str, int] = {}

    def bail(self, reason: "BailReason") -> None:
        key = reason.value
        self.bails[key] = self.bails.get(key, 0) + 1

    @property
    def total(self) -> int:
        return self.flat + self.grouped + self.partial

    @property
    def fallbacks(self) -> int:
        return sum(self.bails.values())


stats = ScanStats()


# ---------------------------------------------------------------------------
# shared helpers (the executor imports these — keep them executor-free)
# ---------------------------------------------------------------------------


def freeze_value(value: Any) -> Any:
    """Hashable stand-in for group/distinct keys (identity on scalars)."""
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def distinct_rows(rows: List[Dict[str, Any]], names: List[str]) -> List[Dict[str, Any]]:
    """Order-preserving duplicate removal over output dict rows."""
    seen: set = set()
    result = []
    for row in rows:
        key = tuple(freeze_value(row.get(name)) for name in names)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _first_non_null_type(values) -> Any:
    """The shared inference rule: first non-null value decides, else FLOAT."""
    if isinstance(values, TypedColumn):
        # The backing decides in O(1): typed columns hold exactly ints,
        # floats or bools, matching what per-value inference returns.
        if values.null_count == len(values):
            return infer_type(0.0)
        if values.typecode == INT64:
            return DataType.INTEGER
        if values.typecode == BOOL:
            return DataType.BOOLEAN
        return DataType.FLOAT
    for value in values:
        if value is not None:
            return infer_type(value)
    return infer_type(0.0)


def build_schema(names: List[str], rows: List[Dict[str, Any]]) -> Schema:
    """Schema inferred from output rows: first non-null value per column."""
    return Schema(
        [
            ColumnDef(
                name=name,
                data_type=_first_non_null_type(row.get(name) for row in rows),
            )
            for name in names
        ]
    )


def build_schema_from_columns(names: List[str], columns: Sequence[List[Any]]) -> Schema:
    """Columnar twin of :func:`build_schema` (same inference core)."""
    return Schema(
        [
            ColumnDef(name=name, data_type=_first_non_null_type(column))
            for name, column in zip(names, columns)
        ]
    )


# ---------------------------------------------------------------------------
# simple predicates
# ---------------------------------------------------------------------------

_EQ_OPS = {"=": False, "<>": True, "!=": True}
_ORDER_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Selection state threaded through the conjunct filters: the surviving
#: indices (not yet definitely false) and the subset that saw a NULL
#: conjunct.  NULL rows keep evaluating later conjuncts — exactly like the
#: compiled AND closure, which only short-circuits on a definite false —
#: but are excluded from the final selection.
Selection = Tuple[List[int], Set[int]]


class _AlwaysNullPred:
    """A conjunct that is NULL for every row (e.g. ``x < NULL``)."""

    __slots__ = ()
    columns: Tuple[str, ...] = ()
    #: Relative per-row evaluation cost, the tiebreaker when two conjuncts
    #: estimate equally selective (cheapest-most-selective first).
    cost = 0.1

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        nulls.update(sel)
        return sel


class _IsNullPred:
    __slots__ = ("column", "negated")
    cost = 0.5

    def __init__(self, column: str, negated: bool) -> None:
        self.column = column
        self.negated = negated

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        if isinstance(array, TypedColumn):
            isnull = array.null_map()
            if self.negated:
                return [i for i in sel if not isnull[i]]
            return [i for i in sel if isnull[i]]
        if self.negated:
            return [i for i in sel if array[i] is not None]
        return [i for i in sel if array[i] is None]


class _ComparePred:
    """``col <op> literal`` (or ``literal <op> col`` when ``swapped``)."""

    __slots__ = ("column", "op", "value", "invert", "order_op", "swapped")
    cost = 1.0

    def __init__(self, column: str, op: str, value: Any, swapped: bool) -> None:
        self.column = column
        self.op = op
        self.value = value
        self.invert = _EQ_OPS.get(op)
        self.order_op = _ORDER_OPS.get(op)
        self.swapped = swapped

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        const = self.value
        out: List[int] = []
        add_null = nulls.add
        if isinstance(array, TypedColumn):
            # Typed backing: read the unboxed buffer directly and test NULL
            # through the byte map — no per-cell boxing or None sentinel.
            isnull = array.null_map()
            data = array.data_array()
            if self.invert is not None:
                wanted = not self.invert
                for i in sel:
                    if isnull[i]:
                        out.append(i)
                        add_null(i)
                    elif (data[i] == const) is wanted:
                        out.append(i)
                return out
            op = self.order_op
            if self.swapped:
                for i in sel:
                    if isnull[i]:
                        out.append(i)
                        add_null(i)
                    elif op(const, data[i]):
                        out.append(i)
            else:
                for i in sel:
                    if isnull[i]:
                        out.append(i)
                        add_null(i)
                    elif op(data[i], const):
                        out.append(i)
            return out
        if self.invert is not None:  # = / <> / != : never raises
            wanted = not self.invert
            for i in sel:
                value = array[i]
                if value is None:
                    out.append(i)
                    add_null(i)
                elif (value == const) is wanted:
                    out.append(i)
            return out
        # Ordering comparisons may raise TypeError on incomparable values;
        # the caller abandons the scan then (see "Error identity" above).
        op = self.order_op
        if self.swapped:
            for i in sel:
                value = array[i]
                if value is None:
                    out.append(i)
                    add_null(i)
                elif op(const, value):
                    out.append(i)
        else:
            for i in sel:
                value = array[i]
                if value is None:
                    out.append(i)
                    add_null(i)
                elif op(value, const):
                    out.append(i)
        return out


class _ColumnComparePred:
    """``col <op> col`` between two columns of the scanned relation."""

    __slots__ = ("left", "right", "op", "invert", "order_op")
    cost = 1.2

    def __init__(self, left: str, right: str, op: str) -> None:
        self.left = left
        self.right = right
        self.op = op
        self.invert = _EQ_OPS.get(op)
        self.order_op = _ORDER_OPS.get(op)

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.left, self.right)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        left = relation.column_array(self.left)
        right = relation.column_array(self.right)
        out: List[int] = []
        add_null = nulls.add
        if self.invert is not None:
            wanted = not self.invert
            for i in sel:
                lhs, rhs = left[i], right[i]
                if lhs is None or rhs is None:
                    out.append(i)
                    add_null(i)
                elif (lhs == rhs) is wanted:
                    out.append(i)
            return out
        op = self.order_op
        for i in sel:
            lhs, rhs = left[i], right[i]
            if lhs is None or rhs is None:
                out.append(i)
                add_null(i)
            elif op(lhs, rhs):
                out.append(i)
        return out


class _BetweenPred:
    """``col [NOT] BETWEEN literal AND literal``.

    Type errors from the chained comparison propagate to the caller, which
    abandons the scan so the row path re-raises in its own order.
    """

    __slots__ = ("column", "low", "high", "negated")
    cost = 1.5

    def __init__(self, column: str, low: Any, high: Any, negated: bool) -> None:
        self.column = column
        self.low = low
        self.high = high
        self.negated = negated

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        low, high = self.low, self.high
        negated = self.negated
        out: List[int] = []
        add_null = nulls.add
        for i in sel:
            value = array[i]
            if value is None:
                out.append(i)
                add_null(i)
                continue
            result = low <= value <= high
            if (not result) if negated else result:
                out.append(i)
        return out


class _LikePred:
    """``col [NOT] LIKE 'pattern'`` with a literal pattern."""

    __slots__ = ("column", "regex", "negated")
    cost = 4.0

    def __init__(self, column: str, pattern: str, negated: bool) -> None:
        self.column = column
        self.regex = _like_to_regex(pattern)
        self.negated = negated

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        match = self.regex.match
        negated = self.negated
        out: List[int] = []
        add_null = nulls.add
        for i in sel:
            value = array[i]
            if value is None:
                out.append(i)
                add_null(i)
                continue
            result = bool(match(str(value)))
            if (not result) if negated else result:
                out.append(i)
        return out


class _InListPred:
    """``col [NOT] IN (literal, ...)`` — NULL members are dropped up front."""

    __slots__ = ("column", "constants", "negated")
    cost = 1.5

    def __init__(self, column: str, constants: List[Any], negated: bool) -> None:
        self.column = column
        self.constants = constants
        self.negated = negated

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        constants = self.constants
        negated = self.negated
        out: List[int] = []
        add_null = nulls.add
        for i in sel:
            value = array[i]
            if value is None:
                out.append(i)
                add_null(i)
            elif (value not in constants) if negated else (value in constants):
                out.append(i)
        return out


class _OrPred:
    """An OR of conjunct lists, each disjunct built from simple predicates.

    Each disjunct runs its conjuncts over the incoming selection — a
    superset of what the short-circuiting compiled OR would touch, which
    the "Error identity" contract explicitly permits — and the results
    combine with SQL three-valued OR: a row true in any disjunct passes as
    true (even if NULL in another), a row with no true and at least one
    NULL disjunct carries NULL, anything else is dropped as false.
    """

    __slots__ = ("disjuncts", "columns")
    cost = 4.0

    def __init__(self, disjuncts: List[List[Any]]) -> None:
        self.disjuncts = disjuncts
        columns: List[str] = []
        for conjuncts in disjuncts:
            for predicate in conjuncts:
                columns.extend(predicate.columns)
        self.columns = tuple(columns)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        optimizer_stats.or_scans += 1
        true_rows: Set[int] = set()
        null_rows: Set[int] = set()
        for conjuncts in self.disjuncts:
            local_sel = sel
            local_nulls: Set[int] = set()
            for predicate in conjuncts:
                local_sel = predicate.apply(relation, local_sel, local_nulls)
                if not local_sel:
                    break
            for i in local_sel:
                if i in local_nulls:
                    null_rows.add(i)
                else:
                    true_rows.add(i)
        out: List[int] = []
        add_null = nulls.add
        for i in sel:
            if i in true_rows:
                out.append(i)
            elif i in null_rows:
                out.append(i)
                add_null(i)
        return out


class _ExprComparePred:
    """``<arithmetic expr> <op> <arithmetic expr>`` over columns/literals.

    Both sides are compiled by :func:`_compile_value` to ``(cols, i)``
    closures mirroring the compiled operator semantics exactly (NULL
    propagation, division/modulo by zero yielding NULL).  Ordering
    comparisons on incomparable values raise TypeError, which abandons the
    scan so the row path re-raises its own ``Cannot compare`` error.
    """

    __slots__ = ("left", "right", "invert", "order_op", "columns")
    cost = 3.0

    def __init__(self, left_fn, right_fn, op: str, columns: List[str]) -> None:
        self.left = left_fn
        self.right = right_fn
        self.invert = _EQ_OPS.get(op)
        self.order_op = _ORDER_OPS.get(op)
        self.columns = tuple(columns)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        optimizer_stats.expr_compare_scans += 1
        cols = [relation.column_array(name) for name in self.columns]
        left = self.left
        right = self.right
        out: List[int] = []
        add_null = nulls.add
        if self.invert is not None:
            wanted = not self.invert
            for i in sel:
                lhs = left(cols, i)
                rhs = right(cols, i)
                if lhs is None or rhs is None:
                    out.append(i)
                    add_null(i)
                elif (lhs == rhs) is wanted:
                    out.append(i)
            return out
        op = self.order_op
        for i in sel:
            lhs = left(cols, i)
            rhs = right(cols, i)
            if lhs is None or rhs is None:
                out.append(i)
                add_null(i)
            elif op(lhs, rhs):
                out.append(i)
        return out


def _plain_column(node: ast.Node) -> Optional[str]:
    """The lower-cased name of an unqualified plain column reference."""
    if isinstance(node, ast.Column) and not node.table:
        return node.name.lower()
    return None


_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})


def _has_arithmetic(node: ast.Expression) -> bool:
    """Does either comparison side start with arithmetic (or negation)?"""
    if isinstance(node, ast.BinaryOp) and node.operator in _ARITH_OPS:
        return True
    return isinstance(node, ast.UnaryOp) and node.operator == "-"


def _compile_value(node: ast.Expression, columns: List[str]):
    """Compile an arithmetic operand tree to a ``(cols, i) -> value`` closure.

    ``columns`` is the predicate's shared column registry: every plain
    column reference resolves to a stable position in it, and ``cols`` at
    apply time is the matching list of live column arrays.  Returns None
    for shapes outside the vocabulary (qualified columns, function calls,
    subqueries...).  Semantics mirror the compiled closures bit for bit:
    NULL operands propagate, ``/`` and ``%`` by zero yield NULL, every
    other arithmetic error propagates (and abandons the scan).
    """
    if isinstance(node, ast.Literal):
        const = node.value
        return lambda cols, i: const
    name = _plain_column(node)
    if name is not None:
        if name in columns:
            position = columns.index(name)
        else:
            position = len(columns)
            columns.append(name)
        return lambda cols, i: cols[position][i]
    if isinstance(node, ast.UnaryOp) and node.operator == "-":
        inner = _compile_value(node.operand, columns)
        if inner is None:
            return None

        def negate(cols, i):
            value = inner(cols, i)
            return None if value is None else -value

        return negate
    if isinstance(node, ast.BinaryOp) and node.operator in _ARITH_OPS:
        left = _compile_value(node.left, columns)
        if left is None:
            return None
        right = _compile_value(node.right, columns)
        if right is None:
            return None
        op = node.operator
        if op in ("/", "%"):
            binop = operator.truediv if op == "/" else operator.mod

            def guarded(cols, i):
                lhs = left(cols, i)
                rhs = right(cols, i)
                if lhs is None or rhs is None or rhs == 0:
                    return None
                return binop(lhs, rhs)

            return guarded
        binop = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]

        def arith(cols, i):
            lhs = left(cols, i)
            rhs = right(cols, i)
            if lhs is None or rhs is None:
                return None
            return binop(lhs, rhs)

        return arith
    return None


def _disjunction_terms(expression: ast.Expression) -> List[ast.Expression]:
    """Split a boolean expression into its top-level OR-ed branches."""
    if isinstance(expression, ast.BinaryOp) and expression.operator.upper() == "OR":
        return _disjunction_terms(expression.left) + _disjunction_terms(
            expression.right
        )
    return [expression]


def _or_predicate(term: ast.BinaryOp):
    """Compile an OR tree to :class:`_OrPred`, or None when any leaf is
    outside the simple-predicate vocabulary."""
    disjuncts: List[List[Any]] = []
    for branch in _disjunction_terms(term):
        conjuncts: List[Any] = []
        for sub in ast.conjunction_terms(branch):
            predicate = _simple_predicate(sub)
            if predicate is None:
                return None
            conjuncts.append(predicate)
        disjuncts.append(conjuncts)
    return _OrPred(disjuncts)


def _simple_predicate(term: ast.Expression, optimizer: bool = True):
    """Compile one WHERE conjunct to a filter, or None when not simple.

    The base vocabulary (comparisons, IS NULL, BETWEEN, LIKE, IN) is always
    available; OR-of-conjuncts and arithmetic-on-column comparisons are
    optimizer-era widenings, gated on ``optimizer`` so the ablation arm
    keeps the syntactic bail behaviour.
    """
    if isinstance(term, ast.BinaryOp):
        op = term.operator.upper()
        if op == "OR":
            if not optimizer:
                return None
            return _or_predicate(term)
        if op not in _EQ_OPS and op not in _ORDER_OPS:
            return None
        left_col = _plain_column(term.left)
        right_col = _plain_column(term.right)
        if left_col is not None and right_col is not None:
            return _ColumnComparePred(left_col, right_col, op)
        if left_col is not None and isinstance(term.right, ast.Literal):
            if term.right.value is None:
                return _AlwaysNullPred()
            return _ComparePred(left_col, op, term.right.value, swapped=False)
        if right_col is not None and isinstance(term.left, ast.Literal):
            if term.left.value is None:
                return _AlwaysNullPred()
            return _ComparePred(right_col, op, term.left.value, swapped=True)
        if optimizer and (
            _has_arithmetic(term.left) or _has_arithmetic(term.right)
        ):
            columns: List[str] = []
            left_fn = _compile_value(term.left, columns)
            if left_fn is not None:
                right_fn = _compile_value(term.right, columns)
                if right_fn is not None:
                    return _ExprComparePred(left_fn, right_fn, op, columns)
        return None
    if isinstance(term, ast.IsNull):
        column = _plain_column(term.expression)
        if column is None:
            return None
        return _IsNullPred(column, term.negated)
    if isinstance(term, ast.Between):
        column = _plain_column(term.expression)
        if column is None:
            return None
        if not isinstance(term.low, ast.Literal) or not isinstance(term.high, ast.Literal):
            return None
        if term.low.value is None or term.high.value is None:
            return _AlwaysNullPred()
        return _BetweenPred(column, term.low.value, term.high.value, term.negated)
    if isinstance(term, ast.Like):
        column = _plain_column(term.expression)
        if column is None or not isinstance(term.pattern, ast.Literal):
            return None
        if term.pattern.value is None:
            return _AlwaysNullPred()
        return _LikePred(column, str(term.pattern.value), term.negated)
    if isinstance(term, ast.InList):
        column = _plain_column(term.expression)
        if column is None:
            return None
        if not all(isinstance(value, ast.Literal) for value in term.values):
            return None
        constants = [value.value for value in term.values if value.value is not None]
        return _InListPred(column, constants, term.negated)
    return None


#: Below this row count conjunct reordering is not worth the estimation
#: work — either order finishes in microseconds.
_MIN_REORDER_ROWS = 64

#: ``literal <op> column`` reads as ``column <swapped op> literal``.
_SWAPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _stats_for(table_stats: Optional[TableStats], name: str):
    return None if table_stats is None else table_stats.column(name)


def predicate_selectivity(predicate: Any, table_stats: Optional[TableStats]) -> float:
    """Estimated fraction of rows one conjunct passes (NULLs never pass).

    Backed by the column summaries when available, falling back to the
    classic textbook guesses (1/3 for ranges, 1/10 for equality, 1/4 for
    LIKE) when the column is unknown or stats are absent.
    """
    return min(1.0, max(0.0, _estimate_selectivity(predicate, table_stats)))


def _estimate_selectivity(predicate: Any, table_stats: Optional[TableStats]) -> float:
    if isinstance(predicate, _AlwaysNullPred):
        return 0.0
    if isinstance(predicate, _IsNullPred):
        column = _stats_for(table_stats, predicate.column)
        if column is None or column.rows == 0:
            return 0.9 if predicate.negated else 0.1
        fraction = column.null_fraction
        return (1.0 - fraction) if predicate.negated else fraction
    if isinstance(predicate, _ComparePred):
        column = _stats_for(table_stats, predicate.column)
        op = predicate.op
        if column is None or column.rows == 0:
            return 0.1 if op == "=" else 1.0 / 3.0
        if predicate.invert is not None:
            eq = column.eq_fraction(predicate.value)
            if not predicate.invert:
                return eq
            return max(column.non_null / column.rows - eq, 0.0)
        if predicate.swapped:
            op = _SWAPPED_OPS.get(op, op)
        return column.range_fraction(op, predicate.value)
    if isinstance(predicate, _BetweenPred):
        column = _stats_for(table_stats, predicate.column)
        if column is None or column.rows == 0:
            return 0.75 if predicate.negated else 0.25
        fraction = column.between_fraction(predicate.low, predicate.high)
        if predicate.negated:
            return max(column.non_null / column.rows - fraction, 0.0)
        return fraction
    if isinstance(predicate, _InListPred):
        column = _stats_for(table_stats, predicate.column)
        if column is None or column.rows == 0:
            hit = min(0.1 * max(len(predicate.constants), 1), 1.0)
            return 1.0 - hit if predicate.negated else hit
        total = min(
            sum(column.eq_fraction(constant) for constant in predicate.constants),
            1.0,
        )
        if predicate.negated:
            return max(column.non_null / column.rows - total, 0.0)
        return total
    if isinstance(predicate, _LikePred):
        return 0.75 if predicate.negated else 0.25
    if isinstance(predicate, _ColumnComparePred):
        if predicate.invert is not None and not predicate.invert:
            left = _stats_for(table_stats, predicate.left)
            right = _stats_for(table_stats, predicate.right)
            distinct = max(
                left.distinct if left is not None else 0,
                right.distinct if right is not None else 0,
                1,
            )
            return 1.0 / distinct
        return 1.0 / 3.0
    if isinstance(predicate, _OrPred):
        miss = 1.0
        for conjuncts in predicate.disjuncts:
            disjunct = 1.0
            for sub in conjuncts:
                disjunct *= predicate_selectivity(sub, table_stats)
            miss *= 1.0 - min(disjunct, 1.0)
        return 1.0 - miss
    if isinstance(predicate, _ExprComparePred):
        if predicate.invert is not None and not predicate.invert:
            return 0.15
        return 1.0 / 3.0
    return 1.0 / 3.0


def _plain_numeric(value: Any) -> bool:
    return isinstance(value, (int, float))


def _infallible(predicate: Any, relation: Relation) -> bool:
    """Can this conjunct never raise over ``relation``'s current arrays?

    Equality comparisons, IS NULL, LIKE and IN never raise; ordering
    comparisons are raise-free when both operands are guaranteed numeric
    (typed column backing plus a numeric literal).  Fallibility constrains
    reordering — see :func:`order_conjuncts`.
    """
    if isinstance(predicate, (_AlwaysNullPred, _IsNullPred, _LikePred, _InListPred)):
        return True
    if isinstance(predicate, _ComparePred):
        if predicate.invert is not None:
            return True
        return isinstance(
            relation.column_array(predicate.column), TypedColumn
        ) and _plain_numeric(predicate.value)
    if isinstance(predicate, _ColumnComparePred):
        if predicate.invert is not None:
            return True
        return isinstance(
            relation.column_array(predicate.left), TypedColumn
        ) and isinstance(relation.column_array(predicate.right), TypedColumn)
    if isinstance(predicate, _BetweenPred):
        return (
            isinstance(relation.column_array(predicate.column), TypedColumn)
            and _plain_numeric(predicate.low)
            and _plain_numeric(predicate.high)
        )
    if isinstance(predicate, _OrPred):
        return all(
            _infallible(sub, relation)
            for conjuncts in predicate.disjuncts
            for sub in conjuncts
        )
    return False  # _ExprComparePred and anything unrecognized


def order_conjuncts(
    predicates: Sequence[Any],
    relation: Relation,
    table_stats: Optional[TableStats],
) -> List[Any]:
    """Selectivity-then-cost order for AND conjuncts, error-identity safe.

    Pass/NULL semantics are order-independent (NULL rows survive every
    conjunct and are excluded once at the end), so reordering cannot change
    *results*.  What it could change is *error* behaviour: a conjunct that
    can raise must never see fewer rows than it would in written order,
    else the fast path could succeed where the row path raises.  A
    fallible conjunct may therefore only move earlier — it may only ever
    be preceded by conjuncts that were originally before it (evaluating
    extra rows at worst triggers a spurious scan abandon, which falls back
    to the row path and stays byte-identical).  Infallible conjuncts move
    freely.
    """
    ranks = [
        (predicate_selectivity(predicate, table_stats), getattr(predicate, "cost", 2.0))
        for predicate in predicates
    ]
    fallible = [not _infallible(predicate, relation) for predicate in predicates]
    remaining = list(range(len(predicates)))
    ordered: List[Any] = []
    while remaining:
        barrier = min((i for i in remaining if fallible[i]), default=None)
        best = None
        for i in remaining:
            if barrier is not None and i > barrier:
                continue
            key = (ranks[i][0], ranks[i][1], i)
            if best is None or key < best[0]:
                best = (key, i)
        index = best[1]
        ordered.append(predicates[index])
        remaining.remove(index)
    if any(first is not second for first, second in zip(ordered, predicates)):
        optimizer_stats.conjunct_reorders += 1
    return ordered


def _apply_predicates(
    predicates: Sequence[Any], relation: Relation, optimizer: bool
) -> Optional[List[int]]:
    """Filter row indices through the conjuncts; None means "all rows"."""
    if not predicates:
        return None
    if (
        len(predicates) > 1
        and optimizer
        and len(relation) >= _MIN_REORDER_ROWS
    ):
        predicates = order_conjuncts(predicates, relation, relation.stats())
    sel = list(range(len(relation)))
    nulls: Set[int] = set()
    for predicate in predicates:
        sel = predicate.apply(relation, sel, nulls)
        if not sel:
            return []
    if nulls:
        return [i for i in sel if i not in nulls]
    return sel


# ---------------------------------------------------------------------------
# scan plans
# ---------------------------------------------------------------------------


class _VectorAggSpec:
    """One distinct aggregate call, with column-resolved arguments."""

    __slots__ = ("key", "make", "arg_columns")

    def __init__(self, key: str, make: Callable[[], Any], arg_columns: Optional[List[str]]) -> None:
        self.key = key
        #: Accumulator factory (shared with the executor's group plan).
        self.make = make
        #: Lower-cased argument column names; None feeds the star row.
        self.arg_columns = arg_columns


class FlatScanPlan:
    """``SELECT [DISTINCT] <plain columns> FROM <table> [WHERE simple]
    [ORDER BY <plain columns>] [LIMIT/OFFSET]``."""

    __slots__ = (
        "query",
        "table_name",
        "predicates",
        "out_names",
        "out_columns",
        "order_spec",
        "distinct",
        "required",
    )

    def __init__(
        self,
        query,
        table_name,
        predicates,
        out_names,
        out_columns,
        order_spec=None,
        distinct=False,
    ) -> None:
        self.query = query
        self.table_name = table_name
        self.predicates = predicates
        self.out_names = out_names
        self.out_columns = out_columns
        #: ``[(source_column, ascending), ...]`` or None for unordered scans.
        self.order_spec = order_spec
        self.distinct = distinct
        self.required = set(out_columns)
        for predicate in predicates:
            self.required.update(predicate.columns)
        if order_spec:
            self.required.update(column for column, _ in order_spec)


class GroupedScanPlan:
    """A GROUP BY / aggregate scan over plain key and argument columns."""

    __slots__ = ("query", "table_name", "predicates", "key_columns", "specs", "required")

    def __init__(self, query, table_name, predicates, key_columns, specs) -> None:
        self.query = query
        self.table_name = table_name
        self.predicates = predicates
        self.key_columns = key_columns
        self.specs = specs
        self.required = set(key_columns)
        for predicate in predicates:
            self.required.update(predicate.columns)
        for spec in specs:
            if spec.arg_columns:
                self.required.update(spec.arg_columns)


def _resolve_vector_specs(
    calls: Sequence[ast.FunctionCall],
    source_specs: Sequence[Any],
    table_columns: Set[str],
    allow_multi_arg: bool,
) -> Optional[List[_VectorAggSpec]]:
    """Pair the executor plan's aggregate specs with argument columns.

    ``calls`` dedup in first-occurrence render order — the same order the
    executor's own plans use, so the pairing is positional in spirit but
    matched by rendered key for safety.  Returns None when any argument is
    not a plain column of the scanned table (the row path owns those).
    """
    specs: List[_VectorAggSpec] = []
    seen: Set[str] = set()
    for call in calls:
        key = render_expression(call)
        if key in seen:
            continue
        seen.add(key)
        is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
        if is_star or not call.arguments:
            arg_columns: Optional[List[str]] = None
        else:
            if len(call.arguments) != 1 and not allow_multi_arg:
                return None
            arg_columns = []
            for argument in call.arguments:
                column = _plain_column(argument)
                if column is None or column not in table_columns:
                    return None
                arg_columns.append(column)
        spec = next((s for s in source_specs if s.key == key), None)
        if spec is None:  # pragma: no cover - same dedup, same order
            return None
        specs.append(_VectorAggSpec(key, spec.make, arg_columns))
    if len(specs) != len(source_specs):
        return None  # pragma: no cover - defensive
    return specs


def _plan_predicates(query: ast.SelectQuery, optimizer: bool) -> Optional[List[Any]]:
    predicates: List[Any] = []
    if query.where is not None:
        for term in ast.conjunction_terms(query.where):
            predicate = _simple_predicate(term, optimizer)
            if predicate is None:
                return None
            predicates.append(predicate)
    return predicates


def plan_select(executor, query: ast.Query):
    """Build (and cache) a scan plan for ``query``, or None when ineligible.

    Bail reasons are recorded on every bailing call — cached verdicts
    included — so :data:`stats` counts fallback executions.
    """
    memo = executor._vector_plans
    cached = memo.get(id(query))
    if cached is not None and cached[0] is query:
        plan, reason = cached[1], cached[2]
    else:
        plan, reason = _plan_select_uncached(executor, query)
        executor._store_plan(memo, id(query), (query, plan, reason))
    if plan is None:
        stats.bail(reason)
    return plan


def _plan_select_uncached(executor, query: ast.Query):
    if not isinstance(query, ast.SelectQuery):
        return None, BailReason.NOT_SELECT
    if not isinstance(query.from_clause, ast.TableRef):
        return None, BailReason.COMPOUND_SOURCE
    if executor._needs_qualified_scopes(query):
        return None, BailReason.QUALIFIED_SCOPES
    try:
        table = executor.lookup_table(query.from_clause.name)
    except ExecutionError:
        # The row path raises the same "Unknown table".
        return None, BailReason.UNKNOWN_TABLE
    table_columns = {name.lower() for name in table.schema.names}
    predicates = _plan_predicates(query, executor.config.optimizer)
    if predicates is None:
        return None, BailReason.COMPLEX_PREDICATE
    table_name = query.from_clause.name

    if query.group_by or executor._select_has_aggregates(query):
        if any(isinstance(item.expression, ast.Star) for item in query.items):
            # The row path raises the star/GROUP BY error.
            return None, BailReason.STAR_IN_GROUP_BY
        key_columns: List[str] = []
        for expression in query.group_by:
            column = _plain_column(expression)
            if column is None or column not in table_columns:
                return None, BailReason.EXPRESSION_GROUP_KEY
            key_columns.append(column)
        group_plan = executor._group_plan(query)
        specs = _resolve_vector_specs(
            executor._collect_aggregate_calls(query),
            group_plan.specs,
            table_columns,
            allow_multi_arg=True,
        )
        if specs is None:
            return None, BailReason.AGGREGATE_ARGS
        return GroupedScanPlan(query, table_name, predicates, key_columns, specs), None

    # Flat projection: plain columns only.  DISTINCT and ORDER BY over
    # plain columns are planned as index permutations when the optimizer
    # is on; everything else still belongs to the row path.
    items = executor._expand_star_items(query.items, list(table.schema.names))
    out_columns: List[str] = []
    for item in items:
        column = _plain_column(item.expression)
        if column is None or column not in table_columns:
            return None, BailReason.EXPRESSION_ITEM
        out_columns.append(column)
    out_names = executor._output_names(items)

    distinct = bool(query.distinct)
    order_spec: Optional[List[Tuple[str, bool]]] = None
    if distinct or query.order_by:
        if not executor.config.optimizer:
            return None, BailReason.DISTINCT_OR_ORDER_BY
        lowered_names = [name.lower() for name in out_names]
        if len(set(lowered_names)) != len(lowered_names):
            # Duplicate output names make name-based order resolution
            # ambiguous; leave those to the row path.
            return None, BailReason.DISTINCT_OR_ORDER_BY
        positions = {name: index for index, name in enumerate(lowered_names)}
        order_spec = []
        for item in query.order_by:
            column = _plain_column(item.expression)
            if column is None:
                return None, BailReason.DISTINCT_OR_ORDER_BY
            if column in positions:
                # Output-name references sort by the projected value, which
                # wins over the source scope in the row path's merged scope.
                source = out_columns[positions[column]]
            elif column in table_columns and not distinct:
                # Source-column references are only safe without DISTINCT:
                # after dedup the row path's scope indices misalign, so the
                # row path owns that combination.
                source = column
            else:
                return None, BailReason.DISTINCT_OR_ORDER_BY
            order_spec.append((source, item.ascending))
        if not order_spec:
            order_spec = None
    plan = FlatScanPlan(
        query,
        query.from_clause.name,
        predicates,
        out_names,
        out_columns,
        order_spec,
        distinct,
    )
    return plan, None


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


#: Row-level evaluation errors that abandon the vectorized scan so the row
#: path can re-raise its own row-major error (see "Error identity" above).
_SCAN_ABANDON_ERRORS = (TypeError, ValueError, OverflowError)

#: Schema types whose columns are expected to carry a typed backing.
_TYPEABLE = (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN)


def _note_backing(relation: Relation, names) -> None:
    """Account a completed scan's column backings.

    Bumps ``stats.typed`` when the scan consumed a typed-backed column and
    records :attr:`BailReason.UNTYPED_BACKING` when a consumed column is
    declared int/float but its backing degraded to a generic list.
    """
    if not names or not len(relation):
        return
    touched_typed = False
    degraded = False
    lowered = {name.lower() for name in names}
    for column_def, column in zip(relation.schema.columns, relation.columns()):
        if column_def.name.lower() not in lowered:
            continue
        if isinstance(column, TypedColumn):
            touched_typed = True
        elif column_def.data_type in _TYPEABLE:
            degraded = True
    if touched_typed:
        stats.typed += 1
    if degraded:
        stats.bail(BailReason.UNTYPED_BACKING)


def try_execute_select(executor, query: ast.Query, parent) -> Optional[Relation]:
    """Execute ``query`` over column arrays, or None to use the row path."""
    plan = plan_select(executor, query)
    if plan is None:
        return None
    relation = executor.lookup_table(plan.table_name)
    if any(relation.column_array(name) is None for name in plan.required):
        stats.bail(BailReason.COLUMN_DRIFT)
        return None  # catalog shape drifted from the planned columns
    try:
        sel = _apply_predicates(plan.predicates, relation, executor.config.optimizer)
    except _SCAN_ABANDON_ERRORS:
        stats.bail(BailReason.SCAN_ABANDONED)
        return None
    if isinstance(plan, FlatScanPlan):
        result = _execute_flat(plan, relation, sel)
        if result is None:
            stats.bail(BailReason.SCAN_ABANDONED)
    else:
        result = _execute_grouped(executor, plan, relation, parent, sel)
        if result is None:
            stats.bail(BailReason.SCAN_ABANDONED)
    if result is not None:
        _note_backing(relation, plan.required)
    return result


class _OrderKey:
    """Comparable wrapper handling None values and descending order."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_OrderKey") -> bool:
        left, right = self.value, other.value
        if not self.ascending:
            left, right = right, left
        if left is None:
            return right is not None
        if right is None:
            return False
        try:
            return left < right
        except TypeError:
            return str(left) < str(right)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value


def _execute_flat_ordered(
    plan: FlatScanPlan, relation: Relation, sel: Optional[List[int]]
) -> Relation:
    """Flat scan with DISTINCT/ORDER BY applied as index permutations.

    Mirrors the row path's tail exactly: dedup first (first occurrence in
    selection order, keyed on the frozen output tuple), then a stable sort
    with the shared :class:`_OrderKey` semantics, then OFFSET/LIMIT.
    """
    query = plan.query
    out_arrays = [relation.column_array(name) for name in plan.out_columns]
    indices: List[int] = list(range(len(relation))) if sel is None else sel
    if plan.distinct:
        seen: Set[Tuple[Any, ...]] = set()
        kept: List[int] = []
        for i in indices:
            key = tuple(freeze_value(array[i]) for array in out_arrays)
            if key not in seen:
                seen.add(key)
                kept.append(i)
        indices = kept
        optimizer_stats.distinct_scans += 1
    if plan.order_spec:
        order_arrays = [
            (relation.column_array(column), ascending)
            for column, ascending in plan.order_spec
        ]
        indices = sorted(
            indices,
            key=lambda i: tuple(
                _OrderKey(array[i], ascending) for array, ascending in order_arrays
            ),
        )
        optimizer_stats.order_by_scans += 1
    if query.offset is not None:
        indices = indices[query.offset :]
    if query.limit is not None:
        indices = indices[: query.limit]
    columns = [take_column(array, indices) for array in out_arrays]
    stats.flat += 1
    schema = build_schema_from_columns(plan.out_names, columns)
    return Relation.from_columns(schema, columns, name="")


def _execute_flat(
    plan: FlatScanPlan, relation: Relation, sel: Optional[List[int]]
) -> Optional[Relation]:
    if plan.distinct or plan.order_spec:
        try:
            return _execute_flat_ordered(plan, relation, sel)
        except _SCAN_ABANDON_ERRORS:
            return None
    query = plan.query
    offset = query.offset
    limit = query.limit

    columns: List[List[Any]] = []
    if sel is None:
        start = offset or 0
        stop = None if limit is None else start + limit
        for name in plan.out_columns:
            columns.append(relation.column_array(name)[start:stop])
    else:
        if offset is not None:
            sel = sel[offset:]
        if limit is not None:
            sel = sel[:limit]
        for name in plan.out_columns:
            # Typed backings gather into typed columns (and slices above
            # stay typed), so projections preserve unboxed storage.
            columns.append(take_column(relation.column_array(name), sel))

    stats.flat += 1
    schema = build_schema_from_columns(plan.out_names, columns)
    return Relation.from_columns(schema, columns, name="")


def _group_indices(
    relation: Relation,
    key_columns: Sequence[str],
    sel: Optional[List[int]],
) -> Tuple[Dict[Tuple[Any, ...], List[int]], List[Tuple[Any, ...]], Dict[Tuple[Any, ...], int]]:
    """Partition row indices by group key, in first-occurrence order.

    Raw key values are used while hashable, falling back to the frozen form
    on a TypeError — exactly the compiled fast-key behaviour, so group
    identity and order match the row path bit for bit.
    """
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    order: List[Tuple[Any, ...]] = []
    first_index: Dict[Tuple[Any, ...], int] = {}
    arrays = [relation.column_array(name) for name in key_columns]
    indices = range(len(relation)) if sel is None else sel
    if len(arrays) == 1:
        array = arrays[0]
        for i in indices:
            key = (array[i],)
            try:
                bucket = groups.get(key)
            except TypeError:
                key = (freeze_value(key[0]),)
                bucket = groups.get(key)
            if bucket is None:
                groups[key] = [i]
                order.append(key)
                first_index[key] = i
            else:
                bucket.append(i)
    else:
        for i in indices:
            key = tuple(array[i] for array in arrays)
            try:
                bucket = groups.get(key)
            except TypeError:
                key = tuple(freeze_value(value) for value in key)
                bucket = groups.get(key)
            if bucket is None:
                groups[key] = [i]
                order.append(key)
                first_index[key] = i
            else:
                bucket.append(i)
    return groups, order, first_index


def _feed_accumulators(
    relation: Relation,
    specs: Sequence[_VectorAggSpec],
    indices: List[int],
    whole_relation: bool,
) -> List[Any]:
    """Instantiate and bulk-feed one accumulator per spec from column slices."""
    accumulators = []
    for spec in specs:
        accumulator = spec.make()
        arg_columns = spec.arg_columns
        if arg_columns is None:
            # Star and zero-argument calls: the row path feeds ``(1,)`` per
            # row.  ``add_many_star`` is the bulk shortcut where it exists
            # (COUNT(*), buffered aggregates); zero-arg calls of the other
            # aggregates (``COUNT()``, ``SUM()``... — the parser accepts
            # them) resolve to incremental accumulators without it, which
            # consume the equivalent ones column.
            add_star = getattr(accumulator, "add_many_star", None)
            if add_star is not None:
                add_star(len(indices))
            else:
                accumulator.add_many([1] * len(indices))
        elif len(arg_columns) == 1:
            array = relation.column_array(arg_columns[0])
            if whole_relation:
                accumulator.add_many(array)
            else:
                # Typed backings gather through the unboxed buffer so
                # add_many sees a typed column (see aggregates.add_many).
                accumulator.add_many(take_column(array, indices))
        else:
            arrays = [relation.column_array(name) for name in arg_columns]
            for i in indices:
                accumulator.add(tuple(array[i] for array in arrays))
        accumulators.append(accumulator)
    return accumulators


def _execute_grouped(
    executor, plan: GroupedScanPlan, relation: Relation, parent, sel: Optional[List[int]]
) -> Optional[Relation]:
    query = plan.query
    group_plan = executor._group_plan(query)
    specs = plan.specs

    lowered_names = [name.lower() for name in relation.schema.names]
    arrays = relation.columns()

    if plan.key_columns:
        groups, order, first_index = _group_indices(relation, plan.key_columns, sel)
    else:
        indices = list(range(len(relation))) if sel is None else sel
        if indices:
            groups = {(): indices}
            order = [()]
            first_index = {(): indices[0]}
        else:
            groups, order, first_index = {}, [], {}

    if not query.group_by and not groups:
        groups[()] = []
        order.append(())

    # Feed every group before emitting anything — the row path's scan phase
    # completes before its emit phase, and keeping the phases separate here
    # means an accumulator conversion error (exact SUM/STDDEV meeting a
    # non-numeric or non-finite value) abandons the scan before any item
    # evaluation, so the row path re-raises its own row-major error.
    whole = sel is None and len(order) == 1 and plan.key_columns == []
    accumulators_by_key: Dict[Tuple[Any, ...], List[Any]] = {}
    try:
        for key in order:
            accumulators_by_key[key] = _feed_accumulators(
                relation, specs, groups[key], whole
            )
    except _SCAN_ABANDON_ERRORS:
        return None

    context = executor._fresh_context(parent)
    output_names = group_plan.output_names
    item_fns = group_plan.item_fns
    having_fn = group_plan.having_fn
    output_rows: List[Dict[str, Any]] = []
    for key in order:
        indices = groups[key]
        accumulators = accumulators_by_key[key]
        if indices:
            first = first_index.get(key, indices[0])
            representative = {
                name: array[first] for name, array in zip(lowered_names, arrays)
            }
        else:
            representative = {}
        context.scope = representative
        context.aggregates = {
            spec.key: accumulator.result()
            for spec, accumulator in zip(specs, accumulators)
        }
        if having_fn is not None and not having_fn(context):
            continue
        output_rows.append({name: fn(context) for name, fn in zip(output_names, item_fns)})

    stats.grouped += 1

    # The standard SELECT tail, identical to the row path.
    if query.distinct:
        output_rows = distinct_rows(output_rows, output_names)
    if query.order_by:
        output_rows = executor._apply_order_by(query, output_rows, [], parent, True)
    if query.offset is not None:
        output_rows = output_rows[query.offset :]
    if query.limit is not None:
        output_rows = output_rows[: query.limit]
    schema = build_schema(output_names, output_rows)
    return Relation(schema=schema, rows=output_rows, name="")


# ---------------------------------------------------------------------------
# partial aggregation (distributed GROUP BY leaf scans)
# ---------------------------------------------------------------------------


class PartialScanPlan(GroupedScanPlan):
    """A leaf-phase partial aggregation — same shape as a grouped scan,
    but executed through the partial-state protocol (mergeable states out,
    no HAVING/items/ORDER BY)."""

    __slots__ = ()


def plan_partial(executor, query: ast.SelectQuery):
    """Build (and cache) a partial-aggregation scan plan, or None."""
    memo = executor._vector_partial_plans
    cached = memo.get(id(query))
    if cached is not None and cached[0] is query:
        plan, reason = cached[1], cached[2]
    else:
        plan, reason = _plan_partial_uncached(executor, query)
        executor._store_plan(memo, id(query), (query, plan, reason))
    if plan is None:
        stats.bail(reason)
    return plan


def _plan_partial_uncached(executor, query: ast.SelectQuery):
    if not isinstance(query.from_clause, ast.TableRef):
        return None, BailReason.COMPOUND_SOURCE
    if executor._needs_qualified_scopes(query):
        return None, BailReason.QUALIFIED_SCOPES
    try:
        table = executor.lookup_table(query.from_clause.name)
    except ExecutionError:
        return None, BailReason.UNKNOWN_TABLE
    table_columns = {name.lower() for name in table.schema.names}
    predicates = _plan_predicates(query, executor.config.optimizer)
    if predicates is None:
        return None, BailReason.COMPLEX_PREDICATE
    partial_plan = executor._partial_plan(query)
    key_columns = [name.lower() for name in partial_plan.key_names]
    if any(name not in table_columns for name in key_columns):
        return None, BailReason.EXPRESSION_GROUP_KEY
    specs = _resolve_vector_specs(
        executor._collect_aggregate_calls(query),
        partial_plan.specs,
        table_columns,
        allow_multi_arg=False,  # decomposable aggregates are single-argument
    )
    if specs is None:
        return None, BailReason.AGGREGATE_ARGS
    plan = PartialScanPlan(query, query.from_clause.name, predicates, key_columns, specs)
    return plan, None


def try_execute_partial(executor, query: ast.SelectQuery) -> Optional[Relation]:
    """Vectorized leaf partial aggregation, or None to use the row path."""
    plan = plan_partial(executor, query)
    if plan is None:
        return None
    relation = executor.lookup_table(plan.table_name)
    if any(relation.column_array(name) is None for name in plan.required):
        stats.bail(BailReason.COLUMN_DRIFT)
        return None
    partial_plan = executor._partial_plan(query)
    try:
        sel = _apply_predicates(plan.predicates, relation, executor.config.optimizer)
    except _SCAN_ABANDON_ERRORS:
        stats.bail(BailReason.SCAN_ABANDONED)
        return None

    if plan.key_columns:
        # The row path freezes every key value unconditionally; raw
        # hashable values are their own frozen form, so only the unhashable
        # fallback (already frozen) differs — nothing further to do.
        groups_indices, order, _ = _group_indices(relation, plan.key_columns, sel)
    else:
        indices = list(range(len(relation))) if sel is None else sel
        if indices:
            groups_indices = {(): indices}
            order = [()]
        else:
            groups_indices, order = {}, []

    groups: Dict[Tuple[Any, ...], List[Any]] = {}
    whole = sel is None and len(order) == 1 and plan.key_columns == []
    try:
        for key in order:
            groups[key] = _feed_accumulators(
                relation, plan.specs, groups_indices[key], whole
            )
    except _SCAN_ABANDON_ERRORS:
        stats.bail(BailReason.SCAN_ABANDONED)
        return None
    if not query.group_by and not groups:
        groups[()] = [spec.make() for spec in plan.specs]
        order.append(())
    stats.partial += 1
    _note_backing(relation, plan.required)
    return executor._partial_state_relation(partial_plan, groups, order)


# ---------------------------------------------------------------------------
# cardinality estimation (explain/profile plumbing)
# ---------------------------------------------------------------------------


def _contains_aggregate(node: ast.Node) -> bool:
    if (
        isinstance(node, ast.FunctionCall)
        and node.name.upper() in ast.AGGREGATE_FUNCTIONS
    ):
        return True
    return any(_contains_aggregate(child) for child in node.children())


def estimate_select_rows(
    query: ast.Query,
    relation: Optional[Relation] = None,
    input_rows: Optional[int] = None,
) -> Optional[int]:
    """Estimated output row count for ``query``, or None when unknowable.

    Uses column statistics when ``relation`` is at hand (selectivity per
    WHERE conjunct, distinct counts per GROUP BY key); falls back to
    textbook constants (0.5 per opaque conjunct, ``sqrt(rows)`` groups)
    when only ``input_rows`` is known.  Estimates are advisory — they feed
    ``explain()``/profiling and the calibration report, never results.
    """
    if not isinstance(query, ast.SelectQuery):
        return None
    if relation is not None:
        rows = len(relation)
        table_stats: Optional[TableStats] = relation.stats()
    else:
        rows = input_rows
        table_stats = None
    if rows is None:
        return None
    estimate = float(rows)
    if query.where is not None:
        for term in ast.conjunction_terms(query.where):
            predicate = _simple_predicate(term)
            if predicate is not None:
                estimate *= predicate_selectivity(predicate, table_stats)
            else:
                estimate *= 0.5
    if query.group_by:
        groups = 1.0
        known = True
        for expression in query.group_by:
            column = _plain_column(expression)
            summary = _stats_for(table_stats, column) if column else None
            if summary is None:
                known = False
                break
            groups *= max(summary.distinct, 1)
        if not known:
            groups = max(1.0, estimate**0.5)
        estimate = min(estimate, groups)
    elif any(
        not isinstance(item.expression, ast.Star)
        and _contains_aggregate(item.expression)
        for item in query.items
    ):
        estimate = 1.0  # a flat aggregate always emits exactly one row
    result = int(round(estimate))
    if query.offset is not None:
        result = max(0, result - query.offset)
    if query.limit is not None:
        result = min(result, query.limit)
    return result


# ---------------------------------------------------------------------------
# metrics probes: pull-based, so the scan counters stay plain integers
# ---------------------------------------------------------------------------

from repro.obs.metrics import registry as _registry  # noqa: E402

_registry.probe("engine.vectorized.flat", lambda: stats.flat)
_registry.probe("engine.vectorized.grouped", lambda: stats.grouped)
_registry.probe("engine.vectorized.partial", lambda: stats.partial)
_registry.probe("engine.vectorized.typed", lambda: stats.typed)
_registry.probe("engine.vectorized.bails", lambda: dict(stats.bails))
