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
  bare ``col`` / ``NOT col``, ``col IS [NOT] NULL``,
  ``col [NOT] BETWEEN lit AND lit``,
  ``col [NOT] LIKE 'pat'``, ``col [NOT] IN (literals)`` joined by ``AND``)
  filter an index selection per conjunct with exact three-valued NULL
  semantics and the same error behaviour as the compiled closures.
* **Aggregate scans** (GROUP BY over plain columns, aggregate arguments
  that are plain columns or ``*``): rows are partitioned into per-group
  index lists in one pass, each argument column is gathered once per
  group, and one call per aggregate runs its accumulator over every
  group's slice (:func:`~repro.engine.aggregates.aggregate_column`).  HAVING,
  select items and ORDER BY reuse the executor's compiled group plan, so
  results are byte-identical to the row-at-a-time path.
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
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.aggregates import FINALIZE_ERRORS, GroupedColumn, aggregate_column
from repro.engine.columns import BOOL, INT64, TypedColumn, gather, take_column
from repro.engine.errors import ExecutionError
from repro.engine.evaluator import _like_to_regex
from repro.engine.groups import group_rows
from repro.engine.schema import ColumnDef, Schema
from repro.engine.stats import ColumnStats, TableStats, optimizer_stats
from repro.engine.table import Relation, _OrderKey, fit_backing, freeze_value
from repro.engine.types import DataType, infer_type
from repro.sql import ast
from repro.sql.visitor import transform

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
    #: Per-row work inside a columnar grouped tail (which still runs).
    TAIL_EXPRESSION_ITEM = "tail_expression_item"
    TAIL_COMPLEX_HAVING = "tail_complex_having"
    TAIL_HAVING_ABANDONED = "tail_having_abandoned"
    TAIL_EXPRESSION_ORDER_KEY = "tail_expression_order_key"


class ScanStats:
    """Counters of fast-path hits and bail reasons (advisory; plain-int
    increments so the per-query hot path stays lock-free)."""

    __slots__ = (
        "flat",
        "grouped",
        "partial",
        "typed",
        "tail",
        "zone_proved",
        "zone_refuted",
        "zone_pruned",
        "bails",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.flat = 0
        self.grouped = 0
        self.partial = 0
        #: Completed scans that consumed at least one typed-backed column.
        self.typed = 0
        #: Grouped tails run over columns (every compiled grouped result).
        self.tail = 0
        #: Zone map work skipped (:func:`zone_verdicts`): conjuncts a scan
        #: dropped as proven, scans a refutation ended, and partitions the
        #: DAG gave no task.
        self.zone_proved = 0
        self.zone_refuted = 0
        self.zone_pruned = 0
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


def _aggregate_call_nodes(query: ast.SelectQuery) -> Iterable[ast.FunctionCall]:
    """Every non-window aggregate call of the select items, HAVING and
    ORDER BY (repeats included), outside nested subqueries."""
    sources: List[ast.Node] = [item.expression for item in query.items]
    if query.having is not None:
        sources.append(query.having)
    sources.extend(item.expression for item in query.order_by)
    for source in sources:
        for call in _shallow_function_calls(source):
            if call.window is None and ast.is_aggregate_function(call.name):
                yield call


def is_grouped(query: ast.SelectQuery) -> bool:
    """True when ``query`` aggregates: it has a GROUP BY, or an aggregate
    call in its items, HAVING or ORDER BY (then it is one global group)."""
    return bool(query.group_by) or any(True for _ in _aggregate_call_nodes(query))


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


@lru_cache(maxsize=4096)
def _column_def(name: str, data_type: DataType) -> ColumnDef:
    """Column definitions are frozen, so results share them: building one
    costs more than a small grouped tail's whole gather."""
    return ColumnDef(name=name, data_type=data_type)


def columns_relation(names: List[str], columns: Sequence[Any]) -> Relation:
    """A result relation from columns, typed exactly like one built from
    rows: first non-null value per column decides its type, then
    :func:`~repro.engine.table.fit_backing` picks the backing."""
    schema = Schema(
        [_column_def(name, _first_non_null_type(column)) for name, column in zip(names, columns)]
    )
    return Relation.from_columns(
        schema,
        [
            fit_backing(column, column_def.data_type)
            for column, column_def in zip(columns, schema.columns)
        ],
        name="",
    )


def state_relation(
    group_plan: Any, keys: Sequence[Tuple[Any, ...]], states: List[Sequence[Any]]
) -> Relation:
    """A partial-state relation: one row per group, in ``keys`` order, with
    the group keys under their names and one column per ``__agg{i}``."""
    return columns_relation(
        group_plan.key_names + group_plan.state_names,
        [[key[i] for key in keys] for i in range(len(group_plan.key_names))] + states,
    )


class FinalizedGroups:
    """Groups as columns, every aggregate finalized: a grouped tail's input.

    ``scope_names`` (lower-cased) label ``scope_columns``: the group keys
    on the partial path, each group's first source row on a scan (none for
    a global aggregate over empty input).  ``aggregates`` maps the render
    key of every aggregate call a tail may read to its finalized column.
    If finalizing group ``size`` raised, ``error`` holds the exception: a
    tail raises it after the groups before it, as a row-at-a-time pass
    would.  Read-only: one instance feeds every tail run over it.
    """

    __slots__ = ("scope_names", "scope_columns", "aggregates", "size", "error")

    def __init__(
        self,
        scope_names: Sequence[str],
        scope_columns: List[Sequence[Any]],
        aggregates: Dict[str, Sequence[Any]],
        size: int,
        error: Optional[Exception] = None,
    ) -> None:
        # Every column holds exactly ``size`` groups.
        self.scope_names = tuple(scope_names)
        self.scope_columns = scope_columns
        self.aggregates = aggregates
        self.size = size
        self.error = error

    @classmethod
    def from_accumulators(
        cls,
        scope_names: Sequence[str],
        scope_columns: List[Sequence[Any]],
        specs: Sequence[Any],
        accumulator_rows: Iterable[List[Any]],
        finalize: str,
    ) -> "FinalizedGroups":
        """Groups from one accumulator list per group, aligned with
        ``specs``; each finalizes through its ``finalize`` method."""
        values: List[List[Any]] = []
        error: Optional[Exception] = None
        try:
            for accumulators in accumulator_rows:
                values.append([getattr(accumulator, finalize)() for accumulator in accumulators])
        except FINALIZE_ERRORS as raised:
            error = raised
            scope_columns = [column[: len(values)] for column in scope_columns]
        columns = list(zip(*values)) if values else [()] * len(specs)
        return cls(
            scope_names,
            scope_columns,
            dict(zip((spec.key for spec in specs), columns)),
            len(values),
            error,
        )

    def column(self, operand: Tuple[str, Any]) -> Sequence[Any]:
        """The column a ``("scope", position)``/``("agg", key)`` operand names."""
        kind, ref = operand
        return self.scope_columns[ref] if kind == "scope" else self.aggregates[ref]

    def scope_at(self, index: int) -> Dict[str, Any]:
        return {
            name: column[index] for name, column in zip(self.scope_names, self.scope_columns)
        }

    def aggregates_at(self, index: int) -> Dict[str, Any]:
        return {key: column[index] for key, column in self.aggregates.items()}

    def rows(self) -> Iterator[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """``(scope, aggregates)`` per group, then ``error`` if set."""
        for index in range(self.size):
            yield self.scope_at(index), self.aggregates_at(index)
        if self.error is not None:
            raise self.error


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
#: ``literal <op> column`` reads as ``column <swapped op> literal``.
_SWAPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Selection state threaded through the conjunct filters: the surviving
#: indices (not yet definitely false) and the subset that saw a NULL
#: conjunct.  NULL rows keep evaluating later conjuncts — exactly like the
#: compiled AND closure, which only short-circuits on a definite false —
#: but are excluded from the final selection.
Selection = Tuple[List[int], Set[int]]


def _filter_typed(
    columns: Sequence[TypedColumn],
    sel: List[int],
    nulls: Set[int],
    test: Callable[..., Any],
) -> List[int]:
    """The rows of ``sel`` a conjunct over typed columns keeps, at C speed.

    ``test(*values)`` maps one iterable of unboxed cells per column to
    truth values (``map`` over ``operator`` functions).  Rows with a NULL
    in any column are kept as NULL and recorded in ``nulls`` without being
    tested, exactly like the per-row loops, so both evaluate the same
    (row, expression) pairs.  Selections are ascending and duplicate-free,
    so one covering every row is the identity and needs no gather.
    """
    full = len(sel) == len(columns[0])
    values = [
        column.data_array() if full else gather(column.data_array(), sel)
        for column in columns
    ]
    flags = [
        column.null_map() if full else gather(column.null_map(), sel)
        for column in columns
        if column.null_count
    ]
    if not flags:
        return list(compress(sel, test(*values)))
    flags = flags[0] if len(flags) == 1 else list(map(operator.or_, *flags))
    valid = list(map(operator.not_, flags))
    kept = compress(
        compress(sel, valid), test(*(compress(value, valid) for value in values))
    )
    null_rows = list(compress(sel, flags))
    nulls.update(null_rows)
    return sorted(chain(kept, null_rows))


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


class _ColumnPred:
    """A conjunct over one plain column of the scanned relation.

    ``ranges`` are the ``(op, literal)`` bounds the conjunct tests the
    column against (``literal <op> column`` reads as ``column <swapped op>
    literal``): what the zone map rule (:func:`zone_verdicts`) reads.
    Empty when the conjunct is not an ordering test against literals.
    """

    __slots__ = ("column", "negated")
    ranges: Tuple[Tuple[str, Any], ...] = ()

    def __init__(self, column: str, negated: bool = False) -> None:
        self.column = column
        self.negated = negated

    @property
    def columns(self) -> Tuple[str, ...]:
        return (self.column,)


class _IsNullPred(_ColumnPred):
    __slots__ = ()
    cost = 0.5

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


class _TruthPred(_ColumnPred):
    """A bare ``col`` (or ``NOT col``) conjunct: the cell's truth value.

    NULL stays NULL; any other cell passes when ``bool(cell)`` (negated:
    when it does not), exactly as the compiled ``NOT``/``AND`` closures
    test it — so ``0``, ``0.0``, ``-0.0`` and ``''`` are false and NaN is
    true.
    """

    __slots__ = ()
    cost = 0.5

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        negated = self.negated
        if isinstance(array, TypedColumn):
            # The unboxed buffer is its own truth test.
            if negated:
                return _filter_typed(
                    (array,), sel, nulls, lambda values: map(operator.not_, values)
                )
            return _filter_typed((array,), sel, nulls, lambda values: values)
        out: List[int] = []
        add_null = nulls.add
        for i in sel:
            value = array[i]
            if value is None:
                out.append(i)
                add_null(i)
            elif (not value) if negated else value:
                out.append(i)
        return out


class _ComparePred(_ColumnPred):
    """``col <op> literal`` (or ``literal <op> col`` when ``swapped``)."""

    __slots__ = ("op", "value", "invert", "order_op", "swapped", "ranges")
    cost = 1.0

    def __init__(self, column: str, op: str, value: Any, swapped: bool) -> None:
        super().__init__(column)
        self.op = op
        self.value = value
        self.invert = _EQ_OPS.get(op)
        self.order_op = _ORDER_OPS.get(op)
        self.swapped = swapped
        self.ranges = ()
        if self.order_op is not None:
            self.ranges = ((_SWAPPED_OPS[op] if swapped else op, value),)

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        const = self.value
        out: List[int] = []
        add_null = nulls.add
        if isinstance(array, TypedColumn):
            # Typed backing: compare the unboxed buffer, NULLs via the map.
            if self.invert is not None:
                test = operator.ne if self.invert else operator.eq
                return _filter_typed(
                    (array,), sel, nulls, lambda values: map(test, values, repeat(const))
                )
            op = self.order_op
            if self.swapped:
                return _filter_typed(
                    (array,), sel, nulls, lambda values: map(op, repeat(const), values)
                )
            return _filter_typed(
                (array,), sel, nulls, lambda values: map(op, values, repeat(const))
            )
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
        if isinstance(left, TypedColumn) and isinstance(right, TypedColumn):
            if self.invert is not None:
                test = operator.ne if self.invert else operator.eq
            else:
                test = self.order_op
            return _filter_typed(
                (left, right), sel, nulls, lambda lhs, rhs: map(test, lhs, rhs)
            )
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


class _BetweenPred(_ColumnPred):
    """``col [NOT] BETWEEN literal AND literal``.

    Type errors from the chained comparison propagate to the caller, which
    abandons the scan so the row path re-raises in its own order.
    """

    __slots__ = ("low", "high", "ranges")
    cost = 1.5

    def __init__(self, column: str, low: Any, high: Any, negated: bool) -> None:
        super().__init__(column, negated)
        self.low = low
        self.high = high
        self.ranges = ((">=", low), ("<=", high))

    def apply(self, relation: Relation, sel: List[int], nulls: Set[int]) -> List[int]:
        array = relation.column_array(self.column)
        low, high = self.low, self.high
        negated = self.negated
        out: List[int] = []
        add_null = nulls.add
        if isinstance(array, TypedColumn):
            # Typed backing: ``low <= cell`` and ``cell <= high`` side by
            # side over the unboxed buffer.  Both halves always run, so a
            # bound that cannot compare with a number may raise where the
            # chained form would not; that only abandons the scan to the
            # row path.
            def test(values):
                values = list(values)
                inside = map(
                    operator.and_,
                    map(operator.le, repeat(low), values),
                    map(operator.le, values, repeat(high)),
                )
                return map(operator.not_, inside) if negated else inside

            return _filter_typed((array,), sel, nulls, test)
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


class _LikePred(_ColumnPred):
    """``col [NOT] LIKE 'pattern'`` with a literal pattern."""

    __slots__ = ("regex",)
    cost = 4.0

    def __init__(self, column: str, pattern: str, negated: bool) -> None:
        super().__init__(column, negated)
        self.regex = _like_to_regex(pattern)

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


class _InListPred(_ColumnPred):
    """``col [NOT] IN (literal, ...)`` — NULL members are dropped up front."""

    __slots__ = ("constants",)
    cost = 1.5

    def __init__(self, column: str, constants: List[Any], negated: bool) -> None:
        super().__init__(column, negated)
        self.constants = constants

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


def _literal(node: ast.Expression) -> Optional[ast.Literal]:
    """``node`` as a literal, or None.

    ``-1`` parses as unary minus over ``1``: a negated numeric literal
    folds into the literal the row path's unary minus computes, so it
    plans like any other constant.
    """
    if isinstance(node, ast.Literal):
        return node
    if isinstance(node, ast.UnaryOp) and node.operator == "-":
        inner = _literal(node.operand)
        value = None if inner is None else inner.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return ast.Literal(value=-value)
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

    The base vocabulary (comparisons, bare boolean columns, IS NULL,
    BETWEEN, LIKE, IN) is always available; OR-of-conjuncts and
    arithmetic-on-column comparisons are optimizer-era widenings, gated on
    ``optimizer`` so the ablation arm keeps the syntactic bail behaviour.
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
        right = _literal(term.right)
        if left_col is not None and right is not None:
            if right.value is None:
                return _AlwaysNullPred()
            return _ComparePred(left_col, op, right.value, swapped=False)
        left = _literal(term.left)
        if right_col is not None and left is not None:
            if left.value is None:
                return _AlwaysNullPred()
            return _ComparePred(right_col, op, left.value, swapped=True)
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
    if isinstance(term, ast.Column):
        column = _plain_column(term)
        return None if column is None else _TruthPred(column, negated=False)
    if isinstance(term, ast.UnaryOp) and term.operator.upper() == "NOT":
        column = _plain_column(term.operand)
        return None if column is None else _TruthPred(column, negated=True)
    if isinstance(term, ast.IsNull):
        column = _plain_column(term.expression)
        if column is None:
            return None
        return _IsNullPred(column, term.negated)
    if isinstance(term, ast.Between):
        column = _plain_column(term.expression)
        if column is None:
            return None
        low, high = _literal(term.low), _literal(term.high)
        if low is None or high is None:
            return None
        if low.value is None or high.value is None:
            return _AlwaysNullPred()
        return _BetweenPred(column, low.value, high.value, term.negated)
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
        literals = [_literal(value) for value in term.values]
        if any(literal is None for literal in literals):
            return None
        constants = [literal.value for literal in literals if literal.value is not None]
        return _InListPred(column, constants, term.negated)
    return None


#: Below this row count conjunct reordering is not worth the estimation
#: work — either order finishes in microseconds.
_MIN_REORDER_ROWS = 64


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
    if isinstance(predicate, _TruthPred):
        column = _stats_for(table_stats, predicate.column)
        if column is None or column.rows == 0:
            return 0.5  # the factor estimate_select_rows gives an opaque conjunct
        true = column.eq_fraction(True)
        if predicate.negated:
            return max(column.non_null / column.rows - true, 0.0)
        return true
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

    Equality comparisons, truth tests, IS NULL, LIKE and IN never raise;
    ordering comparisons are raise-free when both operands are guaranteed
    numeric (typed column backing plus a numeric literal).  Fallibility
    constrains reordering — see :func:`order_conjuncts`.
    """
    if isinstance(
        predicate, (_AlwaysNullPred, _IsNullPred, _TruthPred, _LikePred, _InListPred)
    ):
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


#: Zone map verdicts of one conjunct over a chunk: every row passes, or none.
PROVEN = "proven"
REFUTED = "refuted"


def _range_literal(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def _bound_verdict(op: str, literal: Any, low: Any, high: Any) -> Tuple[bool, bool]:
    """Whether ``column <op> literal`` holds for every value in
    ``[low, high]``, and whether it fails for every one."""
    if op == "<":
        return high < literal, low >= literal
    if op == "<=":
        return high <= literal, low > literal
    if op == ">":
        return low > literal, high <= literal
    return low >= literal, high < literal


def _zone_verdict(
    predicate: Any, relation: Relation, column_stats: Callable[[str], Optional[ColumnStats]]
) -> Optional[str]:
    """:data:`PROVEN`, :data:`REFUTED` or None (open) for one conjunct.

    Only ordering tests of an int64/float64 column against plain numeric
    literals are judged (:attr:`_ColumnPred.ranges`), and only when the
    column's summary bounds every value (:attr:`ColumnStats.bounded`).
    Python compares int and float exactly, as the scan and the row path
    do, so the verdict holds past 2^53 too.
    """
    ranges = getattr(predicate, "ranges", ())
    if not ranges or not all(_range_literal(literal) for _, literal in ranges):
        return None
    array = relation.column_array(predicate.column)
    if not isinstance(array, TypedColumn) or array.typecode == BOOL or array.null_count:
        return None
    summary = column_stats(predicate.column)
    if summary is None or not summary.bounded or summary.rows != len(array):
        return None
    low, high = summary.minimum, summary.maximum
    bounds = [_bound_verdict(op, literal, low, high) for op, literal in ranges]
    every = all(holds for holds, _ in bounds)
    # BETWEEN an empty interval holds nowhere.
    none = any(fails for _, fails in bounds) or (
        len(ranges) == 2 and ranges[0][1] > ranges[1][1]
    )
    if predicate.negated:
        every, none = none, every
    return PROVEN if every else REFUTED if none else None


def zone_verdicts(
    predicates: Sequence[Any],
    relation: Relation,
    column_stats: Callable[[str], Optional[ColumnStats]],
) -> Tuple[List[int], Optional[int]]:
    """Judge WHERE conjuncts, in written order, against a chunk's zone map.

    Returns the positions of the proven conjuncts and the position of the
    refuting one, or None.  ``predicates`` may hold None for a conjunct
    outside the simple vocabulary; ``column_stats`` maps a column to its
    summary (a scan passes one that never builds, the DAG one that does).

    A proven conjunct is true on every row and never raises, so dropping it
    changes nothing.  A refutation means no row passes; it counts only when
    every conjunct written before it is :func:`_infallible`, because the
    row path evaluates conjuncts in written order up to the first false
    one, and an error it would raise there must not be skipped (the rule
    :func:`order_conjuncts` keeps for reordering).
    """
    proven: List[int] = []
    barrier = False
    for index, predicate in enumerate(predicates):
        verdict = _zone_verdict(predicate, relation, column_stats)
        if verdict is REFUTED and not barrier:
            return proven, index
        if verdict is PROVEN:
            proven.append(index)
        elif not _infallible(predicate, relation):
            barrier = True
    return proven, None


def where_conjuncts(query: ast.SelectQuery) -> List[Any]:
    """``query``'s WHERE conjuncts in written order as scan predicates,
    None for one outside the simple vocabulary."""
    if query.where is None:
        return []
    return [_simple_predicate(term) for term in ast.conjunction_terms(query.where)]


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


def _zone_filter(
    predicates: Sequence[Any], relation: Relation, optimizer: bool
) -> Optional[Sequence[Any]]:
    """The conjuncts left to evaluate over ``relation``, or None when no
    row can pass.

    With the optimizer on, a zone map cached for ``relation`` drops the
    conjuncts it proves and refutes the scan (:func:`zone_verdicts`).
    Stats are only read here, never built: shipped intermediates and
    appended deltas pay nothing for the check.
    """
    table_stats = relation.cached_stats() if optimizer and predicates else None
    if table_stats is None:
        return predicates
    proven, refuted = zone_verdicts(predicates, relation, table_stats.cached)
    if refuted is not None:
        stats.zone_refuted += 1
        return None
    if proven:
        stats.zone_proved += len(proven)
        predicates = [p for i, p in enumerate(predicates) if i not in proven]
    return predicates


def _apply_predicates(
    predicates: Sequence[Any],
    relation: Relation,
    optimizer: bool,
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
    # The first conjunct reads every row; each returns a list.
    sel: Sequence[int] = range(len(relation))
    nulls: Set[int] = set()
    for predicate in predicates:
        sel = predicate.apply(relation, sel, nulls)
        if not sel:
            return []
    if nulls:
        sel = [i for i in sel if i not in nulls]
    # Selections are ascending and duplicate-free: one that kept every row
    # is the identity, and "all rows" lets consumers slice, not gather.
    return None if len(sel) == len(relation) else sel


class _ColumnView(dict):
    """Named columns: as much of a relation as the kernels read."""

    column_array = dict.get


def having_kernels(
    having: ast.Expression,
    resolve: Callable[[ast.Expression], Optional[Tuple[str, Any]]],
    optimizer: bool,
) -> Optional[Tuple[List[Any], Dict[str, Tuple[str, Any]]]]:
    """Plan HAVING as WHERE kernels over a grouped tail's columns.

    ``resolve`` maps a column or aggregate call to its tail operand, or
    None.  Each resolved aggregate call reads as a column of its own.
    Returns the kernels in written order and the view they read (kernel
    column -> operand), or None when a conjunct has no kernel.
    """
    view: Dict[str, Tuple[str, Any]] = {}

    def substitute(node: ast.Node) -> Optional[ast.Node]:
        operand = resolve(node) if isinstance(node, ast.FunctionCall) else None
        if operand is None:
            return None
        name = f"\x00{len(view)}"  # cannot collide with a scope name
        view[name] = operand
        return ast.Column(name=name)

    kernels: List[Any] = []
    for term in ast.conjunction_terms(having):
        kernel = _simple_predicate(transform(term, substitute), optimizer)
        if kernel is None:
            return None
        for name in kernel.columns:
            if name not in view:
                view[name] = resolve(ast.Column(name=name))
                if view[name] is None:
                    return None
        kernels.append(kernel)
    return kernels, view


def having_selection(
    kernels: Sequence[Any], columns: Dict[str, Sequence[Any]], size: int
) -> Optional[List[int]]:
    """The group positions the HAVING kernels keep, or None on an abandon.

    Conjuncts run in written order with no statistics build.  An abandon
    (see "Error identity") leaves HAVING to the per-row predicate, which
    raises the row path's error at the same group.
    """
    view = _ColumnView(columns)
    sel: List[int] = list(range(size))
    nulls: Set[int] = set()
    try:
        for kernel in kernels:
            sel = kernel.apply(view, sel, nulls)
    except _SCAN_ABANDON_ERRORS:
        stats.bail(BailReason.TAIL_HAVING_ABANDONED)
        return None
    return [i for i in sel if i not in nulls]


# ---------------------------------------------------------------------------
# scan plans
# ---------------------------------------------------------------------------


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
    """A GROUP BY / aggregate scan over plain key and argument columns.

    ``specs`` are the executor's group-plan specs, so a grouped SELECT and
    a leaf partial aggregation run the same scan.
    """

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
            self.required.update(spec.arg_columns)


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

    if is_grouped(query):
        if any(isinstance(item.expression, ast.Star) for item in query.items):
            # The row path raises the star/GROUP BY error.
            return None, BailReason.STAR_IN_GROUP_BY
        # Qualified keys and arguments bailed above (QUALIFIED_SCOPES).
        group_plan = executor._group_plan(query)
        key_names = group_plan.key_names
        key_columns = [name.lower() for name in key_names or ()]
        if key_names is None or not table_columns.issuperset(key_columns):
            return None, BailReason.EXPRESSION_GROUP_KEY
        if any(
            spec.arg_columns is None or not table_columns.issuperset(spec.arg_columns)
            for spec in group_plan.specs
        ):
            # The row path evaluates non-column arguments.
            return None, BailReason.AGGREGATE_ARGS
        plan = GroupedScanPlan(query, table_name, predicates, key_columns, group_plan.specs)
        return plan, None

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


def _select_rows(executor, query: ast.Query, parent=None):
    """``(plan, relation, sel)`` for a columnar run of ``query``, or None
    (the bail recorded) to use the row path."""
    plan = plan_select(executor, query)
    if plan is None:
        return None
    grouped = isinstance(plan, GroupedScanPlan)
    if grouped and parent is None:
        executor.check_bare_columns(query)
    relation = executor.lookup_table(plan.table_name)
    if any(relation.column_array(name) is None for name in plan.required):
        stats.bail(BailReason.COLUMN_DRIFT)
        return None  # catalog shape drifted from the planned columns
    config = executor.config
    try:
        predicates = _zone_filter(plan.predicates, relation, config.optimizer)
        if predicates is None:
            return plan, relation, []
        sel = _apply_predicates(predicates, relation, config.optimizer)
    except _SCAN_ABANDON_ERRORS:
        stats.bail(BailReason.SCAN_ABANDONED)
        return None
    return plan, relation, sel


def try_execute_select(executor, query: ast.Query, parent) -> Optional[Relation]:
    """Execute ``query`` over column arrays, or None to use the row path."""
    selected = _select_rows(executor, query, parent)
    if selected is None:
        return None
    plan, relation, sel = selected
    if isinstance(plan, FlatScanPlan):
        result = _execute_flat(plan, relation, sel)
    else:
        result = _execute_grouped(executor, plan, relation, parent, sel)
    if result is None:
        stats.bail(BailReason.SCAN_ABANDONED)
    else:
        _note_backing(relation, plan.required)
    return result


def try_execute_partial(executor, query: ast.SelectQuery) -> Optional[Relation]:
    """A leaf partial aggregation as the grouped SELECT's scan, then its
    state rows; or None to use the row path."""
    selected = _select_rows(executor, query)
    if selected is None or not isinstance(selected[0], GroupedScanPlan):
        return None
    plan, relation, sel = selected
    group_plan = executor._group_plan(query)
    # check_bare_columns has seen every bare column in the table.
    firsts = [relation.column_array(name) for name in group_plan.first_names]
    scanned = _scan_groups(plan, relation, sel, "partial")
    if scanned is None:
        stats.bail(BailReason.SCAN_ABANDONED)
        return None
    keys, members, states, error = scanned
    if error is not None:
        raise error
    for array in firsts:
        # A bare non-key column's state is its group's first row; the
        # global group over no rows has none.
        states.append([(True, array[rows[0]]) if rows else (False, None) for rows in members])
    stats.partial += 1
    _note_backing(relation, plan.required)
    return state_relation(group_plan, keys, states)


def _totally_ordered(values: Sequence[Any]) -> bool:
    """Does ``<`` order ``values`` totally, with no NULL to place?"""
    kinds = set(map(type, values))
    if kinds <= {int, bool} or kinds == {str}:
        return True
    # NaN compares false both ways, so only _OrderKey sorts it faithfully.
    return kinds <= {int, float, bool} and all(value == value for value in values)


def tail_positions(
    positions: List[int],
    distinct_arrays: Optional[Sequence[Sequence[Any]]],
    order_arrays: Sequence[Tuple[Sequence[Any], bool]],
    offset: Optional[int],
    limit: Optional[int],
) -> List[int]:
    """DISTINCT, ORDER BY and OFFSET/LIMIT as one permutation of ``positions``.

    The row path's tail exactly: dedup first (first occurrence, keyed on
    the frozen tuple of ``distinct_arrays``; None skips it), then a stable
    sort over ``(array, ascending)`` keys with the shared
    :class:`_OrderKey` semantics, then OFFSET/LIMIT.
    """
    if distinct_arrays is not None:
        seen: Set[Tuple[Any, ...]] = set()
        kept: List[int] = []
        for i in positions:
            key = tuple(freeze_value(array[i]) for array in distinct_arrays)
            if key not in seen:
                seen.add(key)
                kept.append(i)
        positions = kept
    # Typed keys are boxed once, not read through TypedColumn.__getitem__
    # on every comparison.
    order_arrays = [
        (array.to_list() if isinstance(array, TypedColumn) else array, ascending)
        for array, ascending in order_arrays
    ]
    if order_arrays and all(
        _totally_ordered(gather(array, positions)) for array, _ in order_arrays
    ):
        # Plain keys: one stable sort per key, least significant first,
        # orders exactly as the _OrderKey tuples would, at C speed.
        for array, ascending in reversed(order_arrays):
            positions = sorted(positions, key=array.__getitem__, reverse=not ascending)
    elif order_arrays:
        positions = sorted(
            positions,
            key=lambda i: tuple(
                _OrderKey(array[i], ascending) for array, ascending in order_arrays
            ),
        )
    if offset is not None:
        positions = positions[offset:]
    if limit is not None:
        positions = positions[:limit]
    return positions


def _execute_flat(
    plan: FlatScanPlan, relation: Relation, sel: Optional[List[int]]
) -> Optional[Relation]:
    query = plan.query
    arrays = [relation.column_array(name) for name in plan.out_columns]
    if sel is None and not (plan.distinct or plan.order_spec):
        start = query.offset or 0
        stop = None if query.limit is None else start + query.limit
        columns = [array[start:stop] for array in arrays]
    else:
        # DISTINCT/ORDER BY/OFFSET/LIMIT as one permutation of the selection.
        try:
            indices = tail_positions(
                list(range(len(relation))) if sel is None else sel,
                arrays if plan.distinct else None,
                [
                    (relation.column_array(column), ascending)
                    for column, ascending in plan.order_spec or ()
                ],
                query.offset,
                query.limit,
            )
        except _SCAN_ABANDON_ERRORS:
            return None
        if plan.distinct:
            optimizer_stats.distinct_scans += 1
        if plan.order_spec:
            optimizer_stats.order_by_scans += 1
        # Typed backings gather into typed columns (and slices above stay
        # typed), so projections preserve unboxed storage.
        columns = [take_column(array, indices) for array in arrays]
    stats.flat += 1
    return columns_relation(plan.out_names, columns)


def _scan_groups(
    plan: GroupedScanPlan,
    relation: Relation,
    sel: Optional[List[int]],
    phase: str,
):
    """Group the selected rows, then ``phase`` (``"partial"`` or
    ``"result"``) of every aggregate spec, one column per spec.

    Each argument column is gathered once per group and every spec's
    column comes from one :func:`~repro.engine.aggregates.aggregate_column`
    call.  Returns ``(keys, members, columns, error)``: group keys and row
    indices in first-occurrence order, and the spec columns cut at the
    first (group, spec) in group-major order whose ``phase`` raised
    ``error``.  None when a conversion error while feeding (an exact
    SUM or AVG meeting a non-numeric value) abandons the scan, so the row
    path re-raises its own row-major error.
    """
    if plan.key_columns:
        grouped = group_rows(relation, plan.key_columns, sel)
        keys, members = list(grouped), list(grouped.values())
        gathered: Optional[List[Sequence[int]]] = members
    else:
        keys = [()]
        members = [range(len(relation)) if sel is None else sel]
        gathered = None if sel is None else members
    sizes = [len(indices) for indices in members]
    arguments: Dict[str, GroupedColumn] = {}
    for spec in plan.specs:
        for name in spec.arg_columns:
            if name not in arguments:
                arguments[name] = GroupedColumn(relation.column_array(name), gathered)
    try:
        computed = [
            aggregate_column(
                spec.name,
                is_star=spec.is_star,
                distinct=spec.distinct,
                arg_count=spec.arg_count,
                arguments=[arguments[name] for name in spec.arg_columns],
                sizes=sizes,
                phase=phase,
            )
            for spec in plan.specs
        ]
    except _SCAN_ABANDON_ERRORS:
        return None
    failures = [
        (column.failed_at, index)
        for index, column in enumerate(computed)
        if column.error is not None
    ]
    if not failures:
        return keys, members, [column.values for column in computed], None
    size, index = min(failures)
    columns = [column.values[:size] for column in computed]
    return keys[:size], members[:size], columns, computed[index].error


def _execute_grouped(
    executor,
    plan: GroupedScanPlan,
    relation: Relation,
    parent,
    sel: Optional[List[int]],
) -> Optional[Relation]:
    scanned = _scan_groups(plan, relation, sel, "result")
    if scanned is None:
        return None
    _, members, columns, error = scanned
    stats.grouped += 1
    # Each group's scope is its first row.  The global group over empty
    # input has no row: its bare columns are NULL.
    names = [name.lower() for name in relation.schema.names]
    if all(members):
        firsts = [indices[0] for indices in members]
        scope = [take_column(array, firsts) for array in relation.columns()]
    else:
        scope = [[None] for _ in names]
    finalized = FinalizedGroups(
        names,
        scope,
        dict(zip((spec.key for spec in plan.specs), columns)),
        len(members),
        error,
    )
    return executor._grouped_tail(plan.query, finalized, parent)


# ---------------------------------------------------------------------------
# cardinality estimation (explain/profile plumbing)
# ---------------------------------------------------------------------------


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
    elif is_grouped(query):
        estimate = 1.0  # one global group: at most one row
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
_registry.probe("engine.vectorized.tail", lambda: stats.tail)
_registry.probe("engine.vectorized.bails", lambda: dict(stats.bails))
_registry.probe("engine.zone.proved", lambda: stats.zone_proved)
_registry.probe("engine.zone.refuted", lambda: stats.zone_refuted)
_registry.probe("engine.zone.pruned_partitions", lambda: stats.zone_pruned)
