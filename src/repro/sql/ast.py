"""Dataclass AST for the SQL dialect of the PArADISE reproduction.

The AST deliberately mirrors the textual structure of SQL rather than a
relational-algebra plan: the paper's rewriting rules are phrased in terms of
SELECT/FROM/WHERE/GROUP BY/HAVING clauses ("the additional conditions will be
inserted as WHERE and HAVING clauses in the innermost possible part of the
nested SQL query"), so the rewriter and the fragmenter both operate on this
clause-level representation.  The relational engine in :mod:`repro.engine`
executes the same AST directly.

All nodes are plain dataclasses.  They are treated as immutable by convention:
transformations build new nodes via :func:`dataclasses.replace` or the helpers
in :mod:`repro.sql.visitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Union


class Node:
    """Marker base class for every AST node."""

    def children(self) -> Sequence["Node"]:
        """Return the direct child nodes (used by generic walkers)."""
        return ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Marker base class for scalar expressions."""


@dataclass
class Literal(Expression):
    """A constant value: number, string, boolean or NULL."""

    value: Union[int, float, str, bool, None]

    def children(self) -> Sequence[Node]:
        return ()


@dataclass
class Column(Expression):
    """A (possibly qualified) column reference such as ``d.x`` or ``z``."""

    name: str
    table: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        """Return ``table.name`` when qualified, else just ``name``."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name

    def children(self) -> Sequence[Node]:
        return ()


@dataclass
class Star(Expression):
    """The ``*`` projection item, optionally qualified (``t.*``)."""

    table: Optional[str] = None

    def children(self) -> Sequence[Node]:
        return ()


@dataclass
class UnaryOp(Expression):
    """A prefix operator application: ``NOT expr`` or ``-expr``."""

    operator: str
    operand: Expression

    def children(self) -> Sequence[Node]:
        return (self.operand,)


@dataclass
class BinaryOp(Expression):
    """An infix operator application such as ``x > y`` or ``a AND b``."""

    operator: str
    left: Expression
    right: Expression

    def children(self) -> Sequence[Node]:
        return (self.left, self.right)


@dataclass
class FrameBound(Node):
    """One bound of a window frame (``UNBOUNDED PRECEDING``, ``CURRENT ROW``...)."""

    kind: str  # "UNBOUNDED PRECEDING" | "PRECEDING" | "CURRENT ROW" | "FOLLOWING" | "UNBOUNDED FOLLOWING"
    offset: Optional[Expression] = None

    def children(self) -> Sequence[Node]:
        return (self.offset,) if self.offset is not None else ()


@dataclass
class WindowFrame(Node):
    """A window frame clause (``ROWS BETWEEN ... AND ...``)."""

    mode: str  # "ROWS" | "RANGE"
    start: FrameBound = field(default_factory=lambda: FrameBound("UNBOUNDED PRECEDING"))
    end: FrameBound = field(default_factory=lambda: FrameBound("CURRENT ROW"))

    def children(self) -> Sequence[Node]:
        return (self.start, self.end)


@dataclass
class OrderItem(Node):
    """A single ``ORDER BY`` element."""

    expression: Expression
    ascending: bool = True
    nulls_first: Optional[bool] = None

    def children(self) -> Sequence[Node]:
        return (self.expression,)


@dataclass
class WindowSpec(Node):
    """The ``OVER (...)`` specification of a window function call."""

    partition_by: List[Expression] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    frame: Optional[WindowFrame] = None

    def children(self) -> Sequence[Node]:
        nodes: List[Node] = list(self.partition_by)
        nodes.extend(self.order_by)
        if self.frame is not None:
            nodes.append(self.frame)
        return nodes


@dataclass
class FunctionCall(Expression):
    """A function call, possibly aggregate and possibly windowed.

    ``COUNT(*)`` is represented with a single :class:`Star` argument.
    """

    name: str
    arguments: List[Expression] = field(default_factory=list)
    distinct: bool = False
    window: Optional[WindowSpec] = None

    def children(self) -> Sequence[Node]:
        nodes: List[Node] = list(self.arguments)
        if self.window is not None:
            nodes.append(self.window)
        return nodes


@dataclass
class CaseWhen(Node):
    """One ``WHEN condition THEN result`` branch of a CASE expression."""

    condition: Expression
    result: Expression

    def children(self) -> Sequence[Node]:
        return (self.condition, self.result)


@dataclass
class CaseExpression(Expression):
    """A searched ``CASE WHEN ... THEN ... ELSE ... END`` expression."""

    branches: List[CaseWhen] = field(default_factory=list)
    default: Optional[Expression] = None

    def children(self) -> Sequence[Node]:
        nodes: List[Node] = list(self.branches)
        if self.default is not None:
            nodes.append(self.default)
        return nodes


@dataclass
class InList(Expression):
    """``expr [NOT] IN (value, value, ...)``."""

    expression: Expression
    values: List[Expression] = field(default_factory=list)
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.expression, *self.values)


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    expression: Expression
    query: "SelectQuery" = None  # type: ignore[assignment]
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.expression, self.query)


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    expression: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.expression, self.low, self.high)


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    expression: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.expression, self.pattern)


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    expression: Expression
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.expression,)


@dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "SelectQuery" = None  # type: ignore[assignment]
    negated: bool = False

    def children(self) -> Sequence[Node]:
        return (self.query,)


@dataclass
class ScalarSubquery(Expression):
    """A subquery used as a scalar expression."""

    query: "SelectQuery" = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.query,)


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    expression: Expression
    target_type: str = "TEXT"

    def children(self) -> Sequence[Node]:
        return (self.expression,)


# ---------------------------------------------------------------------------
# Relations (FROM clause)
# ---------------------------------------------------------------------------


class Relation(Node):
    """Marker base class for FROM-clause items."""


@dataclass
class TableRef(Relation):
    """A reference to a base table or stream, optionally aliased."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        """Name used to qualify columns of this relation."""
        return self.alias or self.name

    def children(self) -> Sequence[Node]:
        return ()


@dataclass
class SubqueryRef(Relation):
    """A derived table ``(SELECT ...) AS alias`` in the FROM clause."""

    query: "SelectQuery" = None  # type: ignore[assignment]
    alias: Optional[str] = None

    def children(self) -> Sequence[Node]:
        return (self.query,)


@dataclass
class Join(Relation):
    """A join of two relations."""

    left: Relation
    right: Relation
    join_type: str = "INNER"  # INNER | LEFT | RIGHT | FULL | CROSS
    condition: Optional[Expression] = None
    using: List[str] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        nodes: List[Node] = [self.left, self.right]
        if self.condition is not None:
            nodes.append(self.condition)
        return nodes


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One element of the SELECT list: an expression and an optional alias."""

    expression: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> Optional[str]:
        """The column name this item produces, when it can be determined."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, Column):
            return self.expression.name
        if isinstance(self.expression, FunctionCall):
            return self.expression.name.lower()
        return None

    def children(self) -> Sequence[Node]:
        return (self.expression,)


class Query(Node):
    """Marker base class for query nodes (SELECT and set operations)."""


@dataclass
class SelectQuery(Query):
    """A full ``SELECT`` statement."""

    items: List[SelectItem] = field(default_factory=list)
    from_clause: Optional[Relation] = None
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    def children(self) -> Sequence[Node]:
        nodes: List[Node] = list(self.items)
        if self.from_clause is not None:
            nodes.append(self.from_clause)
        if self.where is not None:
            nodes.append(self.where)
        nodes.extend(self.group_by)
        if self.having is not None:
            nodes.append(self.having)
        nodes.extend(self.order_by)
        return nodes

    @property
    def is_select_star(self) -> bool:
        """True when the projection is a bare ``SELECT *``."""
        return len(self.items) == 1 and isinstance(self.items[0].expression, Star)


@dataclass
class SetOperation(Query):
    """``UNION`` / ``INTERSECT`` / ``EXCEPT`` of two queries."""

    operator: str
    left: Query
    right: Query
    all: bool = False

    def children(self) -> Sequence[Node]:
        return (self.left, self.right)


# ---------------------------------------------------------------------------
# Convenience constructors used heavily by the rewriter and tests
# ---------------------------------------------------------------------------


def column(name: str, table: Optional[str] = None) -> Column:
    """Shorthand constructor for :class:`Column`."""
    return Column(name=name, table=table)


def literal(value: Union[int, float, str, bool, None]) -> Literal:
    """Shorthand constructor for :class:`Literal`."""
    return Literal(value=value)


def conjunction(*terms: Optional[Expression]) -> Optional[Expression]:
    """Combine expressions with ``AND``, skipping ``None`` terms.

    Returns ``None`` when no terms remain — the caller keeps an absent WHERE
    clause absent.  This is the primitive the paper's rewriting rule uses:
    "the WHERE condition is combined with the user's integrity constraints and
    the system query conjunctively".
    """
    remaining = [term for term in terms if term is not None]
    if not remaining:
        return None
    result = remaining[0]
    for term in remaining[1:]:
        result = BinaryOp("AND", result, term)
    return result


def conjunction_terms(expression: Optional[Expression]) -> List[Expression]:
    """Split a boolean expression into its top-level AND-ed terms."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.operator.upper() == "AND":
        return conjunction_terms(expression.left) + conjunction_terms(expression.right)
    return [expression]


AGGREGATE_FUNCTIONS = frozenset(
    {
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "COUNT",
        "STDDEV",
        "STDDEV_SAMP",
        "STDDEV_POP",
        "VARIANCE",
        "VAR_SAMP",
        "VAR_POP",
        "MEDIAN",
        "REGR_INTERCEPT",
        "REGR_SLOPE",
        "REGR_COUNT",
        "REGR_R2",
        "CORR",
        "COVAR_POP",
        "COVAR_SAMP",
    }
)

WINDOW_ONLY_FUNCTIONS = frozenset(
    {"ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "LEAD", "FIRST_VALUE", "LAST_VALUE", "NTILE"}
)


def is_aggregate_function(name: str) -> bool:
    """Return ``True`` when ``name`` denotes an aggregate function."""
    return name.upper() in AGGREGATE_FUNCTIONS


def order_by_aliases(query: SelectQuery) -> Set[int]:
    """The ``id`` of each ORDER BY column that names a select item's output.

    Such a column reads that item's value (an output name shadows a source
    column, as the executor resolves ORDER BY), so it needs no column of
    the input.  Columns inside aggregate arguments or subqueries still
    read the input.
    """
    outputs = {item.output_name.lower() for item in query.items if item.output_name}
    aliases: Set[int] = set()
    stack: List[Node] = [item.expression for item in query.order_by]
    while stack:
        node = stack.pop()
        if node is None or isinstance(node, Query):
            continue
        if isinstance(node, FunctionCall) and (
            node.window is None and is_aggregate_function(node.name)
        ):
            continue
        if isinstance(node, Column) and not node.table and node.name.lower() in outputs:
            aliases.add(id(node))
        stack.extend(child for child in node.children() if child is not None)
    return aliases
