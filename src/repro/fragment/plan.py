"""Fragment plan data structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.aggregates import is_decomposable_aggregate
from repro.fragment.capabilities import CapabilityLevel
from repro.sql import ast
from repro.sql.analysis import QueryFeatures, analyze_query
from repro.sql.render import render


def is_row_distributive(query: ast.Query) -> bool:
    """True when ``query`` commutes with horizontal partitioning.

    A fragment is row-distributive when running it on each partition of its
    input and concatenating the partials (in partition order) yields exactly
    the rows of running it on the whole input: a per-row map/filter over a
    single base relation.  Grouping, HAVING, ordering, LIMIT/OFFSET,
    DISTINCT, window functions, aggregates and subqueries all see more than
    one row at a time, so any of them disqualifies the fragment.  The
    parallel runtime only fans such fragments out across sibling leaves.
    """
    if not isinstance(query, ast.SelectQuery):
        return False
    if not isinstance(query.from_clause, ast.TableRef):
        return False
    if query.group_by or query.having is not None or query.order_by:
        return False
    if query.limit is not None or query.offset is not None or query.distinct:
        return False
    stack: List[ast.Node] = [item.expression for item in query.items]
    if query.where is not None:
        stack.append(query.where)
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, (ast.Query, ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return False
        if isinstance(node, ast.FunctionCall):
            if node.window is not None:
                return False
            if ast.is_aggregate_function(node.name):
                return False
        stack.extend(child for child in node.children() if child is not None)
    return True


def _contains_disqualifier(node: ast.Node, aggregates_disqualify: bool = False) -> bool:
    """True when ``node`` holds a subquery, a window, or (optionally) any
    aggregate call — the constructs a partial-aggregation stage cannot host
    inside aggregate arguments or WHERE."""
    stack: List[ast.Node] = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(
            current, (ast.Query, ast.ScalarSubquery, ast.InSubquery, ast.Exists)
        ):
            return True
        if isinstance(current, ast.FunctionCall):
            if current.window is not None:
                return True
            if aggregates_disqualify and ast.is_aggregate_function(current.name):
                return True
        stack.extend(child for child in current.children() if child is not None)
    return False


def is_decomposable_aggregation(query: ast.Query) -> bool:
    """True when ``query`` is a GROUP BY stage the runtime may decompose.

    A decomposable aggregation runs as partition-local partial aggregation
    whose mergeable states combine up the tree instead of forcing a global
    merge of raw rows (see :mod:`repro.engine.aggregates` for the
    partial-state protocol).  The requirements:

    * a single-table SELECT with grouping or aggregates and no
      DISTINCT/LIMIT/OFFSET (those see the whole relation at once),
    * plain-column GROUP BY keys with distinct, unqualified names — the
      keys double as the state relation's columns,
    * every aggregate call decomposable (mergeable accumulator exists;
      ``DISTINCT`` aggregates, ``MEDIAN`` and the regression family are
      not) and free of subqueries/windows/nested aggregates,
    * every column referenced outside aggregate arguments (items, HAVING,
      ORDER BY) is a group key — finalization only sees the merged keys,
      never a representative raw row; an ORDER BY column naming a select
      item's output reads that item instead
      (:func:`~repro.sql.ast.order_by_aliases`),
    * no subqueries anywhere (their results could differ per node).
    """
    if not isinstance(query, ast.SelectQuery):
        return False
    if not isinstance(query.from_clause, ast.TableRef):
        return False
    if query.distinct or query.limit is not None or query.offset is not None:
        return False

    key_names: List[str] = []
    for expression in query.group_by:
        if not isinstance(expression, ast.Column) or expression.table:
            return False
        # ``__agg<N>`` is reserved for the state columns of the partial
        # relation; a key of that name would collide with its own states.
        if expression.name.lower().startswith("__agg"):
            return False
        key_names.append(expression.name.lower())
    if len(set(key_names)) != len(key_names):
        return False
    keys = set(key_names)

    aggregate_calls: List[ast.FunctionCall] = []
    # Walk items/HAVING/ORDER BY: aggregate arguments may use any source
    # column (they are evaluated at the leaves); everything outside them
    # must resolve against the group keys at finalize time.
    sources: List[ast.Node] = [item.expression for item in query.items]
    if query.having is not None:
        sources.append(query.having)
    sources.extend(item.expression for item in query.order_by)
    aliases = ast.order_by_aliases(query)
    stack: List[ast.Node] = list(sources)
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(
            node, (ast.Query, ast.ScalarSubquery, ast.InSubquery, ast.Exists)
        ):
            return False
        if isinstance(node, ast.FunctionCall):
            if node.window is not None:
                return False
            if ast.is_aggregate_function(node.name):
                aggregate_calls.append(node)
                if any(
                    _contains_disqualifier(argument, aggregates_disqualify=True)
                    for argument in node.arguments
                    if not isinstance(argument, ast.Star)
                ):
                    return False
                continue  # arguments are leaf-evaluated; skip the key check
        if isinstance(node, ast.Column) and id(node) not in aliases:
            if node.table or node.name.lower() not in keys:
                return False
        stack.extend(child for child in node.children() if child is not None)

    if not query.group_by and not aggregate_calls:
        return False  # not an aggregation stage at all
    for call in aggregate_calls:
        is_star = len(call.arguments) == 1 and isinstance(call.arguments[0], ast.Star)
        if not is_decomposable_aggregate(
            call.name,
            is_star=is_star,
            distinct=call.distinct,
            arg_count=len(call.arguments) or 1,
        ):
            return False
    # WHERE runs before grouping on the leaf chunks; only row-local
    # expressions are allowed there (no subqueries, windows, aggregates).
    if query.where is not None and _contains_disqualifier(
        query.where, aggregates_disqualify=True
    ):
        return False
    return True


@dataclass
class QueryFragment:
    """One pushed-down query fragment ``Qi`` of the plan.

    Attributes:
        name: Name of the fragment's output relation (``d1``, ``d2``, ...);
            the next fragment reads this relation.
        query: The fragment's query AST (reads either the base relation or the
            previous fragment's output).
        level: The capability level the fragment requires.
        input_name: Name of the relation the fragment reads.
        description: Short human-readable explanation (used in reports).
        partitionable: True when the fragment may run independently on
            horizontal partitions of its input (set during node assignment;
            see :func:`is_row_distributive`).
        decomposable: True when the fragment is an aggregation stage whose
            aggregates all support the mergeable partial-state protocol
            (set during node assignment; see
            :func:`is_decomposable_aggregation`).  The parallel runtime
            replaces the global merge before such a fragment with leaf
            partial aggregation plus per-level combines.
    """

    name: str
    query: ast.Query
    level: CapabilityLevel
    input_name: str
    description: str = ""
    assigned_node: Optional[str] = None
    partitionable: bool = False
    decomposable: bool = False

    @property
    def sql(self) -> str:
        """The fragment as SQL text."""
        return render(self.query)

    @property
    def features(self) -> QueryFeatures:
        """Structural features of the fragment."""
        return analyze_query(self.query)


@dataclass
class FragmentPlan:
    """A complete vertical fragmentation ``Q → Q1 .. Qj, Qδ``.

    ``fragments`` are ordered bottom-up: the first fragment runs closest to
    the sensor, the last one produces the relation the remainder consumes.
    """

    original_query: ast.Query
    fragments: List[QueryFragment] = field(default_factory=list)
    #: Description of the remainder Qδ executed at the cloud.  For pure SQL
    #: workloads the remainder is usually a pass-through (the whole query was
    #: pushed down); for R workloads it is the surrounding ML call.
    remainder_description: str = "pass-through"
    #: Optional remainder query executed at the cloud over the shipped data.
    #: ``None`` means pass-through.  The cloud-only baseline plan sets this to
    #: the original query so that all work happens at the top.
    remainder_query: Optional[ast.Query] = None
    #: Relation name under which the shipped data is registered at the cloud
    #: before the remainder query runs.
    remainder_input_alias: str = "d"
    #: Name of the relation that finally leaves the apartment (d').
    result_name: str = "d_prime"
    #: The execution-DAG builder's memo of the queries (and their SQL text)
    #: it derives from this plan, keyed per fragment chain and input name,
    #: so every run of a cached plan hands the engine the same AST objects.
    #: Not copied by ``dataclasses.replace``: a re-mapped plan starts empty.
    derived: Dict[Tuple[Any, ...], Tuple[Any, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def original_sql(self) -> str:
        """The original query as SQL text."""
        return render(self.original_query)

    @property
    def pushed_down_levels(self) -> List[CapabilityLevel]:
        """Levels used by the pushed-down fragments (bottom-up)."""
        return [fragment.level for fragment in self.fragments]

    def fragments_at(self, level: CapabilityLevel) -> List[QueryFragment]:
        """All fragments requiring the given level."""
        return [fragment for fragment in self.fragments if fragment.level == level]

    @property
    def deepest_pushdown(self) -> Optional[CapabilityLevel]:
        """The least powerful level that received work (None when empty)."""
        if not self.fragments:
            return None
        return max(self.pushed_down_levels, key=int)

    def describe(self) -> List[Dict[str, str]]:
        """Tabular description of the plan (one row per fragment)."""
        rows = []
        for fragment in self.fragments:
            rows.append(
                {
                    "fragment": fragment.name,
                    "level": fragment.level.short_name,
                    "node": fragment.assigned_node or "",
                    "input": fragment.input_name,
                    "sql": fragment.sql,
                    "description": fragment.description,
                }
            )
        rows.append(
            {
                "fragment": "Q_delta",
                "level": CapabilityLevel.E1_CLOUD.short_name,
                "node": "cloud",
                "input": self.fragments[-1].name if self.fragments else "d",
                "sql": "",
                "description": self.remainder_description,
            }
        )
        return rows

    def pretty(self, estimates: Optional[Sequence[Optional[int]]] = None) -> str:
        """Multi-line, paper-style listing of the staged queries.

        ``estimates`` are per-fragment estimated output rows, in fragment
        order (``explain()`` passes the cardinality estimator's); each
        known one renders as ``(est. N rows)``.
        """
        lines = ["Vertical fragmentation plan:"]
        for index, fragment in enumerate(self.fragments):
            node = f" @ {fragment.assigned_node}" if fragment.assigned_node else ""
            estimated = estimates[index] if estimates is not None else None
            estimate = f" (est. {estimated} rows)" if estimated is not None else ""
            lines.append(
                f"  [{fragment.level.short_name}{node}] {fragment.name}:{estimate}"
            )
            lines.append(f"      {fragment.sql}")
            if fragment.description:
                lines.append(f"      -- {fragment.description}")
        lines.append(f"  [E1 @ cloud] Q_delta: {self.remainder_description}")
        return "\n".join(lines)
