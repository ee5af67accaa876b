"""Fragment plan data structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
        decomposable: True when the fragment can run as partial
            aggregation (set during node assignment by the engine's rule,
            :func:`~repro.engine.executor.decomposition_error`).  The
            parallel runtime replaces the global merge before such a
            fragment with leaf partial aggregation plus per-level combines.
        decomposition_error: Why an aggregation fragment cannot, or None;
            :meth:`FragmentPlan.pretty` prints it.
    """

    name: str
    query: ast.Query
    level: CapabilityLevel
    input_name: str
    description: str = ""
    assigned_node: Optional[str] = None
    partitionable: bool = False
    decomposable: bool = False
    decomposition_error: Optional[str] = None

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
    #: Not copied by ``dataclasses.replace``; ``runtime.dag.replan_without``
    #: hands it to the re-mapped plan, since no entry depends on placement.
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
            if fragment.decomposition_error:
                lines.append(f"      -- not decomposable: {fragment.decomposition_error}")
        lines.append(f"  [E1 @ cloud] Q_delta: {self.remainder_description}")
        return "\n".join(lines)
