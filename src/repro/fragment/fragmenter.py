"""The vertical fragmentation algorithm.

Given a (policy-rewritten) query, :class:`VerticalFragmenter` produces the
chain of staged queries of Section 4.2:

* the sensor evaluates only attribute-vs-constant filters over its own stream
  (``SELECT * FROM stream WHERE z < 2``),
* an appliance evaluates attribute-vs-attribute comparisons and drops the
  columns no later stage needs (``SELECT x, y, z, t FROM d1 WHERE x > y``),
* a more capable appliance (the home media center) computes the grouping and
  HAVING clause (``SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y
  HAVING SUM(z) > 100``),
* the apartment PC evaluates window functions and other full-SQL constructs
  (``SELECT regr_intercept(y, x) OVER (...) FROM d3``),
* the cloud only receives the final, strongly reduced relation ``d'`` and runs
  the remainder (in the paper: the surrounding R machine-learning call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.fragment.capabilities import CapabilityLevel, lowest_capable_level
from repro.fragment.plan import (
    FragmentPlan,
    QueryFragment,
    is_decomposable_aggregation,
    is_row_distributive,
)
from repro.fragment.topology import Topology
from repro.sql import ast
from repro.sql.analysis import analyze_query
from repro.sql.errors import SqlError
from repro.sql.render import render_expression
from repro.sql.visitor import clone, collect_column_names


class FragmentationError(SqlError):
    """Raised when a query cannot be fragmented."""


class VerticalFragmenter:
    """Splits queries into pushed-down fragments plus a remainder."""

    def __init__(self, topology: Optional[Topology] = None) -> None:
        self.topology = topology or Topology.default_chain()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def fragment(self, query: ast.Query) -> FragmentPlan:
        """Fragment ``query`` and assign each fragment to a topology node."""
        stages = self._flatten_chain(query)
        innermost = stages[0]

        fragments: List[QueryFragment] = []
        if isinstance(innermost, ast.SelectQuery) and isinstance(
            innermost.from_clause, ast.TableRef
        ):
            fragments.extend(self._split_innermost(innermost))
            outer_stages = stages[1:]
        else:
            # The innermost block is a join / set operation / complex relation:
            # treat the whole block as a single fragment.
            fragments.append(self._whole_stage_fragment(innermost, index=1, input_name=self._base_name(innermost)))
            outer_stages = stages[1:]

        for stage in outer_stages:
            previous = fragments[-1]
            fragments.append(
                self._outer_stage_fragment(stage, index=len(fragments) + 1, input_name=previous.name)
            )

        self._enforce_monotonic_levels(fragments)
        self._assign_nodes(fragments)

        plan = FragmentPlan(
            original_query=clone(query),
            fragments=fragments,
            remainder_description="pass-through (result d' is consumed by the analysis remainder)",
            result_name=fragments[-1].name if fragments else "d_prime",
        )
        return plan

    def cloud_only_plan(self, query: ast.Query) -> FragmentPlan:
        """Baseline plan without pushdown: ship the raw data, run Q at the cloud."""
        base_name = self._base_name(query)
        raw = ast.SelectQuery(
            items=[ast.SelectItem(expression=ast.Star())],
            from_clause=ast.TableRef(name=base_name),
        )
        fragment = QueryFragment(
            name="d1",
            query=raw,
            level=CapabilityLevel.E4_SENSOR,
            input_name=base_name,
            description="raw sensor data shipped unchanged (no pushdown)",
        )
        self._assign_nodes([fragment])
        return FragmentPlan(
            original_query=clone(query),
            fragments=[fragment],
            remainder_description="original query Q executed at the cloud over the raw data",
            remainder_query=clone(query),
            remainder_input_alias=base_name,
            result_name="d1",
        )

    # ------------------------------------------------------------------
    # stage discovery
    # ------------------------------------------------------------------
    def _flatten_chain(self, query: ast.Query) -> List[ast.Query]:
        """Return the chain of SELECT stages, innermost first."""
        stages: List[ast.Query] = []
        current: ast.Query = query
        while (
            isinstance(current, ast.SelectQuery)
            and isinstance(current.from_clause, ast.SubqueryRef)
        ):
            stages.append(current)
            current = current.from_clause.query
        stages.append(current)
        return list(reversed(stages))

    def _base_name(self, query: ast.Query) -> str:
        tables = [
            node
            for node in _walk_from(query)
            if isinstance(node, ast.TableRef)
        ]
        if tables:
            return tables[0].name
        return "d"

    # ------------------------------------------------------------------
    # innermost stage splitting
    # ------------------------------------------------------------------
    def _split_innermost(self, stage: ast.SelectQuery) -> List[QueryFragment]:
        assert isinstance(stage.from_clause, ast.TableRef)
        base_name = stage.from_clause.name
        fragments: List[QueryFragment] = []

        constant_terms, attribute_terms = self._split_where(stage.where)

        # --- sensor fragment: SELECT * with constant-only filters ------------
        sensor_query = ast.SelectQuery(
            items=[ast.SelectItem(expression=ast.Star())],
            from_clause=ast.TableRef(name=base_name),
            where=ast.conjunction(*constant_terms),
        )
        fragments.append(
            QueryFragment(
                name=f"d{len(fragments) + 1}",
                query=sensor_query,
                level=CapabilityLevel.E4_SENSOR,
                input_name=base_name,
                description="sensor-level constant filter over the raw stream",
            )
        )

        # --- appliance fragment: attribute comparisons + projection pruning --
        needed_columns = self._columns_needed_by_stage(stage)
        has_projection = bool(needed_columns) and not stage.is_select_star
        if attribute_terms or has_projection:
            items = (
                [ast.SelectItem(expression=ast.Column(name=name)) for name in needed_columns]
                if needed_columns
                else [ast.SelectItem(expression=ast.Star())]
            )
            appliance_query = ast.SelectQuery(
                items=items,
                from_clause=ast.TableRef(name=fragments[-1].name),
                where=ast.conjunction(*attribute_terms),
            )
            fragments.append(
                QueryFragment(
                    name=f"d{len(fragments) + 1}",
                    query=appliance_query,
                    level=CapabilityLevel.E3_APPLIANCE,
                    input_name=fragments[-1].name,
                    description="appliance-level attribute comparison and column pruning",
                )
            )

        # --- aggregation / final projection of the innermost stage -----------
        needs_final_projection = bool(stage.group_by) or stage.having is not None or any(
            item.alias is not None
            or not isinstance(item.expression, (ast.Column, ast.Star))
            for item in stage.items
        )
        if needs_final_projection:
            final_query = ast.SelectQuery(
                items=[clone(item) for item in stage.items],
                from_clause=ast.TableRef(name=fragments[-1].name),
                group_by=[clone(expression) for expression in stage.group_by],
                having=clone(stage.having) if stage.having is not None else None,
                order_by=[clone(item) for item in stage.order_by],
                limit=stage.limit,
                offset=stage.offset,
                distinct=stage.distinct,
            )
            level = lowest_capable_level(analyze_query(final_query))
            fragments.append(
                QueryFragment(
                    name=f"d{len(fragments) + 1}",
                    query=final_query,
                    level=level,
                    input_name=fragments[-1].name,
                    description="aggregation / projection stage of the innermost query",
                )
            )
        elif stage.order_by or stage.limit is not None or stage.distinct:
            # Ordering/limits without aggregation still need an appliance;
            # columns kept only for ORDER BY are projected away here.
            final_query = ast.SelectQuery(
                items=[clone(item) for item in stage.items],
                from_clause=ast.TableRef(name=fragments[-1].name),
                order_by=[clone(item) for item in stage.order_by],
                limit=stage.limit,
                offset=stage.offset,
                distinct=stage.distinct,
            )
            fragments.append(
                QueryFragment(
                    name=f"d{len(fragments) + 1}",
                    query=final_query,
                    level=CapabilityLevel.E3_APPLIANCE,
                    input_name=fragments[-1].name,
                    description="ordering / deduplication stage of the innermost query",
                )
            )
        return fragments

    def _split_where(
        self, where: Optional[ast.Expression]
    ) -> Tuple[List[ast.Expression], List[ast.Expression]]:
        """Split WHERE terms into sensor-capable and appliance-level terms."""
        constant_terms: List[ast.Expression] = []
        attribute_terms: List[ast.Expression] = []
        for term in ast.conjunction_terms(where):
            if self._is_constant_comparison(term):
                constant_terms.append(term)
            else:
                attribute_terms.append(term)
        return constant_terms, attribute_terms

    @staticmethod
    def _is_constant_comparison(term: ast.Expression) -> bool:
        """True for ``column <op> literal`` terms a sensor can evaluate."""
        if not isinstance(term, ast.BinaryOp):
            return False
        if term.operator.upper() in {"AND", "OR"}:
            return False
        sides = (term.left, term.right)
        has_column = any(isinstance(side, ast.Column) for side in sides)
        has_literal = any(isinstance(side, ast.Literal) for side in sides)
        only_simple = all(isinstance(side, (ast.Column, ast.Literal)) for side in sides)
        return has_column and has_literal and only_simple

    def _columns_needed_by_stage(self, stage: ast.SelectQuery) -> List[str]:
        """Columns the rest of the innermost stage needs, in a stable order."""
        needed: List[str] = []
        seen: Set[str] = set()

        def add_from(node: Optional[ast.Node]) -> None:
            if node is None:
                return
            for name in collect_column_names(node):
                if name not in seen:
                    seen.add(name)
                    needed.append(name)

        for item in stage.items:
            if isinstance(item.expression, ast.Star):
                return []  # star: no pruning possible
            add_from(item.expression)
        for expression in stage.group_by:
            add_from(expression)
        add_from(stage.having)
        for order_item in stage.order_by:
            add_from(order_item.expression)
        return needed

    # ------------------------------------------------------------------
    # outer stages
    # ------------------------------------------------------------------
    def _outer_stage_fragment(
        self, stage: ast.Query, index: int, input_name: str
    ) -> QueryFragment:
        if not isinstance(stage, ast.SelectQuery):
            return self._whole_stage_fragment(stage, index, input_name)
        rebased = clone(stage)
        rebased.from_clause = ast.TableRef(name=input_name)
        level = lowest_capable_level(analyze_query(rebased))
        return QueryFragment(
            name=f"d{index}",
            query=rebased,
            level=level,
            input_name=input_name,
            description="outer query stage rebased onto the previous fragment's result",
        )

    def _whole_stage_fragment(
        self, stage: ast.Query, index: int, input_name: str
    ) -> QueryFragment:
        level = lowest_capable_level(analyze_query(stage))
        return QueryFragment(
            name=f"d{index}",
            query=clone(stage),
            level=level,
            input_name=input_name,
            description="complex block executed as a single fragment",
        )

    # ------------------------------------------------------------------
    # level / node assignment
    # ------------------------------------------------------------------
    def _enforce_monotonic_levels(self, fragments: Sequence[QueryFragment]) -> None:
        """Data only flows upwards: later fragments may not need weaker nodes."""
        strongest_so_far = CapabilityLevel.E4_SENSOR
        for fragment in fragments:
            if int(fragment.level) > int(strongest_so_far):
                fragment.level = strongest_so_far
            else:
                strongest_so_far = fragment.level

    def _assign_nodes(self, fragments: Sequence[QueryFragment]) -> None:
        available_levels = set(self.topology.levels)
        for fragment in fragments:
            level = fragment.level
            if level not in available_levels:
                node = self.topology.first_node_at_or_above(level)
                fragment.level = node.level
                fragment.assigned_node = node.name
            else:
                fragment.assigned_node = self.topology.nodes_at(level)[0].name
            # Row-distributive fragments may fan out over sibling nodes; the
            # parallel runtime overrides the single-node assignment with one
            # task per partition and a merge at the siblings' common ancestor.
            fragment.partitionable = is_row_distributive(fragment.query)
            # Decomposable aggregation stages run as leaf partial
            # aggregation with per-level combines instead of a global merge.
            fragment.decomposable = is_decomposable_aggregation(fragment.query)


def _walk_from(query: ast.Query):
    """Yield every node of the FROM subtrees of ``query`` (all levels)."""
    stack: List[ast.Node] = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.SelectQuery):
            if node.from_clause is not None:
                stack.append(node.from_clause)
        elif isinstance(node, ast.SetOperation):
            stack.extend([node.left, node.right])
        elif isinstance(node, (ast.SubqueryRef,)):
            yield node
            stack.append(node.query)
        elif isinstance(node, ast.Join):
            stack.extend([node.left, node.right])
        elif isinstance(node, ast.TableRef):
            yield node
