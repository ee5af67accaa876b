"""Query feature analysis.

The vertical fragmenter of the paper places each query fragment on the lowest
node that is still *capable* of evaluating it (Table 1).  To decide this, the
fragmenter needs a structural summary of a query: which SQL features it uses
(joins, grouping, window functions, subqueries, attribute-to-attribute
comparisons, ...), which tables and columns it touches and how deeply it
nests.  :func:`analyze_query` computes that summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set

from repro.sql import ast
from repro.sql.visitor import (
    collect_aggregates,
    collect_function_calls,
    collect_tables,
    nesting_depth,
    walk,
)


@dataclass(frozen=True)
class QueryFeatures:
    """Structural summary of a query used for capability decisions.

    Attributes:
        tables: Lower-cased names of base tables/streams referenced anywhere.
        columns: Lower-cased names of referenced columns.
        output_columns: Names produced by the outermost SELECT list (aliases
            win over column names); ``*`` appears as ``"*"``.
        features: The set of feature identifiers (see :data:`FEATURE_NAMES`).
        aggregate_functions: Upper-cased names of aggregate functions used.
        window_functions: Upper-cased names of windowed function calls.
        nesting_depth: Number of SELECT levels.
        join_count: Number of join operators.
        predicate_count: Number of top-level AND-ed WHERE terms summed over
            all SELECT levels.
    """

    tables: FrozenSet[str]
    columns: FrozenSet[str]
    output_columns: tuple
    features: FrozenSet[str]
    aggregate_functions: FrozenSet[str]
    window_functions: FrozenSet[str]
    nesting_depth: int
    join_count: int
    predicate_count: int

    def uses(self, feature: str) -> bool:
        """Return ``True`` when the query uses ``feature``."""
        return feature in self.features


#: Feature identifiers produced by :func:`analyze_query`.  They correspond to
#: the capability rows of Table 1 in the paper (from simple constant filters a
#: sensor can evaluate up to window functions only the cloud or a PC can run).
FEATURE_NAMES = (
    "projection",
    "selection_constant",
    "selection_attribute",
    "join",
    "group_by",
    "having",
    "aggregation",
    "window_function",
    "order_by",
    "subquery",
    "set_operation",
    "distinct",
    "limit",
    "case_expression",
    "like",
    "in_subquery",
    "exists",
    "arithmetic",
    "scalar_function",
)


def analyze_query(query: ast.Query) -> QueryFeatures:
    """Compute the :class:`QueryFeatures` summary of ``query``."""
    features: Set[str] = set()
    tables: Set[str] = set()
    columns: Set[str] = set()
    aggregates: Set[str] = set()
    windows: Set[str] = set()
    join_count = 0
    predicate_count = 0

    for node in walk(query):
        if isinstance(node, ast.SetOperation):
            features.add("set_operation")
        elif isinstance(node, ast.SelectQuery):
            _analyze_select_shallow(node, features)
            predicate_count += len(ast.conjunction_terms(node.where))
        elif isinstance(node, ast.Join):
            join_count += 1
            features.add("join")
        elif isinstance(node, ast.TableRef):
            tables.add(node.name.lower())
        elif isinstance(node, ast.Column):
            columns.add(node.name.lower())
        elif isinstance(node, ast.FunctionCall):
            if node.window is not None:
                features.add("window_function")
                windows.add(node.name.upper())
            if ast.is_aggregate_function(node.name):
                features.add("aggregation")
                aggregates.add(node.name.upper())
            elif node.window is None:
                features.add("scalar_function")
        elif isinstance(node, ast.CaseExpression):
            features.add("case_expression")
        elif isinstance(node, ast.Like):
            features.add("like")
        elif isinstance(node, ast.InSubquery):
            features.add("in_subquery")
            features.add("subquery")
        elif isinstance(node, (ast.Exists, ast.ScalarSubquery)):
            features.add("exists" if isinstance(node, ast.Exists) else "subquery")
            features.add("subquery")
        elif isinstance(node, ast.SubqueryRef):
            features.add("subquery")
        elif isinstance(node, ast.BinaryOp):
            _analyze_binary(node, features)

    depth = nesting_depth(query)
    if depth > 1:
        features.add("subquery")

    output_columns = tuple(_output_columns(query))

    return QueryFeatures(
        tables=frozenset(tables),
        columns=frozenset(columns),
        output_columns=output_columns,
        features=frozenset(features),
        aggregate_functions=frozenset(aggregates),
        window_functions=frozenset(windows),
        nesting_depth=depth,
        join_count=join_count,
        predicate_count=predicate_count,
    )


def _analyze_select_shallow(query: ast.SelectQuery, features: Set[str]) -> None:
    if query.items and not query.is_select_star:
        features.add("projection")
    if query.group_by:
        features.add("group_by")
    if query.having is not None:
        features.add("having")
    if query.order_by:
        features.add("order_by")
    if query.distinct:
        features.add("distinct")
    if query.limit is not None or query.offset is not None:
        features.add("limit")


def _analyze_binary(node: ast.BinaryOp, features: Set[str]) -> None:
    operator = node.operator.upper()
    if operator in {"AND", "OR"}:
        return
    if operator in {"+", "-", "*", "/", "%", "||"}:
        features.add("arithmetic")
        return
    # Comparison: decide whether it compares an attribute to a constant
    # (executable on a sensor) or two attributes (needs an appliance).
    left_is_column = isinstance(node.left, ast.Column)
    right_is_column = isinstance(node.right, ast.Column)
    if left_is_column and right_is_column:
        features.add("selection_attribute")
    elif left_is_column or right_is_column:
        features.add("selection_constant")
    else:
        features.add("selection_constant")


def _output_columns(query: ast.Query) -> List[str]:
    if isinstance(query, ast.SetOperation):
        return _output_columns(query.left)
    assert isinstance(query, ast.SelectQuery)
    names: List[str] = []
    for item in query.items:
        if isinstance(item.expression, ast.Star):
            names.append("*")
            continue
        name = item.output_name
        names.append(name if name is not None else "?")
    return names


def query_summary(query: ast.Query) -> dict:
    """Return a JSON-friendly dict describing the query (used in reports)."""
    features = analyze_query(query)
    return {
        "tables": sorted(features.tables),
        "columns": sorted(features.columns),
        "output_columns": list(features.output_columns),
        "features": sorted(features.features),
        "aggregates": sorted(features.aggregate_functions),
        "window_functions": sorted(features.window_functions),
        "nesting_depth": features.nesting_depth,
        "join_count": features.join_count,
        "predicate_count": features.predicate_count,
        "function_calls": sorted(
            {call.name.upper() for call in collect_function_calls(query)}
        ),
        "base_tables": sorted({t.name.lower() for t in collect_tables(query)}),
        "aggregate_calls": len(collect_aggregates(query)),
    }
