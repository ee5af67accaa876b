"""Generic AST walkers and transformers.

The rewriter (:mod:`repro.rewrite`) and the fragmenter (:mod:`repro.fragment`)
need two styles of traversal:

* read-only walks that collect information (columns used, tables referenced,
  aggregate calls, nesting depth), and
* structure-preserving transformations that replace selected nodes while
  copying everything else (e.g. renaming a column to the alias of the
  aggregation that replaced it).
"""

from __future__ import annotations

import copy
from dataclasses import fields, is_dataclass
from typing import Callable, Iterator, List, Optional, TypeVar

from repro.sql import ast

NodeT = TypeVar("NodeT", bound=ast.Node)


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Yield ``node`` and all its descendants in depth-first pre-order."""
    yield node
    for child in node.children():
        if child is None:
            continue
        yield from walk(child)


def referenced_tables(query: ast.Query) -> List[str]:
    """Table names referenced anywhere in ``query`` (breadth-first order)."""
    names: List[str] = []
    seen = set()
    queue: List[ast.Node] = [query]
    index = 0
    while index < len(queue):
        node = queue[index]
        index += 1
        if isinstance(node, ast.TableRef):
            key = node.name.lower()
            if key not in seen:
                seen.add(key)
                names.append(node.name)
        queue.extend(child for child in node.children() if child is not None)
    return names


def collect_columns(node: ast.Node) -> List[ast.Column]:
    """Return every column reference reachable from ``node`` (in order)."""
    return [n for n in walk(node) if isinstance(n, ast.Column)]


def collect_column_names(node: ast.Node) -> List[str]:
    """Return the (unqualified, lower-cased) names of referenced columns."""
    return [column.name.lower() for column in collect_columns(node)]


def collect_tables(node: ast.Node) -> List[ast.TableRef]:
    """Return every base-table reference reachable from ``node``."""
    return [n for n in walk(node) if isinstance(n, ast.TableRef)]


def collect_function_calls(node: ast.Node) -> List[ast.FunctionCall]:
    """Return every function call reachable from ``node``."""
    return [n for n in walk(node) if isinstance(n, ast.FunctionCall)]


def collect_aggregates(node: ast.Node) -> List[ast.FunctionCall]:
    """Return aggregate function calls (excluding pure window-ranking calls)."""
    return [
        call
        for call in collect_function_calls(node)
        if ast.is_aggregate_function(call.name)
    ]


def nesting_depth(query: ast.Query) -> int:
    """Return the number of SELECT levels in ``query`` (1 for a flat query)."""
    if isinstance(query, ast.SetOperation):
        return max(nesting_depth(query.left), nesting_depth(query.right))
    depth = 1
    assert isinstance(query, ast.SelectQuery)
    best_child = 0
    for subquery in _direct_subqueries(query):
        best_child = max(best_child, nesting_depth(subquery))
    return depth + best_child


def _direct_subqueries(query: ast.SelectQuery) -> Iterator[ast.SelectQuery]:
    """Yield subqueries that are *direct* children of ``query`` (one level down)."""
    seen: set[int] = set()
    stack: List[ast.Node] = list(query.children())
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ast.SelectQuery):
            yield node
            continue  # do not descend further; deeper queries belong to the child
        stack.extend(node.children())


def clone(node: NodeT) -> NodeT:
    """Return a deep copy of ``node`` (AST nodes are plain dataclasses)."""
    return copy.deepcopy(node)


def transform(node: ast.Node, visitor: Callable[[ast.Node], Optional[ast.Node]]) -> ast.Node:
    """Rebuild the tree bottom-up, letting ``visitor`` replace nodes.

    ``visitor`` is called on every node after its children have been rebuilt.
    It may return a replacement node or ``None`` to keep the (rebuilt) node.
    The input tree is never modified.
    """
    rebuilt = _rebuild_with_transformed_children(node, visitor)
    replacement = visitor(rebuilt)
    return replacement if replacement is not None else rebuilt


def _rebuild_with_transformed_children(
    node: ast.Node, visitor: Callable[[ast.Node], Optional[ast.Node]]
) -> ast.Node:
    if not is_dataclass(node):
        return node
    changes = {}
    for field_info in fields(node):
        value = getattr(node, field_info.name)
        if isinstance(value, ast.Node):
            changes[field_info.name] = transform(value, visitor)
        elif isinstance(value, list):
            new_list = [
                transform(item, visitor) if isinstance(item, ast.Node) else item
                for item in value
            ]
            changes[field_info.name] = new_list
        else:
            changes[field_info.name] = value
    return type(node)(**changes)


def replace_columns(node: NodeT, mapping: dict[str, ast.Expression]) -> NodeT:
    """Replace column references by name (case-insensitive) using ``mapping``."""

    def visitor(current: ast.Node) -> Optional[ast.Node]:
        if isinstance(current, ast.Column):
            replacement = mapping.get(current.name.lower())
            if replacement is not None:
                return clone(replacement)
        return None

    return transform(node, visitor)  # type: ignore[return-value]
