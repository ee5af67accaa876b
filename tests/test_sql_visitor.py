"""Tests for AST walkers and transformers."""

from repro.sql import ast
from repro.sql.parser import parse, parse_expression
from repro.sql.render import render_expression
from repro.sql.visitor import (
    clone,
    collect_aggregates,
    collect_column_names,
    collect_columns,
    collect_function_calls,
    collect_tables,
    nesting_depth,
    replace_columns,
    transform,
    walk,
)


def test_walk_yields_all_nodes():
    query = parse("SELECT x FROM d WHERE x > 1")
    kinds = {type(node).__name__ for node in walk(query)}
    assert {"SelectQuery", "SelectItem", "Column", "TableRef", "BinaryOp", "Literal"} <= kinds


def test_collect_columns_and_names():
    query = parse("SELECT x, y FROM d WHERE z < 2 GROUP BY x HAVING SUM(z) > 1 ORDER BY t")
    names = set(collect_column_names(query))
    assert names == {"x", "y", "z", "t"}
    assert all(isinstance(c, ast.Column) for c in collect_columns(query))


def test_collect_tables_nested():
    query = parse("SELECT a FROM (SELECT a FROM inner_table) WHERE a IN (SELECT a FROM other)")
    names = {t.name for t in collect_tables(query)}
    assert names == {"inner_table", "other"}


def test_collect_function_calls_and_aggregates():
    query = parse("SELECT AVG(z), UPPER(c), SUM(x) FROM d")
    calls = {c.name for c in collect_function_calls(query)}
    assert calls == {"AVG", "UPPER", "SUM"}
    aggregates = {c.name for c in collect_aggregates(query)}
    assert aggregates == {"AVG", "SUM"}


def test_nesting_depth():
    assert nesting_depth(parse("SELECT x FROM d")) == 1
    assert nesting_depth(parse("SELECT x FROM (SELECT x FROM d)")) == 2
    assert nesting_depth(parse("SELECT x FROM (SELECT x FROM (SELECT x FROM d))")) == 3


def test_nesting_depth_set_operation():
    query = parse("SELECT x FROM (SELECT x FROM d) UNION SELECT x FROM e")
    assert nesting_depth(query) == 2


def test_clone_is_deep():
    query = parse("SELECT x FROM d")
    copy = clone(query)
    copy.items[0].expression.name = "changed"
    assert query.items[0].expression.name == "x"


def test_transform_replaces_nodes_without_mutating_input():
    expression = parse_expression("x + y")

    def visitor(node):
        if isinstance(node, ast.Column) and node.name == "x":
            return ast.Literal(1)
        return None

    replaced = transform(expression, visitor)
    assert render_expression(replaced) == "1 + y"
    assert render_expression(expression) == "x + y"


def test_replace_columns():
    expression = parse_expression("z > 1 AND t < z")
    replaced = replace_columns(expression, {"z": ast.Column(name="zAVG")})
    assert render_expression(replaced) == "zAVG > 1 AND t < zAVG"
