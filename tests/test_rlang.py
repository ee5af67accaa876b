"""Tests for the R call parser and SQLable-pattern extraction."""

import pytest

from repro.rlang import (
    RParseError,
    SqlablePatternError,
    extract_sql_from_r,
    find_sqldf_calls,
    parse_r_call,
)
from repro.sql import ast


def test_parse_simple_r_call():
    call = parse_r_call("plot(x, y, col='red')")
    assert call.function == "plot"
    assert len(call.arguments) == 3
    assert call.arguments[2].name == "col"
    assert call.arguments[2].text == "'red'"
    assert call.arguments[0].name is None
    assert call.arguments[0].text == "x"


def test_parse_nested_call():
    call = parse_r_call("filterByClass(sqldf('SELECT 1'), action='walk', do.plot=F)")
    assert call.function == "filterByClass"
    inner = call.arguments[0].call
    assert inner is not None
    assert inner.function == "sqldf"
    assert call.argument("action").text == "'walk'"
    assert call.argument("do.plot").text == "F"
    assert call.argument("missing") is None


def test_find_calls_and_render_roundtrip():
    call = parse_r_call("outer(inner(sqldf('SELECT 1')), k=2)")
    assert len(call.find_calls("sqldf")) == 1
    rendered = call.render()
    assert parse_r_call(rendered).function == "outer"


def test_parse_errors():
    with pytest.raises(RParseError):
        parse_r_call("not a call")
    with pytest.raises(RParseError):
        parse_r_call("f(unbalanced")
    with pytest.raises(RParseError):
        parse_r_call("f(x) trailing")


def test_find_sqldf_calls_with_quoted_and_raw_sql():
    quoted = "result <- sqldf('SELECT x FROM d')"
    calls = find_sqldf_calls(quoted)
    assert len(calls) == 1
    assert "SELECT x FROM d" in calls[0][2]
    raw = "sqldf(SELECT x FROM (SELECT x FROM d))"
    assert len(find_sqldf_calls(raw)) == 1


def test_extract_sql_from_paper_r_code(paper_r_code):
    extraction = extract_sql_from_r(paper_r_code)
    assert extraction.wrapper_function == "filterByClass"
    assert "REGR_INTERCEPT" in extraction.sql.upper()
    assert isinstance(extraction.query, ast.SelectQuery)
    assert extraction.query.from_clause is not None
    residual = extraction.residual_call("d_prime")
    assert residual.startswith("filterByClass(d_prime")
    assert "action='walk'" in residual
    assert "do.plot=F" in residual
    assert "sqldf" not in residual
    assert extraction.wrapper_arguments == ["action='walk'", "do.plot=F"]


def test_extract_sql_with_quoted_query():
    code = "summary(sqldf(\"SELECT x, y FROM d WHERE z < 2\"), digits=2)"
    extraction = extract_sql_from_r(code)
    assert extraction.sql == "SELECT x, y FROM d WHERE z < 2"
    assert extraction.wrapper_function == "summary"
    assert extraction.residual_call("res") == "summary(res, digits=2)"


def test_extract_sql_without_wrapper():
    code = "frame <- sqldf('SELECT COUNT(*) FROM d')"
    extraction = extract_sql_from_r(code)
    assert extraction.wrapper_function is None
    assert extraction.residual_call("d1") == "frame <- d1"


def test_extract_requires_sqldf_and_valid_sql():
    with pytest.raises(SqlablePatternError):
        extract_sql_from_r("plot(x, y)")
    with pytest.raises(SqlablePatternError):
        extract_sql_from_r("sqldf('this is not sql at all !!!')")
    with pytest.raises(SqlablePatternError):
        extract_sql_from_r("sqldf(SELECT x FROM d")  # unbalanced
