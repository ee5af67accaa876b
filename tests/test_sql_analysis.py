"""Tests for query feature analysis."""

from repro.sql.analysis import analyze_query, query_summary
from repro.sql.parser import parse


def test_simple_projection_features():
    features = analyze_query(parse("SELECT x, y FROM d"))
    assert features.uses("projection")
    assert not features.uses("join")
    assert features.tables == frozenset({"d"})
    assert features.output_columns == ("x", "y")


def test_star_is_not_projection():
    features = analyze_query(parse("SELECT * FROM stream"))
    assert not features.uses("projection")
    assert features.output_columns == ("*",)


def test_constant_vs_attribute_selection():
    constant = analyze_query(parse("SELECT * FROM d WHERE z < 2"))
    assert constant.uses("selection_constant")
    assert not constant.uses("selection_attribute")

    attribute = analyze_query(parse("SELECT * FROM d WHERE x > y"))
    assert attribute.uses("selection_attribute")


def test_aggregation_group_by_having():
    features = analyze_query(
        parse("SELECT x, AVG(z) FROM d GROUP BY x HAVING SUM(z) > 100")
    )
    assert features.uses("aggregation")
    assert features.uses("group_by")
    assert features.uses("having")
    assert features.aggregate_functions == frozenset({"AVG", "SUM"})


def test_window_function_detection(paper_sql):
    features = analyze_query(parse(paper_sql))
    assert features.uses("window_function")
    assert "REGR_INTERCEPT" in features.window_functions
    assert features.nesting_depth == 2
    assert features.uses("subquery")


def test_join_count():
    features = analyze_query(parse("SELECT 1 FROM a JOIN b ON a.t = b.t JOIN c ON c.t = a.t"))
    assert features.join_count == 2
    assert features.uses("join")


def test_predicate_count_sums_over_levels():
    features = analyze_query(
        parse("SELECT x FROM (SELECT x FROM d WHERE z < 2 AND x > y) WHERE x > 0")
    )
    assert features.predicate_count == 3


def test_set_operation_and_distinct_and_limit():
    features = analyze_query(parse("SELECT DISTINCT x FROM a LIMIT 5"))
    assert features.uses("distinct")
    assert features.uses("limit")
    features = analyze_query(parse("SELECT x FROM a UNION SELECT x FROM b"))
    assert features.uses("set_operation")


def test_scalar_function_feature():
    features = analyze_query(parse("SELECT ROUND(x, 1) FROM d"))
    assert features.uses("scalar_function")
    assert not features.uses("aggregation")


def test_query_summary_shape(paper_sql):
    summary = query_summary(parse(paper_sql))
    assert summary["nesting_depth"] == 2
    assert "d" in summary["tables"]
    assert "window_function" in summary["features"]
    assert summary["aggregate_calls"] >= 1
