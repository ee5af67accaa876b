"""Tests for window function evaluation."""

import pytest

from repro.engine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.load_rows(
        "d",
        [
            {"g": "a", "v": 1.0, "t": 1},
            {"g": "a", "v": 2.0, "t": 2},
            {"g": "a", "v": 3.0, "t": 3},
            {"g": "b", "v": 10.0, "t": 1},
            {"g": "b", "v": 20.0, "t": 2},
        ],
    )
    return database


def test_row_number(db):
    result = db.query("SELECT g, t, ROW_NUMBER() OVER (PARTITION BY g ORDER BY t) AS rn FROM d")
    by_key = {(row["g"], row["t"]): row["rn"] for row in result}
    assert by_key[("a", 1)] == 1
    assert by_key[("a", 3)] == 3
    assert by_key[("b", 2)] == 2


def test_rank_and_dense_rank_with_ties():
    db = Database()
    db.load_rows("d", [{"v": 1}, {"v": 1}, {"v": 2}])
    result = db.query(
        "SELECT v, RANK() OVER (ORDER BY v) AS r, DENSE_RANK() OVER (ORDER BY v) AS dr FROM d"
    )
    ranks = sorted((row["v"], row["r"], row["dr"]) for row in result)
    assert ranks == [(1, 1, 1), (1, 1, 1), (2, 3, 2)]


def test_cumulative_sum_with_order(db):
    result = db.query("SELECT g, t, SUM(v) OVER (PARTITION BY g ORDER BY t) AS cum FROM d")
    by_key = {(row["g"], row["t"]): row["cum"] for row in result}
    assert by_key[("a", 1)] == 1.0
    assert by_key[("a", 2)] == 3.0
    assert by_key[("a", 3)] == 6.0
    assert by_key[("b", 2)] == 30.0


def test_partition_aggregate_without_order(db):
    result = db.query("SELECT g, AVG(v) OVER (PARTITION BY g) AS m FROM d")
    values = {(row["g"], row["m"]) for row in result}
    assert ("a", 2.0) in values
    assert ("b", 15.0) in values


def test_lag_lead(db):
    result = db.query(
        "SELECT g, t, LAG(v) OVER (PARTITION BY g ORDER BY t) AS prev, "
        "LEAD(v) OVER (PARTITION BY g ORDER BY t) AS nxt FROM d"
    )
    by_key = {(row["g"], row["t"]): (row["prev"], row["nxt"]) for row in result}
    assert by_key[("a", 1)] == (None, 2.0)
    assert by_key[("a", 2)] == (1.0, 3.0)
    assert by_key[("b", 2)] == (10.0, None)


def test_first_and_last_value(db):
    result = db.query(
        "SELECT g, FIRST_VALUE(v) OVER (PARTITION BY g ORDER BY t) AS f, "
        "LAST_VALUE(v) OVER (PARTITION BY g ORDER BY t) AS l FROM d WHERE g = 'a'"
    )
    assert all(row["f"] == 1.0 and row["l"] == 3.0 for row in result)


def test_ntile(db):
    result = db.query("SELECT t, NTILE(2) OVER (ORDER BY t) AS bucket FROM d WHERE g = 'a'")
    buckets = [row["bucket"] for row in sorted(result.rows, key=lambda r: r["t"])]
    assert buckets == [1, 1, 2]


def test_regr_intercept_as_window_function():
    db = Database()
    db.load_rows(
        "d",
        [{"x": float(i), "y": 2.0 * i + 1.0, "t": i, "p": i % 2} for i in range(1, 9)],
    )
    result = db.query(
        "SELECT p, t, REGR_INTERCEPT(y, x) OVER (PARTITION BY p ORDER BY t) AS b FROM d"
    )
    final_rows = [row for row in result if row["t"] >= 7]
    assert all(row["b"] == pytest.approx(1.0) for row in final_rows)


def test_count_star_window(db):
    result = db.query("SELECT g, COUNT(*) OVER (PARTITION BY g) AS n FROM d")
    counts = {(row["g"], row["n"]) for row in result}
    assert ("a", 3) in counts and ("b", 2) in counts


@pytest.mark.parametrize("direction", ["", " DESC"])
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_row_number_numbers_rows_in_order_by_order(direction, mode):
    """Window ordering and the outer ORDER BY share one comparator: NULLs
    first ascending (last descending), mixed int/str values compared as
    strings, ties broken by the next key."""
    from repro.engine.config import EngineConfig

    db = Database()
    values = [3, "b", None, 1, "a", None, 3, 10, "10", 2]
    db.load_rows("t", [{"k": k, "v": v} for k, v in enumerate(values)])
    order = f"v{direction}, k"
    result = db.query(
        f"SELECT k, ROW_NUMBER() OVER (ORDER BY {order}) AS rn FROM t ORDER BY {order}",
        EngineConfig(mode=mode),
    )
    assert [row["rn"] for row in result] == list(range(1, len(values) + 1))
