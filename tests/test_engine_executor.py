"""Tests for the query executor (via the Database façade)."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType


@pytest.fixture
def db():
    database = Database("test")
    database.load_rows(
        "readings",
        [
            {"person": 1, "x": 1.0, "y": 0.5, "z": 1.4, "t": 0.0},
            {"person": 1, "x": 1.5, "y": 1.0, "z": 1.5, "t": 1.0},
            {"person": 2, "x": 2.0, "y": 2.5, "z": 0.4, "t": 2.0},
            {"person": 2, "x": 2.5, "y": 2.0, "z": 0.5, "t": 3.0},
            {"person": 3, "x": 3.0, "y": 1.0, "z": 1.9, "t": 4.0},
            {"person": 3, "x": 3.5, "y": 3.0, "z": None, "t": 5.0},
        ],
    )
    database.load_rows(
        "people",
        [
            {"person": 1, "name": "alice"},
            {"person": 2, "name": "bob"},
            {"person": 4, "name": "dora"},
        ],
    )
    return database


def test_projection_and_star(db):
    assert db.query("SELECT x, t FROM readings").column_names == ["x", "t"]
    assert db.query("SELECT * FROM readings").column_names == ["person", "x", "y", "z", "t"]


def test_where_filter(db):
    result = db.query("SELECT t FROM readings WHERE z < 1")
    assert result.column_values("t") == [2.0, 3.0]


def test_where_attribute_comparison(db):
    result = db.query("SELECT t FROM readings WHERE x > y")
    assert len(result) == 5


def test_expressions_in_projection(db):
    result = db.query("SELECT x + y AS s, ROUND(z, 0) AS zr FROM readings WHERE t = 0")
    assert result.rows[0] == {"s": 1.5, "zr": 1.0}


def test_group_by_having(db):
    result = db.query(
        "SELECT person, AVG(z) AS zavg, COUNT(*) AS n FROM readings "
        "GROUP BY person HAVING COUNT(*) >= 2 ORDER BY person"
    )
    assert len(result) == 3
    first = result.rows[0]
    assert first["person"] == 1
    assert first["zavg"] == pytest.approx(1.45)
    assert first["n"] == 2


def test_global_aggregate_without_group_by(db):
    result = db.query("SELECT COUNT(*) AS n, AVG(z) AS m FROM readings")
    assert result.rows[0]["n"] == 6
    assert result.rows[0]["m"] == pytest.approx((1.4 + 1.5 + 0.4 + 0.5 + 1.9) / 5)


def test_aggregate_over_empty_table():
    db = Database()
    db.create_table("empty", Schema([ColumnDef("a", DataType.INTEGER)]))
    result = db.query("SELECT COUNT(*) AS n FROM empty")
    assert result.rows == [{"n": 0}]


def test_count_star_empty_group_filtered_by_having(db):
    result = db.query("SELECT person FROM readings GROUP BY person HAVING SUM(z) > 100")
    assert len(result) == 0


def test_order_by_asc_desc_and_nulls(db):
    result = db.query("SELECT t, z FROM readings ORDER BY z DESC")
    zs = result.column_values("z")
    assert zs[0] == 1.9
    assert zs[-1] is None  # NULLs sort last in descending order


def test_limit_offset(db):
    result = db.query("SELECT t FROM readings ORDER BY t LIMIT 2 OFFSET 1")
    assert result.column_values("t") == [1.0, 2.0]


def test_distinct(db):
    result = db.query("SELECT DISTINCT person FROM readings")
    assert sorted(result.column_values("person")) == [1, 2, 3]


def test_inner_join(db):
    result = db.query(
        "SELECT r.t, p.name FROM readings r JOIN people p ON r.person = p.person ORDER BY r.t"
    )
    assert len(result) == 4
    assert result.rows[0]["name"] == "alice"


def test_left_join_produces_nulls(db):
    result = db.query(
        "SELECT r.person, p.name FROM readings r LEFT JOIN people p ON r.person = p.person "
        "WHERE r.t = 4"
    )
    assert result.rows[0]["name"] is None


def test_join_using(db):
    result = db.query("SELECT name FROM readings JOIN people USING (person) WHERE t = 2")
    assert result.rows[0]["name"] == "bob"


def test_subquery_in_from(db):
    result = db.query(
        "SELECT AVG(zavg) AS overall FROM "
        "(SELECT person, AVG(z) AS zavg FROM readings GROUP BY person)"
    )
    assert len(result) == 1
    assert result.rows[0]["overall"] is not None


def test_in_subquery(db):
    result = db.query(
        "SELECT t FROM readings WHERE person IN (SELECT person FROM people WHERE name = 'bob')"
    )
    assert result.column_values("t") == [2.0, 3.0]


def test_exists_correlated_subquery(db):
    result = db.query(
        "SELECT name FROM people p WHERE EXISTS "
        "(SELECT 1 FROM readings r WHERE r.person = p.person)"
    )
    assert sorted(result.column_values("name")) == ["alice", "bob"]


def test_scalar_subquery(db):
    result = db.query("SELECT (SELECT MAX(t) FROM readings) AS latest FROM people LIMIT 1")
    assert result.rows[0]["latest"] == 5.0


def test_set_operations(db):
    union = db.query("SELECT person FROM readings UNION SELECT person FROM people")
    assert sorted(union.column_values("person")) == [1, 2, 3, 4]
    intersect = db.query("SELECT person FROM readings INTERSECT SELECT person FROM people")
    assert sorted(intersect.column_values("person")) == [1, 2]
    except_ = db.query("SELECT person FROM people EXCEPT SELECT person FROM readings")
    assert except_.column_values("person") == [4]


def test_case_expression_execution(db):
    result = db.query(
        "SELECT t, CASE WHEN z < 1 THEN 'low' WHEN z < 1.6 THEN 'mid' ELSE 'high' END AS lvl "
        "FROM readings WHERE z IS NOT NULL ORDER BY t"
    )
    assert result.column_values("lvl") == ["mid", "mid", "low", "low", "high"]


def test_select_star_with_group_by_is_rejected(db):
    with pytest.raises(ExecutionError):
        db.query("SELECT * FROM readings GROUP BY person")


def test_unknown_table_raises(db):
    with pytest.raises((ExecutionError, SchemaError)):
        db.query("SELECT x FROM nope")


def test_duplicate_output_names_are_disambiguated(db):
    result = db.query("SELECT x, x FROM readings LIMIT 1")
    assert result.column_names == ["x", "x_2"]


def test_paper_rewritten_inner_query_runs(db):
    result = db.query(
        "SELECT x, y, AVG(z) AS zAVG, t FROM readings WHERE x > y AND z < 2 "
        "GROUP BY x, y HAVING SUM(z) > 0"
    )
    assert "zAVG" in result.column_names
    assert len(result) > 0


def test_insert_and_create_table_roundtrip():
    db = Database()
    schema = Schema([ColumnDef("a", DataType.INTEGER), ColumnDef("b", DataType.TEXT)])
    db.create_table("t", schema)
    assert db.insert_rows("t", [{"a": 1, "b": "x"}, {"a": 2}]) == 2
    result = db.query("SELECT a, b FROM t ORDER BY a")
    assert result.rows == [{"a": 1, "b": "x"}, {"a": 2, "b": None}]
    with pytest.raises(SchemaError):
        db.insert_rows("t", [{"nope": 1}])
    with pytest.raises(SchemaError):
        db.create_table("t", schema)
    db.drop_table("t")
    assert "t" not in db


@pytest.mark.parametrize(
    "config",
    [EngineConfig(), EngineConfig(mode="interpreted"), EngineConfig(vectorized=False)],
    ids=["compiled", "interpreted", "row"],
)
def test_bound_inputs_shadow_the_catalog_for_one_call(db, config):
    """A relation bound by name is read before the catalog's table of that
    name, for that call only; nothing is registered, and a binding of the
    catalog table's shape takes the executor that table's readers use."""
    sql = "SELECT person, SUM(x) AS sx FROM readings WHERE x > 1.2 GROUP BY person"
    catalog = db.query(sql, config)
    builds = db.executor_builds
    bound = Relation.from_rows(
        [{"person": 9, "x": 5.0, "y": 0.0, "z": 0.0, "t": 0.0}],
        schema=db.table("readings").schema,
    )
    for query in (db.query, db.partial_aggregate):
        assert len(query(sql, config, inputs={"READINGS": bound})) == 1
    assert db.executor_builds == builds
    assert db.query(sql, config).rows == catalog.rows
    assert sorted(db.table_names) == ["people", "readings"]
    joined = db.query(
        "SELECT name FROM fresh JOIN people ON fresh.person = people.person",
        config,
        inputs={"fresh": Relation.from_rows([{"person": 2}])},
    )
    assert joined.rows == [{"name": "bob"}]
    with pytest.raises(ExecutionError):
        db.query("SELECT person FROM fresh", config)
