"""Differential tests: the compiled path against the interpreted oracle.

Every query of the corpus is executed twice over the same catalog — once in
``EngineConfig(mode="compiled")`` (closures, hash joins, single-pass GROUP
BY) and once in ``mode="interpreted"`` (the original per-row tree walk).
The resulting relations must be identical: same column names in the same
order, same rows in the same order, same values (bit-for-bit for floats,
since both paths perform the same arithmetic in the same order).

This harness is what lets the compiled path be the default while the paper's
auditability argument still rests on the simple interpreted semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.config import EngineConfig
from repro.engine.executor import QueryExecutor
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.sql.parser import parse

# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _sensor_rows(count: int, seed: int) -> list:
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        rows.append(
            {
                "id": index,
                "person_id": rng.randint(1, 5),
                "room_id": rng.choice([1, 2, 3, None]),
                "x": round(rng.uniform(0, 8), 2),
                "y": round(rng.uniform(0, 6), 2),
                "z": rng.choice([round(rng.uniform(0.1, 1.9), 1), None]),
                "t": round(index * 0.5, 1),
                "activity": rng.choice(["walk", "sit", "stand", None]),
            }
        )
    return rows


@pytest.fixture(scope="module")
def catalog():
    readings = Relation.from_rows(_sensor_rows(60, seed=7), name="readings")
    rooms = Relation.from_rows(
        [
            {"room_id": 1, "label": "kitchen", "floor": 0},
            {"room_id": 2, "label": "living", "floor": 0},
            {"room_id": 2, "label": "living_annex", "floor": 0},
            {"room_id": 3, "label": "bath", "floor": 1},
            {"room_id": None, "label": "unknown", "floor": None},
            {"room_id": 5, "label": "attic", "floor": 2},
        ],
        name="rooms",
    )
    people = Relation.from_rows(
        [
            {"person_id": pid, "name": name, "age": age}
            for pid, name, age in [
                (1, "ada", 34),
                (2, "grace", 41),
                (3, "alan", None),
                (4, "edsger", 72),
                (6, "barbara", 55),
            ]
        ],
        name="people",
    )
    empty = Relation(
        schema=Schema(
            [
                ColumnDef(name="a", data_type=DataType.INTEGER),
                ColumnDef(name="b", data_type=DataType.TEXT),
            ]
        ),
        rows=[],
        name="nothing",
    )
    return {"readings": readings, "rooms": rooms, "people": people, "nothing": empty}


#: The differential corpus.  Each entry is executed through both paths.
CORPUS = [
    # projection / expressions / NULL semantics
    "SELECT * FROM readings",
    "SELECT id, x + y AS s, x * -y AS p, x / z AS ratio, x % 2 AS m FROM readings",
    "SELECT id, z IS NULL AS missing, z IS NOT NULL AS present FROM readings",
    "SELECT id, NOT (x > 4) AS inv, -x AS neg FROM readings",
    "SELECT id, COALESCE(z, 0.0) AS z0, NULLIF(person_id, 3) AS p FROM readings",
    "SELECT id, CASE WHEN x > 6 THEN 'far' WHEN x > 3 THEN 'mid' ELSE 'near' END AS bucket FROM readings",
    "SELECT id, activity || '-suffix' AS tagged FROM readings",
    "SELECT id, CAST(x AS INTEGER) AS xi, CAST(person_id AS TEXT) AS pt FROM readings",
    "SELECT ROUND(x, 1) AS r, ABS(y - 3) AS a, GREATEST(x, y, z) AS g FROM readings",
    "SELECT UPPER(activity) AS u, LENGTH(activity) AS l, SUBSTR(activity, 1, 2) AS s2 FROM readings",
    # WHERE with three-valued logic, LIKE, IN, BETWEEN
    "SELECT id FROM readings WHERE z < 1.2",
    "SELECT id FROM readings WHERE z < 1.2 OR activity = 'walk'",
    "SELECT id FROM readings WHERE NOT (z < 1.2)",
    "SELECT id FROM readings WHERE activity LIKE 'w%'",
    "SELECT id FROM readings WHERE activity NOT LIKE '%a%'",
    "SELECT id FROM readings WHERE person_id IN (1, 3, 5)",
    "SELECT id FROM readings WHERE person_id NOT IN (1, 3, 5)",
    "SELECT id FROM readings WHERE x BETWEEN 2 AND 5 AND z IS NOT NULL",
    "SELECT id FROM readings WHERE t NOT BETWEEN 5 AND 20",
    # DISTINCT / ORDER BY / LIMIT / OFFSET
    "SELECT DISTINCT person_id, activity FROM readings",
    "SELECT id, x FROM readings ORDER BY x DESC, id LIMIT 7",
    "SELECT id, z FROM readings ORDER BY z, id LIMIT 10 OFFSET 3",
    "SELECT person_id, x FROM readings ORDER BY person_id * -1, x",
    # joins
    "SELECT r.id, rooms.label FROM readings AS r INNER JOIN rooms ON r.room_id = rooms.room_id",
    "SELECT r.id, rooms.label FROM readings AS r LEFT JOIN rooms ON r.room_id = rooms.room_id",
    "SELECT r.id, rooms.label, rooms.floor FROM readings AS r RIGHT JOIN rooms ON r.room_id = rooms.room_id",
    "SELECT r.id, rooms.label FROM readings AS r FULL JOIN rooms ON r.room_id = rooms.room_id",
    "SELECT p.name, r.id FROM people AS p JOIN readings AS r ON p.person_id = r.person_id AND r.x > 4",
    "SELECT a.id AS left_id, b.id AS right_id FROM readings AS a JOIN readings AS b "
    "ON a.person_id = b.person_id AND a.id < b.id WHERE a.id < 6",
    "SELECT readings.id, rooms.label FROM readings JOIN rooms USING (room_id) WHERE readings.id < 20",
    "SELECT p.name, n.a FROM people AS p LEFT JOIN nothing AS n ON p.person_id = n.a",
    "SELECT n.a, p.name FROM nothing AS n RIGHT JOIN people AS p ON n.a = p.person_id",
    "SELECT p.name, r.label FROM people AS p CROSS JOIN rooms AS r WHERE p.person_id < 3",
    "SELECT r.id, p.name FROM readings AS r JOIN people AS p ON r.person_id + 1 = p.person_id + 1 "
    "WHERE r.id < 10",
    # non-equi join condition (nested-loop fallback)
    "SELECT r.id, p.name FROM readings AS r JOIN people AS p ON r.person_id < p.person_id WHERE r.id < 5",
    # GROUP BY / HAVING / aggregates
    "SELECT person_id, COUNT(*) AS n, SUM(x) AS sx, AVG(y) AS ay FROM readings GROUP BY person_id",
    "SELECT person_id, MIN(z) AS mn, MAX(z) AS mx, COUNT(z) AS nz FROM readings GROUP BY person_id",
    "SELECT activity, COUNT(*) AS n FROM readings GROUP BY activity HAVING COUNT(*) > 5",
    "SELECT person_id, COUNT(DISTINCT activity) AS kinds FROM readings GROUP BY person_id",
    "SELECT person_id, MEDIAN(x) AS mx, STDDEV(y) AS sy FROM readings GROUP BY person_id HAVING COUNT(*) >= 3",
    "SELECT COUNT(*) AS n, SUM(z) AS sz FROM readings",
    "SELECT COUNT(*) AS n FROM nothing",
    "SELECT person_id, room_id, AVG(x) AS ax FROM readings GROUP BY person_id, room_id "
    "ORDER BY person_id, room_id",
    "SELECT person_id, REGR_INTERCEPT(y, x) AS ri, CORR(y, x) AS c FROM readings GROUP BY person_id",
    "SELECT activity, SUM(x) AS sx FROM readings WHERE z IS NOT NULL GROUP BY activity "
    "HAVING SUM(x) > 10 ORDER BY sx DESC",
    # window functions
    "SELECT id, AVG(x) OVER (PARTITION BY person_id) AS ax FROM readings",
    "SELECT id, SUM(x) OVER (PARTITION BY person_id ORDER BY t) AS running FROM readings",
    "SELECT id, REGR_INTERCEPT(y, x) OVER (PARTITION BY person_id ORDER BY t) AS ri FROM readings",
    "SELECT id, ROW_NUMBER() OVER (PARTITION BY activity ORDER BY t) AS rn FROM readings",
    "SELECT id, RANK() OVER (ORDER BY person_id) AS rk, DENSE_RANK() OVER (ORDER BY person_id) AS drk "
    "FROM readings WHERE id < 20",
    "SELECT id, LAG(x) OVER (PARTITION BY person_id ORDER BY t) AS prev_x, "
    "LEAD(x, 2) OVER (PARTITION BY person_id ORDER BY t) AS next_x FROM readings",
    "SELECT id, FIRST_VALUE(x) OVER (PARTITION BY person_id ORDER BY t) AS fx, "
    "COUNT(*) OVER (PARTITION BY person_id ORDER BY t) AS cnt FROM readings",
    "SELECT id, MEDIAN(x) OVER (PARTITION BY person_id ORDER BY t) AS med FROM readings WHERE id < 25",
    # set operations
    "SELECT person_id FROM readings WHERE x > 5 UNION SELECT person_id FROM people",
    "SELECT person_id FROM readings WHERE x > 5 UNION ALL SELECT person_id FROM people",
    "SELECT person_id FROM readings INTERSECT SELECT person_id FROM people",
    "SELECT person_id FROM readings EXCEPT SELECT person_id FROM people",
    # subqueries: derived tables, scalar, IN, EXISTS, correlated
    "SELECT s.person_id, s.sx FROM (SELECT person_id, SUM(x) AS sx FROM readings "
    "GROUP BY person_id) AS s WHERE s.sx > 20",
    "SELECT id, x - (SELECT AVG(x) FROM readings) AS centered FROM readings WHERE id < 15",
    "SELECT name FROM people WHERE person_id IN (SELECT person_id FROM readings WHERE x > 6)",
    "SELECT name FROM people WHERE person_id NOT IN (SELECT person_id FROM readings WHERE x > 6)",
    "SELECT name FROM people AS p WHERE EXISTS "
    "(SELECT 1 FROM readings AS r WHERE r.person_id = p.person_id AND r.activity = 'walk')",
    "SELECT name FROM people AS p WHERE NOT EXISTS "
    "(SELECT 1 FROM readings AS r WHERE r.person_id = p.person_id)",
    "SELECT p.name, (SELECT COUNT(*) FROM readings AS r WHERE r.person_id = p.person_id) AS n "
    "FROM people AS p",
    "SELECT p.name, (SELECT MAX(x) FROM readings AS r WHERE r.person_id = p.person_id "
    "AND r.z IS NOT NULL) AS best FROM people AS p ORDER BY p.name",
    # the paper's query shape
    "SELECT REGR_INTERCEPT(y, x) OVER (PARTITION BY z ORDER BY t) FROM "
    "(SELECT x, y, z, t FROM readings)",
    # nested rewritten shape from Section 4.2
    "SELECT x, y, AVG(z) AS zavg, MAX(t) AS tmax FROM "
    "(SELECT x, y, z, t FROM readings WHERE x > y AND z < 2) AS inner_q "
    "GROUP BY x, y HAVING SUM(z) > 0",
]


def _materialize(relation: Relation):
    names = relation.schema.names
    return names, [tuple(row.get(name) for name in names) for row in relation.rows]


def assert_paths_agree(catalog, sql: str) -> None:
    compiled = QueryExecutor(catalog).execute(parse(sql))
    interpreted = QueryExecutor(catalog, EngineConfig(mode="interpreted")).execute(parse(sql))
    compiled_names, compiled_rows = _materialize(compiled)
    interpreted_names, interpreted_rows = _materialize(interpreted)
    assert compiled_names == interpreted_names, sql
    assert compiled_rows == interpreted_rows, sql


@pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
def test_compiled_matches_interpreted(catalog, sql):
    assert_paths_agree(catalog, sql)


def test_corpus_covers_interesting_results(catalog):
    """Guard against a silently trivial corpus: spot-check a few cardinalities."""
    executor = QueryExecutor(catalog)
    join = executor.execute(
        parse("SELECT r.id FROM readings AS r JOIN rooms ON r.room_id = rooms.room_id")
    )
    assert len(join) > len(catalog["readings"].rows) / 2  # duplicate room_id fan-out
    grouped = executor.execute(
        parse("SELECT person_id, COUNT(*) AS n FROM readings GROUP BY person_id")
    )
    assert sum(row["n"] for row in grouped) == len(catalog["readings"])


@pytest.mark.slow
def test_differential_randomized_filters(catalog):
    """Randomized WHERE/projection combinations over both paths."""
    rng = random.Random(13)
    columns = ["x", "y", "z", "t"]
    comparisons = ["<", "<=", ">", ">=", "=", "<>"]
    for _ in range(40):
        column = rng.choice(columns)
        other = rng.choice([c for c in columns if c != column])
        op = rng.choice(comparisons)
        threshold = round(rng.uniform(0, 8), 1)
        sql = (
            f"SELECT id, {column}, {other} FROM readings "
            f"WHERE {column} {op} {threshold} OR {column} {op} {other} "
            f"ORDER BY id"
        )
        assert_paths_agree(catalog, sql)
