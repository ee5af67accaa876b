"""The grouped tail on every path that reaches it.

Every grouped result ends in one tail: HAVING, select items, DISTINCT,
ORDER BY and OFFSET/LIMIT over finalized groups.  Compiled mode runs it on
columns (``QueryExecutor.finalize_tail``); the interpreted mode keeps the
row-at-a-time oracle.  Each query of the grid runs

* through ``Database.query`` under the interpreted, ``vectorized=False``
  and default configs, which must agree to the byte;
* through ``process`` on an 8-sensor tree, against ``reference_result``;
* as a standing query, refreshed and compared with ``reexecute``, where
  the query is a decomposable aggregation.
"""

from __future__ import annotations

import functools

import pytest

from tests.conftest import make_sensor_relation

from repro.engine import Database, EngineConfig
from repro.engine.executor import decomposition_error
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import StandingQueryRuntime
from repro.sensors.scenario import INTEGRATED_SCHEMA
from repro.sql.parser import parse

CONFIGS = {
    "interpreted": EngineConfig(mode="interpreted"),
    "row_scan": EngineConfig(vectorized=False),
    "default": EngineConfig(),
}

TAIL_QUERIES = [
    # ORDER BY an output alias, an unselected key, an aggregate call, an
    # expression, and an alias that shadows a key.
    "SELECT x, COUNT(*) AS n FROM d GROUP BY x ORDER BY n DESC, x",
    "SELECT COUNT(*) AS n, SUM(z) AS sz FROM d GROUP BY activity, person_id "
    "ORDER BY person_id DESC, activity",
    "SELECT person_id, AVG(z) AS az FROM d GROUP BY person_id ORDER BY MAX(t) DESC",
    "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity ORDER BY COUNT(*) + 0, activity",
    "SELECT person_id, COUNT(*) AS n FROM d GROUP BY person_id ORDER BY n * -1, person_id",
    "SELECT COUNT(*) AS x FROM d GROUP BY x ORDER BY x",
    # HAVING on an aggregate, on a key, AND/NOT, IS NOT NULL.
    "SELECT person_id, SUM(z) AS sz FROM d GROUP BY person_id HAVING SUM(z) > 20",
    "SELECT activity, COUNT(*) AS n FROM d GROUP BY activity HAVING activity <> 'sit'",
    "SELECT person_id, activity, COUNT(*) AS n FROM d GROUP BY person_id, activity "
    "HAVING COUNT(*) > 5 AND NOT (person_id = 2)",
    "SELECT person_id, MIN(z) AS lo FROM d WHERE z < 1.0 GROUP BY person_id "
    "HAVING MIN(z) IS NOT NULL",
    # DISTINCT with LIMIT/OFFSET (the DISTINCT item is an expression).
    "SELECT DISTINCT activity, COUNT(*) > 10 AS big FROM d GROUP BY activity, person_id "
    "ORDER BY activity LIMIT 3 OFFSET 1",
    # A global aggregate over empty input: one group, no scope.
    "SELECT COUNT(*) AS n, SUM(z) AS sz FROM d WHERE z > 100",
    # A non-key column reads the group's first row.
    "SELECT x, y, COUNT(*) AS n FROM d GROUP BY x",
]

ERROR_SQL = "SELECT person_id, SUM(z) AS sz FROM d GROUP BY person_id HAVING SUM(z) > 'a'"

STANDING_QUERIES = [sql for sql in TAIL_QUERIES if decomposition_error(parse(sql)) is None]


@functools.lru_cache(maxsize=None)
def database() -> Database:
    db = Database()
    db.register("d", make_sensor_relation(400))
    return db


def tree_processor(config: str, rows: int) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        schema=INTEGRATED_SCHEMA,
    )
    processor.engine = CONFIGS[config]
    processor.load_data(make_sensor_relation(rows))
    return processor


#: Read-only grid runs share one processor per config.
shared_processor = functools.lru_cache(maxsize=None)(tree_processor)


def test_grid_covers_the_standing_path():
    assert len(STANDING_QUERIES) >= 10
    # A bare non-key column travels as a first-value state.
    assert "SELECT x, y, COUNT(*) AS n FROM d GROUP BY x" in STANDING_QUERIES


@pytest.mark.parametrize("sql", TAIL_QUERIES)
def test_database_query_agrees_across_configs(sql):
    results = {name: database().query(sql, config) for name, config in CONFIGS.items()}
    expected = pack_relation(results["interpreted"])
    assert len(results["interpreted"]) > 0
    for name, result in results.items():
        assert pack_relation(result) == expected, name


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("sql", TAIL_QUERIES)
def test_process_on_a_tree_matches_reference(sql, config):
    processor = shared_processor(config, 400)
    result = processor.process(
        sql, "ActionFilter", apply_rewriting=False, anonymize=False, execution="parallel"
    )
    reference = reference_result(
        processor, sql, "ActionFilter", apply_rewriting=False, anonymize=False
    )
    assert pack_relation(result.result) == pack_relation(reference)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("sql", STANDING_QUERIES)
def test_standing_refreshes_match_reexecution(sql, config):
    processor = tree_processor(config, 120)
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(sql)
    holders = processor.network.partition_holders("d")
    delta = make_sensor_relation(60, seed=3)
    for index, start in enumerate(range(0, 60, 20)):
        runtime.append(holders[index], delta.slice_rows(start, start + 20, name="d"))
        assert pack_relation(handle.result()) == pack_relation(runtime.reexecute(handle))


def empty_keyed_sql(min_t: int) -> str:
    """A keyed aggregate whose WHERE matches no row with ``t < min_t``:
    over such input there is no group at all (not one with an empty scope)."""
    return (
        f"SELECT x, COUNT(*) AS n FROM d WHERE t >= {min_t} GROUP BY x "
        "HAVING COUNT(*) > 0 ORDER BY n DESC, x"
    )


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_keyed_aggregate_over_empty_input(config):
    # ``make_sensor_relation(n)`` stamps row i with t = i / 10.
    sql = empty_keyed_sql(40)
    assert len(database().query(sql, CONFIGS[config])) == 0
    processor = tree_processor(config, 100)
    sql = empty_keyed_sql(10)
    result = processor.process(
        sql, "ActionFilter", apply_rewriting=False, anonymize=False, execution="parallel"
    )
    assert len(result.result) == 0
    runtime = StandingQueryRuntime(processor)
    handle = runtime.register(sql)
    assert len(handle.result()) == 0
    holders = processor.network.partition_holders("d")
    delta = make_sensor_relation(140, seed=3)
    for index, start in enumerate(range(80, 140, 20)):
        runtime.append(holders[index], delta.slice_rows(start, start + 20, name="d"))
        assert pack_relation(handle.result()) == pack_relation(runtime.reexecute(handle))
    assert len(handle.result()) > 0


def test_permuted_key_subscribers_share_one_tree():
    processor = tree_processor("default", 120)
    runtime = StandingQueryRuntime(processor)
    handles = [
        runtime.register(
            "SELECT person_id, activity, SUM(z) AS sz FROM d "
            "GROUP BY person_id, activity HAVING COUNT(*) > 2 ORDER BY person_id"
        ),
        runtime.register(
            "SELECT activity, person_id, COUNT(*) AS n FROM d "
            "GROUP BY activity, person_id ORDER BY n DESC"
        ),
    ]
    assert runtime.tree_count == 1 and handles[1].shared
    holders = processor.network.partition_holders("d")
    delta = make_sensor_relation(40, seed=5)
    for index, start in enumerate(range(0, 40, 20)):
        runtime.append(holders[index], delta.slice_rows(start, start + 20, name="d"))
        for handle in handles:
            assert pack_relation(handle.result()) == pack_relation(runtime.reexecute(handle))


def test_one_query_over_two_scope_layouts():
    """A tail plan is cached per query *and* scope layout: one query over
    groups keyed (activity, person_id) and over (person_id, activity)."""
    db = database()
    tail = parse(
        "SELECT person_id, activity, COUNT(*) AS n FROM d "
        "GROUP BY person_id, activity HAVING COUNT(*) > 20 ORDER BY n DESC, activity"
    )
    expected = pack_relation(db.query(tail, CONFIGS["interpreted"]))
    for keys in ("activity, person_id", "person_id, activity"):
        core = parse(f"SELECT {keys}, COUNT(*) FROM d GROUP BY {keys}")
        for config in CONFIGS.values():
            states = db.partial_aggregate(core, config)
            groups = db.finalize_groups(core, states, config)
            assert pack_relation(db.finalize_tail(tail, groups, config)) == expected


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_having_type_error_raises_on_every_path(config):
    with pytest.raises(Exception, match="Cannot compare float and str"):
        database().query(ERROR_SQL, CONFIGS[config])
    processor = tree_processor(config, 80)
    with pytest.raises(Exception, match="Cannot compare float and str"):
        processor.process(ERROR_SQL, "ActionFilter", apply_rewriting=False, anonymize=False)
    runtime = StandingQueryRuntime(processor)
    with pytest.raises(Exception, match="Cannot compare float and str"):
        runtime.register(ERROR_SQL)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_finalize_error_waits_for_earlier_groups(config):
    """Group 2's SUM cannot finalize (an int past float range beside a
    float), but group 1's HAVING raises first in row order: every path
    raises the HAVING error."""
    db = Database()
    db.load_rows(
        "t",
        [
            {"g": 1, "v": 1.0, "w": "x"},
            {"g": 2, "v": 10**400, "w": 5},
            {"g": 2, "v": 1.5, "w": 6},
        ],
    )
    sql = "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING MAX(w) > 1"
    with pytest.raises(Exception, match="Cannot compare str and int"):
        db.query(sql, CONFIGS[config])
    with pytest.raises(OverflowError):
        db.query("SELECT g, SUM(v) AS s FROM t GROUP BY g", CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_first_finalize_error_is_group_major(config):
    """Group 1's SUM and group 0's MEDIAN cannot finalize.  Aggregates are
    computed a column at a time, yet every path raises group 0's MEDIAN
    error, the first failing (group, call) in group-major order."""
    db = Database()
    db.load_rows(
        "t",
        [
            {"g": 0, "v": 1.0, "w": "text"},
            {"g": 1, "v": 10**400, "w": 2.0},
            {"g": 1, "v": 1.5, "w": 3.0},
        ],
    )
    with pytest.raises(ValueError, match="could not convert string to float"):
        db.query("SELECT g, SUM(v), MEDIAN(w) FROM t GROUP BY g", CONFIGS[config])
    with pytest.raises(OverflowError):
        db.query("SELECT g, MEDIAN(w), SUM(v) FROM t WHERE g = 1 GROUP BY g", CONFIGS[config])


#: An aggregate call in ORDER BY alone makes the query one global group,
#: exactly like one in HAVING: (ORDER BY query, its HAVING twin).
ORDER_BY_AGGREGATES = [
    ("SELECT x FROM d ORDER BY COUNT(*)", "SELECT x FROM d HAVING COUNT(*) > 0"),
    (
        "SELECT x, y FROM d WHERE z < 1.5 ORDER BY SUM(z) DESC",
        "SELECT x, y FROM d WHERE z < 1.5 HAVING SUM(z) IS NOT NULL",
    ),
    # Decomposable: on a tree it runs as partial → combine → finalize.
    (
        "SELECT 1 AS one FROM d WHERE z < 1.5 ORDER BY COUNT(*)",
        "SELECT 1 AS one FROM d WHERE z < 1.5 HAVING COUNT(*) > 0",
    ),
]


@pytest.mark.parametrize("sql,twin", ORDER_BY_AGGREGATES)
def test_order_by_aggregate_makes_one_group(sql, twin):
    expected = pack_relation(database().query(twin, CONFIGS["interpreted"]))
    for name, config in CONFIGS.items():
        result = database().query(sql, config)
        assert len(result) == 1, name
        assert pack_relation(result) == expected, name


def topology_processor(topology: str) -> ParadiseProcessor:
    """A processor over 400 rows on the default chain or an 8-sensor tree."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=(
            Topology.default_chain()
            if topology == "chain"
            else Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4)
        ),
        schema=INTEGRATED_SCHEMA,
    )
    processor.load_data(make_sensor_relation(400))
    return processor


@pytest.mark.parametrize("topology", ["chain", "tree8"])
@pytest.mark.parametrize("sql", [sql for sql, _ in ORDER_BY_AGGREGATES])
def test_order_by_aggregate_through_process(sql, topology):
    processor = topology_processor(topology)
    for execution in ("serial", "parallel"):
        result = processor.process(
            sql, "ActionFilter", apply_rewriting=False, anonymize=False, execution=execution
        )
        reference = reference_result(
            processor, sql, "ActionFilter", apply_rewriting=False, anonymize=False
        )
        assert len(reference) == 1
        assert pack_relation(result.result) == pack_relation(reference)


#: A global aggregate over empty input is one group with no row to read a
#: bare column from, so every bare column is NULL there; SQLite returns
#: ``(NULL, 0)`` for the first query too.
EMPTY_GLOBAL_GROUPS = [
    ("SELECT x, COUNT(*) AS n FROM d WHERE z > 100", [{"x": None, "n": 0}]),
    ("SELECT x FROM d WHERE z > 100 ORDER BY COUNT(*)", [{"x": None}]),
]


@pytest.mark.parametrize("sql,rows", EMPTY_GLOBAL_GROUPS)
def test_bare_columns_of_an_empty_global_group_are_null(sql, rows):
    results = {name: database().query(sql, config) for name, config in CONFIGS.items()}
    expected = pack_relation(results["interpreted"])
    for name, result in results.items():
        assert list(result.rows) == rows, name
        assert pack_relation(result) == expected, name


@pytest.mark.parametrize("topology", ["chain", "tree8"])
@pytest.mark.parametrize("sql,rows", EMPTY_GLOBAL_GROUPS)
def test_bare_columns_of_an_empty_global_group_through_process(sql, rows, topology):
    processor = topology_processor(topology)
    reference = reference_result(
        processor, sql, "ActionFilter", apply_rewriting=False, anonymize=False
    )
    assert list(reference.rows) == rows
    for execution in ("serial", "parallel"):
        result = processor.process(
            sql, "ActionFilter", apply_rewriting=False, anonymize=False, execution=execution
        )
        assert pack_relation(result.result) == pack_relation(reference), execution
