"""Zone maps: chunk min/max prove or refute range conjuncts.

Under ``EngineConfig(mode="compiled", optimizer=True)`` a scan drops the
conjuncts its chunk's exact min/max prove and reads no row when one
refutes, and the DAG gives a refuted resident partition no task
(:func:`~repro.engine.vectorized.zone_verdicts`).  Nothing may change
but the work: every result and every error equals ``optimizer=False``,
the interpreted engine and :func:`reference_result`, byte for byte.
The generated data mixes NULLs, NaN, ±inf, ±0.0, int64 values past 2^53
against float literals, bool and list-backed columns, and a fallible
conjunct written before or after the refuting one.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import make_sensor_relation

from repro.engine import Database, EngineConfig
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.vectorized import (
    _BetweenPred,
    _ComparePred,
    _InListPred,
    stats as scan_stats,
    where_conjuncts,
)
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import build_execution_dag
from repro.sql import ast
from repro.sql.parser import parse

pytestmark = pytest.mark.optimizer

CONFIGS = {
    "zone_maps": EngineConfig(),
    "no_optimizer": EngineConfig(optimizer=False),
    "interpreted": EngineConfig(mode="interpreted"),
}

SCHEMA = Schema(
    [
        ColumnDef(name="i", data_type=DataType.INTEGER),
        ColumnDef(name="f", data_type=DataType.FLOAT),
        ColumnDef(name="n", data_type=DataType.INTEGER),
        ColumnDef(name="b", data_type=DataType.BOOLEAN),
        ColumnDef(name="l", data_type=DataType.INTEGER),
        ColumnDef(name="s", data_type=DataType.TEXT),
    ]
)

BIG = 2**53
_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.5, -2.5, 7.25, math.inf, -math.inf, math.nan, float(BIG), 1e300]
) | st.floats(min_value=-100, max_value=100)
_INTS = st.sampled_from([0, 3, -4, 17, BIG, BIG + 1, BIG - 1, -BIG]) | st.integers(-50, 50)
_LITERALS = _INTS | _FLOATS | st.sampled_from([True, BIG + 2.0, float(BIG + 1)])


@st.composite
def relations(draw, rows: int):
    """``rows`` rows: ``i`` mostly ascending (so contiguous chunks cover
    disjoint ranges), optionally offset past 2^53; ``f`` with special
    floats; ``n`` with NULLs; ``b`` bool; ``l`` list-backed by one value
    past int64; ``s`` strings, which no number compares with."""
    offset = draw(st.sampled_from([0, BIG - rows // 2]))
    step = draw(st.sampled_from([1, 3]))
    i = [offset + step * index for index in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        i[draw(st.integers(0, rows - 1))] = draw(_INTS)
    f = draw(st.lists(_FLOATS, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        f.sort(key=lambda value: (value != value, value))
    n = draw(st.lists(st.none() | st.integers(-5, 5), min_size=rows, max_size=rows))
    b = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    l = [index - rows // 2 for index in range(rows)]
    l[draw(st.integers(0, rows - 1))] = 2**70
    s = [f"s{index % 3}" for index in range(rows)]
    names = SCHEMA.names
    return Relation.from_rows(
        [dict(zip(names, values)) for values in zip(i, f, n, b, l, s)],
        name="d",
        schema=SCHEMA,
    )


@st.composite
def conjuncts(draw):
    """One WHERE conjunct: an ordering test (either side), a [NOT]
    BETWEEN, an equality, or the fallible ``s < 5``."""
    kind = draw(st.sampled_from(["compare", "compare", "between", "equal", "fallible"]))
    column = ast.Column(name=draw(st.sampled_from(["i", "i", "f", "n", "b", "l"])))
    if kind == "fallible":
        return ast.BinaryOp("<", ast.Column(name="s"), ast.Literal(5))
    if kind == "equal":
        return ast.BinaryOp("=", column, ast.Literal(draw(_INTS)))
    if kind == "between":
        return ast.Between(
            column,
            ast.Literal(draw(_LITERALS)),
            ast.Literal(draw(_LITERALS)),
            negated=draw(st.booleans()),
        )
    op = draw(st.sampled_from(["<", "<=", ">", ">="]))
    literal = ast.Literal(draw(_LITERALS))
    if draw(st.booleans()):
        return ast.BinaryOp(op, literal, column)
    return ast.BinaryOp(op, column, literal)


@st.composite
def queries(draw):
    """A flat, global-aggregate or grouped read under 1-3 conjuncts."""
    shape = draw(
        st.sampled_from(
            [
                "SELECT i, f, b FROM d",
                "SELECT COUNT(*) AS c, SUM(i) AS si, MAX(i) AS mi FROM d",
                "SELECT b, COUNT(*) AS c, MIN(i) AS lo FROM d GROUP BY b",
            ]
        )
    )
    query = parse(shape)
    terms = draw(st.lists(conjuncts(), min_size=1, max_size=3))
    where = terms[0]
    for term in terms[1:]:
        where = ast.BinaryOp("AND", where, term)
    return ast.SelectQuery(
        items=query.items,
        from_clause=query.from_clause,
        where=where,
        group_by=query.group_by,
    )


def outcome(run):
    """Packed result bytes, or the error's type and message."""
    try:
        return pack_relation(run())
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error).__name__, str(error))


@given(relations(rows=40), queries())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scan_verdicts_change_no_result_and_no_error(relation, query):
    """Over a table whose stats are cached, the zone-map scan equals the
    scans without zone maps by bytes and by error."""
    database = Database()
    database.register("d", relation)
    table = database.table("d")
    for name in SCHEMA.names:
        table.stats().column(name)
    outcomes = {
        name: outcome(lambda config=config: database.query(query, config))
        for name, config in CONFIGS.items()
    }
    assert outcomes["zone_maps"] == outcomes["no_optimizer"] == outcomes["interpreted"]


def tree_processor(relation: Relation) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
    )
    processor.load_data(relation)
    return processor


@given(relations(rows=64), queries())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dag_pruning_changes_no_result_and_no_error(relation, query):
    """On an 8-sensor tree, ``process`` with zone maps equals
    ``optimizer=False``, the interpreted engine and the reference by bytes
    and by error, and every pruned chunk truly has no row passing WHERE."""
    processor = tree_processor(relation)
    options = {"apply_rewriting": False, "anonymize": False}
    reference = outcome(
        lambda: reference_result(processor, query, "ActionFilter", **options)
    )
    for name, config in CONFIGS.items():
        processor.engine = config
        got = outcome(lambda: processor.process(query, "ActionFilter", **options).result)
        assert got == reference, name

    prepared = processor.prepare(query, "ActionFilter", apply_rewriting=False)
    dag = build_execution_dag(
        processor.fragmenter.fragment(prepared.query),
        processor.topology,
        processor.network,
        config=CONFIGS["zone_maps"],
    )
    rows_sql = ast.SelectQuery(
        items=[ast.SelectItem(ast.Star())], from_clause=query.from_clause, where=query.where
    )
    for task in dag.tasks:
        for node, _ in getattr(task, "pruned", ()):
            chunk = Database()
            chunk.register("d", processor.network.database(node).table("d"))
            assert len(chunk.query(rows_sql, CONFIGS["interpreted"])) == 0


def test_refutation_respects_a_fallible_conjunct_written_before_it():
    """``s < 5`` raises on every row.  Written before a refuting ``i >
    1000`` it still raises on every path; written after, the row path
    never reaches it and no path raises."""
    relation = Relation.from_rows(
        [{"i": index, "s": "x"} for index in range(100)],
        name="d",
        schema=Schema(
            [
                ColumnDef(name="i", data_type=DataType.INTEGER),
                ColumnDef(name="s", data_type=DataType.TEXT),
            ]
        ),
    )
    database = Database()
    database.register("d", relation)
    database.table("d").stats().column("i")
    before = "SELECT i FROM d WHERE s < 5 AND i > 1000"
    after = "SELECT i FROM d WHERE i > 1000 AND s < 5"
    refuted = scan_stats.zone_refuted
    for name, config in CONFIGS.items():
        assert outcome(lambda: database.query(before, config)) == (
            "ExecutionError",
            "Cannot compare str and int",
        ), name
        assert len(database.query(after, config)) == 0, name
    assert scan_stats.zone_refuted == refuted + 1  # only ``after``, zone maps on


# ---------------------------------------------------------------------------
# freshness: every public mutation re-derives the verdict
# ---------------------------------------------------------------------------

WINDOW_SQL = "SELECT i FROM d WHERE i > 500"


def small_table() -> Relation:
    return Relation.from_rows(
        [{"i": index} for index in range(100)],
        name="d",
        schema=Schema([ColumnDef(name="i", data_type=DataType.INTEGER)]),
    )


def _row_view_write(database):
    database.table("d").rows[7]["i"] = 900


def _rows_append(database):
    database.table("d").rows.append({"i": 900})


def _load_rows(database):
    database.load_rows("d", [{"i": value} for value in (1, 900, 2)])


def _register(database):
    database.register("d", Relation.from_rows([{"i": 900}], name="d"))


MUTATIONS = {
    "row_view_write": _row_view_write,
    "rows_append": _rows_append,
    "load_rows": _load_rows,
    "register": _register,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_scan_verdict_follows_every_mutation(mutation):
    database = Database()
    database.register("d", small_table())
    database.table("d").stats().column("i")
    refuted = scan_stats.zone_refuted
    assert len(database.query(WINDOW_SQL)) == 0
    assert scan_stats.zone_refuted == refuted + 1
    MUTATIONS[mutation](database)
    # Stats cached again after the mutation must see the new row too.
    database.table("d").stats().column("i")
    got = database.query(WINDOW_SQL)
    assert [row["i"] for row in got] == [900]
    assert pack_relation(got) == pack_relation(
        database.query(WINDOW_SQL, CONFIGS["interpreted"])
    )


def _late_rows(chunk: Relation, count: int = 3) -> list:
    """``count`` copies of ``chunk``'s first reading, stamped ``t`` = 1000+."""
    first = chunk.rows[0].to_dict()
    return [dict(first, t=1000.0 + index) for index in range(count)]


def _sensor_append_to_partition(network, node):
    chunk = network.database(node).table("d")
    delta = Relation.from_rows(_late_rows(chunk), name="d", schema=chunk.schema)
    network.append_to_partition(node, "d", delta)


def _sensor_row_view_write(network, node):
    network.database(node).table("d").rows[3]["t"] = 1000.0


def _sensor_rows_append(network, node):
    chunk = network.database(node).table("d")
    chunk.rows.append(_late_rows(chunk, 1)[0])


def _sensor_load_rows(network, node):
    chunk = network.database(node).table("d")
    network.database(node).load_rows("d", chunk.to_dicts() + _late_rows(chunk))


def _sensor_register(network, node):
    chunk = network.database(node).table("d")
    rows = chunk.to_dicts() + _late_rows(chunk)
    network.database(node).register("d", Relation.from_rows(rows, name="d", schema=chunk.schema))


SENSOR_MUTATIONS = {
    "append_to_partition": _sensor_append_to_partition,
    "row_view_write": _sensor_row_view_write,
    "rows_append": _sensor_rows_append,
    "load_rows": _sensor_load_rows,
    "register": _sensor_register,
}


@pytest.mark.parametrize("mutation", sorted(SENSOR_MUTATIONS))
def test_dag_verdict_follows_every_mutation(mutation):
    """A sensor's chunk is pruned for ``t > 500`` until a mutation gives it
    a matching row; the next DAG runs it, equal to the reference."""
    processor = tree_processor(make_sensor_relation(400))
    sql = "SELECT x, t FROM d WHERE t > 500 AND z < 100"
    options = {"apply_rewriting": False, "anonymize": False}
    before = processor.process(sql, "ActionFilter", **options)
    assert before.runtime.pruned_partitions == 7
    assert len(before.result) == 0
    SENSOR_MUTATIONS[mutation](processor.network, "sensor_5")
    after = processor.process(sql, "ActionFilter", **options)
    assert after.runtime.pruned_partitions == 7
    assert len(after.result) > 0
    assert pack_relation(after.result) == pack_relation(
        reference_result(processor, sql, "ActionFilter", **options)
    )
    assert "d@sensor_5" not in "\n".join(
        line
        for line in processor.explain(sql, "ActionFilter", apply_rewriting=False).splitlines()
        if "pruned" in line
    )


# ---------------------------------------------------------------------------
# negative literals: ``-1`` parses as unary minus over ``1``
# ---------------------------------------------------------------------------

NEGATIVE_SQL = {
    "SELECT x, t FROM d WHERE z > -1": (_ComparePred, 0),
    "SELECT COUNT(*) AS c FROM d WHERE t NOT BETWEEN -1 AND 70": (_BetweenPred, 7),
    "SELECT x, COUNT(*) AS c FROM d WHERE x BETWEEN -1 AND 3 GROUP BY x": (_BetweenPred, 0),
    "SELECT x, t FROM d WHERE -2.5 < y": (_ComparePred, 0),
    "SELECT x, t FROM d WHERE t > - -39.5": (_ComparePred, 7),
    "SELECT x, t FROM d WHERE x IN (-1, 2, -0.0)": (_InListPred, 0),
}


@pytest.mark.parametrize("sql", sorted(NEGATIVE_SQL))
def test_negative_literals_plan_as_constants(sql):
    """A negated numeric literal folds into the constant: the conjunct
    gets its typed kernel under every compiled config (no
    ``complex_predicate`` bail) and a zone map verdict, and every config
    equals the reference."""
    kind, pruned = NEGATIVE_SQL[sql]
    [predicate] = where_conjuncts(parse(sql))
    assert type(predicate) is kind
    processor = tree_processor(make_sensor_relation(400))
    options = {"apply_rewriting": False, "anonymize": False}
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    for name, config in CONFIGS.items():
        processor.engine = config
        bails = scan_stats.bails.get("complex_predicate", 0)
        run = processor.process(sql, "ActionFilter", **options)
        assert pack_relation(run.result) == expected, name
        assert scan_stats.bails.get("complex_predicate", 0) == bails, name
        assert run.runtime.pruned_partitions == (pruned if name == "zone_maps" else 0), name
    database = Database()
    database.register("d", processor.network.database("sensor_0").table("d"))
    database.table("d").stats().column("t")
    for name, config in CONFIGS.items():
        bails = scan_stats.bails.get("complex_predicate", 0)
        got = database.query(sql, config)
        assert pack_relation(got) == pack_relation(database.query(sql, CONFIGS["interpreted"]))
        assert scan_stats.bails.get("complex_predicate", 0) == bails, name


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

TREE_SQL = "SELECT x, y, t FROM d WHERE t BETWEEN 10 AND 15 AND x > y AND z < 100"


def test_explain_names_verdicts_but_no_bounds():
    processor = tree_processor(make_sensor_relation(400))
    text = processor.explain(TREE_SQL, "ActionFilter", apply_rewriting=False)
    dag_section = text[text.index("DAG:") :]
    for sensor in ("sensor_0", "sensor_1", "sensor_4", "sensor_5", "sensor_6", "sensor_7"):
        assert f"pruned d@{sensor}: refuted by t BETWEEN 10 AND 15" in dag_section
    assert "[zone map proves t BETWEEN 10 AND 15; z < 100]" in dag_section  # sensor_2
    assert "[zone map proves z < 100]" in dag_section  # sensor_3
    for node in processor.network.partition_holders("d"):
        chunk = processor.network.database(node).table("d")
        for name in ("t", "z"):
            values = list(chunk.column_array(name))
            for bound in (min(values), max(values)):
                if str(bound) not in TREE_SQL:
                    assert str(bound) not in dag_section, (node, name, bound)


def test_pruned_partitions_reach_stats_span_and_profile():
    processor = tree_processor(make_sensor_relation(400))
    run = processor.process(
        TREE_SQL, "ActionFilter", apply_rewriting=False, anonymize=False, profile=True
    )
    assert run.runtime.pruned_partitions == 6
    assert run.runtime.task_count == 4
    [dag_run] = run.trace.by_kind("dag_run")
    assert dag_run.attrs["pruned_partitions"] == 6
    paths = run.profile.scan_paths
    assert paths["zone.pruned_partitions"] == 6
    # sensor_2 proves both range conjuncts, sensor_3 proves z < 100.
    assert paths["zone.proved"] == 3
    assert "zone.pruned_partitions: 6" in run.profile.render()
    snapshot = registry.snapshot()
    for probe in ("engine.zone.proved", "engine.zone.refuted", "engine.zone.pruned_partitions"):
        assert probe in snapshot


def test_no_zone_maps_without_the_optimizer_or_in_interpreted_mode():
    for config in (CONFIGS["no_optimizer"], CONFIGS["interpreted"]):
        processor = tree_processor(make_sensor_relation(400))
        processor.engine = config
        before = (scan_stats.zone_proved, scan_stats.zone_refuted)
        run = processor.process(TREE_SQL, "ActionFilter", apply_rewriting=False)
        assert run.runtime.pruned_partitions == 0
        assert run.runtime.task_count == 11
        assert (scan_stats.zone_proved, scan_stats.zone_refuted) == before
