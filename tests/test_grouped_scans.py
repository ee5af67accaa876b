"""Grouped scans must change no result and no error.

A vectorized grouped scan filters its relation's rows through the WHERE
conjuncts its zone map leaves, then hashes the selected rows by their key
tuple (:func:`repro.engine.groups.group_rows`).  These tests hold it,
under zone maps, to the scans without them (``optimizer=False``, the
interpreted engine and the reference) by ``pack_relation`` bytes and by
error: hypothesis grids over keys holding -0.0/0.0, NaN, NULLs, int64
past 2^53 and generic ``1``/``1.0``/``True`` cells, fixed conjunct
cases, freshness after every mutation, appended chunks against a rebuild,
and ``process`` on a chain and a tree, serial and parallel.
``group_rows`` itself is held to the row dicts' cells.
"""

from __future__ import annotations

import gc
import math
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import make_sensor_relation

from repro.engine import Database, EngineConfig
from repro.engine.groups import group_rows
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation, freeze_value
from repro.engine.types import DataType
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import CostModel
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
        ColumnDef(name="g", data_type=DataType.FLOAT),
        ColumnDef(name="n", data_type=DataType.INTEGER),
        ColumnDef(name="b", data_type=DataType.BOOLEAN),
        ColumnDef(name="s", data_type=DataType.TEXT),
        ColumnDef(name="m", data_type=DataType.FLOAT),
        ColumnDef(name="v", data_type=DataType.FLOAT),
    ]
)

BIG = 2**53
#: Key cells: int64 past 2^53, floats with -0.0/0.0, NaN and infinities,
#: NULLs in a typed int64 column, bools, strings, and a generic column
#: mixing ints, floats and strings (1, 1.0 and True share a group there).
_INTS = st.sampled_from([0, 1, -4, BIG, BIG + 1, BIG - 1])
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 7.25, math.nan, math.inf, -math.inf])
_MIXED = st.sampled_from([1, 1.0, 2, 2.5, "a", "1", -0.0, 0])
_LITERALS = st.sampled_from(
    [0, 1, -1, 2, BIG, BIG + 1, float(BIG), BIG + 2.0, 0.0, -0.0, 1.0, 2.5, -2.5, True]
)


@st.composite
def relations(draw, rows: int = 40):
    i = draw(st.lists(_INTS, min_size=rows, max_size=rows))
    f = draw(st.lists(_FLOATS, min_size=rows, max_size=rows))
    g = draw(st.lists(_FLOATS, min_size=rows, max_size=rows))
    n = draw(st.lists(st.none() | st.integers(-2, 2), min_size=rows, max_size=rows))
    b = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    s = draw(st.lists(st.sampled_from(["a", "ab", "b"]), min_size=rows, max_size=rows))
    m = draw(st.lists(_MIXED, min_size=rows, max_size=rows))
    v = [float(index % 7) for index in range(rows)]
    names = SCHEMA.names
    return Relation.from_rows(
        [dict(zip(names, values)) for values in zip(i, f, g, n, b, s, m, v)],
        name="d",
        schema=SCHEMA,
    )


CONJUNCT_KINDS = [
    "compare",
    "compare",
    "columns",
    "between",
    "in",
    "is_null",
    "truth",
    "always_null",
    "like",
    "arithmetic",
    "fallible",
    "non_key",
]


COLUMNS = ("i", "f", "g", "n", "b", "s", "m")
#: The typed columns: every literal drawn orders against their cells.
TYPED = ("i", "f", "g", "n", "b")

@st.composite
def conjuncts(draw, kinds, keys, columns):
    """One WHERE conjunct of every kernel class, or one outside them:
    LIKE, arithmetic, a fallible ordering, a non-key column.  Its columns
    are mostly the query's ``keys``."""
    kind = draw(st.sampled_from(kinds))

    def any_column():
        names = keys if draw(st.integers(0, 3)) else columns
        return ast.Column(name=draw(st.sampled_from(names)))

    column = any_column()
    if kind == "compare":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        literal = ast.Literal(draw(_LITERALS))
        if draw(st.booleans()):
            return ast.BinaryOp(op, literal, column)
        return ast.BinaryOp(op, column, literal)
    if kind == "columns":
        op = draw(st.sampled_from(["<", ">", "=", "<>"]))
        return ast.BinaryOp(op, column, any_column())
    if kind == "between":
        return ast.Between(
            column,
            ast.Literal(draw(_LITERALS)),
            ast.Literal(draw(_LITERALS)),
            negated=draw(st.booleans()),
        )
    if kind == "in":
        values = draw(st.lists(_LITERALS | st.just("a") | st.none(), min_size=1, max_size=3))
        return ast.InList(column, [ast.Literal(value) for value in values], draw(st.booleans()))
    if kind == "is_null":
        return ast.IsNull(column, negated=draw(st.booleans()))
    if kind == "truth":
        return column if draw(st.booleans()) else ast.UnaryOp("NOT", column)
    if kind == "always_null":
        return ast.BinaryOp("<", column, ast.Literal(None))
    if kind == "arithmetic":
        return ast.BinaryOp(
            ">", ast.BinaryOp("/", ast.Literal(1), column), ast.Literal(0)
        )
    if kind == "fallible":
        return ast.BinaryOp("<", ast.Column(name=draw(st.sampled_from("sm"))), ast.Literal(5))
    if kind == "like":
        return ast.Like(column, ast.Literal(draw(st.sampled_from(["0%", "-0%", "a%", "1%"]))))
    return ast.BinaryOp(">", ast.Column(name="v"), ast.Literal(draw(st.integers(0, 6))))


KEY_SETS = [("i",), ("f",), ("f", "g"), ("n",), ("b",), ("s",), ("m",), ("i", "b"), ("f", "n")]


@st.composite
def queries(draw, kinds=tuple(CONJUNCT_KINDS), columns=COLUMNS):
    """A GROUP BY over 1-2 keys under 1-3 conjuncts, with a first-value
    column and an optional HAVING, reading only ``columns`` (and ``v``)."""
    keys = draw(st.sampled_from([keys for keys in KEY_SETS if set(keys) <= set(columns)]))
    having = draw(st.sampled_from(["", " HAVING COUNT(*) > 1", " HAVING SUM(v) > 4"]))
    query = parse(
        f"SELECT {', '.join(keys)}, v, COUNT(*) AS c, SUM(v) AS sv, MIN(v) AS lo "
        f"FROM d GROUP BY {', '.join(keys)}{having}"
    )
    terms = draw(st.lists(conjuncts(kinds, keys, columns), min_size=1, max_size=3))
    where = terms[0]
    for term in terms[1:]:
        where = ast.BinaryOp("AND", where, term)
    # parse() shares its trees: build a new query rather than edit one.
    return ast.SelectQuery(
        items=query.items,
        from_clause=query.from_clause,
        where=where,
        group_by=query.group_by,
        having=query.having,
    )


def outcome(run):
    """Packed result bytes, or the error's type and message."""
    try:
        return pack_relation(run())
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error).__name__, str(error))


def assert_grouped_scans_agree(relation, query, cache_stats):
    """The grouped SELECT and its partial run three times under zone maps
    and equal ``optimizer=False`` and interpreted by bytes and by error."""
    database = Database()
    database.register("d", relation)
    if cache_stats:
        for name in SCHEMA.names:
            database.table("d").stats().column(name)
    for run in (database.query, database.partial_aggregate):
        expected = outcome(lambda: run(query, CONFIGS["interpreted"]))
        assert outcome(lambda: run(query, CONFIGS["no_optimizer"])) == expected
        for _ in range(3):
            assert outcome(lambda: run(query, CONFIGS["zone_maps"])) == expected


@given(relations(), queries(), st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_key_conjunct_scans_change_no_result_and_no_error(relation, query, cache_stats):
    """Conjuncts mostly over the group keys."""
    assert_grouped_scans_agree(relation, query, cache_stats)


@given(relations(), queries(columns=COLUMNS + ("v",)), st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_column_scans_change_no_result_and_no_error(relation, query, cache_stats):
    """Conjuncts over any column, ``v`` and the generic ``m`` included: a
    key column's group may open with -0.0 before 0.0 or with 1 before 1.0
    and True, and its first row may fail a conjunct."""
    assert_grouped_scans_agree(relation, query, cache_stats)


@given(
    relations(rows=48),
    queries([kind for kind in CONJUNCT_KINDS if kind != "fallible"], TYPED),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_leaf_partials_match_the_reference(relation, query):
    """On a 4-sensor tree three runs of ``process`` equal the reference by
    bytes and by error.

    Over typed columns only, so no conjunct can raise: the fragmenter runs
    a constant filter such as ``s < 5`` at the sensor before a truth test
    or column comparison written ahead of it, so ``process`` can raise
    where the reference's written-order AND stops first.
    """
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=2),
    )
    processor.load_data(relation)
    options = {"apply_rewriting": False, "anonymize": False}
    expected = outcome(lambda: reference_result(processor, query, "ActionFilter", **options))
    for _ in range(3):
        got = outcome(lambda: processor.process(query, "ActionFilter", **options).result)
        assert got == expected


# ---------------------------------------------------------------------------
# fixed conjuncts
# ---------------------------------------------------------------------------


def fixed_relation() -> Relation:
    rows = []
    for index in range(60):
        rows.append(
            {
                "i": (index % 5) - 1 + (BIG if index % 11 == 0 else 0),
                "f": (0.0, -0.0, 1.5, math.nan, -2.0)[index % 5],
                "g": float(index % 3),
                "n": None if index % 4 == 0 else index % 3,
                "b": index % 2 == 0,
                "s": ("a", "ab", "b")[index % 3],
                "m": (1, 1.0, "a")[index % 3],
                "v": float(index),
            }
        )
    return Relation.from_rows(rows, name="d", schema=SCHEMA)


#: Conjuncts over typed key columns only.
KEY_CONJUNCTS = [
    ("i", "i > 0"),
    ("i", "i > -1"),
    ("i", "-1 < i"),
    ("i", f"i <= {float(BIG)}"),
    ("i", "i = 2"),
    ("i", "i <> 2"),
    ("f", "f = 0.0"),
    ("f", "f >= -2"),
    ("f, g", "f > g"),
    ("f, g", "f = g"),
    ("i", "i BETWEEN -1 AND 2"),
    ("i", "i NOT BETWEEN -1 AND 0"),
    ("i", "i IN (0, 1, 'a', NULL)"),
    ("n", "n IS NULL"),
    ("n", "n IS NOT NULL"),
    ("n", "n > 0"),
    ("b", "b"),
    ("b", "NOT b"),
    ("b", "b = TRUE"),
    ("i", "i < NULL"),
    ("i, b", "i > 0 AND b"),
]

#: String forms, arithmetic, non-key and generic columns, raising
#: comparisons and a disjunction.
OTHER_CONJUNCTS = [
    ("f", "CAST(f AS TEXT) LIKE '-0%'"),
    ("s", "s LIKE 'a%'"),
    ("f", "1 / f > 0"),
    ("f", "f + 1 > 1"),
    ("i", "i > 0 AND v > 3"),
    ("i", "v > 3"),
    ("s", "s = 'a'"),
    ("m", "m = 1"),
    ("m", "m IN (1, 'a')"),
    ("s", "s < 5"),
    ("i", "i > 'a'"),
    ("i", "i > 0 OR i < -3"),
]


@pytest.mark.parametrize("keys, where", KEY_CONJUNCTS + OTHER_CONJUNCTS)
def test_grouped_conjuncts_match_the_interpreted_engine(keys, where):
    sql = f"SELECT {keys}, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    database = Database()
    database.register("d", fixed_relation())
    for run in (database.query, database.partial_aggregate):
        expected = outcome(lambda: run(sql, CONFIGS["interpreted"]))
        assert outcome(lambda: run(sql, CONFIGS["no_optimizer"])) == expected
        for _ in range(3):
            assert outcome(lambda: run(sql, CONFIGS["zone_maps"])) == expected


def first_row_relation() -> Relation:
    """Groups whose first row fails ``v > 3``: ``f`` opens with 0.0 before
    -0.0 and holds NaNs, the generic ``m`` opens with 1 before 1.0 and
    True, ``n`` holds NULLs; ``m < 5`` raises on the rows holding 'a'.
    The eight rows repeat with ``v = 9`` (``v = 0.5`` where ``m`` is 'a')."""
    cells = [
        # f, m, n, s, v
        (0.0, 1, None, "first", 0.0),
        (-0.0, 1.0, None, "second", 5.0),
        (math.nan, True, 1, "third", 4.0),
        (0.0, 1, 1, "fourth", 6.0),
        (math.nan, "a", None, "fifth", 1.0),
        (-0.0, True, 2, "sixth", 4.5),
        (1.5, 2, 2, "seventh", 2.0),
        (1.5, 2.0, None, "eighth", 3.5),
    ]
    cells += [(f, m, n, "late", 0.5 if m == "a" else 9.0) for f, m, n, _, _ in cells]
    rows = [
        {"i": index % 2, "f": f, "g": 0.0, "n": n, "b": True, "s": text, "m": m, "v": v}
        for index, (f, m, n, text, v) in enumerate(cells)
    ]
    return Relation.from_rows(rows, name="d", schema=SCHEMA)


#: (keys, WHERE) over :func:`first_row_relation`.
FIRST_ROW_CASES = [
    # The key and the bare column come from each group's first passing row.
    ("f", "v > 3"),
    ("m", "v > 3"),
    ("n", "v > 3"),
    ("f, m", "v > 3"),
    ("f, n", "v >= 4.5"),
    # The NULL group opens first but passes its first row after n = 1's.
    ("n", "v > 0.5 AND v < 4.2"),
    # Mixed key and non-key conjuncts.
    ("f", "f >= 0 AND v > 3"),
    ("i, m", "i = 0 AND v > 0.4"),
    # A conjunct raising on some rows: written second, it never sees 'a';
    # written first, it raises on every path.
    ("m", "v > 3 AND m < 5"),
    ("m", "m < 5 AND v > 3"),
    # No more rows pass than there are groups (NaN rows are one each).
    ("f", "v > 8 AND f <> 0"),
    # Every row fails.
    ("f", "s = 'none'"),
]


@pytest.mark.parametrize("keys, where", FIRST_ROW_CASES)
def test_each_group_takes_its_key_from_its_first_passing_row(keys, where):
    sql = f"SELECT {keys}, s, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    for method in ("query", "partial_aggregate"):
        database = Database()
        database.register("d", first_row_relation())
        run = getattr(database, method)
        expected = outcome(lambda: run(sql, CONFIGS["interpreted"]))
        assert outcome(lambda: run(sql, CONFIGS["no_optimizer"])) == expected
        for _ in range(3):
            assert outcome(lambda: run(sql, CONFIGS["zone_maps"])) == expected
    if keys == "f" and where == "v > 3":
        # -0.0 opens the group its first row (0.0) fails to enter.
        result = database.query(sql)
        first = result.column_values("f")[0]
        assert first == 0.0 and math.copysign(1.0, first) == -1.0
        assert result.column_values("s")[:2] == ["second", "third"]


@pytest.mark.parametrize("keys, where", FIRST_ROW_CASES)
def test_leaf_partials_take_each_group_from_its_first_passing_row(keys, where):
    """On a 2-sensor tree the later sensor holds the rows repeated with
    ``v = 9``: merging the leaf partials keeps each group's key and bare
    column from its first passing row, as the reference does."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=2, sensors_per_appliance=2),
    )
    processor.load_data(first_row_relation())
    sql = f"SELECT {keys}, s, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    options = {"apply_rewriting": False, "anonymize": False}
    expected = outcome(lambda: reference_result(processor, sql, "ActionFilter", **options))
    for name, config in CONFIGS.items():
        processor.engine = config
        for _ in range(3):
            got = outcome(lambda: processor.process(sql, "ActionFilter", **options).result)
            assert got == expected, name


def test_a_dropped_relation_needs_no_cyclic_collection():
    """A relation with cached stats is freed as soon as it is dropped: the
    cache does not refer back to it, so a replaced chunk never waits for
    the cyclic collector."""
    relation = fixed_relation()
    relation.stats().column("i")
    gc.collect()
    gc.disable()
    try:
        del relation
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# freshness: every public mutation reaches the next scan
# ---------------------------------------------------------------------------

FRESH_SQL = "SELECT i, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE i > 0 GROUP BY i"


def _row_view_write(database):
    database.table("d").rows[7]["i"] = 900


def _rows_append(database):
    database.table("d").rows.append({"i": 900, "v": 1.0})


def _load_rows(database):
    database.load_rows("d", fixed_relation().to_dicts() + [{"i": 900}], schema=SCHEMA)


def _register(database):
    rows = fixed_relation().to_dicts() + [{"i": 900, "v": 2.0}]
    database.register("d", Relation.from_rows(rows, name="d", schema=SCHEMA))


MUTATIONS = {
    "row_view_write": _row_view_write,
    "rows_append": _rows_append,
    "load_rows": _load_rows,
    "register": _register,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_grouped_scans_follow_every_mutation(mutation):
    database = Database()
    database.register("d", fixed_relation())
    for _ in range(2):
        database.query(FRESH_SQL)
    MUTATIONS[mutation](database)
    expected = pack_relation(database.query(FRESH_SQL, CONFIGS["interpreted"]))
    for _ in range(3):
        got = database.query(FRESH_SQL)
        assert 900 in got.column_values("i")
        assert pack_relation(got) == expected


# ---------------------------------------------------------------------------
# through process: chain and tree, serial and parallel
# ---------------------------------------------------------------------------

PROCESS_SQL = [
    # First-value state (t) and HAVING, as in the paper's query.
    "SELECT x, y, t, AVG(z) AS az FROM d WHERE z < 2 AND x > y GROUP BY x, y "
    "HAVING SUM(z) > 1",
    "SELECT person_id, x, COUNT(*) AS n, MIN(t) AS lo FROM d "
    "WHERE x BETWEEN 1 AND 6 AND person_id IN (1, 3) GROUP BY person_id, x",
    "SELECT valid, COUNT(*) AS n, SUM(z) AS sz FROM d WHERE NOT valid GROUP BY valid",
    "SELECT x, y, COUNT(*) AS n FROM d WHERE x > -1 AND y <> 2 GROUP BY x, y "
    "HAVING COUNT(*) > 3",
    # ORDER BY an output alias: the leaf partial still reads the chunk.
    "SELECT x, y, COUNT(*) AS n FROM d WHERE x > -1 AND y <> 2 GROUP BY x, y "
    "HAVING COUNT(*) > 3 ORDER BY n DESC, x, y",
]

#: Leaf partials filtering on a non-key column (the e2e group-by's
#: ``valid``), and on one beside a key conjunct with a first-value column.
NON_KEY_PROCESS_SQL = [
    "SELECT activity, person_id, COUNT(*) AS n, AVG(z) AS az, MIN(t) AS lo FROM d "
    "WHERE valid GROUP BY activity, person_id",
    "SELECT x, y, t, COUNT(*) AS n FROM d WHERE z < 1.5 AND x > y GROUP BY x, y "
    "HAVING COUNT(*) > 2 ORDER BY n DESC, x, y",
]

#: Topology and its sensor count: one leaf partial per sensor.
TOPOLOGIES = {
    "chain": (Topology.default_chain, 1),
    "tree8": (lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4), 8),
}


def _memo_hits() -> int:
    return registry.value("runtime.state_memo.hits")


def _assert_repeats_hit(processor, sql, options, hits, expected) -> None:
    """Run the text twice: the plan cache hands the second run the first
    run's leaf queries, so ``hits`` leaf partials decode their kept state
    instead of scanning, and both runs give ``expected``."""
    first = processor.process(sql, "ActionFilter", **options)
    before = _memo_hits()
    again = processor.process(sql, "ActionFilter", **options)
    assert _memo_hits() == before + hits
    assert pack_relation(first.result) == pack_relation(again.result) == expected


@pytest.mark.parametrize("sql", PROCESS_SQL + NON_KEY_PROCESS_SQL)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_process_matches_the_reference(sql, topology, execution):
    """Each run submits a freshly parsed query so that every leaf partial
    scans its chunk (x, y on a grid of 2 keep the groups few enough for
    leaf partials); under zone maps the cached text's repeat then hits
    every leaf."""
    make_topology, sensors = TOPOLOGIES[topology]
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=make_topology(),
        execution=execution,
        cost_model=CostModel(seconds_per_row=1e-6) if execution == "parallel" else None,
    )
    processor.load_data(make_sensor_relation(2400, grid=2.0))
    options = {"apply_rewriting": False, "anonymize": False}
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    for name, config in CONFIGS.items():
        processor.engine = config
        for _ in range(3):
            run = processor.process(parse(sql), "ActionFilter", **options)
            assert pack_relation(run.result) == expected, name
        _assert_repeats_hit(
            processor, sql, options, sensors if name == "zone_maps" else 0, expected
        )
    if execution == "parallel":
        assert run.runtime.workers > 1


#: Key cells the appends bring: -0.0 after 0.0, NaN, NULLs, int64 past
#: 2^53, and generic cells (1, 1.0, True, a list and its string form).
KEY_CELLS = {
    "f": [0.0, -0.0, math.nan, 1.5, None, -2.0],
    "n": [None, 1, 2, None, 3, 1],
    "i": [3, BIG + 1, 3, -1, BIG + 1, 7],
    "m": [1, 1.0, "a", [1, 2], "[1, 2]", True],
}

APPEND_SCHEMA = Schema(
    [
        ColumnDef(name="f", data_type=DataType.FLOAT),
        ColumnDef(name="n", data_type=DataType.INTEGER),
        ColumnDef(name="i", data_type=DataType.INTEGER),
        ColumnDef(name="m", data_type=DataType.FLOAT),
        ColumnDef(name="v", data_type=DataType.FLOAT),
    ]
)


def _rows(count: int, offset: int) -> Relation:
    rows = [
        {name: cells[(offset + index) % len(cells)] for name, cells in KEY_CELLS.items()}
        | {"v": float(offset + index)}
        for index in range(count)
    ]
    return Relation.from_rows(rows, name="d", schema=APPEND_SCHEMA)


def test_a_read_after_an_append_matches_the_reference():
    """A freshly parsed read after an append scans the appended chunk and
    equals the reference; the cached text then hits both leaves."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=2, sensors_per_appliance=2),
    )
    processor.load_data(_rows(40, 0))
    sql = "SELECT f, n, COUNT(*) AS c, SUM(v) AS sv FROM d GROUP BY f, n"
    options = {"apply_rewriting": False, "anonymize": False}
    for _ in range(2):
        processor.process(parse(sql), "ActionFilter", **options)
    node = processor.network.partition_holders("d")[0]
    processor.network.append_to_partition(node, "d", _rows(5, 3))
    run = processor.process(parse(sql), "ActionFilter", **options)
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    assert pack_relation(run.result) == expected
    _assert_repeats_hit(processor, sql, options, 2, expected)


def _relation_state(relation: Relation):
    """Columns by name, backing and cell repr (NaN, -0.0, 1 and 1.0, and
    list cells, which no wire format packs, all keep their spelling)."""
    return [
        (name, type(column).__name__, repr(list(column)))
        for name, column in zip(relation.schema.names, relation.columns())
    ]


def _reference_groups(relation: Relation, keys, sel):
    """Selected rows keyed by their row dicts' key values, frozen only when
    a value is unhashable."""
    rows = relation.to_dicts()
    groups: dict = {}
    for index in range(len(relation)) if sel is None else sel:
        key = tuple(rows[index][name] for name in keys)
        try:
            groups.setdefault(key, []).append(index)
        except TypeError:
            groups.setdefault(tuple(freeze_value(value) for value in key), []).append(index)
    return groups


GROUP_KEYS = [("f",), ("n",), ("i",), ("m",), ("f", "n"), ("i", "f", "m")]

#: Selections: all rows, every row listed, a sparse one and none.
SELECTIONS = {
    "none": None,
    "every_row": list(range(50)),
    "every_third": list(range(1, 50, 3)),
    "empty": [],
}


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("keys", GROUP_KEYS)
def test_group_rows_partitions_the_selected_rows(keys, selection):
    """Typed keys read off their buffers group as the row dicts' cells do:
    -0.0 joins 0.0's group under the first row's spelling, each NaN row is
    a group of its own, 1, 1.0 and True share one, and a list key groups
    by its frozen form."""
    relation = _rows(50, 0)
    sel = SELECTIONS[selection]
    groups = group_rows(relation, keys, sel)
    assert repr(list(groups.items())) == repr(list(_reference_groups(relation, keys, sel).items()))
    members = sorted(row for rows in groups.values() for row in rows)
    assert members == (list(range(50)) if sel is None else sel)
    firsts = [rows[0] for rows in groups.values()]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("delta_rows", [0, 1, 7, 30])
@pytest.mark.parametrize("keys", GROUP_KEYS)
def test_an_appended_chunk_reads_like_a_rebuild(keys, delta_rows):
    """A sensor's chunk read (and its stats cached) before an append reads
    after it as a relation loaded with the same rows: the delta brings
    -0.0 after 0.0, NaN, NULLs and new keys, and its rows below the old
    chunk's least ``v`` pass a conjunct the old zone map would prune."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=2, sensors_per_appliance=2),
    )
    processor.load_data(_rows(40, 0))
    network = processor.network
    node = network.partition_holders("d")[1]
    database = network.database(node)
    columns = ", ".join(keys)
    texts = [
        f"SELECT {columns}, COUNT(*) AS c, SUM(v) AS sv, MIN(v) AS lo FROM d GROUP BY {columns}",
        f"SELECT {columns}, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE v < 18 GROUP BY {columns}",
    ]
    for name in APPEND_SCHEMA.names:
        database.table("d").stats().column(name)
    for sql in texts:
        database.query(sql)
        database.partial_aggregate(sql)
    delta = _rows(delta_rows, 13)
    rows = database.table("d").to_dicts() + delta.to_dicts()
    network.append_to_partition(node, "d", delta)
    rebuilt = Database()
    rebuilt.register("d", Relation.from_rows(rows, name="d", schema=APPEND_SCHEMA))
    for sql in texts:
        for method in ("query", "partial_aggregate"):
            expected = _relation_state(getattr(rebuilt, method)(sql, CONFIGS["interpreted"]))
            for _ in range(2):
                assert _relation_state(getattr(database, method)(sql)) == expected


def test_concurrent_scans_share_one_chunk():
    """Threads racing to scan one chunk all get the reference result."""
    processor = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    processor.load_data(make_sensor_relation(2400, grid=2.0))
    sql = PROCESS_SQL[0]
    options = {"apply_rewriting": False, "anonymize": False}
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    results: list = []

    def client():
        for _ in range(10):
            run = processor.process(sql, "ActionFilter", **options)
            results.append(pack_relation(run.result))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 40
