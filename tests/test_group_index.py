"""Group indexes: whole-group and split scans must change no result and
no error.

A grouped scan under zone maps takes whole groups from its relation's
group index when every WHERE conjunct the zone map leaves reads only
typed key columns (:func:`repro.engine.vectorized.whole_groups`); each
such conjunct runs once per group.  Otherwise it filters group-ordered
copies of the columns its conjuncts read and splits the selection at the
index's group bounds (:func:`repro.engine.vectorized.split_groups`).
These tests hold both paths to the scans without them (``optimizer=False``,
the interpreted engine and the reference) by ``pack_relation`` bytes and
by error, check which conjuncts take which path, and check the index
itself: its builds, its inheritance by appended chunks, and its freshness
after every mutation.
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
from repro.engine.groups import GroupIndex, group_rows
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.vectorized import stats as scan_stats, where_conjuncts
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
    """One WHERE conjunct of every eligible class, or one that must fall
    back: LIKE, arithmetic, a fallible ordering, a non-key column.  Its
    columns are mostly the query's ``keys``."""
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


def assert_index_scans_agree(relation, query, cache_stats):
    """The grouped SELECT and its partial run three times under zone maps
    (the second scan builds the index, the third reuses it) and equal
    ``optimizer=False`` and interpreted by bytes and by error."""
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
def test_whole_group_scans_change_no_result_and_no_error(relation, query, cache_stats):
    assert_index_scans_agree(relation, query, cache_stats)


@given(relations(), queries(columns=COLUMNS + ("v",)), st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_split_scans_change_no_result_and_no_error(relation, query, cache_stats):
    """Conjuncts over any column, ``v`` and the generic ``m`` included, so
    most scans split at group bounds: a key column's group may open with
    -0.0 before 0.0 or with 1 before 1.0 and True, and its first row may
    fail a conjunct."""
    assert_index_scans_agree(relation, query, cache_stats)


@given(
    relations(rows=48),
    queries([kind for kind in CONJUNCT_KINDS if kind != "fallible"], TYPED),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_whole_group_partials_match_the_reference(relation, query):
    """On a 4-sensor tree every leaf partial may take whole groups; three
    runs of ``process`` equal the reference by bytes and by error.

    Over typed columns only, so no conjunct can raise: the fragmenter runs
    a constant filter such as ``s < 5`` at the sensor before a truth test
    or column comparison written ahead of it, so with or without group
    indexes ``process`` can raise where the reference's written-order AND
    stops first.
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
# which conjuncts a group decides
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


DECIDED = [
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

NOT_DECIDED = [
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


def _scan_counts():
    return scan_stats.whole_groups, scan_stats.key_conjuncts


@pytest.mark.parametrize("keys, where", DECIDED)
def test_key_conjuncts_are_decided_once_per_group(keys, where):
    database = Database()
    database.register("d", fixed_relation())
    sql = f"SELECT {keys}, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    expected = outcome(lambda: database.query(sql, CONFIGS["interpreted"]))
    assert outcome(lambda: database.query(sql)) == expected  # records the ask
    builds = scan_stats.group_index_builds
    whole, decided = _scan_counts()
    for _ in range(2):
        assert outcome(lambda: database.query(sql)) == expected
    assert scan_stats.group_index_builds == builds + 1
    conjuncts = len(ast.conjunction_terms(parse(sql).where))
    assert _scan_counts() == (whole + 2, decided + 2 * conjuncts)


@pytest.mark.parametrize("keys, where", NOT_DECIDED)
def test_other_conjuncts_keep_the_row_scan(keys, where):
    database = Database()
    database.register("d", fixed_relation())
    sql = f"SELECT {keys}, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    expected = outcome(lambda: database.query(sql, CONFIGS["interpreted"]))
    before = _scan_counts()
    for _ in range(3):
        assert outcome(lambda: database.query(sql)) == expected
    assert _scan_counts() == before


def _split_count():
    return scan_stats.split_scans


@pytest.mark.parametrize("keys, where", NOT_DECIDED)
def test_other_conjuncts_split_at_group_bounds(keys, where):
    """The conjuncts no group decides filter group-ordered copies from the
    second scan on and split at group bounds when more rows pass than
    there are groups; one that raises, or one outside the scan's
    vocabulary (a CAST), leaves the scan to the row path."""
    database = Database()
    database.register("d", fixed_relation())
    sql = f"SELECT {keys}, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    expected = outcome(lambda: database.query(sql, CONFIGS["interpreted"]))
    before = _split_count()
    for _ in range(3):
        assert outcome(lambda: database.query(sql)) == expected
    row_path = isinstance(expected, tuple) or None in where_conjuncts(parse(sql))
    splits = not row_path and database.query(
        f"SELECT COUNT(*) AS n FROM d WHERE {where}", CONFIGS["interpreted"]
    ).column_values("n")[0] > len(GroupIndex.build(database.table("d"), (keys,)).keys)
    # No more passing rows than groups: the passing rows are hashed.
    assert _split_count() == before + (2 if splits else 0)


def split_relation() -> Relation:
    """Groups whose first row fails ``v > 3``: ``f`` opens with 0.0 before
    -0.0 and holds NaNs, the generic ``m`` opens with 1 before 1.0 and
    True, ``n`` holds NULLs; ``m < 5`` raises on the rows holding 'a'.
    The eight rows repeat with ``v = 9`` (``v = 0.5`` where ``m`` is 'a'),
    so more rows pass than there are groups and the scans split."""
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


#: (keys, WHERE, whether the scans split at group bounds).
SPLIT_CASES = [
    # The key and the bare column come from each group's first passing row.
    ("f", "v > 3", True),
    ("m", "v > 3", True),
    ("n", "v > 3", True),
    ("f, m", "v > 3", True),
    ("f, n", "v >= 4.5", True),
    # The NULL group opens first but passes its first row after n = 1's.
    ("n", "v > 0.5 AND v < 4.2", True),
    # Mixed key and non-key conjuncts.
    ("f", "f >= 0 AND v > 3", True),
    ("i, m", "i = 0 AND v > 0.4", True),
    # A conjunct raising on some rows: written second, it never sees 'a';
    # written first, it raises on every path.
    ("m", "v > 3 AND m < 5", True),
    ("m", "m < 5 AND v > 3", False),
    # No more rows pass than there are groups (NaN rows are one each):
    # the passing rows are hashed.
    ("f", "v > 8 AND f <> 0", False),
    # Every row fails.
    ("f", "s = 'none'", False),
]


@pytest.mark.parametrize("keys, where, splits", SPLIT_CASES)
def test_split_scans_take_each_group_from_its_first_passing_row(keys, where, splits):
    sql = f"SELECT {keys}, s, COUNT(*) AS c, SUM(v) AS sv FROM d WHERE {where} GROUP BY {keys}"
    for method in ("query", "partial_aggregate"):
        database = Database()
        database.register("d", split_relation())
        run = getattr(database, method)
        expected = outcome(lambda: run(sql, CONFIGS["interpreted"]))
        assert outcome(lambda: run(sql, CONFIGS["no_optimizer"])) == expected
        before = _split_count()
        for _ in range(3):
            assert outcome(lambda: run(sql, CONFIGS["zone_maps"])) == expected
        assert _split_count() == before + (2 if splits else 0)
    if keys == "f" and where == "v > 3":
        # -0.0 opens the group its first row (0.0) fails to enter.
        result = database.query(sql)
        first = result.column_values("f")[0]
        assert first == 0.0 and math.copysign(1.0, first) == -1.0
        assert result.column_values("s")[:2] == ["second", "third"]


def test_a_split_scan_asks_once_and_builds_on_the_second_scan():
    database = Database()
    database.register("d", fixed_relation())
    sql = "SELECT i, COUNT(*) AS c FROM d WHERE v > 3 GROUP BY i"
    splits, builds = _split_count(), scan_stats.group_index_builds
    database.query(sql)  # records the ask
    assert (_split_count(), scan_stats.group_index_builds) == (splits, builds)
    assert database.table("d").cached_group_index(("i",)) is None
    database.query(sql)
    assert (_split_count(), scan_stats.group_index_builds) == (splits + 1, builds + 1)
    database.query(sql)
    assert (_split_count(), scan_stats.group_index_builds) == (splits + 2, builds + 1)


def test_no_whole_groups_without_zone_maps():
    database = Database()
    database.register("d", fixed_relation())
    sql = "SELECT i, COUNT(*) AS c FROM d WHERE i > 0 GROUP BY i"
    before = _scan_counts() + (scan_stats.group_index_builds,)
    for config in (CONFIGS["no_optimizer"], CONFIGS["interpreted"]):
        for _ in range(3):
            database.query(sql, config)
    assert _scan_counts() + (scan_stats.group_index_builds,) == before
    assert database.table("d").cached_group_index(("i",)) is None


def test_a_relation_scanned_once_holds_no_index():
    database = Database()
    database.register("d", fixed_relation())
    database.query("SELECT i, COUNT(*) AS c FROM d GROUP BY i")
    assert database.table("d").cached_group_index(("i",)) is None
    database.query("SELECT i, COUNT(*) AS c FROM d GROUP BY i")
    assert database.table("d").cached_group_index(("i",)) is not None


# ---------------------------------------------------------------------------
# the index itself
# ---------------------------------------------------------------------------


def _relation_state(relation: Relation):
    """Columns by name, backing and cell repr (NaN, -0.0, 1 and 1.0, and
    list cells, which no wire format packs, all keep their spelling)."""
    return [
        (name, type(column).__name__, repr(list(column)))
        for name, column in zip(relation.schema.names, relation.columns())
    ]


def _index_state(index: GroupIndex):
    return (
        repr(index.keys),
        [list(rows) for rows in index.members],
        index.rows,
        _relation_state(index.key_relation),
        list(index.order),
        index.bounds,
    )


KEY_CELLS = {
    "f": [0.0, -0.0, math.nan, 1.5, None, -2.0],
    "n": [None, 1, 2, None, 3, 1],
    "i": [3, BIG + 1, 3, -1, BIG + 1, 7],
    "m": [1, 1.0, "a", [1, 2], "[1, 2]", True],
}


def _rows(count: int, offset: int):
    return [
        {name: cells[(offset + index) % len(cells)] for name, cells in KEY_CELLS.items()}
        | {"v": float(offset + index)}
        for index in range(count)
    ]


INDEX_SCHEMA = Schema(
    [
        ColumnDef(name="f", data_type=DataType.FLOAT),
        ColumnDef(name="n", data_type=DataType.INTEGER),
        ColumnDef(name="i", data_type=DataType.INTEGER),
        ColumnDef(name="m", data_type=DataType.FLOAT),
        ColumnDef(name="v", data_type=DataType.FLOAT),
    ]
)


@pytest.mark.parametrize("keys", [("f",), ("n",), ("i",), ("m",), ("f", "n"), ("i", "f", "m")])
def test_built_index_is_the_scan_partition(keys):
    relation = Relation.from_rows(_rows(50, 0), name="d", schema=INDEX_SCHEMA)
    index = GroupIndex.build(relation, keys)
    groups = group_rows(relation, keys, None)
    assert repr(index.keys) == repr(list(groups))
    assert [list(rows) for rows in index.members] == list(groups.values())
    firsts = [rows[0] for rows in groups.values()]
    expected = relation.project(list(dict.fromkeys(keys))).take_rows(firsts)
    assert _relation_state(index.key_relation) == _relation_state(expected)
    # The row order is the members one group after another.
    assert list(index.order) == [row for rows in groups.values() for row in rows]
    assert [
        list(index.order[start:stop]) for start, stop in zip(index.bounds, index.bounds[1:])
    ] == list(groups.values())


def _sensor_tree() -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=Topology.smart_home_tree(n_sensors=2, sensors_per_appliance=2),
    )
    processor.load_data(Relation.from_rows(_rows(40, 0), name="d", schema=INDEX_SCHEMA))
    return processor


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


@pytest.mark.parametrize("keys", [("f",), ("n",), ("i",), ("m",), ("f", "n"), ("i", "f", "m")])
@pytest.mark.parametrize("delta_rows", [0, 1, 7, 30])
def test_appended_chunk_inherits_an_index_equal_to_a_rebuild(keys, delta_rows):
    """Deltas bring -0.0 after 0.0, NaN, NULLs and new keys; the
    inherited index equals one built over the appended chunk."""
    processor = _sensor_tree()
    network = processor.network
    node = network.partition_holders("d")[1]
    chunk = network.database(node).table("d")
    built = chunk.group_index(keys, GroupIndex.build) or chunk.group_index(
        keys, GroupIndex.build
    )
    delta = Relation.from_rows(_rows(delta_rows, 13), name="d", schema=INDEX_SCHEMA)
    network.append_to_partition(node, "d", delta)
    appended = network.database(node).table("d")
    inherited = appended.cached_group_index(keys)
    assert inherited is not None and inherited is not built
    assert _index_state(inherited) == _index_state(GroupIndex.build(appended, keys))
    # The old chunk's index is left as it was.
    assert _index_state(built) == _index_state(GroupIndex.build(chunk, keys))


def test_only_built_indexes_are_inherited():
    processor = _sensor_tree()
    network = processor.network
    node = network.partition_holders("d")[0]
    network.database(node).table("d").group_index(("f",), GroupIndex.build)  # asked once
    delta = Relation.from_rows(_rows(3, 5), name="d", schema=INDEX_SCHEMA)
    network.append_to_partition(node, "d", delta)
    assert network.database(node).table("d").cached_group_index(("f",)) is None


def test_standing_read_after_an_append_builds_no_index():
    """A chunk whose index was built keeps one across appends: the read
    after a write takes whole groups without a build.  Each run submits a
    freshly parsed query, which the plan cache never holds, so every leaf
    partial computes; the cached text then hits both leaves."""
    processor = _sensor_tree()
    sql = "SELECT f, n, COUNT(*) AS c, SUM(v) AS sv FROM d GROUP BY f, n"
    options = {"apply_rewriting": False, "anonymize": False}
    for _ in range(2):
        processor.process(parse(sql), "ActionFilter", **options)
    node = processor.network.partition_holders("d")[0]
    delta = Relation.from_rows(_rows(5, 3), name="d", schema=INDEX_SCHEMA)
    processor.network.append_to_partition(node, "d", delta)
    builds, whole = scan_stats.group_index_builds, scan_stats.whole_groups
    run = processor.process(parse(sql), "ActionFilter", **options)
    assert (scan_stats.group_index_builds, scan_stats.whole_groups) == (builds, whole + 2)
    expected = pack_relation(reference_result(processor, sql, "ActionFilter", **options))
    assert pack_relation(run.result) == expected
    _assert_repeats_hit(processor, sql, options, 2, expected)


def test_a_dropped_relation_needs_no_cyclic_collection():
    """A relation with cached stats and a group index is freed as soon as
    it is dropped: neither cache refers back to it, so a replaced chunk
    never waits for the cyclic collector."""
    relation = fixed_relation()
    relation.stats().column("i")
    for _ in range(2):
        relation.group_index(("i",), GroupIndex.build)
    assert relation.cached_group_index(("i",)) is not None
    gc.collect()
    gc.disable()
    try:
        del relation
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_split_scans_build_the_row_order_and_copies():
    database = Database()
    database.register("d", fixed_relation())
    for _ in range(3):
        database.query("SELECT i, COUNT(*) AS c FROM d WHERE i > 0 GROUP BY i")
    index = database.table("d").cached_group_index(("i",))
    assert index._layout is None and not index._ordered
    database.query("SELECT i, COUNT(*) AS c FROM d WHERE v > 3 GROUP BY i")
    assert index._layout is not None and set(index._ordered) == {"v"}


def test_group_ordered_copies_keep_no_reference_to_their_relation():
    relation = fixed_relation()
    for _ in range(2):
        relation.group_index(("i",), GroupIndex.build)
    index = relation.cached_group_index(("i",))
    ordered = index.ordered(relation, ["v", "s", "b"])
    assert list(ordered["v"]) == [relation.column_array("v")[row] for row in index.order]
    assert index.ordered(relation, ["v"])["v"] is ordered["v"]
    del ordered, index
    gc.collect()
    gc.disable()
    try:
        del relation
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# freshness: every public mutation drops the index
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
def test_whole_groups_follow_every_mutation(mutation):
    database = Database()
    database.register("d", fixed_relation())
    for _ in range(2):
        database.query(FRESH_SQL)
    assert database.table("d").cached_group_index(("i",)) is not None
    MUTATIONS[mutation](database)
    assert database.table("d").cached_group_index(("i",)) is None
    expected = pack_relation(database.query(FRESH_SQL, CONFIGS["interpreted"]))
    whole = scan_stats.whole_groups
    for _ in range(3):
        got = database.query(FRESH_SQL)
        assert 900 in got.column_values("i")
        assert pack_relation(got) == expected
    assert scan_stats.whole_groups == whole + 2


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

#: Queries whose leaf partials split at group bounds: a non-key conjunct
#: (the e2e group-by's ``valid``), and one beside a key conjunct with a
#: first-value column.
SPLIT_PROCESS_SQL = [
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


@pytest.mark.parametrize("sql", PROCESS_SQL)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_process_takes_whole_groups_and_matches_the_reference(sql, topology, execution):
    """Every leaf partial takes whole groups from the second run on (x, y
    on a grid of 2 keep the groups few enough for leaf partials).  Each run
    submits a freshly parsed query so that every leaf partial computes;
    under zone maps the cached text's repeat then hits every leaf."""
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
        whole = scan_stats.whole_groups
        for _ in range(3):
            run = processor.process(parse(sql), "ActionFilter", **options)
            assert pack_relation(run.result) == expected, name
        taken = 2 * sensors if name == "zone_maps" else 0
        assert scan_stats.whole_groups == whole + taken, name
        _assert_repeats_hit(
            processor, sql, options, sensors if name == "zone_maps" else 0, expected
        )
    if execution == "parallel":
        assert run.runtime.workers > 1


@pytest.mark.parametrize("sql", SPLIT_PROCESS_SQL)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_process_splits_groups_and_matches_the_reference(sql, topology, execution):
    """Every leaf partial splits its filtered copy at group bounds from the
    second run on.  Freshly parsed queries compute every leaf partial; the
    cached text's repeat hits every leaf under zone maps."""
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
        splits = _split_count()
        for _ in range(3):
            run = processor.process(parse(sql), "ActionFilter", **options)
            assert pack_relation(run.result) == expected, name
        taken = 2 * sensors if name == "zone_maps" else 0
        assert _split_count() == splits + taken, name
        _assert_repeats_hit(
            processor, sql, options, sensors if name == "zone_maps" else 0, expected
        )
    if execution == "parallel":
        assert run.runtime.workers > 1


def test_concurrent_scans_share_one_chunk():
    """Threads racing to record, build and read one chunk's index all get
    the reference result."""
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


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def test_explain_names_the_conjuncts_group_keys_decide():
    processor = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    processor.load_data(make_sensor_relation(400))
    sql = "SELECT x, y, AVG(z) AS az FROM d WHERE z < 2 AND x > y GROUP BY x, y"
    text = processor.explain(sql, "ActionFilter", apply_rewriting=False)
    assert "[zone map proves z < 2] [group keys decide x > y]" in text
    processor.engine = CONFIGS["no_optimizer"]
    text = processor.explain(sql, "ActionFilter", apply_rewriting=False)
    assert "group keys decide" not in text


def test_probes_and_profile_scan_paths():
    processor = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    processor.load_data(make_sensor_relation(400))
    sql = "SELECT x, y, AVG(z) AS az FROM d WHERE z < 2 AND x > y GROUP BY x, y"
    options = {"apply_rewriting": False, "anonymize": False}
    processor.process(parse(sql), "ActionFilter", **options)
    build = processor.process(parse(sql), "ActionFilter", profile=True, **options)
    assert build.profile.scan_paths["group_index.builds"] == 1
    reuse = processor.process(parse(sql), "ActionFilter", profile=True, **options)
    paths = reuse.profile.scan_paths
    assert "group_index.builds" not in paths
    assert paths["whole_groups"] == 1
    assert paths["group_index.key_conjuncts"] == 1
    assert "whole_groups: 1" in reuse.profile.render()
    snapshot = registry.snapshot()
    for probe in (
        "engine.group_index.builds",
        "engine.vectorized.whole_groups",
        "engine.group_index.key_conjuncts",
    ):
        assert probe in snapshot
    # The cached text's repeat decodes its kept state: no scan at all.
    processor.process(sql, "ActionFilter", **options)
    hit = processor.process(sql, "ActionFilter", profile=True, **options)
    paths = hit.profile.scan_paths
    assert paths["state_memo.hits"] == 1
    assert "state_memo.misses" not in paths and "whole_groups" not in paths
    assert "memo hit" in hit.profile.render()
    assert pack_relation(hit.result) == pack_relation(reuse.result)


def test_split_scans_in_explain_probes_and_profile():
    processor = ParadiseProcessor(figure4_policy(), topology=Topology.default_chain())
    processor.load_data(make_sensor_relation(400))
    sql = "SELECT x, y, AVG(z) AS az FROM d WHERE z < 2 AND valid GROUP BY x, y"
    text = processor.explain(sql, "ActionFilter", apply_rewriting=False)
    assert "[zone map proves z < 2] [group index splits on valid]" in text
    assert "group keys decide" not in text
    options = {"apply_rewriting": False, "anonymize": False}
    processor.process(parse(sql), "ActionFilter", **options)
    build = processor.process(parse(sql), "ActionFilter", profile=True, **options)
    assert build.profile.scan_paths["group_index.split_scans"] == 1
    assert "whole_groups" not in build.profile.scan_paths
    assert "group_index.split_scans: 1" in build.profile.render()
    assert "engine.group_index.split_scans" in registry.snapshot()
    _assert_repeats_hit(processor, sql, options, 1, pack_relation(build.result))
    processor.engine = CONFIGS["no_optimizer"]
    text = processor.explain(sql, "ActionFilter", apply_rewriting=False)
    assert "group index splits" not in text
