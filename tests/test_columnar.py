"""Columnar storage contract and differential suite.

Two contracts are enforced here:

1. **RowView compatibility.**  The columnar :class:`Relation` must behave
   exactly like the former ``List[Dict]`` container for every row-oriented
   consumer: live mapping views, write-through mutation, append/extend,
   equality with plain dict lists, and defensive isolation on
   ``Database.register``.

2. **Byte-identical execution.**  Construction route (dict rows vs column
   arrays), engine mode (compiled vs interpreted oracle) and scan path
   (vectorized vs row-at-a-time) must all be invisible in the results —
   across the fig2 pipeline workload, the Section 4.2 use case, and
   ``-m concurrency`` parallel runs.
"""

from __future__ import annotations

from typing import Optional

import pytest

from tests.conftest import PAPER_R_CODE, PAPER_SQL, make_sensor_relation

from repro.engine.columns import (
    BOOL,
    FLOAT64,
    INT64,
    TypedColumn,
    typed_column_from_values,
)
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation, RowView, concat
from repro.engine.types import DataType
from repro.engine.vectorized import stats
from repro.engine.wire import pack_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import delta, registry
from repro.policy.presets import figure4_policy
from repro.runtime.cost import CostModel
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.sensors.scenario import INTEGRATED_SCHEMA


# ---------------------------------------------------------------------------
# container contract
# ---------------------------------------------------------------------------


def test_columnar_and_dict_row_construction_identical():
    rows = [
        {"a": 1, "b": "x", "c": None},
        {"a": 2, "b": None, "c": 3.5},
        {"a": None, "b": "z", "c": -1.25},
    ]
    schema = Schema(
        [
            ColumnDef(name="a", data_type=DataType.INTEGER),
            ColumnDef(name="b", data_type=DataType.TEXT),
            ColumnDef(name="c", data_type=DataType.FLOAT),
        ]
    )
    from_rows = Relation(schema=schema, rows=rows, name="t")
    from_columns = Relation.from_columns(
        schema,
        [[1, 2, None], ["x", None, "z"], [None, 3.5, -1.25]],
        name="t",
    )
    assert from_rows.to_dicts() == from_columns.to_dicts() == rows
    assert from_rows.rows == from_columns.rows
    assert from_rows == from_columns
    assert from_rows.estimated_bytes() == from_columns.estimated_bytes()


def test_rowview_is_live_mapping():
    relation = Relation.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
    row = relation.rows[0]
    assert isinstance(row, RowView)
    assert row["a"] == 1 and row.get("missing") is None
    assert list(row.keys()) == ["a", "b"]
    assert dict(row) == {"a": 1, "b": "x"}
    assert row == {"a": 1, "b": "x"}
    # Case-insensitive lookup, like the schema.
    assert row["A"] == 1
    # Write-through: mutating the view mutates the relation's columns.
    row["a"] = 99
    assert relation.column_values("a") == [99, 2]
    with pytest.raises(KeyError):
        row["new_column"] = 1
    with pytest.raises(TypeError):
        del row["a"]


def test_rowsview_sequence_protocol():
    relation = Relation.from_rows([{"a": i} for i in range(5)])
    rows = relation.rows
    assert len(rows) == 5 and bool(rows)
    assert rows[-1]["a"] == 4
    assert [row["a"] for row in rows[1:3]] == [1, 2]
    assert rows == [{"a": i} for i in range(5)]
    assert rows != [{"a": 0}]
    rows.append({"a": 5})
    rows.extend([{"a": 6}])
    assert relation.column_values("a") == [0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(IndexError):
        rows[7]


def test_scope_rows_cache_invalidated_by_mutation():
    relation = Relation.from_rows([{"A": 1}, {"A": 2}])
    scopes = relation.scope_rows()
    assert scopes == [{"a": 1}, {"a": 2}]
    assert relation.scope_rows() is scopes  # cached while unchanged
    relation.rows[0]["a"] = 7
    assert relation.scope_rows() == [{"a": 7}, {"a": 2}]
    relation.rows.append({"A": 3})
    assert relation.scope_rows()[-1] == {"a": 3}


def test_slice_take_and_concat_roundtrip():
    relation = make_sensor_relation(rows=30)
    chunks = [relation.slice_rows(0, 11), relation.slice_rows(11, 20), relation.slice_rows(20, None)]
    assert sum(len(chunk) for chunk in chunks) == 30
    rebuilt = concat(chunks)
    assert rebuilt.to_dicts() == relation.to_dicts()
    picked = relation.take_rows([3, 1, 3])
    assert picked.to_dicts() == [relation.to_dicts()[i] for i in (3, 1, 3)]


def test_register_copies_columns_not_rows():
    """The cheap columnar copy still isolates both sides (no aliasing)."""
    database = Database()
    source = Relation.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}], name="src")
    database.register("t", source)

    # Mutating the source after registration must not leak into the table...
    source.rows[0]["a"] = 111
    source.rows.append({"a": 3, "b": "z"})
    table = database.table("t")
    assert table.to_dicts() == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    # ...and mutating the registered table must not leak back.
    table.rows[1]["b"] = "mutated"
    database.insert_rows("t", [{"a": 4, "b": "w"}])
    assert source.to_dicts()[1]["b"] == "y"
    assert len(source) == 3


def test_register_rereg_same_shape_keeps_results_fresh():
    """Re-registering a same-shaped relation serves the new data."""
    database = Database()
    database.register("t", Relation.from_rows([{"a": 1}], name="t"))
    assert database.query("SELECT a FROM t").to_dicts() == [{"a": 1}]
    database.register("t", Relation.from_rows([{"a": 2}], name="t"))
    assert database.query("SELECT a FROM t").to_dicts() == [{"a": 2}]


# ---------------------------------------------------------------------------
# differential: engine modes × scan paths over the paper workloads
# ---------------------------------------------------------------------------


def _pipeline_processor(
    rows: int = 240,
    config: EngineConfig = EngineConfig(),
    cost_model: Optional[CostModel] = None,
) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(),
        schema=INTEGRATED_SCHEMA,
        topology=Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=2),
        cost_model=cost_model,
    )
    processor.engine = config
    processor.load_data(make_sensor_relation(rows=rows))
    return processor


def _materialize(result):
    relation = result.result
    return relation.schema.names, relation.to_dicts()


#: The reference arm first: the interpreted oracle on the row path.
SCAN_ARMS = [
    EngineConfig(mode="interpreted", vectorized=False),
    EngineConfig(mode="interpreted"),
    EngineConfig(vectorized=False),
    EngineConfig(),
]


def _scan_paths(run):
    """``(result, vectorized executions, all executions)`` of ``run()``."""
    before = registry.snapshot(prefix="engine.")
    result = run()
    moved = delta(before, registry.snapshot(prefix="engine."))
    vectorized = sum(
        moved[f"engine.vectorized.{kind}"] for kind in ("flat", "grouped", "partial")
    )
    executions = (
        moved["engine.executor.selects"] + moved["engine.executor.partial_aggregations"]
    )
    return result, vectorized, executions


def _assert_path(config: EngineConfig, vectorized: int, executions: int) -> None:
    """The arm ran the engine, and took vectorized scans iff it names them."""
    assert executions > 0, config
    if config.mode == "compiled" and config.vectorized:
        assert vectorized > 0, config
    else:
        assert vectorized == 0, config


@pytest.mark.parametrize("use_r", [False, True], ids=["fig2_sql", "usecase_r"])
def test_pipeline_identical_across_modes_and_scan_paths(use_r):
    def run(config: EngineConfig):
        processor = _pipeline_processor(config=config)
        if use_r:
            return _scan_paths(lambda: processor.process_r(PAPER_R_CODE, "ActionFilter"))
        return _scan_paths(lambda: processor.process(PAPER_SQL, "ActionFilter"))

    reference = None
    for config in SCAN_ARMS:
        result, vectorized, executions = run(config)
        _assert_path(config, vectorized, executions)
        if reference is None:
            reference = _materialize(result)
        assert _materialize(result) == reference, config


def test_vectorized_scans_engage_on_pipeline_fragments():
    processor = _pipeline_processor()
    stats.reset()
    processor.process(PAPER_SQL, "ActionFilter")
    assert stats.flat > 0  # the projection fragments scan columnar


def test_groupby_workload_identical_and_vectorized():
    processor = _pipeline_processor()
    sql = (
        "SELECT activity, COUNT(*) AS n, AVG(z) AS az, MIN(t) AS mn, MAX(t) AS mx "
        "FROM d WHERE valid = TRUE GROUP BY activity"
    )
    options = {"apply_rewriting": False, "anonymize": False}

    def run(config: EngineConfig):
        processor.engine = config
        return processor.process(sql, "ActionFilter", **options)

    stats.reset()
    reference = _materialize(run(EngineConfig(mode="interpreted", vectorized=False)))
    got = _materialize(run(EngineConfig()))
    assert got == reference
    assert stats.grouped + stats.partial > 0
    assert _materialize(run(EngineConfig(vectorized=False))) == reference


def test_scan_errors_match_row_path_identically():
    """Row-level evaluation errors keep row-major identity.

    The vectorized scan is conjunct-major/group-major; on any evaluation
    error it must abandon and let the row path raise its own error, so the
    compiled default surfaces exactly the error the pre-columnar engine
    surfaced.
    """
    from repro.engine.errors import ExecutionError

    database = Database()
    database.load_rows(
        "d", [{"v": 3, "s": [1]}, {"v": "bad", "s": 1}], schema=Schema.from_names(["v", "s"])
    )
    sql = "SELECT v FROM d WHERE v > 1 AND s > 5"

    def error_of(run):
        try:
            run()
        except Exception as exc:  # noqa: BLE001 - comparing error identity
            return type(exc), str(exc)
        return None

    def compiled():
        return database.query(sql)

    def row_path():
        return database.query(sql, EngineConfig(vectorized=False))

    def oracle():
        return database.query(sql, EngineConfig(mode="interpreted"))

    assert error_of(compiled) == error_of(row_path) == error_of(oracle)
    assert error_of(compiled) == (ExecutionError, "Cannot compare list and int")


def test_aggregate_scan_errors_match_row_path_identically():
    """Group-major accumulator feeding must not change the raised error."""
    import math

    database = Database()
    # NaN (group 2) precedes Inf (group 1) in row order, but group 1
    # first-occurs before the NaN row: the exact STDDEV moments raise
    # ValueError (NaN) row-major, while a purely group-major feed would hit
    # the Inf first and raise OverflowError instead — the scan must abandon
    # and let the row path raise.
    database.load_rows(
        "d",
        [
            {"k": 1, "v": 1.0},
            {"k": 2, "v": math.nan},
            {"k": 1, "v": math.inf},
        ],
    )
    sql = "SELECT k, STDDEV(v) AS s FROM d GROUP BY k"

    def error_of(run):
        try:
            run()
        except Exception as exc:  # noqa: BLE001 - comparing error identity
            return type(exc), str(exc)
        return None

    def compiled():
        return database.query(sql)

    def row_path():
        return database.query(sql, EngineConfig(vectorized=False))

    assert error_of(compiled) == error_of(row_path)
    assert error_of(compiled) is not None


def test_zero_argument_aggregates_match_row_path():
    """``COUNT()``/``SUM()`` parse; the fast path must feed them star rows."""
    database = Database()
    database.load_rows("d", [{"k": 1, "v": 2.0}, {"k": 1, "v": 3.0}, {"k": 2, "v": 4.0}])
    for sql in (
        "SELECT COUNT() AS n FROM d",
        "SELECT SUM() AS s FROM d",
        "SELECT k, COUNT() AS n, MIN() AS m FROM d GROUP BY k",
    ):
        fast = database.query(sql).to_dicts()
        slow = database.query(sql, EngineConfig(vectorized=False)).to_dicts()
        assert fast == slow, sql


def _truth_relation() -> Relation:
    """One column per truth-value edge case, under both backings.

    ``tb`` is a typed bool column and ``lb`` a list-backed one (both with
    NULLs); ``i`` holds zeros, ``f`` ``0.0``/``-0.0``/NaN and ``s`` ``''``.
    """
    rows = 48
    bools = [(True, False, None)[i % 3] for i in range(rows)]
    columns = {
        "id": typed_column_from_values(list(range(rows)), INT64),
        "k": typed_column_from_values([i % 4 for i in range(rows)], INT64),
        "x": typed_column_from_values([i % 9 for i in range(rows)], INT64),
        "y": typed_column_from_values(
            [None if i % 11 == 0 else i % 3 for i in range(rows)], INT64
        ),
        "tb": typed_column_from_values(bools, BOOL),
        "lb": list(reversed(bools)),
        "i": typed_column_from_values(
            [(0, 3, None, -1)[i % 4] for i in range(rows)], INT64
        ),
        "f": typed_column_from_values(
            [(0.0, -0.0, float("nan"), 2.5, None)[i % 5] for i in range(rows)], FLOAT64
        ),
        "s": [("", "walk", None)[i % 3] for i in range(rows)],
    }
    schema = Schema(
        [
            ColumnDef("id", DataType.INTEGER),
            ColumnDef("k", DataType.INTEGER),
            ColumnDef("x", DataType.INTEGER),
            ColumnDef("y", DataType.INTEGER),
            ColumnDef("tb", DataType.BOOLEAN),
            ColumnDef("lb", DataType.BOOLEAN),
            ColumnDef("i", DataType.INTEGER),
            ColumnDef("f", DataType.FLOAT),
            ColumnDef("s", DataType.TEXT),
        ]
    )
    relation = Relation.from_columns(schema, list(columns.values()), name="d")
    assert isinstance(relation.column_array("tb"), TypedColumn)
    assert isinstance(relation.column_array("lb"), list)
    return relation


TRUTH_COLUMNS = ("tb", "lb", "i", "f", "s")

TRUTH_FILTERS = (
    "WHERE {c}",
    "WHERE NOT {c}",
    "WHERE {c} AND x < 5",
    "WHERE NOT {c} OR y = 2",
)

#: The reference arm first: the interpreted oracle.
TRUTH_ARMS = [
    EngineConfig(mode="interpreted"),
    EngineConfig(vectorized=False),
    EngineConfig(vectorized=False, optimizer=False),
    EngineConfig(optimizer=False),
    EngineConfig(),
]


@pytest.mark.parametrize("column", TRUTH_COLUMNS)
def test_truth_conjuncts_identical_across_configs(column):
    """Bare ``c``/``NOT c`` conjuncts: three-valued results byte-identical
    on every engine arm, and the vectorized arms scan them columnar.

    The flat queries project ``id`` rather than ``c``: a vectorized
    projection keeps a list-backed input column list-backed, which the
    row path re-types, so the projected truth column itself would differ
    in wire bytes on every filter, old conjuncts included."""
    database = Database()
    database.register("d", _truth_relation())
    queries = [
        ("SELECT id, k FROM d " + where.format(c=column), False)
        for where in TRUTH_FILTERS
    ] + [
        (
            f"SELECT k, COUNT(*) AS n, SUM(x) AS sx, AVG(f) AS af FROM d "
            f"WHERE {column} GROUP BY k",
            True,
        )
    ]
    for sql, partial in queries:
        run = database.partial_aggregate if partial else database.query
        reference = None
        for config in TRUTH_ARMS:
            before = registry.snapshot(prefix="engine.vectorized.")
            packed = pack_relation(run(sql, config))
            moved = delta(before, registry.snapshot(prefix="engine.vectorized."))
            if reference is None:
                reference = packed
                # The filter keeps some rows and drops others.
                assert 0 < len(database.query(sql, config)) < 48
            assert packed == reference, (sql, config)
            if config.mode != "compiled" or not config.vectorized:
                continue
            scans = sum(
                moved.get(f"engine.vectorized.{kind}", 0)
                for kind in ("flat", "grouped", "partial")
            )
            ored = " OR " in sql and not config.optimizer
            assert not moved.get("engine.vectorized.bails.complex_predicate", 0) or ored
            assert (scans == 1) != ored, (sql, config)


def test_estimated_bytes_tolerates_exotic_tuples():
    """Tuple cells outside the wire vocabulary fall back to text sizing."""
    relation = Relation.from_rows([{"a": (1, [2, 3])}])
    assert relation.estimated_bytes() == len(str((1, [2, 3])))


@pytest.mark.concurrency
def test_parallel_runs_identical_across_scan_paths():
    sql = "SELECT activity, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY activity"
    options = {"apply_rewriting": False, "anonymize": False}
    row_path = EngineConfig(vectorized=False)
    expected = pack_relation(
        reference_result(_pipeline_processor(), sql, "ActionFilter", **options)
    )
    for config in (row_path, EngineConfig()):
        # Small simulated costs make the parallel run use the pool.
        processor = _pipeline_processor(
            config=config, cost_model=CostModel(seconds_per_row=1e-6)
        )
        parallel, vectorized, executions = _scan_paths(
            lambda: processor.process(sql, "ActionFilter", execution="parallel", **options)
        )
        _assert_path(config, vectorized, executions)
        assert parallel.runtime.workers > 1, config
        assert pack_relation(parallel.result) == expected, config


@pytest.mark.concurrency
def test_concurrent_sessions_identical_with_columnar_storage():
    from repro.runtime import QueryRequest, SessionFrontEnd

    processor = _pipeline_processor()
    options = {"apply_rewriting": False, "anonymize": False}
    queries = [
        "SELECT activity, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY activity",
        "SELECT x, y, z, t FROM d WHERE z < 1.5",
    ]
    requests = [
        QueryRequest(query=sql, module_id="ActionFilter", options=options)
        for sql in queries
    ] * 2
    expected = [
        processor.process(r.query, r.module_id, execution="parallel", **options)
        for r in requests
    ]
    with SessionFrontEnd(processor, max_concurrent=3) as front_end:
        got = front_end.run_batch(requests)
    for want, have in zip(expected, got):
        assert have.result.rows == want.result.rows
