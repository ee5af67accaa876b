"""Tests for the stream processing of the sensor level (E4)."""

import pytest

from repro.engine.errors import ExecutionError
from repro.streams import SensorStream, SlidingWindow, StreamFilter, TumblingWindow, WindowAggregate


def make_readings(count=60, z_step=0.1):
    return [{"t": float(i), "z": round(i * z_step, 3), "x": float(i % 5)} for i in range(count)]


def test_stream_filter_constant_comparisons():
    assert StreamFilter("z", "<", 2).matches({"z": 1})
    assert not StreamFilter("z", "<", 2).matches({"z": 3})
    assert not StreamFilter("z", "<", 2).matches({"z": None})
    assert StreamFilter("x", "=", 5).matches({"x": 5})
    assert StreamFilter("x", ">=", 5).matches({"x": 5})
    with pytest.raises(ExecutionError):
        StreamFilter("x", "~", 5)


def test_stream_push_and_capacity():
    stream = SensorStream("s", capacity=10)
    assert stream.push_many(make_readings(25)) == 25
    assert len(stream) == 10  # oldest readings fell out
    assert stream.readings[0]["t"] == 15.0


def test_stream_filtered_matches_sensor_query():
    stream = SensorStream("s")
    stream.push_many(make_readings(30))
    below = stream.filtered([StreamFilter("z", "<", 2)])
    assert all(reading["z"] < 2 for reading in below)
    assert len(below) == 20


def test_stream_to_relation():
    stream = SensorStream("s")
    stream.push_many(make_readings(10))
    relation = stream.to_relation()
    assert len(relation) == 10
    assert set(relation.column_names) == {"t", "z", "x"}


def test_window_aggregate_output_name_and_compute():
    aggregate = WindowAggregate("AVG", "z", alias="z_mean")
    assert aggregate.output_name == "z_mean"
    assert aggregate.compute([{"z": 1.0}, {"z": 3.0}]) == 2.0
    default_name = WindowAggregate("SUM", "z")
    assert default_name.output_name == "sum_z"
    count = WindowAggregate("COUNT", "*")
    assert count.compute([{"z": 1}, {"z": None}]) == 2


def test_window_aggregate_unknown_function():
    with pytest.raises(ExecutionError):
        WindowAggregate("REGR_SLOPE", "z").compute([{"z": 1}])


def test_tumbling_window_partitions_time():
    window = TumblingWindow(size_seconds=10, aggregates=[WindowAggregate("AVG", "z")])
    results = window.apply(make_readings(30))
    assert len(results) == 3
    assert results[0]["count"] == 10
    assert results[0]["window_start"] == 0.0
    assert results[1]["window_start"] == 10.0


def test_tumbling_window_empty():
    assert TumblingWindow(size_seconds=5).apply([]) == []


def test_sliding_window_latest_is_last_minute_average():
    readings = make_readings(120)
    window = SlidingWindow(size_seconds=60, aggregates=[WindowAggregate("AVG", "z")])
    latest = window.latest(readings)
    assert latest["count"] == 60
    # Average of z over t in (59, 119].
    expected = sum(r["z"] for r in readings if r["t"] > 59) / 60
    assert latest["avg_z"] == pytest.approx(expected)


def test_stream_window_aggregate_end_to_end():
    stream = SensorStream("s")
    stream.push_many(make_readings(100))
    summary = stream.window_aggregate(
        size_seconds=60,
        aggregates=[WindowAggregate("AVG", "z"), WindowAggregate("COUNT", "*")],
        filters=[StreamFilter("z", "<", 8)],
    )
    assert summary["count"] > 0
    assert summary["avg_z"] < 8


# ---------------------------------------------------------------------------
# typed column backings on stream-fed relations (UNTYPED_BACKING regression)
# ---------------------------------------------------------------------------


def test_stream_to_relation_builds_typed_backings():
    from repro.engine.columns import TypedColumn
    from repro.engine.schema import ColumnDef, Schema
    from repro.engine.types import DataType

    schema = Schema(
        [
            ColumnDef(name="t", data_type=DataType.FLOAT),
            ColumnDef(name="z", data_type=DataType.FLOAT),
            ColumnDef(name="on", data_type=DataType.BOOLEAN),
        ]
    )
    stream = SensorStream("s", schema=schema)
    # Sensors emit ints where the declared schema says FLOAT ("t": 0, 1, ..
    # would previously degrade the whole column to a generic list).
    stream.push_many(
        [{"t": i, "z": round(i * 0.1, 3), "on": i % 2 == 0} for i in range(20)]
    )
    relation = stream.to_relation()
    backing = {
        column_def.name: column
        for column_def, column in zip(relation.schema.columns, relation.columns())
    }
    assert isinstance(backing["t"], TypedColumn) and backing["t"].typecode == "d"
    assert isinstance(backing["z"], TypedColumn) and backing["z"].typecode == "d"
    assert isinstance(backing["on"], TypedColumn) and backing["on"].typecode == "b"
    assert relation.rows[3]["t"] == 3.0 and type(relation.rows[3]["t"]) is float


def test_tumbling_window_to_relation_builds_typed_backings():
    from repro.engine.columns import TypedColumn

    window = TumblingWindow(size_seconds=10, aggregates=[WindowAggregate("AVG", "z")])
    relation = window.to_relation(make_readings(60))
    assert len(relation) == 6
    backing = {
        column_def.name: column
        for column_def, column in zip(relation.schema.columns, relation.columns())
    }
    # window_start stays float across every window (the first window used
    # to take its type from the raw reading, flipping backings when t=0).
    assert isinstance(backing["window_start"], TypedColumn)
    assert backing["window_start"].typecode == "d"
    assert isinstance(backing["count"], TypedColumn)
    assert backing["count"].typecode == "q"
    assert isinstance(backing["avg_z"], TypedColumn)


def test_stream_fed_query_never_bails_untyped():
    """Pin the regression: vectorized kernels engage on stream-fed
    relations — typed scans recorded, zero ``untyped_backing`` bails."""
    from repro.engine.database import Database
    from repro.obs.metrics import delta, registry

    stream = SensorStream("s")
    stream.push_many(
        [
            {"t": i, "z": round((i % 7) * 0.3, 3), "x": float(i % 5)}
            for i in range(200)
        ]
    )
    database = Database(name="sensor-local")
    database.register("s", stream.to_relation())
    before = registry.snapshot(prefix="engine.vectorized.")
    result = database.query("SELECT x, AVG(z) AS az FROM s WHERE z < 1.5 GROUP BY x")
    assert len(result) == 5
    diff = delta(before, registry.snapshot(prefix="engine.vectorized."))
    assert diff.get("engine.vectorized.typed", 0) >= 1
    assert not diff.get("engine.vectorized.bails.untyped_backing", 0)
