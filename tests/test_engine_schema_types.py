"""Tests for column types and schemas."""

from datetime import datetime

import pytest

from repro.engine.errors import SchemaError
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import DataType, coerce, infer_type, parse_type_name


def test_infer_type():
    assert infer_type(True) is DataType.BOOLEAN
    assert infer_type(3) is DataType.INTEGER
    assert infer_type(3.5) is DataType.FLOAT
    assert infer_type("hi") is DataType.TEXT
    assert infer_type(datetime(2016, 3, 15)) is DataType.TIMESTAMP


def test_coerce():
    assert coerce(None, DataType.INTEGER) is None
    assert coerce("3", DataType.INTEGER) == 3
    assert coerce(1, DataType.BOOLEAN) is True
    assert coerce("false", DataType.BOOLEAN) is False
    assert coerce(2.0, DataType.TEXT) == "2.0"
    assert coerce("2016-03-15T10:00:00", DataType.TIMESTAMP) == datetime(2016, 3, 15, 10)


def test_parse_type_name():
    assert parse_type_name("INT") is DataType.INTEGER
    assert parse_type_name("double") is DataType.FLOAT
    assert parse_type_name("BOOLEAN") is DataType.BOOLEAN
    assert parse_type_name("varchar") is DataType.TEXT
    assert parse_type_name("timestamp") is DataType.TIMESTAMP


def test_schema_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        Schema([ColumnDef(name="x"), ColumnDef(name="X")])


def test_schema_lookup_case_insensitive():
    schema = Schema([ColumnDef(name="zAVG", data_type=DataType.FLOAT)])
    assert "zavg" in schema
    assert schema.column("ZAVG").name == "zAVG"


def test_schema_unknown_column_raises():
    schema = Schema.from_names(["a", "b"])
    with pytest.raises(SchemaError):
        schema.column("c")


def test_schema_infer_from_rows():
    rows = [{"a": None, "b": "x"}, {"a": 2, "b": "y"}]
    schema = Schema.infer(rows)
    assert schema.column("a").data_type is DataType.INTEGER
    assert schema.column("b").data_type is DataType.TEXT


def test_schema_project_without_merge():
    schema = Schema.from_names(["a", "b", "c"])
    assert schema.project(["c", "a"]).names == ["c", "a"]
    assert schema.without(["b"]).names == ["a", "c"]
    merged = schema.project(["a"]).merge(Schema.from_names(["d"]))
    assert merged.names == ["a", "d"]


def test_schema_classification():
    schema = Schema(
        [
            ColumnDef(name="person_id", identifying=True),
            ColumnDef(name="x", quasi_identifier=True),
            ColumnDef(name="z", sensitive=True),
            ColumnDef(name="t"),
        ]
    )
    classes = schema.classification()
    assert classes["identifying"] == ["person_id"]
    assert classes["quasi_identifiers"] == ["x"]
    assert classes["sensitive"] == ["z"]
    assert classes["other"] == ["t"]
