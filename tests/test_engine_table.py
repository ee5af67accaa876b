"""Tests for the Relation container."""

import pytest

from repro.engine.errors import SchemaError
from repro.engine.schema import Schema
from repro.engine.table import Relation, concat


def test_from_rows_infers_schema(small_relation):
    relation = Relation.from_rows(small_relation.to_dicts())
    assert relation.column_names == ["a", "b", "c"]
    assert len(relation) == 4


def test_column_values(small_relation):
    assert small_relation.column_values("a") == [1, 2, 3, 4]
    with pytest.raises(SchemaError):
        small_relation.column_values("nope")


def test_select_project_drop(small_relation):
    filtered = small_relation.select(lambda row: row["a"] > 2)
    assert len(filtered) == 2
    projected = small_relation.project(["c", "a"])
    assert projected.column_names == ["c", "a"]
    assert projected[0] == {"c": "red", "a": 1}
    dropped = small_relation.drop(["b"])
    assert dropped.column_names == ["a", "c"]


def test_limit(small_relation):
    assert len(small_relation.limit(2)) == 2


def test_map_rows_and_copy(small_relation):
    doubled = small_relation.map_rows(lambda row: {**row, "a": row["a"] * 2})
    assert doubled.column_values("a") == [2, 4, 6, 8]
    copy = small_relation.copy()
    copy.rows[0]["a"] = 99
    assert small_relation[0]["a"] == 1


def test_extend(small_relation):
    relation = small_relation.copy()
    relation.extend([{"a": 5, "b": 5.5, "c": "red"}])
    assert len(relation) == 5


def test_estimated_bytes_positive(small_relation):
    assert small_relation.estimated_bytes() > 0
    empty = Relation.empty(Schema.from_names(["a"]))
    assert empty.estimated_bytes() == 0


def test_pretty_contains_header_and_rows(small_relation):
    text = small_relation.pretty(max_rows=2)
    assert "a" in text.splitlines()[0]
    assert "(4 rows total)" in text


def test_concat_checks_schema(small_relation):
    doubled = concat([small_relation, small_relation])
    assert len(doubled) == 8
    with pytest.raises(SchemaError):
        concat([small_relation, Relation.from_rows([{"other": 1}])])
    with pytest.raises(SchemaError):
        concat([])
