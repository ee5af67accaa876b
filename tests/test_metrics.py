"""Tests for the information-loss metrics (Direct Distance, KL divergence)."""

import pytest

from repro.engine.table import Relation
from repro.metrics import (
    average_equivalence_class_size,
    direct_distance,
    discernibility_metric,
    information_loss_summary,
    kl_divergence,
    kl_divergence_relation,
    suppression_ratio,
    value_distribution,
)


@pytest.fixture
def original():
    return Relation.from_rows(
        [
            {"x": 1.0, "y": 2.0, "c": "a"},
            {"x": 2.0, "y": 3.0, "c": "b"},
            {"x": 3.0, "y": 4.0, "c": "a"},
            {"x": 4.0, "y": 5.0, "c": "b"},
        ]
    )


def test_direct_distance_identical_relations(original):
    result = direct_distance(original, original.copy())
    assert result.changed_cells == 0
    assert result.ratio == 0.0
    assert result.quality == 1.0


def test_direct_distance_counts_changed_cells(original):
    modified = original.copy()
    modified.rows[0]["x"] = 99.0
    modified.rows[1]["c"] = "z"
    result = direct_distance(original, modified)
    assert result.changed_cells == 2
    assert result.total_cells == 12
    assert result.ratio == pytest.approx(2 / 12)
    assert result.per_column["x"] == 1
    assert result.per_column["c"] == 1


def test_direct_distance_missing_rows_count_fully(original):
    truncated = Relation(schema=original.schema, rows=original.to_dicts()[:2])
    result = direct_distance(original, truncated)
    assert result.changed_cells == 2 * 3  # two missing rows, three columns each


def test_direct_distance_numeric_tolerance(original):
    modified = original.copy()
    modified.rows[0]["x"] = 1.0001
    assert direct_distance(original, modified).changed_cells == 1
    assert direct_distance(original, modified, numeric_tolerance=0.01).changed_cells == 0


def test_direct_distance_restricted_columns(original):
    modified = original.copy()
    modified.rows[0]["x"] = 99.0
    result = direct_distance(original, modified, columns=["c"])
    assert result.changed_cells == 0


def test_direct_distance_formula_matches_paper_definition(original):
    """DD(R,R') must equal the double sum of per-cell indicator distances."""
    modified = original.copy()
    for row in modified.rows:
        row["y"] = 0.0
    result = direct_distance(original, modified)
    n, m = len(original), len(original.schema.names)
    manual = sum(
        1
        for i in range(n)
        for j, name in enumerate(original.schema.names)
        if original.rows[i].get(name) != modified.rows[i].get(name)
    )
    assert result.changed_cells == manual
    assert result.total_cells == n * m


def _row_wise_direct_distance(original, anonymized, columns=None, numeric_tolerance=0.0):
    """The positional definition cell by cell, through row views: the
    reference the column-wise implementation must reproduce."""

    def equal(left, right):
        if left is None and right is None:
            return True
        if left is None or right is None:
            return False
        if (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and not isinstance(left, bool)
            and not isinstance(right, bool)
        ):
            return abs(float(left) - float(right)) <= numeric_tolerance
        return left == right

    names = list(columns) if columns is not None else list(original.schema.names)
    per_column = {name: 0 for name in names}
    for index, row in enumerate(original.rows):
        other = anonymized.rows[index] if index < len(anonymized.rows) else None
        for name in names:
            if not equal(row.get(name), other.get(name) if other is not None else None):
                per_column[name] += 1
    return sum(per_column.values()), len(original.rows) * len(names), per_column


@pytest.mark.parametrize("tolerance", [0.0, 0.5])
@pytest.mark.parametrize("kept", [6, 4, 0, 8])
def test_direct_distance_matches_row_wise_reference(kept, tolerance):
    """Suppressed (missing) rows, extra rows, NULLs on either side, bool
    cells that never equal numbers, typed columns and a column the
    anonymized relation lacks all count exactly as the row-wise
    definition does."""
    original = Relation.from_rows(
        [
            {"n": 1, "f": 1.0, "b": True, "s": "a", "g": None},
            {"n": 2, "f": None, "b": False, "s": None, "g": 1},
            {"n": None, "f": 3.25, "b": True, "s": "c", "g": None},
            {"n": 4, "f": 4.0, "b": None, "s": "d", "g": 2},
            {"n": 5, "f": float("inf"), "b": True, "s": "e", "g": None},
            {"n": 6, "f": 6.0, "b": False, "s": "f", "g": 3},
        ]
    )
    changed = [
        {"n": 1, "f": 1.25, "b": 1, "s": "a"},
        {"n": 2.0, "f": None, "b": False, "s": "z"},
        {"n": 3, "f": 3.25, "b": True, "s": None},
        {"n": None, "f": 4.0, "b": None, "s": "d"},
        {"n": True, "f": float("inf"), "b": 1.0, "s": "e"},
        {"n": 6, "f": 6.4, "b": False, "s": "f"},
        {"n": 7, "f": 7.0, "b": True, "s": "g"},
        {"n": 8, "f": 8.0, "b": True, "s": "h"},
    ]
    anonymized = Relation.from_rows(changed[:kept]) if kept else Relation.from_rows(
        [], schema=Relation.from_rows(changed).schema
    )
    for columns in (None, ["s", "b", "g", "n", "missing"], ["n", "n"]):
        result = direct_distance(original, anonymized, columns, numeric_tolerance=tolerance)
        assert (result.changed_cells, result.total_cells, result.per_column) == (
            _row_wise_direct_distance(original, anonymized, columns, tolerance)
        )


def test_value_distribution_numeric_and_categorical():
    numeric = value_distribution([0.0, 0.5, 1.0, 1.0], bins=2)
    assert sum(numeric.values()) == pytest.approx(1.0)
    categorical = value_distribution(["a", "a", "b"])
    assert categorical["a"] == pytest.approx(2 / 3)
    assert value_distribution([]) == {}
    assert value_distribution([None, None]) == {}
    constant = value_distribution([3.0, 3.0])
    assert list(constant.values()) == [1.0]


def test_kl_divergence_properties():
    p = {"a": 0.5, "b": 0.5}
    assert kl_divergence(p, p) == pytest.approx(0.0)
    q = {"a": 0.9, "b": 0.1}
    assert kl_divergence(p, q) > 0
    # Not symmetric in general.
    assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))
    assert kl_divergence({}, q) == 0.0


def test_kl_divergence_relation_zero_for_identical(original):
    per_column = kl_divergence_relation(original, original.copy())
    assert per_column["__mean__"] == pytest.approx(0.0, abs=1e-9)


def test_kl_divergence_relation_detects_distribution_shift(original):
    shifted = original.map_rows(lambda row: {**row, "x": row["x"] + 100})
    per_column = kl_divergence_relation(original, shifted)
    assert per_column["x"] > 0.5
    assert per_column["c"] == pytest.approx(0.0, abs=1e-9)


def test_equivalence_class_metrics():
    relation = Relation.from_rows(
        [{"q": "a"}, {"q": "a"}, {"q": "a"}, {"q": "b"}, {"q": "b"}, {"q": "c"}]
    )
    assert average_equivalence_class_size(relation, ["q"]) == pytest.approx(2.0)
    assert discernibility_metric(relation, ["q"]) == 9 + 4 + 1
    empty = Relation.from_rows([{"q": 1}]).select(lambda r: False)
    assert average_equivalence_class_size(empty, ["q"]) == 0.0


def test_suppression_ratio(original):
    kept = Relation(schema=original.schema, rows=original.to_dicts()[:3])
    assert suppression_ratio(original, kept) == pytest.approx(0.25)
    assert suppression_ratio(original, original) == 0.0


def test_information_loss_summary_shape(original):
    modified = original.copy()
    modified.rows[0]["x"] = 50.0
    summary = information_loss_summary(original, modified)
    assert summary.direct_distance == 1
    assert 0 <= summary.direct_distance_ratio <= 1
    assert summary.quality == pytest.approx(1 - summary.direct_distance_ratio)
    assert summary.kl_divergence_mean >= 0
    assert summary.rows_original == 4
