"""Tests for quasi-identifier detection and the anonymization algorithms."""

import itertools

import pytest

from repro.anonymize import (
    Anonymizer,
    KAnonymizer,
    LaplaceMechanism,
    Slicer,
    detect_quasi_identifiers,
    is_k_anonymous,
    private_aggregate,
)
from repro.anonymize.dp import perturb_numeric_columns
from repro.anonymize.qid import QuasiIdentifierReport
from repro.anonymize.slicing import default_column_groups
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from tests.conftest import make_sensor_relation


# ---------------------------------------------------------------------------
# quasi-identifier detection
# ---------------------------------------------------------------------------


def test_schema_annotations_are_respected(sensor_relation):
    report = detect_quasi_identifiers(sensor_relation)
    assert "person_id" in report.identifying
    assert "x" in report.quasi_identifiers and "y" in report.quasi_identifiers
    assert "z" in report.sensitive
    assert "person_id" in report.protected_columns


def test_uniqueness_detection_flags_unique_columns():
    relation = Relation.from_rows(
        [{"idlike": i, "constant": 1} for i in range(50)]
    )
    report = detect_quasi_identifiers(relation, uniqueness_threshold=0.5)
    assert "idlike" in report.quasi_identifiers
    assert "constant" not in report.quasi_identifiers
    assert report.uniqueness["idlike"] == 1.0


def test_risky_combinations_detected():
    relation = Relation.from_rows(
        [{"a": i % 10, "b": i // 10, "c": 0} for i in range(100)]
    )
    report = detect_quasi_identifiers(relation, combination_threshold=0.9)
    assert ("a", "b") in report.risky_combinations
    assert "a" in report.quasi_identifiers and "b" in report.quasi_identifiers


def test_exclude_columns():
    relation = Relation.from_rows([{"t": i} for i in range(20)])
    report = detect_quasi_identifiers(relation, exclude=["t"])
    assert report.quasi_identifiers == []


# Row-at-a-time reference copies of the quasi-identifier scores: every
# value compares by ``str`` through ``row.get``.


def _reference_uniqueness(relation, column):
    if len(relation) == 0:
        return 0.0
    counts = {}
    for value in relation.column_values(column):
        counts[str(value)] = counts.get(str(value), 0) + 1
    return sum(count for count in counts.values() if count == 1) / len(relation)


def _reference_ratio(relation, columns):
    if len(relation) == 0:
        return 0.0
    seen = {tuple(str(row.get(name)) for name in columns) for row in relation.rows}
    return len(seen) / len(relation)


def _reference_detect(relation, uniqueness_threshold, combination_threshold, size):
    report = QuasiIdentifierReport()
    candidates = []
    for column in relation.schema:
        if column.identifying:
            report.identifying.append(column.name)
            continue
        if column.sensitive:
            report.sensitive.append(column.name)
        if column.quasi_identifier:
            report.quasi_identifiers.append(column.name)
        candidates.append(column.name)
    for name in candidates:
        report.uniqueness[name] = _reference_uniqueness(relation, name)
        if (
            report.uniqueness[name] >= uniqueness_threshold
            and name not in report.quasi_identifiers
        ):
            report.quasi_identifiers.append(name)
    for width in range(2, size + 1):
        for combination in itertools.combinations(candidates, width):
            if _reference_ratio(relation, combination) < combination_threshold:
                continue
            if any(
                _reference_ratio(relation, [name]) >= combination_threshold
                for name in combination
            ):
                continue
            report.risky_combinations.append(combination)
            for name in combination:
                if name not in report.quasi_identifiers:
                    report.quasi_identifiers.append(name)
    return report


def _qi_relations():
    mixed = [1, 1.0, "1", True, None, "None", 2, 2.5, "x", False]
    as_ints = [1, 1, None, 2, 3, 3, None, 4, 5, 1]
    columns = {
        "mixed_text": (DataType.TEXT, mixed),
        "mixed_int": (DataType.INTEGER, mixed),
        "typed_int": (DataType.INTEGER, as_ints),
        "list_int": (DataType.TEXT, as_ints),
        "typed_float": (DataType.FLOAT, [float(v) if v is not None else None for v in as_ints]),
        "flag": (DataType.BOOLEAN, [index % 3 == 0 for index in range(10)]),
        "const": (DataType.INTEGER, [7] * 10),
    }
    schema = Schema([ColumnDef(name=name, data_type=kind) for name, (kind, _) in columns.items()])
    rows = [
        {name: values[index] for name, (_, values) in columns.items()} for index in range(10)
    ]
    relation = Relation(schema=schema, rows=rows, name="q")
    assert type(relation.column_array("typed_int")).__name__ == "TypedColumn"
    assert isinstance(relation.column_array("list_int"), list)
    assert isinstance(relation.column_array("mixed_int"), list)
    return {
        "mixed": relation,
        "empty": Relation(schema=schema, rows=[], name="q"),
        "sensor": make_sensor_relation(60),
    }


@pytest.mark.parametrize("name", ["mixed", "empty", "sensor"])
def test_quasi_identifier_scores_equal_the_row_reference(name):
    relation = _qi_relations()[name]
    for uniqueness, combination, size in [
        (0.5, 0.9, 2),
        (0.0, 0.0, 2),
        (1.0, 0.5, 3),
        (0.3, 0.6, 1),
    ]:
        report = detect_quasi_identifiers(
            relation,
            uniqueness_threshold=uniqueness,
            combination_threshold=combination,
            max_combination_size=size,
        )
        assert report == _reference_detect(relation, uniqueness, combination, size)


# ---------------------------------------------------------------------------
# k-anonymity
# ---------------------------------------------------------------------------


def test_k_anonymizer_produces_k_anonymous_output():
    relation = make_sensor_relation(rows=300, seed=1)
    result = KAnonymizer(k=5).anonymize(relation, ["x", "y"])
    assert result.satisfied
    assert is_k_anonymous(result.relation, ["x", "y"], 5)
    assert len(result.relation) + result.suppressed_rows == len(relation)
    assert result.partitions >= 1


def test_k_anonymizer_preserves_non_qi_columns():
    relation = make_sensor_relation(rows=100, seed=2)
    result = KAnonymizer(k=4).anonymize(relation, ["x", "y"])
    for original, anonymized in zip(relation.rows, result.relation.rows):
        assert anonymized["t"] == original["t"]
        assert anonymized["z"] == original["z"]


def test_k_anonymizer_trivial_cases():
    relation = make_sensor_relation(rows=6, seed=3)
    # Without quasi-identifiers nothing changes.
    unchanged = KAnonymizer(k=3).anonymize(relation, [])
    assert unchanged.relation.to_dicts() == relation.to_dicts()
    # k larger than the relation: the single undersized partition is suppressed
    # (6 identical rows can never satisfy k=10).
    result = KAnonymizer(k=10).anonymize(relation, ["x"])
    assert len(result.relation) == 0
    assert result.suppressed_rows == 6
    # Without suppression the rows survive fully generalized instead.
    kept = KAnonymizer(k=10, suppress_small_groups=False).anonymize(relation, ["x"])
    assert len(kept.relation) == 6
    assert len({row["x"] for row in kept.relation}) == 1


def test_k_anonymizer_rejects_invalid_k():
    with pytest.raises(ValueError):
        KAnonymizer(k=0)


def test_is_k_anonymous_detects_violations():
    relation = Relation.from_rows([{"q": 1}, {"q": 1}, {"q": 2}])
    assert is_k_anonymous(relation, ["q"], 1)
    assert not is_k_anonymous(relation, ["q"], 2)
    assert is_k_anonymous(Relation.from_rows([]), ["q"], 5)


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------


def test_slicing_preserves_marginals_but_breaks_association():
    relation = make_sensor_relation(rows=200, seed=4)
    groups = [["x", "y"], ["z"]]
    result = Slicer(bucket_size=10, seed=0).anonymize(relation, groups, sort_by="t")
    assert len(result.relation) == len(relation)
    # Marginal multisets of each column are preserved.
    for column in ("x", "y", "z"):
        assert sorted(
            v for v in result.relation.column_values(column) if v is not None
        ) == sorted(v for v in relation.column_values(column) if v is not None)
    # But the per-row association with z changed for a noticeable share of rows.
    changed = sum(
        1
        for before, after in zip(
            sorted(relation.to_dicts(), key=lambda r: r["t"]),
            result.relation.to_dicts(),
        )
        if before["z"] != after["z"]
    )
    assert changed > len(relation) * 0.3


def test_slicing_keeps_column_group_intact():
    relation = make_sensor_relation(rows=60, seed=5)
    pairs_before = {(row["x"], row["y"]) for row in relation.rows}
    result = Slicer(bucket_size=6, seed=1).anonymize(relation, [["x", "y"]])
    pairs_after = {(row["x"], row["y"]) for row in result.relation.rows}
    assert pairs_after == pairs_before


def test_slicer_validation_and_default_groups(sensor_relation):
    with pytest.raises(ValueError):
        Slicer(bucket_size=1)
    groups = default_column_groups(sensor_relation, ["x", "y"], ["z", "x"])
    assert groups == [["x", "y"], ["z"]]


# ---------------------------------------------------------------------------
# differential privacy
# ---------------------------------------------------------------------------


def test_laplace_mechanism_parameters():
    mechanism = LaplaceMechanism(epsilon=2.0, sensitivity=4.0, seed=0)
    assert mechanism.scale == 2.0
    values = [mechanism.noise() for _ in range(200)]
    assert abs(sum(values) / len(values)) < 1.0
    with pytest.raises(ValueError):
        LaplaceMechanism(epsilon=0)
    with pytest.raises(ValueError):
        LaplaceMechanism(sensitivity=0)


def test_private_aggregates_are_close_for_large_epsilon():
    values = [1.0] * 100
    assert private_aggregate(values, "count", epsilon=100, seed=1) == pytest.approx(100, abs=2)
    assert private_aggregate(values, "sum", epsilon=100, seed=1) == pytest.approx(100, abs=2)
    assert private_aggregate(values, "avg", epsilon=100, seed=1) == pytest.approx(1.0, abs=0.2)
    assert private_aggregate([], "avg") == 0.0
    with pytest.raises(ValueError):
        private_aggregate(values, "median")


def test_perturb_numeric_columns_changes_values_but_not_shape(sensor_relation):
    perturbed = perturb_numeric_columns(sensor_relation, ["z"], epsilon=1.0, seed=7)
    assert len(perturbed) == len(sensor_relation)
    before = sensor_relation.column_values("z")
    after = perturbed.column_values("z")
    assert any(a != b for a, b in zip(before, after))
    # Non-selected columns untouched.
    assert perturbed.column_values("x") == sensor_relation.column_values("x")


# ---------------------------------------------------------------------------
# postprocessor façade
# ---------------------------------------------------------------------------


def test_anonymizer_kanonymity_outcome(sensor_relation):
    outcome = Anonymizer(algorithm="k_anonymity", k=5).anonymize(sensor_relation)
    assert outcome.applied
    assert outcome.information_loss is not None
    assert outcome.information_loss.direct_distance > 0
    assert is_k_anonymous(
        outcome.relation,
        [c for c in ("x", "y") if c in outcome.relation.schema],
        5,
    )
    assert "k_anonymity" in outcome.summary()


@pytest.mark.parametrize("algorithm", ["k_anonymity", "slicing", "differential_privacy"])
def test_information_loss_is_computed_on_first_read(sensor_relation, monkeypatch, algorithm):
    """``anonymize`` does not compute the loss; the first read does, once,
    and gives what the summary of the two relations gives."""
    import repro.anonymize.anonymizer as anonymizer_module

    calls = []
    summary = anonymizer_module.information_loss_summary

    def counted(original, modified):
        calls.append(1)
        return summary(original, modified)

    monkeypatch.setattr(anonymizer_module, "information_loss_summary", counted)
    outcome = Anonymizer(algorithm=algorithm, k=5, seed=0).anonymize(sensor_relation)
    assert outcome.applied and not calls
    eager = summary(sensor_relation, outcome.relation)
    assert outcome.information_loss == eager
    assert outcome.information_loss is outcome.information_loss
    assert len(calls) == 1
    assert f"DD={eager.direct_distance}" in outcome.summary()
    deferred = Anonymizer(minimum_cpu_power=1.0).anonymize(sensor_relation, node_cpu_power=0.1)
    assert deferred.information_loss is None and len(calls) == 1


def test_anonymizer_defers_on_weak_nodes(sensor_relation):
    outcome = Anonymizer(algorithm="k_anonymity", minimum_cpu_power=1.0).anonymize(
        sensor_relation, node_cpu_power=0.1
    )
    assert not outcome.applied
    assert outcome.relation is sensor_relation


def test_anonymizer_algorithm_choice(sensor_relation):
    anonymizer = Anonymizer(k=5)
    assert anonymizer.choose_algorithm(sensor_relation, aggregated=False) == "slicing"
    small = Relation(schema=sensor_relation.schema, rows=sensor_relation.to_dicts()[:3])
    assert anonymizer.choose_algorithm(small, aggregated=True) == "differential_privacy"
    assert anonymizer.choose_algorithm(sensor_relation, aggregated=True) == "k_anonymity"


def test_anonymizer_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        Anonymizer(algorithm="rot13")


def test_anonymizer_none_and_empty_input(sensor_relation):
    assert not Anonymizer(algorithm="none").anonymize(sensor_relation).applied
    empty = Relation(schema=sensor_relation.schema, rows=[])
    assert not Anonymizer().anonymize(empty).applied


def test_anonymizer_differential_privacy_and_slicing_paths(sensor_relation):
    dp = Anonymizer(algorithm="differential_privacy", epsilon=2.0, seed=0).anonymize(
        sensor_relation
    )
    assert dp.applied
    assert dp.information_loss.kl_divergence_mean >= 0
    sliced = Anonymizer(algorithm="slicing", k=5, seed=0).anonymize(sensor_relation)
    assert sliced.applied
    assert len(sliced.relation) == len(sensor_relation)
