"""Anonymization quality measures and the combined information-loss summary."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.engine.table import Relation
from repro.metrics.distance import direct_distance
from repro.metrics.divergence import kl_divergence_relation


def _equivalence_classes(relation: Relation, quasi_identifiers: Sequence[str]) -> Dict[tuple, int]:
    classes: Dict[tuple, int] = {}
    for row in relation.rows:
        key = tuple(str(row.get(name)) for name in quasi_identifiers)
        classes[key] = classes.get(key, 0) + 1
    return classes


def average_equivalence_class_size(
    relation: Relation, quasi_identifiers: Sequence[str]
) -> float:
    """Mean size of the equivalence classes induced by the quasi-identifiers."""
    classes = _equivalence_classes(relation, quasi_identifiers)
    if not classes:
        return 0.0
    return len(relation) / len(classes)


def discernibility_metric(relation: Relation, quasi_identifiers: Sequence[str]) -> int:
    """The discernibility metric C_DM: sum of squared equivalence-class sizes."""
    classes = _equivalence_classes(relation, quasi_identifiers)
    return sum(size * size for size in classes.values())


def suppression_ratio(original: Relation, anonymized: Relation) -> float:
    """Fraction of rows removed (suppressed) by the anonymization."""
    if len(original) == 0:
        return 0.0
    return max(0, len(original) - len(anonymized)) / len(original)


@dataclass
class InformationLossSummary:
    """Combined information-loss report used by reports and benchmarks."""

    direct_distance: int
    direct_distance_ratio: float
    quality: float
    kl_divergence_mean: float
    kl_divergence_per_column: Dict[str, float]
    suppression_ratio: float
    rows_original: int
    rows_anonymized: int


def information_loss_summary(
    original: Relation,
    anonymized: Relation,
    columns: Optional[Sequence[str]] = None,
) -> InformationLossSummary:
    """Compute the full information-loss summary between R and R'."""
    dd = direct_distance(original, anonymized, columns=columns)
    kl = kl_divergence_relation(original, anonymized, columns=columns)
    per_column = {name: value for name, value in kl.items() if name != "__mean__"}
    return InformationLossSummary(
        direct_distance=dd.changed_cells,
        direct_distance_ratio=dd.ratio,
        quality=dd.quality,
        kl_divergence_mean=kl["__mean__"],
        kl_divergence_per_column=per_column,
        suppression_ratio=suppression_ratio(original, anonymized),
        rows_original=len(original),
        rows_anonymized=len(anonymized),
    )
