"""Quasi-identifier detection.

The summary of the paper names "detecting quasi-identifiers" as the first step
of the postprocessing technique.  Detection combines two signals:

* schema annotations (columns flagged ``identifying`` / ``quasi_identifier`` /
  ``sensitive`` in the :class:`~repro.engine.schema.ColumnDef`), and
* a data-driven uniqueness analysis: columns (and small column combinations)
  whose value combinations identify a large fraction of rows are quasi-
  identifiers even without annotation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.engine.table import Relation


@dataclass
class QuasiIdentifierReport:
    """Outcome of the quasi-identifier analysis."""

    identifying: List[str] = field(default_factory=list)
    quasi_identifiers: List[str] = field(default_factory=list)
    sensitive: List[str] = field(default_factory=list)
    #: Uniqueness score per column: fraction of rows with a unique value.
    uniqueness: Dict[str, float] = field(default_factory=dict)
    #: Column combinations (up to pairs) whose combination is nearly unique.
    risky_combinations: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def protected_columns(self) -> List[str]:
        """All columns that require protection (identifying + QI + sensitive)."""
        ordered: List[str] = []
        for name in self.identifying + self.quasi_identifiers + self.sensitive:
            if name not in ordered:
                ordered.append(name)
        return ordered


def _string_column(relation: Relation, name: str) -> List[str]:
    """``str`` of every value of ``name``; an absent column reads as NULL."""
    column = relation.column_array(name)
    if column is None:
        return ["None"] * len(relation)
    return list(map(str, column))


def _uniqueness(strings: List[str]) -> float:
    """Fraction of rows whose value appears exactly once."""
    if not strings:
        return 0.0
    counts = Counter(strings)
    return sum(count for count in counts.values() if count == 1) / len(strings)


def detect_quasi_identifiers(
    relation: Relation,
    uniqueness_threshold: float = 0.5,
    combination_threshold: float = 0.9,
    max_combination_size: int = 2,
    exclude: Sequence[str] = (),
) -> QuasiIdentifierReport:
    """Classify the columns of ``relation`` for anonymization purposes.

    Args:
        relation: The relation to analyse.
        uniqueness_threshold: Columns whose per-value uniqueness exceeds this
            fraction count as quasi-identifiers even without schema flags.
        combination_threshold: Column combinations whose distinct-combination
            ratio exceeds this fraction are reported as risky.
        max_combination_size: Largest combination size examined.
        exclude: Columns to skip entirely (e.g. the timestamp).
    """
    report = QuasiIdentifierReport()
    excluded = {name.lower() for name in exclude}

    candidate_columns: List[str] = []
    for column in relation.schema:
        if column.name.lower() in excluded:
            continue
        if column.identifying:
            report.identifying.append(column.name)
            continue
        if column.sensitive:
            report.sensitive.append(column.name)
        if column.quasi_identifier:
            report.quasi_identifiers.append(column.name)
            candidate_columns.append(column.name)
            continue
        candidate_columns.append(column.name)

    # Each column's values as strings, once: every single-column score and
    # every combination below reads these arrays.
    strings = {name: _string_column(relation, name) for name in candidate_columns}
    for name in candidate_columns:
        uniqueness = _uniqueness(strings[name])
        report.uniqueness[name] = uniqueness
        if uniqueness >= uniqueness_threshold and name not in report.quasi_identifiers:
            report.quasi_identifiers.append(name)

    rows = len(relation)
    if rows == 0:
        # Every ratio is 0.0, so no combination can be flagged.
        return report
    single_ratio = {
        name: len(set(values)) / rows for name, values in strings.items()
    }

    # Column combinations: a pair of individually harmless columns may still
    # identify individuals (e.g. x and y position together).  Combinations
    # whose uniqueness is already explained by a single member column are
    # skipped so that harmless companions (a constant column next to an id)
    # are not flagged.
    for size in range(2, max_combination_size + 1):
        for combination in itertools.combinations(candidate_columns, size):
            ratio = len(set(zip(*(strings[name] for name in combination)))) / rows
            if ratio < combination_threshold:
                continue
            if any(single_ratio[name] >= combination_threshold for name in combination):
                continue
            report.risky_combinations.append(combination)
            for name in combination:
                if name not in report.quasi_identifiers:
                    report.quasi_identifiers.append(name)
    return report
