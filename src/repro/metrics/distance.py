"""The Direct Distance metric of Section 3.2.

The paper defines

.. math::

    DD(R, R') = \\sum_{i=1}^{n} \\sum_{j=1}^{m} distance(i, j)

with ``distance(i, j) = 0`` when the value at row *i*, column *j* is unchanged
and ``1`` otherwise, and calls the ratio of changed values to the total number
of values (``m * n``) the quality of the anonymized result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence

from repro.engine.table import Relation


@dataclass
class DirectDistanceResult:
    """Result of a Direct Distance computation."""

    changed_cells: int
    total_cells: int
    per_column: Dict[str, int] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Fraction of cells that differ (0 = identical, 1 = all changed)."""
        if self.total_cells == 0:
            return 0.0
        return self.changed_cells / self.total_cells

    @property
    def quality(self) -> float:
        """Fraction of cells preserved (the paper's quality of the result)."""
        return 1.0 - self.ratio


def direct_distance(
    original: Relation,
    anonymized: Relation,
    columns: Optional[Sequence[str]] = None,
    numeric_tolerance: float = 0.0,
) -> DirectDistanceResult:
    """Compute DD(R, R') between two relations.

    Rows are compared positionally (the anonymizers of this package preserve
    row order; suppressed rows count as fully changed).  When the anonymized
    relation has fewer rows than the original, the missing rows count as
    changed in every column; extra rows are ignored.

    Args:
        original: The relation before anonymization (R).
        anonymized: The relation after anonymization (R').
        columns: Columns to compare; defaults to the original's columns.
        numeric_tolerance: Two numeric values closer than this tolerance count
            as equal (useful when generalization rounds values).
    """
    names = list(columns) if columns is not None else list(original.schema.names)
    rows = len(original)
    # The anonymized cells aligned with the original's rows: extra rows are
    # dropped and missing ones (suppressed) read as NULL, like a missing
    # column.
    kept = min(rows, len(anonymized))
    missing = [None] * (rows - kept)
    per_column: Dict[str, int] = {name: 0 for name in names}
    changed = 0
    for name in names:
        left = _column(original, name, rows)
        right = _column(anonymized, name, len(anonymized))[:kept] + missing
        differ = rows - sum(map(_values_equal, left, right, repeat(numeric_tolerance)))
        per_column[name] += differ
        changed += differ

    return DirectDistanceResult(
        changed_cells=changed, total_cells=rows * len(names), per_column=per_column
    )


def _column(relation: Relation, name: str, rows: int) -> List:
    """The values of column ``name`` (all NULL when the relation lacks it)."""
    if relation.column_array(name) is None:
        return [None] * rows
    return relation.column_values(name)


def _values_equal(left, right, tolerance: float) -> bool:
    if left is None and right is None:
        return True
    if left is None or right is None:
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) and not isinstance(
        left, bool
    ) and not isinstance(right, bool):
        return abs(float(left) - float(right)) <= tolerance
    return left == right
