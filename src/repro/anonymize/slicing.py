"""Column-wise anonymization: slicing [LLZM12].

Slicing partitions the attributes into column groups (correlated attributes
stay together), partitions the tuples into buckets of at least k rows and then
randomly permutes the values of each column group *within* each bucket.  The
marginal distributions inside a bucket are preserved — the association between
the quasi-identifier group and the sensitive group is broken.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.table import Relation


@dataclass
class SlicingResult:
    """Outcome of a slicing run."""

    relation: Relation
    column_groups: List[List[str]]
    bucket_size: int
    buckets: int


class Slicer:
    """Slicing anonymizer."""

    def __init__(self, bucket_size: int = 5, seed: Optional[int] = None) -> None:
        if bucket_size < 2:
            raise ValueError("bucket_size must be at least 2")
        self.bucket_size = bucket_size
        self._rng = random.Random(seed)

    def anonymize(
        self,
        relation: Relation,
        column_groups: Sequence[Sequence[str]],
        sort_by: Optional[str] = None,
    ) -> SlicingResult:
        """Slice ``relation``.

        Args:
            relation: Input relation.
            column_groups: The column groups to permute independently.  Each
                group is permuted as a unit so intra-group correlations
                survive; columns not listed in any group stay untouched.
            sort_by: Optional column used to order tuples before bucketing
                (keeps buckets temporally local for stream data).
        """
        groups = [
            [name for name in group if name in relation.schema] for group in column_groups
        ]
        groups = [group for group in groups if group]
        rows = relation.to_dicts()
        if sort_by is not None and sort_by in relation.schema:
            rows.sort(key=lambda row: _sort_key(row.get(sort_by)))

        bucket_count = 0
        for start in range(0, len(rows), self.bucket_size):
            bucket = rows[start : start + self.bucket_size]
            if len(bucket) < 2:
                continue
            bucket_count += 1
            for group in groups:
                self._permute_group(bucket, group)

        sliced = Relation(schema=relation.schema, rows=rows, name=relation.name or "sliced")
        return SlicingResult(
            relation=sliced,
            column_groups=[list(group) for group in groups],
            bucket_size=self.bucket_size,
            buckets=bucket_count,
        )

    def _permute_group(self, bucket: List[Dict[str, Any]], group: List[str]) -> None:
        values = [tuple(row.get(name) for name in group) for row in bucket]
        permutation = list(range(len(bucket)))
        self._rng.shuffle(permutation)
        for target_index, source_index in enumerate(permutation):
            for name, value in zip(group, values[source_index]):
                bucket[target_index][name] = value


def default_column_groups(
    relation: Relation,
    quasi_identifiers: Sequence[str],
    sensitive: Sequence[str],
) -> List[List[str]]:
    """The canonical two-group slicing layout: QI group and sensitive group."""
    qi_group = [name for name in quasi_identifiers if name in relation.schema]
    sensitive_group = [
        name for name in sensitive if name in relation.schema and name not in qi_group
    ]
    groups = []
    if qi_group:
        groups.append(qi_group)
    if sensitive_group:
        groups.append(sensitive_group)
    return groups


def _sort_key(value: Any) -> Any:
    if value is None:
        return float("-inf")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return str(value)
