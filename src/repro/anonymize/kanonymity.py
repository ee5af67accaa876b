"""Tuple-wise anonymization: k-anonymity via Mondrian-style partitioning.

A relation is k-anonymous w.r.t. its quasi-identifiers when every combination
of quasi-identifier values occurs at least k times [Sam01].  The anonymizer
below uses the greedy multidimensional (Mondrian) strategy: recursively split
the data on the quasi-identifier with the widest normalised range, stop when a
partition cannot be split without dropping below k rows, and generalize every
quasi-identifier value of a partition to the partition's value range.
Partitions that end up smaller than k (possible with many identical values)
are suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.schema import Schema, ColumnDef
from repro.engine.table import Relation
from repro.engine.types import DataType


@dataclass
class KAnonymityResult:
    """Outcome of a k-anonymization run."""

    relation: Relation
    k: int
    quasi_identifiers: List[str]
    partitions: int
    suppressed_rows: int

    @property
    def satisfied(self) -> bool:
        """True when the output really is k-anonymous."""
        return is_k_anonymous(self.relation, self.quasi_identifiers, self.k)


def is_k_anonymous(relation: Relation, quasi_identifiers: Sequence[str], k: int) -> bool:
    """Check the k-anonymity property of ``relation``."""
    if len(relation) == 0:
        return True
    counts: Dict[Tuple, int] = {}
    for row in relation.rows:
        key = tuple(str(row.get(name)) for name in quasi_identifiers)
        counts[key] = counts.get(key, 0) + 1
    return all(count >= k for count in counts.values())


class KAnonymizer:
    """Mondrian-style k-anonymizer."""

    def __init__(self, k: int = 5, suppress_small_groups: bool = True) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.suppress_small_groups = suppress_small_groups

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def anonymize(
        self, relation: Relation, quasi_identifiers: Sequence[str]
    ) -> KAnonymityResult:
        """Return a k-anonymous version of ``relation``."""
        quasi_identifiers = [name for name in quasi_identifiers if name in relation.schema]
        if not quasi_identifiers or len(relation) == 0:
            return KAnonymityResult(
                relation=relation.copy(),
                k=self.k,
                quasi_identifiers=list(quasi_identifiers),
                partitions=1 if len(relation) else 0,
                suppressed_rows=0,
            )

        indexed_rows = list(enumerate(relation.to_dicts()))
        partitions = self._partition(indexed_rows, quasi_identifiers)

        output_rows: List[Tuple[int, Dict[str, Any]]] = []
        suppressed = 0
        kept_partitions = 0
        for partition in partitions:
            if len(partition) < self.k:
                if self.suppress_small_groups:
                    suppressed += len(partition)
                    continue
            kept_partitions += 1
            generalized = self._generalize_partition(partition, quasi_identifiers)
            output_rows.extend(generalized)

        # Preserve the original row order (metrics compare positionally).
        output_rows.sort(key=lambda pair: pair[0])
        schema = self._generalized_schema(relation.schema, quasi_identifiers)
        anonymized = Relation(
            schema=schema,
            rows=[row for _, row in output_rows],
            name=relation.name or "k_anonymous",
        )
        return KAnonymityResult(
            relation=anonymized,
            k=self.k,
            quasi_identifiers=list(quasi_identifiers),
            partitions=kept_partitions,
            suppressed_rows=suppressed,
        )

    # ------------------------------------------------------------------
    # Mondrian partitioning
    # ------------------------------------------------------------------
    def _partition(
        self,
        rows: List[Tuple[int, Dict[str, Any]]],
        quasi_identifiers: Sequence[str],
        sorted_by: Optional[str] = None,
    ) -> List[List[Tuple[int, Dict[str, Any]]]]:
        if len(rows) < 2 * self.k:
            return [rows]
        dimension = self._widest_dimension(rows, quasi_identifiers)
        if dimension is None:
            return [rows]
        # Slices of a sorted list stay sorted, so when the recursion keeps
        # splitting on the same dimension the parent's sort is reused.
        if dimension == sorted_by:
            ordered = rows
        else:
            ordered = sorted(rows, key=lambda pair: _sort_key(pair[1].get(dimension)))
        middle = len(ordered) // 2
        # Move the split point so that equal values stay in one partition.
        split_value = _sort_key(ordered[middle][1].get(dimension))
        left_end = middle
        while left_end < len(ordered) and _sort_key(ordered[left_end][1].get(dimension)) == split_value:
            left_end += 1
        if left_end >= len(ordered) or left_end < self.k or len(ordered) - left_end < self.k:
            left_end = middle
            if left_end < self.k or len(ordered) - left_end < self.k:
                return [rows]
        left = ordered[:left_end]
        right = ordered[left_end:]
        if not left or not right:
            return [rows]
        return self._partition(left, quasi_identifiers, sorted_by=dimension) + self._partition(
            right, quasi_identifiers, sorted_by=dimension
        )

    @staticmethod
    def _widest_dimension(
        rows: List[Tuple[int, Dict[str, Any]]],
        quasi_identifiers: Sequence[str],
    ) -> Optional[str]:
        # One pass over the rows accumulates every QID's span simultaneously
        # instead of re-scanning the whole partition per candidate dimension.
        # Numeric spans track min/max incrementally; a dimension that turns
        # out categorical falls back to counting distinct strings over the
        # values collected in the same pass.
        minima: Dict[str, float] = {}
        maxima: Dict[str, float] = {}
        numeric: Dict[str, bool] = {name: True for name in quasi_identifiers}
        values: Dict[str, List[Any]] = {name: [] for name in quasi_identifiers}
        for _, row in rows:
            for name in quasi_identifiers:
                value = row.get(name)
                if value is None:
                    continue
                values[name].append(value)
                if numeric[name]:
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        number = float(value)
                        if name not in minima or number < minima[name]:
                            minima[name] = number
                        if name not in maxima or number > maxima[name]:
                            maxima[name] = number
                    else:
                        numeric[name] = False
        best: Optional[str] = None
        best_spread = -1.0
        for name in quasi_identifiers:
            if not values[name]:
                continue
            if numeric[name]:
                spread = maxima[name] - minima[name]
            else:
                spread = float(len({str(value) for value in values[name]}))
            if spread > best_spread:
                best_spread = spread
                best = name
        if best_spread <= 0:
            return None
        return best

    # ------------------------------------------------------------------
    # generalization
    # ------------------------------------------------------------------
    def _generalize_partition(
        self,
        partition: List[Tuple[int, Dict[str, Any]]],
        quasi_identifiers: Sequence[str],
    ) -> List[Tuple[int, Dict[str, Any]]]:
        summaries: Dict[str, Any] = {}
        for name in quasi_identifiers:
            values = [row.get(name) for _, row in partition if row.get(name) is not None]
            summaries[name] = _summarize_values(values)
        generalized: List[Tuple[int, Dict[str, Any]]] = []
        for index, row in partition:
            new_row = dict(row)
            for name in quasi_identifiers:
                new_row[name] = summaries[name]
            generalized.append((index, new_row))
        return generalized

    @staticmethod
    def _generalized_schema(schema: Schema, quasi_identifiers: Sequence[str]) -> Schema:
        lowered = {name.lower() for name in quasi_identifiers}
        columns = []
        for column in schema:
            if column.name.lower() in lowered:
                columns.append(
                    ColumnDef(
                        name=column.name,
                        data_type=DataType.TEXT,
                        nullable=column.nullable,
                        description=column.description,
                        identifying=column.identifying,
                        quasi_identifier=column.quasi_identifier,
                        sensitive=column.sensitive,
                    )
                )
            else:
                columns.append(column)
        return Schema(columns)


def _summarize_values(values: List[Any]) -> Any:
    if not values:
        return None
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        low, high = min(values), max(values)
        if low == high:
            return f"{float(low):g}"
        return f"[{float(low):g},{float(high):g}]"
    distinct = sorted({str(v) for v in values})
    if len(distinct) == 1:
        return distinct[0]
    return "{" + ",".join(distinct) + "}"


def _sort_key(value: Any) -> Any:
    if value is None:
        return float("-inf")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return str(value)
