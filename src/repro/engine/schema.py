"""Relation schemas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine.errors import SchemaError
from repro.engine.types import DataType, infer_type


@dataclass(frozen=True)
class ColumnDef:
    """A single column of a relation schema."""

    name: str
    data_type: DataType = DataType.FLOAT
    nullable: bool = True
    description: str = ""
    #: Marks columns that identify a person directly (name, tag id, ...).
    identifying: bool = False
    #: Marks columns that are quasi-identifiers in the anonymization sense.
    quasi_identifier: bool = False
    #: Marks sensitive columns whose values need protection (health, position).
    sensitive: bool = False


@dataclass
class Schema:
    """An ordered collection of :class:`ColumnDef`.

    Column lookup is case-insensitive; the original spelling is preserved for
    output.
    """

    columns: List[ColumnDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(f"Duplicate column name: {column.name}")
            seen.add(lowered)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_names(cls, names: Sequence[str], data_type: DataType = DataType.FLOAT) -> "Schema":
        """Build a schema where every column has the same type."""
        return cls([ColumnDef(name=name, data_type=data_type) for name in names])

    @classmethod
    def infer(cls, rows: Iterable[Mapping[str, Any]], names: Optional[Sequence[str]] = None) -> "Schema":
        """Infer a schema from sample rows.

        The first non-null value of each column decides its type; columns with
        only nulls default to FLOAT.
        """
        rows = list(rows)
        if names is None:
            names = []
            for row in rows:
                for key in row:
                    if key not in names:
                        names.append(key)
        columns = []
        for name in names:
            data_type = DataType.FLOAT
            for row in rows:
                value = row.get(name)
                if value is not None:
                    data_type = infer_type(value)
                    break
            columns.append(ColumnDef(name=name, data_type=data_type))
        return cls(columns)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return any(column.name.lower() == name.lower() for column in self.columns)

    def column(self, name: str) -> ColumnDef:
        """Return the column definition with the given name (case-insensitive)."""
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise SchemaError(f"Unknown column: {name}")

    # ------------------------------------------------------------------
    # derived schemas
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema restricted to ``names`` (keeping their order)."""
        return Schema([self.column(name) for name in names])

    def without(self, names: Sequence[str]) -> "Schema":
        """Return a schema excluding ``names``."""
        excluded = {name.lower() for name in names}
        return Schema([column for column in self.columns if column.name.lower() not in excluded])

    def merge(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used for joins); duplicate names collide."""
        return Schema(list(self.columns) + list(other.columns))

    def classification(self) -> Dict[str, List[str]]:
        """Group column names by privacy classification (used by anonymizers)."""
        return {
            "identifying": [c.name for c in self.columns if c.identifying],
            "quasi_identifiers": [c.name for c in self.columns if c.quasi_identifier],
            "sensitive": [c.name for c in self.columns if c.sensitive],
            "other": [
                c.name
                for c in self.columns
                if not (c.identifying or c.quasi_identifier or c.sensitive)
            ],
        }
