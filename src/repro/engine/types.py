"""Column data types and coercion rules."""

from __future__ import annotations

import enum
from datetime import datetime
from typing import Any


class DataType(enum.Enum):
    """The small set of column types needed for sensor data."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"

    @property
    def is_numeric(self) -> bool:
        """Return ``True`` for INTEGER and FLOAT."""
        return self in (DataType.INTEGER, DataType.FLOAT)


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value.

    Booleans are checked before integers because ``bool`` is a subclass of
    ``int`` in Python.
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, datetime):
        return DataType.TIMESTAMP
    return DataType.TEXT


def coerce(value: Any, target: DataType) -> Any:
    """Coerce ``value`` to ``target``; ``None`` always stays ``None``."""
    if value is None:
        return None
    if target is DataType.INTEGER:
        return int(value)
    if target is DataType.FLOAT:
        return float(value)
    if target is DataType.BOOLEAN:
        if isinstance(value, str):
            return value.strip().lower() in {"true", "t", "1", "yes"}
        return bool(value)
    if target is DataType.TEXT:
        return str(value)
    if target is DataType.TIMESTAMP:
        if isinstance(value, datetime):
            return value
        if isinstance(value, (int, float)):
            return datetime.fromtimestamp(value)
        return datetime.fromisoformat(str(value))
    raise ValueError(f"Unknown target type: {target}")


def parse_type_name(name: str) -> DataType:
    """Map a SQL type name (``INT``, ``REAL``, ``VARCHAR``...) to a DataType."""
    normalized = name.strip().upper()
    if normalized in {"INT", "INTEGER", "BIGINT", "SMALLINT"}:
        return DataType.INTEGER
    if normalized in {"FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL"}:
        return DataType.FLOAT
    if normalized in {"BOOL", "BOOLEAN"}:
        return DataType.BOOLEAN
    if normalized in {"TIMESTAMP", "DATETIME", "DATE", "TIME"}:
        return DataType.TIMESTAMP
    return DataType.TEXT
