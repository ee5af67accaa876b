"""Time-based window operators over sensor readings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.engine.aggregates import SIMPLE_AGGREGATES
from repro.engine.columns import typed_column_from_values
from repro.engine.errors import ExecutionError
from repro.engine.schema import DataType, Schema
from repro.engine.table import Relation

Reading = Dict[str, Any]

#: Declared types with an ``array``-backed columnar representation.
_TYPECODES = {DataType.INTEGER: "q", DataType.FLOAT: "d", DataType.BOOLEAN: "b"}


def readings_to_relation(
    schema: Schema, readings: Sequence[Mapping[str, Any]], name: str = ""
) -> Relation:
    """Materialize readings column-wise with typed column backings.

    Stream data arrives as dicts whose values do not always match the
    declared column type exactly — sensors emit ``1`` where the schema says
    FLOAT — and a single mistyped value used to degrade the whole column to
    a generic list, silently bailing every vectorized kernel out
    (``BailReason.UNTYPED_BACKING``).  Here values are coerced to the
    declared type first (int -> float for FLOAT columns; bools stay bools),
    so stream-fed relations get the same ``array`` backing loaded tables do.
    """
    columns: List[Any] = []
    for column_def in schema.columns:
        values = [reading.get(column_def.name) for reading in readings]
        if column_def.data_type is DataType.FLOAT:
            # ``type(...) is int`` deliberately excludes bool.
            values = [
                float(value) if type(value) is int else value for value in values
            ]
        typecode = _TYPECODES.get(column_def.data_type)
        if typecode is not None:
            typed = typed_column_from_values(values, typecode)
            if typed is not None:
                values = typed
        columns.append(values)
    return Relation.from_columns(schema, columns, name=name)


@dataclass
class WindowAggregate:
    """One aggregate to compute per window: ``AVG(z) AS z_avg``."""

    function: str
    column: str
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        """Name of the produced column."""
        return self.alias or f"{self.function.lower()}_{self.column}"

    def compute(self, readings: Sequence[Mapping[str, Any]]) -> Any:
        """Compute the aggregate over the readings of one window."""
        name = self.function.upper()
        if name == "COUNT" and self.column == "*":
            return len(readings)
        implementation = SIMPLE_AGGREGATES.get(name)
        if implementation is None:
            raise ExecutionError(f"Unsupported stream aggregate: {self.function}")
        return implementation([reading.get(self.column) for reading in readings])


@dataclass
class TumblingWindow:
    """Non-overlapping windows of fixed duration over the ``time_column``."""

    size_seconds: float
    time_column: str = "t"
    aggregates: List[WindowAggregate] = field(default_factory=list)

    def apply(self, readings: Iterable[Mapping[str, Any]]) -> List[Reading]:
        """Partition readings into consecutive windows and aggregate each."""
        ordered = sorted(readings, key=lambda r: r[self.time_column])
        if not ordered:
            return []
        results: List[Reading] = []
        # Float from the start: ``window_start += size_seconds`` (a float)
        # would otherwise flip the column's type after the first window and
        # break its typed backing.
        window_start = float(ordered[0][self.time_column])
        bucket: List[Mapping[str, Any]] = []
        for reading in ordered:
            timestamp = reading[self.time_column]
            while timestamp >= window_start + self.size_seconds:
                if bucket:
                    results.append(self._summarize(window_start, bucket))
                    bucket = []
                window_start += self.size_seconds
            bucket.append(reading)
        if bucket:
            results.append(self._summarize(window_start, bucket))
        return results

    def _summarize(self, window_start: float, bucket: Sequence[Mapping[str, Any]]) -> Reading:
        row: Reading = {
            "window_start": window_start,
            "window_end": window_start + self.size_seconds,
            "count": len(bucket),
        }
        for aggregate in self.aggregates:
            row[aggregate.output_name] = aggregate.compute(bucket)
        return row

    def to_relation(
        self, readings: Iterable[Mapping[str, Any]], name: str = "window"
    ) -> Relation:
        """Window the readings and materialize the result typed-columnar."""
        rows = self.apply(readings)
        return readings_to_relation(Schema.infer(rows), rows, name=name)


@dataclass
class SlidingWindow:
    """A sliding window keeping only the readings of the last ``size_seconds``.

    This models the "average of last minute" capability the paper attributes
    to sensors: the window is evaluated relative to the newest reading.
    """

    size_seconds: float
    time_column: str = "t"
    aggregates: List[WindowAggregate] = field(default_factory=list)

    def latest(self, readings: Sequence[Mapping[str, Any]]) -> Reading:
        """Aggregate the readings that fall into the most recent window."""
        if not readings:
            return {"count": 0, **{a.output_name: None for a in self.aggregates}}
        newest = max(reading[self.time_column] for reading in readings)
        cutoff = newest - self.size_seconds
        recent = [r for r in readings if r[self.time_column] > cutoff]
        row: Reading = {
            "window_start": cutoff,
            "window_end": newest,
            "count": len(recent),
        }
        for aggregate in self.aggregates:
            row[aggregate.output_name] = aggregate.compute(recent)
        return row
