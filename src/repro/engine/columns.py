"""Typed column backing for :class:`~repro.engine.table.Relation`.

Relations store one array per column.  Historically every column was a plain
Python list of boxed values; this module adds an opt-in typed backing for
int/float/bool columns: a C-level ``array('q')`` / ``array('d')`` /
``array('b')`` of unboxed cells plus a NULL map (one byte per row, ``1`` =
NULL).  The typed backing is chosen per column at construction (guided by
the schema's declared type, verified against the actual values) and is
preserved through slicing, copies, gathers and concatenation — all of which
run at ``memcpy`` speed on the underlying buffers instead of
element-by-element through the interpreter.

:class:`TypedColumn` is deliberately list-compatible for the operations the
engine performs on columns (``len``/iteration/indexing/slicing/``append``/
``extend``/``count``/equality), so every existing consumer of
``Relation.column_array`` keeps working unchanged.  The one divergence is
**strictness**: a typed column only accepts ``None`` plus exactly-typed
values (``int`` within 64 bits for ``'q'``, ``float`` for ``'d'``,
``bool`` for ``'b'``; the numeric backings reject ``bool`` — and the bool
backing rejects ``int`` — so round-trips stay type-exact: bool cells are
stored as bytes but decode back to real ``bool`` objects on every read).
A value outside the backing raises :class:`TypedBackingError` and the
owning relation degrades that column to a plain list — writers never
observe the error.

The wire codec (:mod:`repro.engine.wire`) serializes typed columns as their
raw little-endian buffers plus a bit-packed NULL bitmap, which is both the
compact on-the-wire representation and an exact round-trip.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence

INT64 = "q"
FLOAT64 = "d"
BOOL = "b"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Placeholder stored in the data array at NULL positions.  Always exactly
#: zero, which lets equality and ``count`` reason about NULL slots cheaply.
_ZEROS = {INT64: 0, FLOAT64: 0.0, BOOL: 0}

#: The exact Python type of each backing's non-NULL cells.
_CELL_TYPES = {INT64: int, FLOAT64: float, BOOL: bool}


class TypedBackingError(TypeError):
    """A value does not fit a typed column's backing array."""


class TypedColumn:
    """A list-compatible int64/float64 column with a NULL map.

    ``typecode`` is ``'q'`` (int64) or ``'d'`` (float64).  The data array
    and the NULL map always have equal length; NULL positions hold a zero
    placeholder in the data array.
    """

    __slots__ = ("typecode", "_data", "_nulls", "_null_count")

    def __init__(
        self,
        typecode: str,
        data: Optional[array] = None,
        nulls: Optional[bytearray] = None,
        null_count: Optional[int] = None,
    ) -> None:
        if typecode not in _ZEROS:
            raise ValueError(f"Unsupported typed-column typecode: {typecode!r}")
        self.typecode = typecode
        self._data = data if data is not None else array(typecode)
        self._nulls = nulls if nulls is not None else bytearray(len(self._data))
        if len(self._nulls) != len(self._data):
            raise ValueError("NULL map and data array lengths differ")
        self._null_count = sum(self._nulls) if null_count is None else null_count

    # ------------------------------------------------------------------
    # fitting values into the backing
    # ------------------------------------------------------------------
    def _fit(self, value: Any) -> Any:
        """Return the storable cell for ``value`` (or None for NULL)."""
        if value is None:
            return None
        if self.typecode == INT64:
            if type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                return value
        elif self.typecode == FLOAT64:
            if type(value) is float:
                return value
        elif type(value) is bool:
            return 1 if value else 0
        raise TypedBackingError(
            f"{type(value).__name__} value does not fit {self.typecode!r} column"
        )

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            nulls = self._nulls[index]
            return TypedColumn(
                self.typecode,
                self._data[index],
                nulls,
                sum(nulls) if self._null_count else 0,
            )
        if self._nulls[index]:
            return None
        value = self._data[index]
        return bool(value) if self.typecode == BOOL else value

    def __setitem__(self, index: int, value: Any) -> None:
        if isinstance(index, slice):
            raise TypeError("Slice assignment is not supported on typed columns")
        cell = self._fit(value)
        was_null = self._nulls[index]
        if cell is None:
            self._data[index] = _ZEROS[self.typecode]
            if not was_null:
                self._nulls[index] = 1
                self._null_count += 1
        else:
            self._data[index] = cell
            if was_null:
                self._nulls[index] = 0
                self._null_count -= 1

    def append(self, value: Any) -> None:
        cell = self._fit(value)
        if cell is None:
            self._data.append(_ZEROS[self.typecode])
            self._nulls.append(1)
            self._null_count += 1
        else:
            self._data.append(cell)
            self._nulls.append(0)

    def extend(self, values: Iterable[Any]) -> None:
        """Append many values; atomic — a misfit leaves the column unchanged."""
        if isinstance(values, TypedColumn) and values.typecode == self.typecode:
            self._data.extend(values._data)
            self._nulls.extend(values._nulls)
            self._null_count += values._null_count
            return
        data = array(self.typecode)
        nulls = bytearray()
        null_count = 0
        zero = _ZEROS[self.typecode]
        for value in values:
            cell = self._fit(value)
            if cell is None:
                data.append(zero)
                nulls.append(1)
                null_count += 1
            else:
                data.append(cell)
                nulls.append(0)
        self._data.extend(data)
        self._nulls.extend(nulls)
        self._null_count += null_count

    def __iter__(self) -> Iterator[Any]:
        if self.typecode == BOOL:
            return self._iter_bool()
        if not self._null_count:
            return iter(self._data)
        return self._iter_with_nulls()

    def _iter_with_nulls(self) -> Iterator[Any]:
        for value, is_null in zip(self._data, self._nulls):
            yield None if is_null else value

    def _iter_bool(self) -> Iterator[Any]:
        if not self._null_count:
            for value in self._data:
                yield bool(value)
        else:
            for value, is_null in zip(self._data, self._nulls):
                yield None if is_null else bool(value)

    def __contains__(self, value: Any) -> bool:
        return self.count(value) > 0

    def count(self, value: Any) -> int:
        """Occurrences of ``value``, treating NULL slots as ``None``."""
        if value is None:
            return self._null_count
        try:
            matches = self._data.count(value)
        except (TypeError, OverflowError):
            return 0
        if self._null_count and value == _ZEROS[self.typecode]:
            matches -= self._null_count
        return matches

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TypedColumn):
            if other.typecode == self.typecode:
                return self._nulls == other._nulls and self._data == other._data
            other = other.to_list()
        if isinstance(other, (list, tuple, array)):
            if len(other) != len(self._data):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.to_list() if len(self) <= 8 else self.to_list()[:8] + ["..."]
        return f"TypedColumn({self.typecode!r}, {preview!r})"

    # ------------------------------------------------------------------
    # structural operations (all preserve the typed backing)
    # ------------------------------------------------------------------
    @property
    def null_count(self) -> int:
        return self._null_count

    def to_list(self) -> List[Any]:
        """The column as a plain Python list (NULLs become ``None``)."""
        if self.typecode == BOOL:
            return list(self._iter_bool())
        if not self._null_count:
            return list(self._data)
        return [
            None if is_null else value
            for value, is_null in zip(self._data, self._nulls)
        ]

    def copy(self) -> "TypedColumn":
        return TypedColumn(
            self.typecode, self._data[:], self._nulls[:], self._null_count
        )

    def take(self, indices: Sequence[int]) -> "TypedColumn":
        """Gather the given positions into a new typed column."""
        data = array(self.typecode, gather(self._data, indices))
        if not self._null_count:
            return TypedColumn(self.typecode, data, bytearray(len(data)), 0)
        nulls = bytearray(gather(self._nulls, indices))
        return TypedColumn(self.typecode, data, nulls, nulls.count(1))

    # ------------------------------------------------------------------
    # wire/measurement access
    # ------------------------------------------------------------------
    def data_array(self) -> array:
        """The live backing array (NULL slots hold zero placeholders)."""
        return self._data

    def null_map(self) -> bytearray:
        """The live NULL map (one byte per row, ``1`` = NULL)."""
        return self._nulls

    def packed_cells_size(self) -> int:
        """Sum of per-cell wire sizes for this backing.

        Numeric cells cost 9 bytes (tag + fixed64), bool cells 1 byte,
        NULLs 1 byte.
        """
        if self.typecode == BOOL:
            return len(self._data)
        return 9 * (len(self._data) - self._null_count) + self._null_count


def typed_column_from_values(
    values: Sequence[Any], typecode: str
) -> Optional[TypedColumn]:
    """Build a typed column from ``values``, or None if any value misfits."""
    cell_type = _CELL_TYPES.get(typecode)
    if cell_type is None:
        raise ValueError(f"Unsupported typed-column typecode: {typecode!r}")
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if kinds - {cell_type}:
        return None
    nulls = bytearray(map(is_, values, repeat(None)))
    null_count = nulls.count(1)
    if null_count:
        zero = _ZEROS[typecode]
        values = [zero if value is None else value for value in values]
    try:
        data = array(typecode, values)
    except OverflowError:  # an int outside int64
        return None
    return TypedColumn(typecode, data, nulls, null_count)


def copy_column(column: Sequence[Any]) -> Any:
    """A structural copy of a column, preserving its backing."""
    if isinstance(column, TypedColumn):
        return column.copy()
    return list(column)


def gather(source: Sequence[Any], indices: Sequence[int]) -> Sequence[Any]:
    """``source[i] for i in indices`` as a sequence, gathered at C speed."""
    if len(indices) > 1:
        return itemgetter(*indices)(source)
    return [source[i] for i in indices]


def take_column(column: Sequence[Any], indices: Sequence[int]) -> Any:
    """Gather ``indices`` from a column, preserving its backing."""
    if isinstance(column, TypedColumn):
        return column.take(indices)
    return list(gather(column, indices))


def extend_column(destination: Any, source: Sequence[Any]) -> Any:
    """Extend ``destination`` with ``source``, degrading on a type misfit.

    Returns the (possibly replaced) destination column: a typed destination
    that cannot absorb ``source`` degrades to a plain list first.
    """
    if isinstance(destination, TypedColumn):
        try:
            destination.extend(source)
            return destination
        except TypedBackingError:
            destination = destination.to_list()
    destination.extend(source)
    return destination
