"""Compact wire format for partial aggregate states.

The distributed runtime ships partial-state relations between nodes: tuples
such as ``SumAccumulator``'s ``(int_total, float_expansion, present,
all_int, specials, int_overflow)`` or ``StatAccumulator``'s exact rational
moments ``(n, Σx, Σx²)``.  The cost model used to size those shipments with
``len(str(value))`` — the *text* of a nested tuple of floats and Fractions,
several times larger than the data — which overstated the traffic of the
partial-aggregation protocol and understated its win.

This module packs exactly the value vocabulary partial states use into a
tagged binary encoding (:func:`pack_value` / :func:`unpack_value` round-trip
bit for bit) and computes the encoded size without materializing the bytes
(:func:`packed_size`).  :meth:`repro.engine.table.Relation.estimated_bytes`
charges tuple- and Fraction-valued cells at their packed size, so the
transfer log and the link-latency cost model see realistic state sizes.

Encoding: one tag byte per value, little-endian fixed-width payloads.
Ints within 64 bits pack as ``<q``; arbitrary-precision ints (exact
int SUMs can exceed 64 bits) and Fraction components fall back to a
length-prefixed two's-complement byte string.  Tuples nest with a
length-prefixed element count.

Whole relations (:func:`pack_relation`, magic ``PRL3``) ship column by
column.  A list column whose cells all share one exact type travels as a
buffer: int64 and float64 cells as raw arrays, bools as one byte each,
and a column of accumulator tuples as one sub-column per tuple position
(or, for tuples of mixed widths, their lengths plus one flattened
sub-column), so a state relation encodes in a few C-level passes instead
of tag by tag.  Everything else keeps the tagged cells above.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections import Counter
from datetime import datetime
from fractions import Fraction
from itertools import chain, islice
from typing import Any, Optional, Tuple

import threading

from repro.engine.columns import BOOL, FLOAT64, INT64, TypedColumn

_TAG_NONE = b"\x00"
_TAG_FALSE = b"\x01"
_TAG_TRUE = b"\x02"
_TAG_INT64 = b"\x03"
_TAG_BIGINT = b"\x04"
_TAG_FLOAT = b"\x05"
_TAG_STR = b"\x06"
_TAG_FRACTION = b"\x07"
_TAG_TUPLE = b"\x08"
_TAG_DATETIME = b"\x09"

_INT64 = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_LENGTH = struct.Struct("<I")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class WireFormatError(ValueError):
    """Raised when a value cannot be encoded or a payload cannot be decoded."""


def _bigint_bytes(value: int) -> bytes:
    length = (value.bit_length() + 8) // 8  # +8 keeps a sign bit
    return value.to_bytes(length or 1, "little", signed=True)


def pack_value(value: Any) -> bytes:
    """Encode one partial-state value (scalars, Fractions, nested tuples)."""
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, bool):  # numpy-like bool subclasses
        return _TAG_TRUE if value else _TAG_FALSE
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return _TAG_INT64 + _INT64.pack(value)
        payload = _bigint_bytes(value)
        return _TAG_BIGINT + _LENGTH.pack(len(payload)) + payload
    if isinstance(value, float):
        return _TAG_FLOAT + _FLOAT.pack(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _TAG_STR + _LENGTH.pack(len(payload)) + payload
    if isinstance(value, Fraction):
        numerator = _bigint_bytes(value.numerator)
        denominator = _bigint_bytes(value.denominator)
        return (
            _TAG_FRACTION
            + _LENGTH.pack(len(numerator))
            + numerator
            + _LENGTH.pack(len(denominator))
            + denominator
        )
    if isinstance(value, tuple):
        parts = [_TAG_TUPLE, _LENGTH.pack(len(value))]
        parts.extend(pack_value(element) for element in value)
        return b"".join(parts)
    if isinstance(value, datetime):
        # CAST(... AS TIMESTAMP) results; isoformat() round-trips exactly
        # through fromisoformat() (the fold attribute is not preserved).
        payload = value.isoformat().encode("utf-8")
        return _TAG_DATETIME + _LENGTH.pack(len(payload)) + payload
    raise WireFormatError(f"Cannot pack value of type {type(value).__name__}")


def _take(data: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    """Bounds-checked slice of ``length`` bytes; raises on truncation."""
    end = offset + length
    if end > len(data):
        raise WireFormatError("Truncated payload")
    return data[offset:end], end


def _unpack(data: bytes, offset: int) -> Tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT64:
        payload, offset = _take(data, offset, 8)
        return _INT64.unpack(payload)[0], offset
    if tag == _TAG_BIGINT:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        return int.from_bytes(payload, "little", signed=True), offset
    if tag == _TAG_FLOAT:
        payload, offset = _take(data, offset, 8)
        return _FLOAT.unpack(payload)[0], offset
    if tag == _TAG_STR:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        try:
            return payload.decode("utf-8"), offset
        except UnicodeDecodeError as error:
            raise WireFormatError(f"Malformed string payload: {error}") from None
    if tag == _TAG_FRACTION:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        numerator = int.from_bytes(payload, "little", signed=True)
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        denominator = int.from_bytes(payload, "little", signed=True)
        if not denominator:
            raise WireFormatError("Fraction with a zero denominator")
        return Fraction(numerator, denominator), offset
    if tag == _TAG_TUPLE:
        payload, offset = _take(data, offset, 4)
        (count,) = _LENGTH.unpack(payload)
        elements = []
        for _ in range(count):
            element, offset = _unpack(data, offset)
            elements.append(element)
        return tuple(elements), offset
    if tag == _TAG_DATETIME:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        try:
            return datetime.fromisoformat(payload.decode("utf-8")), offset
        except ValueError as error:
            raise WireFormatError(f"Malformed datetime payload: {error}")
    raise WireFormatError(f"Unknown tag byte: {tag!r}")


def unpack_value(data: bytes) -> Any:
    """Decode a payload produced by :func:`pack_value` (exact round-trip)."""
    try:
        value, offset = _unpack(data, 0)
    except RecursionError:
        raise WireFormatError("Tuples nest too deeply") from None
    if offset != len(data):
        raise WireFormatError(f"{len(data) - offset} trailing bytes after value")
    return value


def packed_size(value: Any) -> int:
    """Size in bytes of ``pack_value(value)``, without building the bytes.

    The cost model calls this per cell of every shipped state relation, so
    it avoids the allocation; the wire tests assert it always equals
    ``len(pack_value(value))``.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return 9
        return 5 + ((value.bit_length() + 8) // 8 or 1)
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, Fraction):
        return (
            9
            + ((value.numerator.bit_length() + 8) // 8 or 1)
            + ((value.denominator.bit_length() + 8) // 8 or 1)
        )
    if isinstance(value, tuple):
        return 5 + sum(packed_size(element) for element in value)
    if isinstance(value, datetime):
        return 5 + len(value.isoformat().encode("utf-8"))
    raise WireFormatError(f"Cannot pack value of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# whole-relation codec (shipments, checkpoints, process-boundary transport)
# ---------------------------------------------------------------------------
#
# Every inter-node shipment, every checkpoint and every task that crosses a
# process-pool boundary moves relations through this codec, so the transfer
# log, the link-latency cost model and the recovery machinery all see the
# same real bytes.  A decoded relation must be *exactly* the relation that
# was encoded — merging a restored state must be indistinguishable from
# merging the original.
#
# Layout: a 4-byte magic (versioned), the name and schema through
# :func:`pack_value`, a row count, then one backing tag per column.  Typed
# int64/float64/bool columns travel as a bit-packed NULL bitmap plus their
# raw little-endian buffer (a memcpy on both ends).  List columns pick by
# the exact type of their cells:
#
#   0x05 / 0x06  every cell an ``int`` within int64 / a ``float``: the raw
#                ``array('q')`` / ``array('d')`` buffer (NaN bits, -0.0 kept)
#   0x07         every cell a ``bool``: one 0/1 byte per cell
#   0x08         every cell a ``tuple`` of one width k >= 1: <u32 k>, then k
#                sub-columns of n cells each, encoded recursively
#   0x09         every cell a ``tuple``, widths vary: n <u32> lengths, then
#                one flattened sub-column of sum(lengths) cells
#   0x04         only ``str``/``None``: a string dictionary plus one code
#                per row
#   0x00         anything else (mixed types, ``None`` mixed in, bigints,
#                Fractions, datetimes, tuple subclasses): tagged cells
#
# Size rule: no list column is ever larger than its tagged cells.  Scalar
# buffers never are; the dictionary and the fixed-width tuple form (k tag
# bytes and a width against 5 bytes of tag and length per tuple, so wide
# tuples over few rows can lose) are compared with the per-cell size, which
# a tuple column derives from its sub-columns' sizes without packing a
# cell.  A losing fixed-width column takes the ragged form, a losing
# dictionary the tagged cells.  Every list encoding spends at least one
# byte per row, so the decoder rejects row counts, widths and lengths that
# the rest of the payload cannot hold before it allocates; tuple columns
# nest at most ``_MAX_COLUMN_DEPTH`` deep (deeper tuples keep tagged cells).
# A list column always decodes to a plain list of exactly the encoded
# objects (``True`` never becomes ``1``).  Relations whose cells fall
# outside the wire vocabulary raise :class:`WireFormatError`; checkpoint
# callers treat that as "not checkpointable" and simply re-execute.

#: Magic prefix of a packed relation.  0x50 ('P') is not a value tag, so a
#: relation payload can never be confused with a ``pack_value`` payload.
_RELATION_MAGIC = b"PRL3"

_COL_GENERIC = b"\x00"
_COL_INT64 = b"\x01"
_COL_FLOAT64 = b"\x02"
_COL_BOOL = b"\x03"
_COL_STRDICT = b"\x04"
_COL_INTS = b"\x05"
_COL_FLOATS = b"\x06"
_COL_BOOLS = b"\x07"
_COL_TUPLES = b"\x08"
_COL_RAGGED = b"\x09"

_COL_TYPECODES = {_COL_INT64: INT64, _COL_FLOAT64: FLOAT64, _COL_BOOL: BOOL}
_COL_TAGS = {INT64: _COL_INT64, FLOAT64: _COL_FLOAT64, BOOL: _COL_BOOL}

#: Cell types a string-dictionary column may hold.  Exact types only: a
#: value merely hash-equal to an entry (``1``/``True``/``1.0``, a ``str``
#: subclass) would otherwise share that entry's code and decode as it.
_DICT_CELL_TYPES = frozenset((str, type(None)))
#: Dictionaries up to this size use one-byte codes, larger ones two.
_DICT_BYTE_CODES = 256
#: Columns with this many distinct values keep the per-cell encoding.
_DICT_LIMIT = 65536
#: Tuple columns nested deeper than this keep tagged cells.
_MAX_COLUMN_DEPTH = 16
_BOOL_VALUES = (False, True)

#: NULL map bytes (0/1) <-> ASCII binary digits, for the bitmap codec.
_FLAGS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_bitmap(nulls, null_count: int) -> bytes:
    """Bit-pack a byte-per-row NULL map, LSB-first (bit ``i`` = row ``i``).

    The map reads as a binary number whose least significant digit is row
    0, so one ``translate`` + ``int(..., 2)`` + ``to_bytes`` does the
    packing at buffer speed.
    """
    size = (len(nulls) + 7) // 8
    if not null_count:
        return bytes(size)
    return int(nulls.translate(_FLAGS_TO_DIGITS)[::-1], 2).to_bytes(size, "little")


def _unpack_bitmap(bitmap: bytes, count: int) -> bytearray:
    """Inverse of :func:`_pack_bitmap`; padding bits past ``count`` are ignored."""
    if bitmap.count(0) == len(bitmap):
        return bytearray(count)
    bits = int.from_bytes(bitmap, "little") & ((1 << count) - 1)
    digits = format(bits, "b").zfill(count)[::-1]
    return bytearray(digits.encode("ascii").translate(_DIGITS_TO_FLAGS))


def _le(values: array) -> bytes:
    """The raw little-endian bytes of an array."""
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        values = values[:]
        values.byteswap()
    return values.tobytes()


def _from_le(typecode: str, raw: bytes) -> array:
    """Inverse of :func:`_le`."""
    values = array(typecode)
    values.frombytes(raw)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        values.byteswap()
    return values


def _encode_list(column, depth: int = 0) -> Tuple[bytes, int]:
    """Encode a list-backed column; returns ``(encoding, per-cell size)``.

    The per-cell size is what the column would take as tagged cells (tag
    byte included).  Tuple columns compare it with their columnar size,
    from their sub-columns' sizes, without packing a single cell.
    """
    kinds = set(map(type, column))
    if len(kinds) == 1 and depth < _MAX_COLUMN_DEPTH:
        encoder = _LIST_ENCODERS.get(next(iter(kinds)))
        encoded = encoder(column, depth) if encoder is not None else None
        if encoded is not None:
            return encoded
    if kinds <= _DICT_CELL_TYPES:
        return _encode_strings(column)
    cells = _COL_GENERIC + b"".join(map(pack_value, column))
    return cells, len(cells)


def _encode_ints(column, depth: int) -> Optional[Tuple[bytes, int]]:
    try:
        values = array("q", column)
    except OverflowError:  # a bigint: tagged cells
        return None
    return _COL_INTS + _le(values), 1 + 9 * len(column)


def _encode_floats(column, depth: int) -> Tuple[bytes, int]:
    return _COL_FLOATS + _le(array("d", column)), 1 + 9 * len(column)


def _encode_bools(column, depth: int) -> Tuple[bytes, int]:
    return _COL_BOOLS + bytes(column), 1 + len(column)


def _encode_tuples(column, depth: int) -> Optional[Tuple[bytes, int]]:
    """One sub-column per position if every tuple has one width and that
    is no larger than tagged cells; otherwise lengths + flattened cells."""
    rows = len(column)
    lengths = list(map(len, column))
    width = lengths[0]
    if width and lengths.count(width) == rows:
        subs = [_encode_list(position, depth + 1) for position in zip(*column)]
        per_cell = 1 + 5 * rows + sum(size - 1 for _, size in subs)
        if 5 + sum(len(encoded) for encoded, _ in subs) <= per_cell:
            return (
                b"".join((_COL_TUPLES, _LENGTH.pack(width), *(e for e, _ in subs))),
                per_cell,
            )
    flat, flat_size = _encode_list(list(chain.from_iterable(column)), depth + 1)
    per_cell = 5 * rows + flat_size
    if 1 + 4 * rows + len(flat) > per_cell:
        return None
    return b"".join((_COL_RAGGED, _le(array("I", lengths)), flat)), per_cell


_LIST_ENCODERS = {
    int: _encode_ints,
    float: _encode_floats,
    bool: _encode_bools,
    tuple: _encode_tuples,
}


def _encode_strings(column) -> Tuple[bytes, int]:
    """Encode a column of exact ``str``/``None`` cells: dictionary or cells.

    The column is counted once; the counts size both encodings.  The
    dictionary (distinct values in first-occurrence order, then one
    ``uint8``/``uint16`` code per row) is used when it is no larger than
    the per-cell encoding.
    """
    counts = Counter(column)
    cells = {value: pack_value(value) for value in counts}
    per_cell = 1 + sum(count * len(cells[value]) for value, count in counts.items())
    if len(counts) < _DICT_LIMIT:
        typecode = "B" if len(counts) <= _DICT_BYTE_CODES else "H"
        width = 1 if typecode == "B" else 2
        dictionary = 5 + sum(map(len, cells.values())) + len(column) * width
        if dictionary <= per_cell:
            code_of = {value: code for code, value in enumerate(counts)}
            codes = array(typecode, list(map(code_of.__getitem__, column)))
            return (
                b"".join(
                    (_COL_STRDICT, _LENGTH.pack(len(counts)), *cells.values(), _le(codes))
                ),
                per_cell,
            )
    return _COL_GENERIC + b"".join(map(cells.__getitem__, column)), per_cell


def _unpack_strdict(data: bytes, offset: int, nrows: int) -> Tuple[list, int]:
    payload, offset = _take(data, offset, 4)
    (count,) = _LENGTH.unpack(payload)
    if count >= _DICT_LIMIT:
        raise WireFormatError(f"String dictionary too large: {count} entries")
    values = []
    for _ in range(count):
        value, offset = _unpack(data, offset)
        if type(value) not in _DICT_CELL_TYPES:
            raise WireFormatError("String dictionary holds a non-string value")
        values.append(value)
    typecode = "B" if count <= _DICT_BYTE_CODES else "H"
    raw, offset = _take(data, offset, nrows * array(typecode).itemsize)
    try:
        return list(map(values.__getitem__, _from_le(typecode, raw))), offset
    except IndexError:
        raise WireFormatError("String dictionary code out of range") from None


def _unpack_list(data: bytes, offset: int, rows: int, depth: int = 0) -> Tuple[list, int]:
    """Decode one list-backed column of ``rows`` cells at ``offset``.

    Every list encoding spends at least one byte per row, so a row count
    the rest of the payload cannot hold is rejected before anything is
    allocated.
    """
    tag, offset = _take(data, offset, 1)
    if rows > len(data) - offset:
        raise WireFormatError(f"{rows} rows exceed the payload")
    if tag == _COL_GENERIC:
        cells = []
        for _ in range(rows):
            cell, offset = _unpack(data, offset)
            cells.append(cell)
        return cells, offset
    if tag == _COL_STRDICT:
        return _unpack_strdict(data, offset, rows)
    if tag == _COL_INTS or tag == _COL_FLOATS:
        raw, offset = _take(data, offset, rows * 8)
        return _from_le("q" if tag == _COL_INTS else "d", raw).tolist(), offset
    if tag == _COL_BOOLS:
        raw, offset = _take(data, offset, rows)
        if raw.translate(None, b"\x00\x01"):
            raise WireFormatError("Bool column holds a byte other than 0 or 1")
        return list(map(_BOOL_VALUES.__getitem__, raw)), offset
    if depth >= _MAX_COLUMN_DEPTH:
        raise WireFormatError("Tuple columns nest too deeply")
    if tag == _COL_TUPLES:
        payload, offset = _take(data, offset, 4)
        (width,) = _LENGTH.unpack(payload)
        if not width or width > len(data) - offset:
            raise WireFormatError(f"Malformed tuple column width: {width}")
        subs = []
        for _ in range(width):
            sub, offset = _unpack_list(data, offset, rows, depth + 1)
            subs.append(sub)
        return list(zip(*subs)), offset
    if tag == _COL_RAGGED:
        raw, offset = _take(data, offset, rows * 4)
        lengths = _from_le("I", raw)
        flat, offset = _unpack_list(data, offset, sum(lengths), depth + 1)
        cells = iter(flat)
        return [tuple(islice(cells, length)) for length in lengths], offset
    raise WireFormatError(f"Unknown column backing tag: {tag!r}")


def pack_relation(relation: "Any") -> bytes:
    """Encode a relation (name, schema, columnar data) bit-exactly."""
    schema_spec = tuple(
        (column.name, column.data_type.value) for column in relation.schema.columns
    )
    parts = [
        _RELATION_MAGIC,
        pack_value(relation.name),
        pack_value(schema_spec),
        _LENGTH.pack(len(relation)),
    ]
    for column in relation.columns():
        if isinstance(column, TypedColumn):
            parts.append(_COL_TAGS[column.typecode])
            parts.append(_pack_bitmap(column.null_map(), column.null_count))
            parts.append(_le(column.data_array()))
        else:
            parts.append(_encode_list(column)[0])
    return b"".join(parts)


def unpack_relation(data: bytes) -> "Any":
    """Decode a payload from :func:`pack_relation` into a Relation.

    A truncated, trailing or otherwise malformed payload raises
    :class:`WireFormatError` and nothing else.
    """
    try:
        return _unpack_relation(data)
    except RecursionError:
        raise WireFormatError("Tuples nest too deeply") from None


def _unpack_relation(data: bytes) -> "Any":
    from repro.engine.errors import SchemaError
    from repro.engine.schema import ColumnDef, Schema
    from repro.engine.table import Relation
    from repro.engine.types import DataType

    magic, offset = _take(data, 0, len(_RELATION_MAGIC))
    if magic != _RELATION_MAGIC:
        raise WireFormatError("Malformed state-relation payload (bad magic)")
    name, offset = _unpack(data, offset)
    schema_spec, offset = _unpack(data, offset)
    if not isinstance(name, str) or not isinstance(schema_spec, tuple):
        raise WireFormatError("Malformed state-relation payload")
    payload, offset = _take(data, offset, 4)
    (nrows,) = _LENGTH.unpack(payload)
    column_defs = []
    try:
        for column_name, type_value in schema_spec:
            if not isinstance(column_name, str):
                raise TypeError(f"column name {column_name!r}")
            column_defs.append(
                ColumnDef(name=column_name, data_type=DataType(type_value))
            )
        schema = Schema(column_defs)
    except (TypeError, ValueError, SchemaError) as error:
        raise WireFormatError(f"Malformed relation schema: {error}")
    columns = []
    for _ in column_defs:
        typecode = _COL_TYPECODES.get(data[offset : offset + 1])
        if typecode is None:
            cells, offset = _unpack_list(data, offset, nrows)
            columns.append(cells)
            continue
        bitmap, offset = _take(data, offset + 1, (nrows + 7) // 8)
        raw, offset = _take(data, offset, nrows * array(typecode).itemsize)
        columns.append(
            TypedColumn(
                typecode, _from_le(typecode, raw), _unpack_bitmap(bitmap, nrows)
            )
        )
    if offset != len(data):
        raise WireFormatError(f"{len(data) - offset} trailing bytes after relation")
    return Relation.from_columns(schema, columns, name=name)


class PackedRelation:
    """A relation held as its :func:`pack_relation` bytes.

    It carries the row and column counts, so execution records and
    :data:`state_size_feedback` read them without decoding; a shipment
    sends ``payload`` as is, and :meth:`unpack` decodes on demand (a
    fresh relation per call).
    """

    __slots__ = ("payload", "rows", "columns")

    def __init__(self, payload: bytes, rows: int, columns: int) -> None:
        self.payload = payload
        self.rows = rows
        self.columns = columns

    def __len__(self) -> int:
        return self.rows

    def unpack(self) -> "Any":
        return unpack_relation(self.payload)


def pack_state_relation(relation: "Any") -> bytes:
    """Encode a relation bit-exactly (checkpoint-facing alias)."""
    return pack_relation(relation)


def unpack_state_relation(data: bytes) -> "Any":
    """Decode a payload from :func:`pack_state_relation` into a Relation."""
    return unpack_relation(data)


# ---------------------------------------------------------------------------
# observed state-size feedback for the adaptive partial-aggregation decision
# ---------------------------------------------------------------------------


class StateSizeFeedback:
    """Running average of observed packed partial-state cell sizes.

    Every executed leaf partial aggregation reports its state output's
    ``(rows, payload bytes, cells)``, the payload being the bytes it
    ships; the DAG builder's adaptive
    ``partial_aggregation_pays`` decision multiplies its estimated group
    count by this query's state width (keys + aggregate states) and
    :meth:`bytes_per_cell` to predict what the state shipment would cost
    before building the plan.  Normalizing per *cell* rather than per row
    keeps the average transferable across query shapes — a five-column
    STDDEV state must not inflate the estimate for a two-column COUNT
    state.  Before any observation the default reflects a typical packed
    state cell (a key scalar or an accumulator tuple).
    """

    #: Assumed packed bytes per state cell before any feedback arrives.
    #: Exact accumulator tuples (canonical float expansions, Fraction
    #: moments) average tens of bytes as tagged cells; shipped as columns they take
    #: less (~17 bytes per cell for the 7-column leaf states of a
    #: two-key GROUP BY, header included), so the cold-start guess leans
    #: high — underestimating state size is the costly direction (it
    #: picks partials on groups~rows chunks where the global merge wins).
    DEFAULT_BYTES_PER_CELL = 64.0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells = 0
        self._bytes = 0

    def record(self, rows: int, nbytes: int, cells: Optional[int] = None) -> None:
        """Fold one observed state relation into the running average."""
        if rows <= 0:
            return
        with self._lock:
            self._cells += cells if cells and cells > 0 else rows
            self._bytes += nbytes

    def bytes_per_cell(self) -> float:
        with self._lock:
            if self._cells == 0:
                return self.DEFAULT_BYTES_PER_CELL
            return self._bytes / self._cells

    def reset(self) -> None:
        with self._lock:
            self._cells = 0
            self._bytes = 0


#: Process-wide feedback singleton (thread-safe; workers all report here).
state_size_feedback = StateSizeFeedback()
