"""Seeded-random property tests for the checkpoint relation codec.

The fault-tolerant runtime (PR 6) checkpoints partial-aggregate state
relations through :func:`repro.engine.wire.pack_state_relation`.  A restored
checkpoint must be *indistinguishable* from the relation it replaces —
merging it must produce bit-identical aggregates — so these tests fuzz the
codec with randomized state relations built from the full wire vocabulary
(bigints beyond 2**63, float expansions, exact Fraction moments,
NaN/inf specials, nested tuples) and assert exact round-trips, including
``repr`` equality per cell (``True`` must not come back as ``1``).

Everything is seeded with :class:`random.Random` — a failure reproduces.
"""

from __future__ import annotations

import math
import random
import struct
from collections import namedtuple
from fractions import Fraction

import pytest

from repro.engine.aggregates import make_accumulator
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.wire import (
    WireFormatError,
    pack_state_relation,
    pack_value,
    packed_size,
    unpack_state_relation,
    unpack_value,
)

SEEDS = [7, 23, 101, 4099]


# ---------------------------------------------------------------------------
# random wire-vocabulary values
# ---------------------------------------------------------------------------


def random_value(rng: random.Random, depth: int = 0):
    """One random value from the wire vocabulary, nesting tuples to depth 3."""
    choices = ["none", "bool", "int", "bigint", "float", "special", "str", "fraction"]
    if depth < 3:
        choices += ["tuple", "tuple"]
    kind = rng.choice(choices)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-(2**63), 2**63 - 1)
    if kind == "bigint":
        magnitude = rng.randint(64, 400)
        return rng.choice([-1, 1]) * rng.getrandbits(magnitude)
    if kind == "float":
        return rng.uniform(-1e300, 1e300) * rng.choice([1.0, 1e-200, 1e-300])
    if kind == "special":
        return rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan])
    if kind == "str":
        alphabet = "abcxyzé世\U0001f600 _"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    if kind == "fraction":
        return Fraction(
            rng.randint(-(2**100), 2**100), rng.randint(1, 2**80)
        )
    return tuple(
        random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))
    )


def same_value(a, b) -> bool:
    """Bit-exact equality: type-aware, NaN-aware, recursive."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b
    return a == b


def random_state_relation(rng: random.Random) -> Relation:
    """A relation shaped like a partial-aggregation state table."""
    n_columns = rng.randint(1, 5)
    n_rows = rng.randint(0, 12)
    schema = Schema(
        [
            ColumnDef(
                name=f"c{index}",
                data_type=rng.choice(list(DataType)),
            )
            for index in range(n_columns)
        ]
    )
    columns = [
        [random_value(rng) for _ in range(n_rows)] for _ in range(n_columns)
    ]
    return Relation.from_columns(schema, columns, name=f"state_{rng.randint(0, 999)}")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_random_values_roundtrip_and_size(seed):
    rng = random.Random(seed)
    for _ in range(300):
        value = random_value(rng)
        payload = pack_value(value)
        decoded = unpack_value(payload)
        assert same_value(value, decoded), (seed, value, decoded)
        assert repr(value) == repr(decoded)
        assert packed_size(value) == len(payload), (seed, value)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_state_relations_roundtrip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        relation = random_state_relation(rng)
        restored = unpack_state_relation(pack_state_relation(relation))
        assert restored.name == relation.name
        assert restored.schema.names == relation.schema.names
        assert [column.data_type for column in restored.schema.columns] == [
            column.data_type for column in relation.schema.columns
        ]
        assert len(restored) == len(relation)
        for row_a, row_b in zip(relation.rows, restored.rows):
            assert same_value(tuple(row_a), tuple(row_b)), (seed, row_a, row_b)


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_accumulator_states_survive_checkpointing(seed):
    """Driving real accumulators with random inputs, a checkpointed state
    merges bit-identically to the original state."""
    rng = random.Random(seed)
    functions = ["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VAR_POP"]
    for _ in range(25):
        name = rng.choice(functions)
        values = []
        for _ in range(rng.randint(0, 20)):
            roll = rng.random()
            if roll < 0.15:
                values.append(None)
            elif roll < 0.35:
                values.append(rng.randint(-(2**70), 2**70))
            elif roll < 0.45:
                values.append(rng.choice([1e300, -1e300, 1e-300, 0.1, 0.2]))
            else:
                values.append(rng.uniform(-1e6, 1e6))
        if name in ("MIN", "MAX") and rng.random() < 0.5:
            values = [
                "".join(rng.choice("abcdef") for _ in range(3))
                for _ in range(len(values))
            ]
        accumulator = make_accumulator(
            name, is_star=False, distinct=False, arg_count=1
        )
        for value in values:
            accumulator.add((value,))
        state = accumulator.partial()

        # Round-trip through the relation codec, exactly as a checkpoint does.
        schema = Schema([ColumnDef(name="state", data_type=DataType.TEXT)])
        relation = Relation.from_columns(schema, [[state]], name="ckpt")
        restored_state = unpack_state_relation(pack_state_relation(relation)).rows[
            0
        ]["state"]
        assert repr(restored_state) == repr(state)

        # Merging the restored state is indistinguishable from the original.
        merged_original = make_accumulator(
            name, is_star=False, distinct=False, arg_count=1
        )
        merged_restored = make_accumulator(
            name, is_star=False, distinct=False, arg_count=1
        )
        merged_original.merge(state)
        merged_restored.merge(restored_state)

        def outcome(accumulator):
            # Extreme inputs (variance of ±2**70 values) can overflow
            # float in finalize(); the property is that the restored
            # state behaves *identically* — including raising identically.
            try:
                return repr(accumulator.finalize())
            except OverflowError as error:
                return f"OverflowError: {error}"

        assert outcome(merged_original) == outcome(merged_restored)


@pytest.mark.parametrize("seed", SEEDS)
def test_unpackable_cells_raise_wire_format_error(seed):
    """Cells outside the wire vocabulary fail loudly (callers then skip the
    checkpoint and re-execute instead of persisting something lossy)."""
    rng = random.Random(seed)
    poison = rng.choice([object(), [1, 2], {"a": 1}, {1, 2}, b"bytes"])
    schema = Schema([ColumnDef(name="state", data_type=DataType.TEXT)])
    relation = Relation.from_columns(schema, [[poison]], name="bad")
    with pytest.raises(WireFormatError):
        pack_state_relation(relation)


# ---------------------------------------------------------------------------
# typed-column relation codec (whole relations and leaf chunks)
# ---------------------------------------------------------------------------


def random_typed_relation(rng: random.Random) -> Relation:
    """A relation whose columns exercise every backing the codec knows.

    Column flavours: int64 (typed, NULL bitmap), float64 (typed, NULL
    bitmap, NaN/±inf/-0.0 included), mixed int/float/str (generic-list
    fallback), and all-NULL.  Row count includes 0 (empty relation) and
    counts straddling bitmap byte boundaries (7, 8, 9).
    """
    n_rows = rng.choice([0, 1, 7, 8, 9, rng.randint(2, 40)])
    flavours = rng.sample(
        ["int64", "float64", "mixed", "all_null"],
        k=rng.randint(1, 4),
    )
    rows = []
    for _ in range(n_rows):
        row = {}
        for index, flavour in enumerate(flavours):
            name = f"c{index}"
            if flavour == "int64":
                row[name] = (
                    None
                    if rng.random() < 0.2
                    else rng.randint(-(2**63), 2**63 - 1)
                )
            elif flavour == "float64":
                roll = rng.random()
                if roll < 0.2:
                    row[name] = None
                elif roll < 0.35:
                    row[name] = rng.choice(
                        [math.nan, math.inf, -math.inf, 0.0, -0.0]
                    )
                else:
                    row[name] = rng.uniform(-1e300, 1e300)
            elif flavour == "mixed":
                row[name] = rng.choice(
                    [rng.randint(-5, 5), rng.uniform(-1, 1), "txt", None, True]
                )
            else:
                row[name] = None
        rows.append(row)
    if not rows:
        # Empty relation with an explicit typed-capable schema.
        schema = Schema(
            [
                ColumnDef(
                    name=f"c{index}",
                    data_type=DataType.INTEGER
                    if flavour == "int64"
                    else DataType.FLOAT,
                )
                for index, flavour in enumerate(flavours)
            ]
        )
        return Relation(schema=schema, rows=[], name="chunk")
    return Relation.from_rows(rows, name="chunk")


@pytest.mark.parametrize("seed", SEEDS)
def test_random_typed_relations_roundtrip_exactly(seed):
    from repro.engine.columns import TypedColumn
    from repro.engine.wire import pack_relation, unpack_relation

    rng = random.Random(seed)
    for _ in range(40):
        relation = random_typed_relation(rng)
        restored = unpack_relation(pack_relation(relation))
        assert restored.name == relation.name
        assert restored.schema.names == relation.schema.names
        assert [column.data_type for column in restored.schema.columns] == [
            column.data_type for column in relation.schema.columns
        ]
        assert len(restored) == len(relation)
        for row_a, row_b in zip(relation.rows, restored.rows):
            assert same_value(tuple(row_a), tuple(row_b)), (seed, row_a, row_b)
        # The backing survives the round-trip: typed columns come back
        # typed (same typecode and NULL map), generic columns generic.
        for original, decoded in zip(relation.columns(), restored.columns()):
            assert isinstance(decoded, TypedColumn) == isinstance(
                original, TypedColumn
            )
            if isinstance(original, TypedColumn):
                assert decoded.typecode == original.typecode
                assert decoded.null_count == original.null_count


def test_truncated_and_malformed_payloads_fail_loudly():
    rng = random.Random(0)
    relation = random_state_relation(rng)
    payload = pack_state_relation(relation)
    with pytest.raises(WireFormatError):
        unpack_state_relation(payload[: len(payload) // 2])
    with pytest.raises(WireFormatError):
        unpack_state_relation(payload + b"\x00")
    # A valid payload of the wrong shape is rejected too.
    with pytest.raises(WireFormatError):
        unpack_state_relation(pack_value((1, 2)))


# ---------------------------------------------------------------------------
# string-dictionary columns and NULL bitmaps
# ---------------------------------------------------------------------------

_GENERIC_TAG = 0x00
_DICT_TAG = 0x04


class _Str(str):
    """A ``str`` subclass: equal and hash-equal to its plain value."""


def _text_relation(cells, name="s"):
    schema = Schema([ColumnDef(name="c", data_type=DataType.TEXT)])
    return Relation.from_columns(schema, [list(cells)], name=name)


def _header_size(relation) -> int:
    schema_spec = tuple(
        (column.name, column.data_type.value) for column in relation.schema.columns
    )
    return 4 + packed_size(relation.name) + packed_size(schema_spec) + 4


def _per_cell_size(relation) -> int:
    """Size of the relation with every generic column encoded per cell."""
    from repro.engine.columns import TypedColumn

    size = _header_size(relation)
    for column in relation.columns():
        if isinstance(column, TypedColumn):
            size += 1 + (len(column) + 7) // 8 + len(column) * 8
        else:
            size += 1 + sum(packed_size(cell) for cell in column)
    return size


def _column_tag(cells) -> int:
    """The backing tag a one-column relation of ``cells`` is shipped with."""
    from repro.engine.wire import pack_relation

    relation = _text_relation(cells)
    return pack_relation(relation)[_header_size(relation)]


def _assert_text_roundtrip(cells):
    from repro.engine.wire import pack_relation, unpack_relation

    relation = _text_relation(cells)
    payload = pack_relation(relation)
    decoded = unpack_relation(payload).column_array("c")
    assert type(decoded) is list
    assert len(decoded) == len(cells)
    for original, restored in zip(cells, decoded):
        if isinstance(original, str):
            # Strings (subclasses included) come back as plain equal strs.
            assert type(restored) is str and restored == original
        else:
            assert same_value(original, restored), (original, restored)
    assert len(payload) <= _per_cell_size(relation)
    return payload


def random_text_cells(rng: random.Random):
    """A random string column: NULLs, empty and non-ASCII strings, skew."""
    n_rows = rng.choice([0, 1, 2, 3, rng.randint(4, 300)])
    alphabet = "abcxyz é世\U0001f600"
    vocabulary = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        for _ in range(rng.choice([1, 2, 4, 30, 400]))
    ]
    null_share = rng.choice([0.0, 0.1, 0.9])
    return [
        None if rng.random() < null_share else rng.choice(vocabulary)
        for _ in range(n_rows)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_string_columns_roundtrip_and_never_grow(seed):
    rng = random.Random(seed)
    for _ in range(60):
        _assert_text_roundtrip(random_text_cells(rng))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_mixed_relations_never_grow(seed):
    """Typed, string and mixed columns side by side: exact round trip, and
    the payload is never larger than the per-cell encoding."""
    from repro.engine.wire import pack_relation, unpack_relation

    rng = random.Random(seed)
    for _ in range(30):
        typed = random_typed_relation(rng)
        n_rows = len(typed)
        text = [random_text_cells(rng) or [None] for _ in range(2)]
        text = [(cells * (n_rows // len(cells) + 1))[:n_rows] for cells in text]
        names = typed.schema.names + ["s0", "s1"]
        schema = Schema(
            list(typed.schema.columns)
            + [ColumnDef(name=name, data_type=DataType.TEXT) for name in ("s0", "s1")]
        )
        relation = Relation.from_columns(
            schema, list(typed.columns()) + text, name="mix"
        )
        payload = pack_relation(relation)
        restored = unpack_relation(payload)
        assert restored.schema.names == names
        for row_a, row_b in zip(relation.rows, restored.rows):
            assert same_value(tuple(row_a), tuple(row_b)), (seed, row_a, row_b)
        assert len(payload) <= _per_cell_size(relation)


def test_low_cardinality_strings_take_the_dictionary():
    cells = ["walk", "sit", None, "stand", "walk", "", "sit", "世界"] * 50
    payload = _assert_text_roundtrip(cells)
    assert _column_tag(cells) == _DICT_TAG
    # Dictionary (5 distinct entries + NULL) plus one byte per row.
    assert len(payload) < len(cells) * 2


@pytest.mark.parametrize("distinct", [255, 256, 257])
def test_one_and_two_byte_code_boundaries(distinct):
    cells = [f"v{index % distinct}" for index in range(distinct * 3)]
    _assert_text_roundtrip(cells)
    assert _column_tag(cells) == _DICT_TAG


def test_dictionary_size_limit():
    below = [f"{index}" for index in range(65535)] * 2
    _assert_text_roundtrip(below)
    assert _column_tag(below) == _DICT_TAG
    at_limit = [f"{index}" for index in range(65536)] * 2
    _assert_text_roundtrip(at_limit)
    assert _column_tag(at_limit) == _GENERIC_TAG


@pytest.mark.parametrize(
    "cells",
    [
        ["only"],
        [None],
        ["a", "b", "c", "d"],
        ["x", "x", 1, "x", "x"],
        ["x", "x", True, "x", "x"],
        [1, True, 1.0, 1, True, 1.0],
        ["x", _Str("x"), "x", "x"],
        [_Str("x"), "x", "x", "x"],
        ["x", "x", ("x",), "x"],
    ],
    ids=[
        "single-row",
        "single-null",
        "all-distinct",
        "str-and-int",
        "str-and-bool",
        "hash-equal-numbers",
        "str-subclass-late",
        "str-subclass-first",
        "str-and-tuple",
    ],
)
def test_per_cell_path_is_kept(cells):
    """Single-row, all-distinct, mixed and subclassed columns keep the
    per-cell encoding (hash-equal values must never share a code)."""
    from repro.engine.wire import pack_relation, unpack_relation

    assert _column_tag(cells) == _GENERIC_TAG
    relation = _text_relation(cells)
    decoded = unpack_relation(pack_relation(relation)).column_array("c")
    assert [repr(cell) for cell in decoded] == [
        repr(str(cell)) if isinstance(cell, str) else repr(cell) for cell in cells
    ]


def _reference_bitmap(nulls) -> bytes:
    packed = bytearray((len(nulls) + 7) // 8)
    for index, flag in enumerate(nulls):
        if flag:
            packed[index >> 3] |= 1 << (index & 7)
    return bytes(packed)


def _float_relation(cells) -> Relation:
    """A one-column relation over a typed float64 backing of ``cells``."""
    from array import array

    from repro.engine.columns import FLOAT64, TypedColumn

    column = TypedColumn(
        FLOAT64,
        array("d", [0.0 if cell is None else cell for cell in cells]),
        bytearray(cell is None for cell in cells),
    )
    schema = Schema([ColumnDef(name="c", data_type=DataType.FLOAT)])
    relation = Relation.from_columns(schema, [column], name="b")
    assert isinstance(relation.column_array("c"), TypedColumn)
    return relation


def _check_null_pattern(nulls):
    from repro.engine.wire import pack_relation, unpack_relation

    cells = [None if flag else float(index) for index, flag in enumerate(nulls)]
    relation = _float_relation(cells)
    payload = pack_relation(relation)
    start = _header_size(relation) + 1
    assert payload[start : start + (len(nulls) + 7) // 8] == _reference_bitmap(nulls)
    decoded = unpack_relation(payload).column_array("c")
    assert decoded.null_map() == bytearray(nulls)
    assert list(decoded) == cells


@pytest.mark.parametrize("length", range(18))
def test_null_bitmaps_of_every_short_length(length):
    _check_null_pattern([0] * length)
    _check_null_pattern([1] * length)
    _check_null_pattern([index % 2 for index in range(length)])
    _check_null_pattern([int(index in (0, length - 1)) for index in range(length)])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_null_bitmaps_roundtrip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        share = rng.choice([0.01, 0.3, 0.99])
        _check_null_pattern(
            [int(rng.random() < share) for _ in range(rng.randint(0, 3000))]
        )


def test_bitmap_padding_bits_are_ignored():
    from repro.engine.wire import pack_relation, unpack_relation

    cells = [None, 1.0, 2.0]
    relation = _float_relation(cells)
    payload = bytearray(pack_relation(relation))
    payload[_header_size(relation) + 1] |= 0b1111_1000
    assert list(unpack_relation(bytes(payload)).column_array("c")) == cells


def test_malformed_dictionary_payloads_fail_loudly():
    from repro.engine.wire import pack_relation

    relation = _text_relation(["a", "b", "a", "b", "a", "b"])
    payload = pack_relation(relation)
    header = _header_size(relation)
    assert payload[header] == _DICT_TAG
    # A code past the dictionary's end.
    with pytest.raises(WireFormatError):
        unpack_state_relation(payload[:-1] + b"\x07")
    # A dictionary entry that is not a string.
    entries = header + 1 + 4
    bad = payload[:entries] + pack_value(5) + payload[entries + packed_size("a") :]
    with pytest.raises(WireFormatError):
        unpack_state_relation(bad)
    with pytest.raises(WireFormatError):
        unpack_state_relation(payload[:-2])


# ---------------------------------------------------------------------------
# columnar list encodings: int64, float64 and bool cells, tuple columns
# ---------------------------------------------------------------------------

_INTS_TAG = 0x05
_FLOATS_TAG = 0x06
_BOOLS_TAG = 0x07
_TUPLES_TAG = 0x08
_RAGGED_TAG = 0x09

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


#: A tuple subclass: equal to its plain value, but not exactly a tuple.
_Pair = namedtuple("_Pair", "left right")


def _same_exact(a, b) -> bool:
    """Exact round trip of a decoded cell: type, value and float bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_exact(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _assert_list_roundtrip(cells, tag=None):
    """One list-backed column: exact round trip, never larger than per cell,
    and (when given) shipped with ``tag``.  Tuple subclasses come back as
    plain tuples, as they always have through the tagged cells."""
    from repro.engine.wire import pack_relation, unpack_relation

    relation = _text_relation(cells)
    payload = pack_relation(relation)
    decoded = unpack_relation(payload).column_array("c")
    assert type(decoded) is list and len(decoded) == len(cells)
    for original, restored in zip(cells, decoded):
        expected = tuple(original) if isinstance(original, tuple) else original
        assert _same_exact(_plain(expected), restored), (original, restored)
    assert len(payload) <= _per_cell_size(relation), cells
    if tag is not None:
        assert payload[_header_size(relation)] == tag, cells
    return payload


def _plain(value):
    """``value`` with every tuple subclass replaced by a plain tuple."""
    if isinstance(value, tuple):
        return tuple(_plain(element) for element in value)
    return value


@pytest.mark.parametrize(
    "cells,tag",
    [
        ([_INT64_MAX, _INT64_MIN, 0, -1], _INTS_TAG),
        ([_INT64_MAX + 1], _GENERIC_TAG),
        ([_INT64_MIN - 1, 5], _GENERIC_TAG),
        ([1, 2, 2**200], _GENERIC_TAG),
        ([True, False, True], _BOOLS_TAG),
        ([True, 1, False, 0], _GENERIC_TAG),
        ([1, 1.0], _GENERIC_TAG),
        ([-0.0, 0.0, math.inf, -math.inf, math.nan], _FLOATS_TAG),
        ([5e-324, 2.2250738585072014e-308 / 2, -5e-324, 1e308], _FLOATS_TAG),
        ([None, 1.5], _GENERIC_TAG),
        ([1, None], _GENERIC_TAG),
        ([Fraction(1, 3), Fraction(2, 5)], _GENERIC_TAG),
        ([(1, 2.5, True), (3, -0.0, False)], _TUPLES_TAG),
        ([(1, (2.0, (True,))), (3, (4.0, (False,)))], _TUPLES_TAG),
        ([(), (), ()], _RAGGED_TAG),
        ([(1.0,), (), (2.0, 3.0)], _RAGGED_TAG),
        ([(1, "a"), (2, "b"), (3, None)], _TUPLES_TAG),
        ([_Pair(1, 2), _Pair(3, 4)], _GENERIC_TAG),
        ([(1, 2), _Pair(3, 4)], _GENERIC_TAG),
        ([], _GENERIC_TAG),
        ([7], _INTS_TAG),
        ([(1, 2.0, True, 4, 5.0, False)], _RAGGED_TAG),
    ],
    ids=[
        "int64-bounds",
        "past-int64-max",
        "past-int64-min",
        "bigint-mixed-in",
        "bools",
        "bool-int-mix",
        "int-float-mix",
        "float-specials",
        "subnormals",
        "none-and-float",
        "int-and-none",
        "fractions",
        "fixed-width",
        "nested",
        "width-0",
        "ragged",
        "tuple-of-strings",
        "namedtuples",
        "tuple-and-subclass",
        "empty",
        "one-row",
        "one-wide-row",
    ],
)
def test_list_columns_take_the_expected_encoding(cells, tag):
    _assert_list_roundtrip(cells, tag)


def test_nan_payload_bits_survive():
    quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
    negative = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_00AB_CDEF))[0]
    _assert_list_roundtrip([quiet, negative, math.nan], _FLOATS_TAG)


def random_list_cells(rng: random.Random, depth: int = 0):
    """A random list column leaning on the columnar encodings."""
    rows = rng.choice([0, 1, 2, 3, rng.randint(4, 40)])
    kind = rng.choice(
        ["int", "edge-int", "float", "bool", "bool-int", "fixed", "ragged", "mixed"]
    )
    if kind == "int":
        return [rng.randint(_INT64_MIN, _INT64_MAX) for _ in range(rows)]
    if kind == "edge-int":
        edges = [_INT64_MIN, _INT64_MIN - 1, _INT64_MAX, _INT64_MAX + 1, 0]
        return [rng.choice(edges) for _ in range(rows)]
    if kind == "float":
        specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310]
        return [
            rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-1e300, 1e300)
            for _ in range(rows)
        ]
    if kind == "bool":
        return [rng.random() < 0.5 for _ in range(rows)]
    if kind == "bool-int":
        return [rng.choice([True, False, 0, 1]) for _ in range(rows)]
    if kind in ("fixed", "ragged") and depth < 3:
        width = rng.randint(0, 4)
        columns = [random_list_cells(rng, depth + 1) for _ in range(width)]
        columns = [(column or [None]) for column in columns]
        cells = [
            tuple(column[index % len(column)] for column in columns)
            for index in range(rows)
        ]
        if kind == "ragged":
            cells = [cell[: rng.randint(0, len(cell))] for cell in cells]
        return cells
    return [random_value(rng) for _ in range(rows)]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_list_columns_roundtrip_and_never_grow(seed):
    rng = random.Random(seed)
    for _ in range(120):
        _assert_list_roundtrip(random_list_cells(rng))


def _columnar_payload():
    """A relation exercising every columnar list encoding at once."""
    from repro.engine.wire import pack_relation

    schema = Schema(
        [ColumnDef(name=name, data_type=DataType.TEXT) for name in "abcdef"]
    )
    columns = [
        [1, -2, 3],
        [0.5, -0.0, math.nan],
        [True, False, True],
        [(1, (2.0,), True), (3, (4.0, 5.0), False), (6, (), True)],
        [(1,), (), (2, 3)],
        ["x", "y", "x"],
    ]
    return pack_relation(Relation.from_columns(schema, columns, name="cols"))


def test_every_truncation_of_a_columnar_payload_raises():
    from repro.engine.wire import unpack_relation

    payload = _columnar_payload()
    for cut in range(len(payload)):
        with pytest.raises(WireFormatError):
            unpack_relation(payload[:cut])


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupted_columnar_payloads_raise_only_wire_format_errors(seed):
    from repro.engine.wire import unpack_relation

    rng = random.Random(seed)
    payload = _columnar_payload()
    for _ in range(400):
        corrupted = bytearray(payload)
        for _ in range(rng.randint(1, 3)):
            corrupted[rng.randrange(4, len(corrupted))] = rng.randrange(256)
        try:
            unpack_relation(bytes(corrupted))
        except WireFormatError:
            pass


def _one_column_header(rows: int) -> bytes:
    relation = _text_relation([None] * rows)
    from repro.engine.wire import pack_relation

    return pack_relation(relation)[: _header_size(relation)]


def test_row_counts_beyond_the_payload_raise_before_allocating(monkeypatch):
    """Huge row counts, widths and ragged lengths are checked against the
    bytes left, so a short payload cannot make the decoder allocate."""
    from repro.engine import wire

    big = 2**32 - 1
    header = _one_column_header(1)
    count_at = len(header) - 4
    huge_rows = header[:count_at] + struct.pack("<I", big)
    cases = [
        huge_rows + bytes([_INTS_TAG]) + bytes(16),
        huge_rows + bytes([_BOOLS_TAG]) + bytes(16),
        huge_rows + bytes([_GENERIC_TAG]) + bytes(16),
        huge_rows + bytes([_RAGGED_TAG]) + bytes(16),
        # One row whose fixed-width tuple claims 2**32-1 positions.
        header + bytes([_TUPLES_TAG]) + struct.pack("<I", big) + bytes([_INTS_TAG]),
        header + bytes([_TUPLES_TAG]) + struct.pack("<I", 0),
        # One ragged row of 2**32-1 cells.
        header + bytes([_RAGGED_TAG]) + struct.pack("<I", big) + bytes([_INTS_TAG]),
        # Bool bytes other than 0/1, an unknown backing tag.
        header + bytes([_BOOLS_TAG, 2]),
        header + bytes([0x7F]),
    ]
    allocations = []
    real_from_le = wire._from_le
    monkeypatch.setattr(
        wire,
        "_from_le",
        lambda typecode, raw: allocations.append(len(raw)) or real_from_le(typecode, raw),
    )
    for payload in cases:
        with pytest.raises(WireFormatError):
            wire.unpack_relation(payload)
    assert all(size <= 16 for size in allocations)


def test_tuple_columns_nest_only_to_a_fixed_depth():
    """Columnar nesting stops at a fixed depth (deeper tuples keep tagged
    cells), and a payload nesting tuple columns past it is rejected."""
    from repro.engine import wire

    cell = 1
    for _ in range(wire._MAX_COLUMN_DEPTH + 4):
        cell = (cell, 2.0)
    _assert_list_roundtrip([cell, cell], _TUPLES_TAG)
    header = _one_column_header(1)
    nested = (bytes([_TUPLES_TAG]) + struct.pack("<I", 1)) * (wire._MAX_COLUMN_DEPTH + 1)
    with pytest.raises(WireFormatError):
        wire.unpack_relation(header + nested + bytes([_INTS_TAG]) + bytes(8))
