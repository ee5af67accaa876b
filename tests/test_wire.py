"""Tests for the compact partial-state wire format (repro.engine.wire)."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.engine.aggregates import make_accumulator
from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.engine.wire import WireFormatError, pack_value, packed_size, unpack_value


def _acc(name, values, **kwargs):
    accumulator = make_accumulator(
        name,
        is_star=kwargs.pop("is_star", False),
        distinct=kwargs.pop("distinct", False),
        arg_count=1,
    )
    for value in values:
        accumulator.add((value,))
    return accumulator


REAL_STATES = [
    _acc("COUNT", [1, None, 3]).partial(),
    _acc("SUM", [1, 2, 3]).partial(),  # exact all-int path
    _acc("SUM", [2**70, -5, 1]).partial(),  # bigint beyond float range
    _acc("SUM", [0.1, 0.2, 1e300, -1e300]).partial(),  # float expansion
    _acc("SUM", [math.inf, 1.0, math.nan]).partial(),  # specials flags
    _acc("AVG", [0.5, None, 2.25]).partial(),
    _acc("MIN", ["alpha", "beta"]).partial(),
    _acc("MAX", [None]).partial(),
    _acc("STDDEV", [0.1, 0.7, 1.3]).partial(),  # exact rational moments
    _acc("VAR_POP", [1e-12, 3.5]).partial(),
    make_accumulator("COUNT", is_star=True, distinct=False, arg_count=1).partial(),
]


@pytest.mark.parametrize("state", REAL_STATES, ids=range(len(REAL_STATES)))
def test_roundtrip_real_accumulator_states(state):
    payload = pack_value(state)
    decoded = unpack_value(payload)
    assert decoded == state
    # Bit-for-bit on the types too (True != 1 semantically for merge()).
    assert repr(decoded) == repr(state)


@pytest.mark.parametrize("state", REAL_STATES, ids=range(len(REAL_STATES)))
def test_packed_size_matches_encoding(state):
    assert packed_size(state) == len(pack_value(state))


def test_roundtrip_scalars_and_nesting():
    values = [
        None,
        True,
        False,
        0,
        -1,
        2**63 - 1,
        -(2**63),
        2**63,  # first bigint
        -(2**64) - 7,
        1.5,
        -0.0,
        math.inf,
        "state",
        "ünïcode",
        Fraction(-3, 7),
        Fraction(10**40, 3),
        ((1, (2.5, None)), Fraction(1, 3), "x"),
        (),
    ]
    for value in values:
        assert unpack_value(pack_value(value)) == value
        assert packed_size(value) == len(pack_value(value))


def test_nan_roundtrip():
    decoded = unpack_value(pack_value(math.nan))
    assert math.isnan(decoded)


def test_unsupported_type_raises():
    with pytest.raises(WireFormatError):
        pack_value([1, 2])
    with pytest.raises(WireFormatError):
        packed_size(object())


def test_truncated_payload_raises():
    payload = pack_value((1, 2.5))
    with pytest.raises(WireFormatError):
        unpack_value(payload + b"\x00")


@pytest.mark.parametrize(
    "value", [12345, "ab", 2**70, Fraction(1, 3), (1, "x")], ids=repr
)
def test_every_truncation_point_raises_wire_format_error(value):
    """No struct.error leaks and no bogus trailing-bytes messages."""
    payload = pack_value(value)
    for cut in range(len(payload)):
        with pytest.raises(WireFormatError):
            unpack_value(payload[:cut])


def test_estimated_bytes_uses_packed_state_sizes():
    """State relations are charged at packed size, not repr-text length."""
    states = [
        {"device": 1, "__agg0": _acc("SUM", [0.123456789, 2.5, None]).partial()},
        {"device": 2, "__agg0": _acc("SUM", [7.25]).partial()},
    ]
    relation = Relation.from_rows(states, name="partials")
    text_estimate = sum(
        8 + len(str(row["__agg0"])) for row in states
    )
    packed_estimate = sum(
        packed_size(row["device"]) + packed_size(row["__agg0"]) for row in states
    )
    assert relation.estimated_bytes() == packed_estimate
    assert relation.estimated_bytes() < text_estimate


def test_estimated_bytes_charges_every_cell_at_packed_size():
    """All cell types — not just states — are charged at codec size."""
    rows = [
        {"n": 1, "f": 2.5, "s": "héllo", "b": True, "missing": None},
        {"n": 2**70, "f": -0.0, "s": "", "b": False, "missing": None},
    ]
    relation = Relation.from_rows(rows, name="cells")
    expected = sum(
        packed_size(value) for row in rows for value in row.values()
    )
    assert relation.estimated_bytes() == expected


def test_moment_states_shrink_versus_text():
    """The Fraction moments of STDDEV states benefit the most."""
    state = _acc("STDDEV", [0.1, 0.7, 1.3, 2.9]).partial()
    assert packed_size(state) < len(str(state))


# ---------------------------------------------------------------------------
# pinned partial/combine state encodings
# ---------------------------------------------------------------------------

#: Per query: SHA-256 prefixes of the three leaf partial states and their
#: combine, as ``(payload after the 4-byte magic, cells of every column)``.
#: Every SUM/AVG state carries the canonical expansion of its exact sum
#: (same value and wire format as a grown expansion, fewer parts): the
#: leaf rows were re-recorded when leaf batches began to fold into it, the
#: combine rows of the four SUM/AVG queries when merged sums did too; every
#: other field of those states was unchanged.  ``None`` payload digests
#: mark the two-key states: their repeated ``activity`` keys ship
#: dictionary-coded, so only the cells are pinned.  The payload digests
#: were re-recorded for ``PRL3``, which ships tuple, int, float and bool
#: list columns as columns; the cells digests did not move with it.
PINNED_STATES = {
    "SELECT activity, COUNT(*) AS n, AVG(z) AS za, SUM(z) AS zs, MIN(t) AS lo, "
    "MAX(t) AS hi FROM d GROUP BY activity": [
        ("dd035433db71b26c", "4d2876f672298c73"),
        ("332f973541602c3a", "f8d498fddcc83a60"),
        ("0de8143d19f6c218", "f643aa7511593de3"),
        ("82d01e85bc420a1e", "7c4b1e6e2ab63a43"),
    ],
    "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x": [
        ("0b952ea2ca5e094c", "109720e3f82ee529"),
        ("6a82caa6dc4dfd09", "0c4402a304fddccb"),
        ("c597bd36ef00562e", "c2086037b936c8cb"),
        ("be6df22c23cf924c", "bfeaee5e9fbaa196"),
    ],
    "SELECT activity, person_id, COUNT(*), AVG(z), SUM(z), MIN(t), MAX(t) "
    "FROM d WHERE valid GROUP BY activity, person_id": [
        (None, "bb9ecd614afe014b"),
        (None, "9e073157963ca6e4"),
        (None, "268423d54cfafa62"),
        (None, "749670568e5507f5"),
    ],
    "SELECT person_id, STDDEV(z) AS sd, VAR_POP(x) AS vx, SUM(person_id) AS sp "
    "FROM d GROUP BY person_id": [
        ("4147ec8fda0373b9", "fec84807393f346c"),
        ("f9d7098b4eb120a3", "b1ea5bab86a825db"),
        ("4401f673094ffca1", "0f43256e307ec3ea"),
        ("cec720bcf0fc4dfe", "ba962335ea2279a4"),
    ],
    # The paper's GROUP BY: ``t`` travels as a first-value state.
    "SELECT x, y, AVG(z) AS zAVG, t FROM d WHERE z < 2 AND x > y "
    "GROUP BY x, y HAVING SUM(z) > 100": [
        ("bdb1d44b86097bbd", "e07ead35b1ceb87d"),
        ("c8205f419cd6e81f", "467cdff2996e7b48"),
        ("8aea13cc76cc3242", "9bc147864c96e0b3"),
        ("b0868e881359da30", "57b5d58335773105"),
    ],
}


@pytest.mark.parametrize("sql", sorted(PINNED_STATES))
def test_partial_and_combine_state_bytes_are_pinned(sql):
    """Partial and combine states stay byte-stable: the accumulator cells
    always, and the whole payload wherever no string column repeats."""
    import hashlib

    from repro.engine.database import Database
    from repro.engine.wire import pack_state_relation
    from repro.engine.table import union_partials
    from tests.conftest import make_sensor_relation

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    states = []
    for seed in (1, 2, 3):
        database = Database()
        database.register("d", make_sensor_relation(400, seed=seed))
        states.append(database.partial_aggregate(sql))
    states.append(Database().combine_partials(sql, union_partials(states, name="s")))
    observed = []
    for state, (payload_digest, _) in zip(states, PINNED_STATES[sql]):
        cells = b"".join(
            pack_value(tuple(state.column_array(name))) for name in state.schema.names
        )
        payload = pack_state_relation(state)
        observed.append(
            (digest(payload[4:]) if payload_digest else None, digest(cells))
        )
    assert observed == PINNED_STATES[sql]
