"""Tests for aggregate functions, including the SQL:2003 regression family."""

import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Database, EngineConfig
from repro.engine.aggregates import (
    DECOMPOSABLE_AGGREGATES,
    FINALIZE_ERRORS,
    SIMPLE_AGGREGATES,
    GroupedColumn,
    StatAccumulator,
    aggregate_column,
    compute_aggregate,
    is_decomposable_aggregate,
    is_known_aggregate,
    make_accumulator,
)
from repro.engine.columns import FLOAT64, INT64, typed_column_from_values
from repro.engine.errors import ExecutionError
from repro.engine.table import Relation
from repro.engine.wire import pack_value
from repro.runtime import union_partials


def test_count_sum_avg_min_max():
    values = [[1, 2, 3, None]]
    assert compute_aggregate("COUNT", values) == 3
    assert compute_aggregate("SUM", values) == 6
    assert compute_aggregate("AVG", values) == 2
    assert compute_aggregate("MIN", values) == 1
    assert compute_aggregate("MAX", values) == 3


def test_count_star_counts_nulls_too():
    assert compute_aggregate("COUNT", [[1, None, None]], is_star=True) == 3


def test_sum_preserves_int_when_all_int():
    assert compute_aggregate("SUM", [[1, 2]]) == 3
    assert isinstance(compute_aggregate("SUM", [[1, 2]]), int)
    assert isinstance(compute_aggregate("SUM", [[1.0, 2.0]]), float)


def test_empty_aggregates_return_none_or_zero():
    assert compute_aggregate("SUM", [[]]) is None
    assert compute_aggregate("AVG", [[None, None]]) is None
    assert compute_aggregate("COUNT", [[]]) == 0


def test_distinct_aggregation():
    assert compute_aggregate("COUNT", [[1, 1, 2]], distinct=True) == 2
    assert compute_aggregate("SUM", [[1, 1, 2]], distinct=True) == 3


def test_statistics_aggregates():
    values = [[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]]
    assert compute_aggregate("STDDEV_POP", values) == pytest.approx(2.0)
    assert compute_aggregate("VAR_POP", values) == pytest.approx(4.0)
    assert compute_aggregate("MEDIAN", values) == pytest.approx(4.5)
    assert compute_aggregate("STDDEV", [[1.0]]) is None


def test_regr_slope_and_intercept_on_perfect_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2 * x + 1 for x in xs]  # y = 2x + 1
    assert compute_aggregate("REGR_SLOPE", [ys, xs]) == pytest.approx(2.0)
    assert compute_aggregate("REGR_INTERCEPT", [ys, xs]) == pytest.approx(1.0)
    assert compute_aggregate("REGR_COUNT", [ys, xs]) == 4
    assert compute_aggregate("REGR_R2", [ys, xs]) == pytest.approx(1.0)
    assert compute_aggregate("CORR", [ys, xs]) == pytest.approx(1.0)


def test_regression_ignores_null_pairs():
    xs = [1.0, None, 3.0]
    ys = [1.0, 5.0, 3.0]
    assert compute_aggregate("REGR_COUNT", [ys, xs]) == 2
    assert compute_aggregate("REGR_SLOPE", [ys, xs]) == pytest.approx(1.0)


def test_regression_degenerate_cases():
    # Fewer than two points or zero variance in x -> NULL.
    assert compute_aggregate("REGR_SLOPE", [[1.0], [1.0]]) is None
    assert compute_aggregate("REGR_SLOPE", [[1.0, 2.0], [3.0, 3.0]]) is None
    assert compute_aggregate("CORR", [[1.0, 1.0], [1.0, 2.0]]) is None


def test_covariance():
    xs = [1.0, 2.0, 3.0]
    ys = [2.0, 4.0, 6.0]
    assert compute_aggregate("COVAR_POP", [ys, xs]) == pytest.approx(4.0 / 3.0)
    assert compute_aggregate("COVAR_SAMP", [ys, xs]) == pytest.approx(2.0)


def test_wrong_arity_raises():
    with pytest.raises(ExecutionError):
        compute_aggregate("REGR_SLOPE", [[1.0, 2.0]])
    with pytest.raises(ExecutionError):
        compute_aggregate("SUM", [])
    with pytest.raises(ExecutionError):
        compute_aggregate("NOT_AN_AGG", [[1]])


def test_is_known_aggregate():
    assert is_known_aggregate("avg")
    assert is_known_aggregate("REGR_INTERCEPT")
    assert not is_known_aggregate("UPPER")


# ---------------------------------------------------------------------------
# exact arithmetic and the partial-state protocol
# ---------------------------------------------------------------------------


def _run_accumulator(name, values, **kwargs):
    accumulator = make_accumulator(
        name,
        is_star=kwargs.get("is_star", False),
        distinct=kwargs.get("distinct", False),
        arg_count=1,
    )
    for value in values:
        accumulator.add((value,))
    return accumulator


def test_sum_of_large_ints_is_exact():
    """SUM over ints beyond 2**53 must not round through float.

    This is the compiled ``SumAccumulator`` regression: it used to keep a
    float running total and cast back with ``int(...)``, silently losing
    the low bits the batch path (and SQL semantics) preserve.
    """
    values = [2**53 + 1, 2**53 + 3, 7, -2**60, 2**60]
    exact = sum(values)
    assert float(exact) != exact  # the float detour would corrupt it
    assert compute_aggregate("SUM", [values]) == exact
    accumulator = _run_accumulator("SUM", values)
    assert accumulator.result() == exact
    assert isinstance(accumulator.result(), int)


def test_sum_large_int_partials_merge_exactly():
    values = [2**53 + 1, 1, 2**53 + 3, 5, -2**57, 2**57 + 11]
    merged = make_accumulator("SUM", is_star=False, distinct=False, arg_count=1)
    for split in (values[:2], values[2:3], values[3:]):
        merged.merge(_run_accumulator("SUM", split).partial())
    assert merged.finalize() == sum(values)


def test_sum_mixed_int_float_matches_batch():
    values = [2**53 + 1, 0.5, 3, None, 2.25]
    batch = compute_aggregate("SUM", [values])
    assert _run_accumulator("SUM", values).result() == batch
    assert isinstance(batch, float)


def test_stddev_variance_match_statistics_module():
    rng = random.Random(7)
    data = [rng.uniform(-50, 50) for _ in range(60)]
    assert compute_aggregate("STDDEV", [data]) == statistics.stdev(data)
    assert compute_aggregate("STDDEV_POP", [data]) == statistics.pstdev(data)
    assert compute_aggregate("VARIANCE", [data]) == statistics.variance(data)
    assert compute_aggregate("VAR_POP", [data]) == statistics.pvariance(data)


@pytest.mark.parametrize(
    "name",
    ["COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "STDDEV_POP", "VARIANCE", "VAR_POP"],
)
def test_partial_merge_finalize_matches_batch(name):
    """Any split of the input must merge into the exact batch result."""
    rng = random.Random(11)
    values = [
        None if rng.random() < 0.25 else round(rng.uniform(-10, 10), 3)
        for _ in range(120)
    ]
    batch = compute_aggregate(name, [values])
    for cuts in ([40, 80], [1, 2, 119], [0, 60], [120]):
        merged = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
        start = 0
        for cut in cuts + [len(values)]:
            merged.merge(_run_accumulator(name, values[start:cut]).partial())
            start = cut
        assert merged.finalize() == batch


def test_count_star_partials():
    left = make_accumulator("COUNT", is_star=True, distinct=False, arg_count=1)
    right = make_accumulator("COUNT", is_star=True, distinct=False, arg_count=1)
    for _ in range(3):
        left.add((1,))
    for _ in range(5):
        right.add((1,))
    left.merge(right.partial())
    assert left.finalize() == 8


def test_empty_partials_merge_to_empty_result():
    for name, expected in [("SUM", None), ("AVG", None), ("COUNT", 0), ("MIN", None)]:
        merged = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
        for _ in range(3):
            merged.merge(
                make_accumulator(name, is_star=False, distinct=False, arg_count=1).partial()
            )
        assert merged.finalize() == expected


def test_min_max_ties_keep_partition_order_semantics():
    # MIN keeps the *first* minimal value; merging in partition order must too.
    left = _run_accumulator("MIN", [1.0])
    right = _run_accumulator("MIN", [1])  # equal but later
    left.merge(right.partial())
    assert left.finalize() == 1.0 and isinstance(left.finalize(), float)


def test_sum_avg_non_finite_inputs_match_batch():
    """inf/nan inputs must not poison the exact expansion into NaN."""
    inf, nan = float("inf"), float("nan")
    for values in ([inf, 1.0], [inf, inf, 2.0], [-inf, 1.0]):
        assert _run_accumulator("SUM", values).result() == compute_aggregate("SUM", [values])
        assert _run_accumulator("AVG", values).result() == compute_aggregate("AVG", [values])
    assert math.isnan(_run_accumulator("SUM", [nan, 1.0]).result())
    assert math.isnan(_run_accumulator("AVG", [inf, nan]).result())
    # Mixed +inf/-inf raises the same error as the batch fsum path.
    with pytest.raises(ValueError):
        compute_aggregate("SUM", [[inf, -inf]])
    with pytest.raises(ValueError):
        _run_accumulator("SUM", [inf, -inf]).result()
    # Non-finite partials merge faithfully too.
    left = _run_accumulator("SUM", [inf, 1.0])
    left.merge(_run_accumulator("SUM", [2.0]).partial())
    assert left.finalize() == inf


def test_sum_int_beyond_float_range_stays_exact():
    """An all-int SUM past float range must not fail on the float image."""
    values = [10**400, 10**400, -7]
    expected = sum(values)
    assert compute_aggregate("SUM", [values]) == expected
    assert _run_accumulator("SUM", values).result() == expected
    merged = make_accumulator("SUM", is_star=False, distinct=False, arg_count=1)
    merged.merge(_run_accumulator("SUM", values[:1]).partial())
    merged.merge(_run_accumulator("SUM", values[1:]).partial())
    assert merged.finalize() == expected
    # Once a float appears the batch path overflows converting the huge int;
    # the accumulator must raise the same error instead of guessing.
    mixed = [10**400, 0.5]
    with pytest.raises(OverflowError):
        compute_aggregate("SUM", [mixed])
    with pytest.raises(OverflowError):
        _run_accumulator("SUM", mixed).result()


def test_is_decomposable_aggregate():
    assert is_decomposable_aggregate("SUM")
    assert is_decomposable_aggregate("avg")
    assert is_decomposable_aggregate("STDDEV")
    assert is_decomposable_aggregate("COUNT", is_star=True)
    assert not is_decomposable_aggregate("SUM", distinct=True)
    assert not is_decomposable_aggregate("MEDIAN")
    assert not is_decomposable_aggregate("REGR_SLOPE", arg_count=2)
    # DISTINCT/buffered accumulators expose no partial-state protocol.
    buffered = make_accumulator("SUM", is_star=False, distinct=True, arg_count=1)
    assert not hasattr(buffered, "partial")


# ---------------------------------------------------------------------------
# exact SUM/AVG against an independent Fraction oracle
# ---------------------------------------------------------------------------


class _FractionOracle:
    """SUM/AVG with the exact sum of the float images kept as a Fraction.

    It pins what the accumulators must match: ``result()`` is
    ``float(total)`` (an ``OverflowError`` exactly when that is out of
    float range), or what ``math.fsum`` gives over the special values
    seen; ``partial()`` carries :func:`_canonical_parts` of the total (no
    parts before a finite value arrives) and raises like ``result()``
    when the total is out of range.
    """

    def __init__(self, name):
        self.name = name
        self.total = None  # exact sum of the finite float images
        self.ints = 0
        self.count = 0
        self.all_int = True
        self.specials = [False, False, False]

    def _add_float(self, value):
        if math.isfinite(value):
            self.total = (self.total or Fraction(0)) + Fraction(value)
        elif math.isnan(value):
            self.specials[2] = True
        else:
            self.specials[0 if value > 0 else 1] = True

    def feed(self, values):
        for value in values:
            if value is None:
                continue
            self.count += 1
            if isinstance(value, int):
                self.ints += value
            else:
                self.all_int = False
            self._add_float(float(value))

    def absorb(self, state):
        if self.name == "SUM":
            ints, parts, present, all_int, specials, _ = state
            self.ints += ints
            self.all_int = self.all_int and all_int
            count = int(present)
        else:
            parts, count, specials = state
        for part in parts:
            self._add_float(part)
        self.count += count
        self.specials = [a or b for a, b in zip(self.specials, specials)]

    def partial(self):
        parts = () if self.total is None else _canonical_parts(self.total)
        specials = tuple(self.specials)
        if self.name == "SUM":
            return (self.ints, parts, self.count > 0, self.all_int, specials, False)
        return (parts, self.count, specials)

    def result(self):
        if not self.count:
            return None
        if self.name == "SUM" and self.all_int:
            return self.ints
        if any(self.specials):
            kinds = (math.inf, -math.inf, math.nan)
            total = math.fsum(kind for kind, seen in zip(kinds, self.specials) if seen)
        else:
            total = float(self.total or 0)
        return total if self.name == "SUM" else total / self.count


def _outcome(call):
    try:
        return ("ok", repr(call()))
    except Exception as error:  # noqa: BLE001 - the error *is* the outcome
        return (type(error).__name__, str(error))


def _kind(call):
    """The value's repr, or only the error's type: the oracle's messages
    are its own."""
    outcome = _outcome(call)
    return outcome if outcome[0] == "ok" else outcome[0]


def _split_state(state):
    """A SUM or AVG partial state as ``(float expansion, other fields)``."""
    if len(state) == 6:  # SUM: (int_total, parts, present, all_int, specials, overflow)
        return state[1], state[:1] + state[2:]
    return state[0], state[1:]  # AVG: (parts, count, specials)


def _canonical_parts(total):
    """Independent decomposition of an exact rational: ``s1 = float(S)``,
    ``s2 = float(S - s1)``, ... until the remainder is zero, smallest first."""
    parts = [float(total)]
    rest = total - Fraction(parts[0])
    while rest:
        parts.append(float(rest))
        rest -= Fraction(parts[-1])
    return tuple(reversed(parts))


def _check(accumulator, oracle):
    assert _kind(accumulator.result) == _kind(oracle.result)
    assert _kind(accumulator.partial) == _kind(oracle.partial)


_CANCELLING = [1e308, -1e308, 1.0, -1.0, 1e-308, 5e-324, 0.1, -0.0, 2.0**53, 3e300]

#: Ints whose float image is exact or rounded; the int total stays exact.
_INTS = [1, -3, 0, 2**53 + 1, -(2**60) - 1]


def _random_batch(rng, specials):
    roll = rng.random()
    if roll < 0.5:
        values = [rng.choice(_CANCELLING) for _ in range(rng.randint(0, 12))]
    elif roll < 0.8:
        values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(0, 40))]
    else:
        values = [rng.choice(_CANCELLING) * rng.uniform(0.5, 1.0) for _ in range(rng.randint(1, 6))]
    if specials and rng.random() < 0.2:
        values.insert(rng.randint(0, len(values)), rng.choice([math.inf, -math.inf, math.nan]))
    return values


def _mixed_batch(rng, specials):
    """A float batch with NULLs and, half the time, ints mixed in."""
    values = _random_batch(rng, specials)
    ints = rng.random() < 0.5
    for _ in range(rng.randint(0, 4)):
        value = rng.choice(_INTS) if ints and rng.random() < 0.6 else None
        values.insert(rng.randint(0, len(values)), value)
    return values


@pytest.mark.parametrize("name", ["SUM", "AVG"])
@pytest.mark.parametrize("seed", [3, 17, 29, 71])
def test_exact_sums_match_fraction_oracle(name, seed):
    """Random ``add``/``add_many``/``merge`` sequences, float64 columns and
    lists with NULLs and ints: every ``result()`` and ``partial()`` is the
    oracle's, errors included."""
    rng = random.Random(seed)
    for _ in range(60):
        specials = rng.random() < 0.3
        accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
        oracle = _FractionOracle(name)
        for _ in range(rng.randint(1, 8)):
            op = rng.random()
            if op < 0.45:
                values = _random_batch(rng, specials) + [None] * rng.randint(0, 1)
                oracle.feed(values)
                accumulator.add_many(typed_column_from_values(values, FLOAT64))
            elif op < 0.55:
                values = _mixed_batch(rng, specials)
                oracle.feed(values)
                accumulator.add_many(values)
            elif op < 0.7:
                value = rng.choice(_CANCELLING + _INTS + [None])
                oracle.feed([value])
                accumulator.add((value,))
            else:
                other = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
                other.add_many(_mixed_batch(rng, specials))
                try:
                    state = other.partial()
                except OverflowError:  # a sum out of range has no state
                    continue
                oracle.absorb(state)
                accumulator.merge(state)
            _check(accumulator, oracle)


@pytest.mark.parametrize("name", ["SUM", "AVG"])
def test_exact_sum_edge_cases_match_fraction_oracle(name):
    """Cancelling extremes, specials and empty input, split at every
    point into two ``add_many`` batches or two merged states."""
    top = 1.7976931348623157e308
    cases = [
        [1e308, -1e308, 1.0],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [-1e308, -1e308],
        [top, 1.0, -top],
        [top, top, -top],
        [math.inf, 1.0],
        [math.inf, 1e308, 1e308],
        [math.inf, -math.inf],
        [math.nan, 2.0],
        [math.nan, math.inf],
        [math.nan, math.inf, -math.inf],
        [1e16, 1.0, -1e16] * 5,
        [5e-324, -0.0, 5e-324],
        [],
    ]
    for values in cases:
        for split in range(len(values) + 1):
            oracle = _FractionOracle(name)
            fed = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
            merged = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
            every_state = True
            for batch in (values[:split], values[split:]):
                oracle.feed(batch)
                fed.add_many(typed_column_from_values(batch, FLOAT64))
                try:
                    merged.merge(_run_accumulator(name, batch).partial())
                except OverflowError:  # a part out of range has no state
                    every_state = False
            _check(fed, oracle)
            if every_state:
                _check(merged, oracle)


@pytest.mark.parametrize("name", ["SUM", "AVG"])
@pytest.mark.parametrize("seed", [5, 11, 23])
def test_any_batch_split_gives_identical_partials(name, seed):
    """The exported expansion depends on the exact sum only, so every split
    of one value sequence into ``add_many`` batches exports one tuple."""
    rng = random.Random(seed)
    for _ in range(40):
        values = [
            rng.choice(_CANCELLING) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
            for _ in range(rng.randint(0, 60))
        ]
        total = sum(map(Fraction, values), Fraction(0))
        states = set()
        for _ in range(6):
            cuts = sorted(rng.sample(range(len(values) + 1), rng.randint(0, min(4, len(values)))))
            accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
            for lo, hi in zip([0] + cuts, cuts + [len(values)]):
                accumulator.add_many(typed_column_from_values(values[lo:hi], FLOAT64))
            states.add(_outcome(accumulator.partial))
        assert len(states) == 1
        if values and abs(total) <= Fraction(1e308):
            parts, _ = _split_state(accumulator.partial())
            assert parts == _canonical_parts(total)


# ---------------------------------------------------------------------------
# exact STDDEV/VARIANCE moments against the batch functions
# ---------------------------------------------------------------------------

_STAT_NAMES = sorted(StatAccumulator._KINDS)


def _fraction_moments(values):
    """``(n, Σx, Σx²)`` of the non-NULL float images, as Fractions."""
    fractions = [Fraction(float(value)) for value in values if value is not None]
    return (
        len(fractions),
        sum(fractions, Fraction(0)),
        sum((fraction * fraction for fraction in fractions), Fraction(0)),
    )


def _stat_batch(values):
    """A batch fed as a typed float64 column when it fits one, else a list."""
    return typed_column_from_values(values, FLOAT64) or list(values)


def _feed_moments(name, accumulator, how, values):
    """One step of the moment oracle test: feed ``values`` ``how``."""
    if how == "typed":
        accumulator.add_many(typed_column_from_values(values, FLOAT64))
    elif how == "list":
        accumulator.add_many(values)
    elif how == "row":
        accumulator.add((values[0],))
    else:  # "merge": the state of another accumulator fed ``values``
        other = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
        other.add_many(values)
        accumulator.merge(other.partial())


@pytest.mark.parametrize("name", _STAT_NAMES)
@pytest.mark.parametrize("seed", [3, 17, 29, 71])
def test_moments_match_fraction_oracle(name, seed):
    """Random ``add``/list ``add_many``/typed ``add_many``/``merge``
    sequences: after every step ``result()`` is the batch function's over
    every value fed so far (errors by type and message) and ``partial()``
    is the exact Fraction moments.  A value the batch function fails on
    ends the run: ``result()`` and ``partial()`` raise its error (a merge
    step raises it while exporting the other state); a result out of float
    range fails ``result()`` alone."""
    batch_function = SIMPLE_AGGREGATES[name]
    rng = random.Random(seed)
    for _ in range(60):
        specials = rng.random() < 0.3
        accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
        fed = []
        for _ in range(rng.randint(1, 8)):
            op = rng.random()
            if op < 0.45:
                how, values = "typed", _random_batch(rng, specials) + [None] * rng.randint(0, 1)
            elif op < 0.55:
                how, values = "list", _mixed_batch(rng, specials)
            elif op < 0.7:
                how, values = "row", [rng.choice(_CANCELLING + _INTS + [None])]
            else:
                how, values = "merge", _mixed_batch(rng, specials)
            fed += values
            expected = _outcome(lambda: batch_function(fed))
            stepped = _outcome(lambda: _feed_moments(name, accumulator, how, values))
            if stepped[0] != "ok":
                assert stepped == expected
                break
            assert _outcome(accumulator.result) == expected
            exported = _outcome(accumulator.partial)
            if exported[0] != "ok":
                assert exported == expected
                break
            assert accumulator.partial() == _fraction_moments(fed)
            assert pack_value(accumulator.partial()) == pack_value(_fraction_moments(fed))


@pytest.mark.parametrize("name", _STAT_NAMES)
def test_moments_edge_cases_match_fraction_oracle(name):
    """NaN, infinities, an int past float range, subnormals and values
    whose squares pass float range, split at every point into two
    ``add_many`` batches or two merged states, and row by row."""
    batch_function = SIMPLE_AGGREGATES[name]
    top = 1.7976931348623157e308
    cases = [
        [math.nan, 2.0],
        [1.0, math.nan, math.inf],
        [math.inf, 1.0],
        [3.0, -math.inf],
        [10**400, 1.0],
        [2.0, -(10**400)],
        [5e-324, -5e-324, 1e-310, 2.5e-320],
        [5e-324, 5e-324],
        [1e154, 1.3e154, -1e154],
        [1e200, 3e200],
        [top, -top, top],
        [top, top],
        [2.0**53 + 1, 1.0, None, 1e16, -1e16],
        [None, 4.0],
        [],
    ]
    for values in cases:
        expected = _outcome(lambda: batch_function(values))

        def row_by_row():
            accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
            for value in values:
                accumulator.add((value,))
            return accumulator.result()

        assert _outcome(row_by_row) == expected, values
        for split in range(len(values) + 1):
            batches = (values[:split], values[split:])

            def fed():
                accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
                for batch in batches:
                    accumulator.add_many(_stat_batch(batch))
                assert accumulator.partial() == _fraction_moments(values)
                return accumulator.result()

            def merged():
                accumulator = make_accumulator(name, is_star=False, distinct=False, arg_count=1)
                for batch in batches:
                    accumulator.merge(_run_accumulator(name, batch).partial())
                return accumulator.result()

            assert _outcome(fed) == expected, (values, split)
            assert _outcome(merged) == expected, (values, split)


def test_moment_states_must_be_dyadic():
    """A merged state's sums must be multiples of ``2**-1074`` (Σx) and
    ``2**-2148`` (Σx²), as every exported state is."""
    accumulator = make_accumulator("STDDEV", is_star=False, distinct=False, arg_count=1)
    accumulator.merge((1, Fraction(3, 2**1074), Fraction(9, 2**2148)))
    for state in (
        (1, Fraction(1, 3), Fraction(1, 9)),
        (1, Fraction(1, 2**1075), Fraction(0)),
        (1, Fraction(0), Fraction(1, 2**2149)),
    ):
        with pytest.raises(ExecutionError):
            accumulator.merge(state)
    assert accumulator.partial() == (1, Fraction(3, 2**1074), Fraction(9, 2**2148))


# ---------------------------------------------------------------------------
# float overflow depends on the exact total only, never on row order
# ---------------------------------------------------------------------------

_OVERFLOW_CONFIGS = {
    "default": EngineConfig(),
    "no_optimizer": EngineConfig(optimizer=False),
    "row_scan": EngineConfig(vectorized=False),
    "interpreted": EngineConfig(mode="interpreted"),
}

_OVERFLOW_SQL = "SELECT SUM(v) AS s, AVG(v) AS a FROM d"


def _float_database(values):
    database = Database()
    database.register(
        "d", Relation.from_rows([{"v": value} for value in values], name="d")
    )
    return database


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
@pytest.mark.parametrize(
    "values", [[1.7e308, 1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308]], ids=["big_first", "cancel_first"]
)
def test_float_sum_overflow_ignores_row_order(config, values):
    """An intermediate overflow in one row order is no error: the exact
    total is in range, so ``SUM`` is 1.7e308 and ``AVG`` a third of it."""
    rows = _float_database(values).query(_OVERFLOW_SQL, _OVERFLOW_CONFIGS[config]).rows
    assert [(row["s"], row["a"]) for row in rows] == [(1.7e308, 1.7e308 / 3)]
    assert compute_aggregate("SUM", [values]) == 1.7e308
    assert _run_accumulator("AVG", values).result() == 1.7e308 / 3


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
def test_float_sum_overflow_raises_only_out_of_range(config):
    """An exact total out of float range raises on every path; an infinity
    decides the sum even when the finite values would overflow."""
    with pytest.raises(OverflowError):
        _float_database([1.7e308, 1.7e308, 1.0]).query(_OVERFLOW_SQL, _OVERFLOW_CONFIGS[config])
    rows = _float_database([math.inf, 1e308, 1e308]).query(
        _OVERFLOW_SQL, _OVERFLOW_CONFIGS[config]
    ).rows
    assert [(row["s"], row["a"]) for row in rows] == [(math.inf, math.inf)]


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
@pytest.mark.parametrize(
    "values,cut",
    [
        ([1.7e308, 1.7e308, -1.7e308], 1),
        ([1.7e308, -1.7e308, 1.7e308], 2),
        ([1.7e308, -1.7e308, 1.7e308], 1),
    ],
)
def test_float_sum_states_in_range_combine_exactly(config, values, cut):
    """``partial_aggregate`` per part, ``combine_partials``, then
    ``finalize_partials``: each state stays in range, so the split gives
    the one-pass result."""
    engine = _OVERFLOW_CONFIGS[config]
    states = [
        _float_database(part).partial_aggregate(_OVERFLOW_SQL, engine)
        for part in (values[:cut], values[cut:])
    ]
    combined = Database().combine_partials(_OVERFLOW_SQL, union_partials(states, name="s"), engine)
    final = Database().finalize_partials(_OVERFLOW_SQL, combined, engine)
    assert [(row["s"], row["a"]) for row in final.rows] == [(1.7e308, 1.7e308 / 3)]


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
@pytest.mark.parametrize(
    "values, sum_error, avg_error",
    [
        ([10**400, "a"], ValueError, OverflowError),
        (["a", 10**400], ValueError, ValueError),
    ],
    ids=["int_first", "string_first"],
)
def test_sum_of_a_huge_int_and_a_string_raises_alike(config, values, sum_error, avg_error):
    """``SUM`` records an int beyond float range and raises only once every
    value converted, so the string's ``ValueError`` wins in either row
    order, interpreted too; ``AVG`` converts each value as it comes."""
    engine = _OVERFLOW_CONFIGS[config]
    for sql, error in (
        ("SELECT SUM(v) AS s FROM d", sum_error),
        ("SELECT AVG(v) AS s FROM d", avg_error),
    ):
        with pytest.raises(error):
            _float_database(values).query(sql, engine)
        with pytest.raises(error):
            _float_database(values).partial_aggregate(sql, engine)
        # One value per part, in row order: SUM's int part keeps a state and
        # the string's part raises; AVG's parts raise as its rows would.
        with pytest.raises(error):
            states = [
                _float_database([value]).partial_aggregate(sql, engine) for value in values
            ]
            Database().combine_partials(sql, union_partials(states, name="s"), engine)


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
@pytest.mark.parametrize(
    "values, error",
    [
        ([math.inf, "a"], ValueError),
        ([math.nan, 10**400], OverflowError),
        ([math.inf, math.nan], OverflowError),
        ([math.nan, math.inf], ValueError),
    ],
    ids=["inf_then_string", "nan_then_huge_int", "inf_then_nan", "nan_then_inf"],
)
def test_stddev_converts_every_value_before_scaling(config, values, error):
    """The moments convert every value with ``float`` before scaling any,
    as the batch functions do: a value that does not convert raises ahead
    of an earlier inf or NaN (which cannot scale), grouped or not, and in
    the partial protocol too."""
    with pytest.raises(error):
        compute_aggregate("STDDEV", [values])
    engine = _OVERFLOW_CONFIGS[config]
    for sql in (
        "SELECT STDDEV(v) AS s FROM d",
        "SELECT g, STDDEV(v) AS s FROM d GROUP BY g",
    ):
        database = Database()
        database.register(
            "d", Relation.from_rows([{"g": 1, "v": value} for value in values], name="d")
        )
        with pytest.raises(error):
            database.query(sql, engine)
        with pytest.raises(error):
            database.partial_aggregate(sql, engine)


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
def test_stddev_raises_for_its_first_failing_group(config):
    """Groups fail in first-occurrence order, as the batch function runs
    them: the first group's inf raises, not a later group's string."""
    database = Database()
    database.register(
        "d",
        Relation.from_rows(
            [{"g": 1, "v": math.inf}, {"g": 2, "v": "a"}, {"g": 1, "v": 1.0}], name="d"
        ),
    )
    with pytest.raises(OverflowError):
        database.query(
            "SELECT g, STDDEV(v) AS s FROM d GROUP BY g", _OVERFLOW_CONFIGS[config]
        )


@pytest.mark.parametrize("config", sorted(_OVERFLOW_CONFIGS))
def test_float_sum_state_out_of_range_raises_at_partial(config):
    """A part whose own exact sum is out of float range has no state."""
    with pytest.raises(OverflowError):
        _float_database([1.7e308, 1.7e308]).partial_aggregate(
            _OVERFLOW_SQL, _OVERFLOW_CONFIGS[config]
        )
    for name in ("SUM", "AVG"):
        accumulator = _run_accumulator(name, [1.7e308, 1.7e308])
        with pytest.raises(OverflowError):
            accumulator.partial()
        accumulator.add((-1.7e308,))
        assert _split_state(accumulator.partial())[0] == (1.7e308,)


# ---------------------------------------------------------------------------
# column slices (buffer paths) against row-by-row ``add``
# ---------------------------------------------------------------------------

_SLICE_FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=True, allow_infinity=True),
    # NaN, infinities, signed-zero ties and magnitudes whose fsum may
    # overflow.
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 2.0**1020]),
)
_SLICE_INTS = st.one_of(st.integers(-10, 10), st.integers(-(2**63), 2**63 - 1))

#: Column kinds: (typecode or None for a plain list, cell strategy).
_SLICE_KINDS = {
    "int64": (INT64, _SLICE_INTS),
    "float64": (FLOAT64, _SLICE_FLOATS),
    "list_mixed": (
        None,
        st.one_of(_SLICE_INTS, _SLICE_FLOATS, st.sampled_from(["a", "b"])),
    ),
    "list_numeric": (None, st.one_of(_SLICE_INTS, _SLICE_FLOATS)),
    # Ints beyond 2**63 (and beyond float range) next to floats.
    "list_bigint": (
        None,
        st.one_of(
            st.integers(2**63, 2**70),
            st.integers(-(2**70), -(2**63) - 1),
            st.sampled_from([10**400, -(10**400)]),
            _SLICE_FLOATS,
        ),
    ),
}

_SLICE_CALLS = [(name, False) for name in sorted(DECOMPOSABLE_AGGREGATES)] + [("COUNT", True)]


@st.composite
def _grouped_column(draw):
    """A column of one kind, with or without NULLs, and its groups: index
    lists in first-occurrence order, or None for one whole-column group."""
    typecode, cells = _SLICE_KINDS[draw(st.sampled_from(sorted(_SLICE_KINDS)))]
    if draw(st.booleans()):
        cells = st.none() | cells
    values = draw(st.lists(cells, max_size=30))
    column = list(values) if typecode is None else typed_column_from_values(values, typecode)
    if draw(st.booleans()):
        return column, None
    if not values:
        return column, [[]]  # the global group over no rows
    labels = draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
    groups = {}
    for index, label in enumerate(labels):
        groups.setdefault(label, []).append(index)
    return column, list(groups.values())


def _row_by_row_column(name, is_star, column, groups, phase):
    """make, ``add`` of each row of the group's slice, then ``phase``, per
    group: feed errors propagate, phase calls stop at the first error."""
    values, failure = [], None
    for indices in [range(len(column))] if groups is None else groups:
        accumulator = make_accumulator(name, is_star=is_star, distinct=False, arg_count=1)
        for index in indices:
            accumulator.add((1,) if is_star else (column[index],))
        if failure is not None:
            continue
        try:
            values.append(getattr(accumulator, phase)())
        except FINALIZE_ERRORS as error:
            failure = (len(values), type(error), str(error))
    return values, failure


def _packed(values, failure):
    return [pack_value(value) for value in values], failure


@given(_grouped_column())
@settings(max_examples=300, deadline=None)
# An empty float64 column: fresh-accumulator states, whole or as the
# global group over no rows.
@example((typed_column_from_values([], FLOAT64), None))
@example((typed_column_from_values([], FLOAT64), [[]]))
# Group 0's sum fails after its loop; group 1 takes the buffer path.
@example((typed_column_from_values([math.inf, -math.inf, 1.0], FLOAT64), [[0, 1], [2]]))
def test_slice_add_many_matches_row_by_row_add(case):
    """Every decomposable aggregate's :func:`aggregate_column` over typed
    (or list) slices, where ``add_many`` takes the buffer paths, packs to
    the bytes of feeding each row through ``add``, states and results
    alike, and fails the same way.  All calls share one GroupedColumn, so
    they share its gathered slices."""
    column, groups = case
    sizes = [len(column)] if groups is None else [len(indices) for indices in groups]
    for phase in ("partial", "result"):
        shared = GroupedColumn(column, groups)
        for name, is_star in _SLICE_CALLS:

            def sliced():
                computed = aggregate_column(
                    name,
                    is_star=is_star,
                    distinct=False,
                    arg_count=1,
                    arguments=[] if is_star else [shared],
                    sizes=sizes,
                    phase=phase,
                )
                failure = None
                if computed.error is not None:
                    error = computed.error
                    failure = (computed.failed_at, type(error), str(error))
                return computed.values, failure

            expected = _outcome(
                lambda: _packed(*_row_by_row_column(name, is_star, column, groups, phase))
            )
            assert _outcome(lambda: _packed(*sliced())) == expected, (name, phase)
