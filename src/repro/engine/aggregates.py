"""Aggregate function implementations.

The paper's running example uses ``AVG``, ``SUM`` and the SQL:2003 linear
regression aggregates (``regr_intercept``); the full set below covers the
aggregates an activity-recognition workload typically needs.

**Exact, order-independent arithmetic.**  ``SUM``/``AVG`` keep the exact
sum of their float inputs as one integer (every finite float is a whole
multiple of ``2**-1074``) and integers as exact int sums, and export it as
the canonical float expansion of that sum; the ``STDDEV``/``VARIANCE``
family keeps its moments ``(n, Σx, Σx²)`` the same way, as ints scaled by
``2**1074`` and ``2**2148``, and exports them as exact fractions.  The
accumulators below are the engine's one compiled implementation of each
decomposable aggregate: rows, typed column slices, partial states,
windows and standing trees all go through them, and the batch
functions (``_agg_*``) stay their independent oracle.  A float ``SUM`` or
``AVG`` raises ``OverflowError`` exactly when its correctly rounded total
is out of float range, whatever the row order.  Exactness is what makes these
aggregates *decomposable*: partial states computed over disjoint partitions
of the input merge into bit-for-bit the same result as one pass over the
whole input, regardless of how the partitions are split or combined.  The
distributed runtime relies on this to push partial aggregation to the
sensor leaves (see :mod:`repro.runtime.dag`).

**Partial-state protocol.**  Decomposable accumulators implement
``partial()`` (export a mergeable state), ``merge(state)`` (absorb another
accumulator's partial state) and ``finalize()`` (alias of ``result()``).
``DISTINCT`` aggregates, ``MEDIAN`` and the two-argument regression family
are *not* decomposable — they buffer their inputs and only support the
plain ``add``/``result`` interface.
"""

from __future__ import annotations

import itertools
import math
import statistics
from array import array
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.columns import FLOAT64, INT64, TypedColumn, take_column
from repro.engine.errors import ExecutionError


def _numeric(values: Sequence[Any]) -> List[float]:
    return [float(v) for v in values if v is not None]


class _SpecialValues:
    """Presence flags for non-finite float inputs (``inf``/``-inf``/``nan``).

    ``math.fsum``'s result over special values depends only on which kinds
    appear, so three booleans losslessly summarize any number of them.
    """

    __slots__ = ("pos_inf", "neg_inf", "nan")

    def __init__(self) -> None:
        self.pos_inf = self.neg_inf = self.nan = False

    def add(self, value: float) -> None:
        if math.isnan(value):
            self.nan = True
        elif value > 0:
            self.pos_inf = True
        else:
            self.neg_inf = True

    def state(self) -> Tuple[bool, bool, bool]:
        return (self.pos_inf, self.neg_inf, self.nan)

    def merge(self, state: Tuple[bool, bool, bool]) -> None:
        self.pos_inf = self.pos_inf or state[0]
        self.neg_inf = self.neg_inf or state[1]
        self.nan = self.nan or state[2]


#: Every finite float is an integer multiple of ``2**-1074`` (the smallest
#: subnormal), so ``value * _SCALE`` is an exact int.
_SCALE = 1 << 1074


def _scaled(value: float) -> int:
    """``value * 2**1074`` of a finite float, exactly."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


class _ExactFloatSum:
    """Exact float summation shared by ``SUM`` and ``AVG``.

    ``exact`` is the exact sum of the finite inputs times ``2**1074``, one
    Python int (Kulisch's long accumulator), or None until a finite value
    arrives (such a sum exports no parts); non-finite inputs set
    :class:`_SpecialValues` flags.  Adding
    and merging are int additions, so the sum never depends on the order
    or grouping of its inputs.  :meth:`total` is ``exact / 2**1074``:
    CPython rounds int/int true division correctly, so it is the value
    :func:`math.fsum` gives, and it raises ``OverflowError`` exactly when
    the rounded total is out of float range.  :meth:`parts` exports the
    canonical expansion of the same exact value.
    """

    __slots__ = ("exact", "specials")

    def __init__(self) -> None:
        self.exact: Optional[int] = None
        self.specials = _SpecialValues()

    def add_float(self, value: float) -> None:
        if math.isfinite(value):
            self.exact = (self.exact or 0) + _scaled(value)
        else:
            self.specials.add(value)

    def merge_parts(self, parts: Sequence[float]) -> None:
        if parts:
            self.exact = sum(map(_scaled, parts), self.exact or 0)

    def add_buffer(
        self, values: Sequence[Any], parts: Optional[Tuple[float, ...]] = None
    ) -> bool:
        """Add a non-empty NULL-free float64 column at buffer speed: its
        :func:`_buffer_expansion` (``parts`` when the caller has it),
        folded like a merged state.  False (nothing added) when there is
        none: a special value or an intermediate overflow is left to the
        caller's per-value loop."""
        if parts is None:
            parts = _buffer_expansion(values)
            if parts is None:
                return False
        self.merge_parts(parts)
        return True

    def parts(self) -> Tuple[float, ...]:
        """``s1 = exact / SCALE``, ``s2`` the rest rounded, ... until the
        remainder is zero, smallest first; empty with no finite input.
        Raises ``OverflowError`` when the sum is out of float range."""
        rest = self.exact
        if rest is None:
            return ()
        parts = []
        while True:
            part = rest / _SCALE
            parts.append(part)
            rest -= _scaled(part)
            if not rest:
                break
        parts.reverse()
        return tuple(parts)

    def total(self) -> float:
        """The sum rounded once, or what ``math.fsum`` gives over the
        special values: a mix of ``inf`` and ``-inf`` raises its
        ``ValueError``, else NaN wins over an infinity."""
        specials = self.specials
        if specials.pos_inf and specials.neg_inf:
            raise ValueError("-inf + inf in fsum")
        if specials.nan:
            return math.nan
        if specials.pos_inf or specials.neg_inf:
            return math.inf if specials.pos_inf else -math.inf
        return (self.exact or 0) / _SCALE


def _buffer(values: Sequence[Any], typecodes: Tuple[str, ...]) -> Optional[array]:
    """The unboxed buffer of a NULL-free typed column of one of
    ``typecodes``, else None."""
    if (
        isinstance(values, TypedColumn)
        and values.typecode in typecodes
        and not values.null_count
    ):
        return values.data_array()
    return None


def _buffer_expansion(values: Sequence[Any]) -> Optional[Tuple[float, ...]]:
    """The :func:`_canonical_expansion` of a non-empty NULL-free float64
    column; None for any other column, or when ``fsum`` over the buffer
    raises or is not finite."""
    buffer = _buffer(values, (FLOAT64,))
    return _canonical_expansion(buffer) if buffer else None


def _canonical_expansion(values: Sequence[float]) -> Optional[Tuple[float, ...]]:
    """The canonical expansion of the exact sum ``S`` of finite floats,
    or None when ``fsum`` raises or is not finite.

    ``s1 = fsum(values)``, ``s2 = fsum(values, -s1)``, ... until the
    remainder is zero, stored smallest first: the parts
    :meth:`_ExactFloatSum.parts` exports for the same ``S``.  ``fsum`` is
    correctly rounded, so each part is the remainder rounded once; every
    remainder is an exact dyadic rational, so the passes end (about three
    for sensor data).
    """
    try:
        parts = [math.fsum(values)]
        if not math.isfinite(parts[0]):
            return None
        negated = [-parts[0]]
        while True:
            rest = math.fsum(itertools.chain(values, negated))
            if not rest:
                break
            parts.append(rest)
            negated.append(-rest)
    except (OverflowError, ValueError):
        return None
    parts.reverse()
    return tuple(parts)


def _fsum(numbers: Sequence[float]) -> float:
    """``math.fsum``, with one overflow rule: an intermediate overflow
    (which depends on the order of the values) falls back to the exact
    total, so only a correctly rounded total out of float range raises."""
    try:
        return math.fsum(numbers)
    except OverflowError:
        total = _ExactFloatSum()
        for number in numbers:
            total.add_float(number)
        return total.total()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _exact_moments(numbers: Sequence[float]) -> Tuple[int, Fraction, Fraction]:
    """Exact ``(n, Σx, Σx²)`` of float inputs, as rationals."""
    n = 0
    sx = Fraction(0)
    sxx = Fraction(0)
    for number in numbers:
        frac = Fraction(number)
        n += 1
        sx += frac
        sxx += frac * frac
    return n, sx, sxx


def _moments_mss(n: int, sx: Fraction, sxx: Fraction, sample: bool) -> Optional[Fraction]:
    """Mean-square deviation ``Σ(x-μ)²/d`` from exact moments (or None)."""
    if sample:
        if n < 2:
            return None
        denominator = n - 1
    else:
        if n < 1:
            return None
        denominator = n
    return (sxx - sx * sx / n) / denominator


def _sqrt_of_fraction(value: Fraction) -> float:
    """Correctly rounded square root of an exact non-negative rational."""
    try:
        return statistics._float_sqrt_of_frac(value.numerator, value.denominator)
    except AttributeError:  # pragma: no cover - older Python fallback
        return math.sqrt(float(value))


def _agg_count(values: Sequence[Any]) -> int:
    return sum(1 for v in values if v is not None)


def _agg_count_star(values: Sequence[Any]) -> int:
    return len(values)


def _agg_sum(values: Sequence[Any]) -> Any:
    present = [v for v in values if v is not None]
    if not present:
        return None
    if all(_is_int(v) for v in present):
        # Exact int sum: no float round-trip, so values beyond 2**53 keep
        # full precision (Python ints are arbitrary precision).
        return sum(present)
    # As SumAccumulator: an int beyond float range raises only once every
    # value converted, so a later unconvertible value raises its own error.
    numbers = []
    int_overflow = False
    for value in present:
        try:
            numbers.append(float(value))
        except OverflowError:
            if not _is_int(value):
                raise
            int_overflow = True
    if int_overflow:
        raise OverflowError("int too large to convert to float")
    return _fsum(numbers)


def _agg_avg(values: Sequence[Any]) -> Any:
    numbers = _numeric(values)
    if not numbers:
        return None
    return _fsum(numbers) / len(numbers)


def _agg_min(values: Sequence[Any]) -> Any:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _agg_max(values: Sequence[Any]) -> Any:
    present = [v for v in values if v is not None]
    return max(present) if present else None


def _agg_median(values: Sequence[Any]) -> Any:
    numbers = _numeric(values)
    return statistics.median(numbers) if numbers else None


def _agg_stddev_samp(values: Sequence[Any]) -> Any:
    mss = _moments_mss(*_exact_moments(_numeric(values)), sample=True)
    return None if mss is None else _sqrt_of_fraction(mss)


def _agg_stddev_pop(values: Sequence[Any]) -> Any:
    mss = _moments_mss(*_exact_moments(_numeric(values)), sample=False)
    return None if mss is None else _sqrt_of_fraction(mss)


def _agg_var_samp(values: Sequence[Any]) -> Any:
    mss = _moments_mss(*_exact_moments(_numeric(values)), sample=True)
    return None if mss is None else float(mss)


def _agg_var_pop(values: Sequence[Any]) -> Any:
    mss = _moments_mss(*_exact_moments(_numeric(values)), sample=False)
    return None if mss is None else float(mss)


#: Single-argument aggregates.
SIMPLE_AGGREGATES: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "COUNT": _agg_count,
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "MEDIAN": _agg_median,
    "STDDEV": _agg_stddev_samp,
    "STDDEV_SAMP": _agg_stddev_samp,
    "STDDEV_POP": _agg_stddev_pop,
    "VARIANCE": _agg_var_samp,
    "VAR_SAMP": _agg_var_samp,
    "VAR_POP": _agg_var_pop,
}


def _regression_pairs(ys: Sequence[Any], xs: Sequence[Any]) -> List[Tuple[float, float]]:
    pairs = []
    for y, x in zip(ys, xs):
        if y is None or x is None:
            continue
        pairs.append((float(y), float(x)))
    return pairs


def _regr_slope(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    pairs = _regression_pairs(ys, xs)
    if len(pairs) < 2:
        return None
    mean_x = sum(x for _, x in pairs) / len(pairs)
    mean_y = sum(y for y, _ in pairs) / len(pairs)
    sxx = sum((x - mean_x) ** 2 for _, x in pairs)
    if sxx == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for y, x in pairs)
    return sxy / sxx


def _regr_intercept(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    """SQL:2003 ``REGR_INTERCEPT(y, x)``: intercept of the least-squares fit."""
    slope = _regr_slope(ys, xs)
    if slope is None:
        return None
    pairs = _regression_pairs(ys, xs)
    mean_x = sum(x for _, x in pairs) / len(pairs)
    mean_y = sum(y for y, _ in pairs) / len(pairs)
    return mean_y - slope * mean_x


def _regr_count(ys: Sequence[Any], xs: Sequence[Any]) -> int:
    return len(_regression_pairs(ys, xs))


def _regr_r2(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    pairs = _regression_pairs(ys, xs)
    if len(pairs) < 2:
        return None
    corr = _corr(ys, xs)
    if corr is None:
        syy = sum((y - sum(p[0] for p in pairs) / len(pairs)) ** 2 for y, _ in pairs)
        return 1.0 if syy == 0 else None
    return corr * corr


def _corr(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    pairs = _regression_pairs(ys, xs)
    if len(pairs) < 2:
        return None
    mean_x = sum(x for _, x in pairs) / len(pairs)
    mean_y = sum(y for y, _ in pairs) / len(pairs)
    sxx = sum((x - mean_x) ** 2 for _, x in pairs)
    syy = sum((y - mean_y) ** 2 for y, _ in pairs)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for y, x in pairs)
    return sxy / math.sqrt(sxx * syy)


def _covar_pop(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    pairs = _regression_pairs(ys, xs)
    if not pairs:
        return None
    mean_x = sum(x for _, x in pairs) / len(pairs)
    mean_y = sum(y for y, _ in pairs) / len(pairs)
    return sum((x - mean_x) * (y - mean_y) for y, x in pairs) / len(pairs)


def _covar_samp(ys: Sequence[Any], xs: Sequence[Any]) -> Any:
    pairs = _regression_pairs(ys, xs)
    if len(pairs) < 2:
        return None
    mean_x = sum(x for _, x in pairs) / len(pairs)
    mean_y = sum(y for y, _ in pairs) / len(pairs)
    return sum((x - mean_x) * (y - mean_y) for y, x in pairs) / (len(pairs) - 1)


#: Two-argument aggregates (SQL:2003 regression family).
BINARY_AGGREGATES: Dict[str, Callable[[Sequence[Any], Sequence[Any]], Any]] = {
    "REGR_SLOPE": _regr_slope,
    "REGR_INTERCEPT": _regr_intercept,
    "REGR_COUNT": _regr_count,
    "REGR_R2": _regr_r2,
    "CORR": _corr,
    "COVAR_POP": _covar_pop,
    "COVAR_SAMP": _covar_samp,
}


def compute_aggregate(
    name: str, argument_values: Sequence[Sequence[Any]], is_star: bool = False, distinct: bool = False
) -> Any:
    """Compute the aggregate ``name`` over per-row argument value lists.

    Args:
        name: Aggregate function name (case-insensitive).
        argument_values: One sequence per argument; each sequence holds the
            evaluated argument for every row of the group.
        is_star: True for ``COUNT(*)``.
        distinct: True for ``agg(DISTINCT expr)``.
    """
    upper = name.upper()
    if upper == "COUNT" and is_star:
        return _agg_count_star(argument_values[0] if argument_values else [])
    if upper in SIMPLE_AGGREGATES:
        if not argument_values:
            raise ExecutionError(f"{upper} requires one argument")
        values = list(argument_values[0])
        if distinct:
            seen = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            values = seen
        return SIMPLE_AGGREGATES[upper](values)
    if upper in BINARY_AGGREGATES:
        if len(argument_values) != 2:
            raise ExecutionError(f"{upper} requires two arguments")
        return BINARY_AGGREGATES[upper](argument_values[0], argument_values[1])
    raise ExecutionError(f"Unknown aggregate function: {name}")


def is_known_aggregate(name: str) -> bool:
    """Return True when ``name`` is a supported aggregate."""
    upper = name.upper()
    return upper in SIMPLE_AGGREGATES or upper in BINARY_AGGREGATES or upper == "COUNT"


# ---------------------------------------------------------------------------
# incremental accumulators
# ---------------------------------------------------------------------------
#
# The compiled execution path feeds rows through accumulators one at a time
# (single-pass GROUP BY, running window frames) instead of materialising the
# per-group value lists first.  Incremental implementations exist for the
# aggregates whose streaming update reproduces the batch result bit for bit;
# everything else (DISTINCT, MEDIAN, the regression family, ...) buffers its
# inputs and delegates to :func:`compute_aggregate` at emit time, so both
# accumulator kinds return exactly what the batch functions return.
#
# Incremental accumulators additionally implement the mergeable
# partial-state protocol: ``partial()`` exports the accumulator's state,
# ``merge(state)`` absorbs a state computed over another partition of the
# input, and ``finalize()`` (an alias of ``result()``) produces the final
# value.  Because the underlying arithmetic is exact, any split of the
# input into partial states merges into the same result as one pass.
#
# Column slices feed in bulk: ``add_many(values)`` consumes a sequence of
# raw argument values (no tuple boxing; a ones column for star rows), the
# exact bulk equivalent of repeated ``add`` calls in the same order.  Over
# a NULL-free int64/float64 :class:`TypedColumn` slice, COUNT, MIN/MAX and
# float SUM/AVG work on the unboxed buffer (see :func:`_buffer`).


class CountStarAccumulator:
    """``COUNT(*)``: counts every row.  Partial state: the count."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, values: Tuple[Any, ...]) -> None:
        self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.count += len(values)

    def result(self) -> int:
        return self.count

    def partial(self) -> int:
        return self.count

    def merge(self, state: int) -> None:
        self.count += state

    def finalize(self) -> int:
        return self.result()


class CountAccumulator:
    """``COUNT(expr)``: counts non-NULL values.  Partial state: the count."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, values: Tuple[Any, ...]) -> None:
        if values[0] is not None:
            self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        if isinstance(values, TypedColumn):
            # O(1): the typed backing tracks its NULL count.
            self.count += len(values) - values.null_count
        elif isinstance(values, list):
            self.count += len(values) - values.count(None)
        else:
            self.count += sum(1 for value in values if value is not None)

    def result(self) -> int:
        return self.count

    def partial(self) -> int:
        return self.count

    def merge(self, state: int) -> None:
        self.count += state

    def finalize(self) -> int:
        return self.result()


class SumAccumulator(_ExactFloatSum):
    """``SUM(expr)`` with exact int and exact float accumulation.

    Tracks two exact representations side by side: an arbitrary-precision
    int total of the int inputs (the result while *all* inputs are ints)
    and the exact sum of ``float(v)`` per input (the result once any
    float appears, matching the batch function's per-value conversion).
    Non-finite floats are tracked as presence flags and ints too large
    for float as an overflow flag, so mixed-type edge cases reproduce the
    batch function's value *and* error behaviour exactly.  Partial state:
    ``(int_total, float_expansion, present, all_int, specials, int_overflow)``.
    """

    __slots__ = ("int_total", "present", "all_int", "int_overflow")

    def __init__(self) -> None:
        super().__init__()
        self.int_total = 0
        self.present = False
        self.all_int = True
        self.int_overflow = False

    def add(self, values: Tuple[Any, ...]) -> None:
        value = values[0]
        if value is not None:
            self._add(value)

    def add_many(
        self, values: Sequence[Any], parts: Optional[Tuple[float, ...]] = None
    ) -> None:
        if self.add_buffer(values, parts):
            self.present = True
            self.all_int = False
            return
        for value in values:
            if value is not None:
                self._add(value)

    def _add(self, value: Any) -> None:
        self.present = True
        if _is_int(value):
            self.int_total += value
            # The float image only matters if a float shows up later; an
            # int beyond float range must not fail the exact all-int path.
            try:
                as_float = float(value)
            except OverflowError:
                self.int_overflow = True
                return
        else:
            self.all_int = False
            as_float = float(value)
        self.add_float(as_float)

    def result(self) -> Any:
        if not self.present:
            return None
        if self.all_int:
            return self.int_total
        if self.int_overflow:
            # The batch path hits float(huge_int) and raises.
            raise OverflowError("int too large to convert to float")
        return self.total()

    def partial(self) -> Tuple[int, Tuple[float, ...], bool, bool, Tuple[bool, bool, bool], bool]:
        return (
            self.int_total,
            self.parts(),
            self.present,
            self.all_int,
            self.specials.state(),
            self.int_overflow,
        )

    def merge(
        self,
        state: Tuple[int, Tuple[float, ...], bool, bool, Tuple[bool, bool, bool], bool],
    ) -> None:
        int_total, float_parts, present, all_int, specials, int_overflow = state
        self.int_total += int_total
        self.merge_parts(float_parts)
        self.present = self.present or present
        self.all_int = self.all_int and all_int
        self.specials.merge(specials)
        self.int_overflow = self.int_overflow or int_overflow

    def finalize(self) -> Any:
        return self.result()


class AvgAccumulator(_ExactFloatSum):
    """``AVG(expr)``: exact float sum and count.

    Non-finite inputs are tracked as presence flags (see
    :class:`_SpecialValues`).  Partial state:
    ``(float_expansion, count, specials)``.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def add(self, values: Tuple[Any, ...]) -> None:
        value = values[0]
        if value is not None:
            self.add_float(float(value))
            self.count += 1

    def add_many(
        self, values: Sequence[Any], parts: Optional[Tuple[float, ...]] = None
    ) -> None:
        if self.add_buffer(values, parts):
            self.count += len(values)
            return
        for value in values:
            if value is not None:
                self.add_float(float(value))
                self.count += 1

    def result(self) -> Any:
        if not self.count:
            return None
        return self.total() / self.count

    def partial(self) -> Tuple[Tuple[float, ...], int, Tuple[bool, bool, bool]]:
        return (self.parts(), self.count, self.specials.state())

    def merge(self, state: Tuple[Tuple[float, ...], int, Tuple[bool, bool, bool]]) -> None:
        float_parts, count, specials = state
        self.merge_parts(float_parts)
        self.count += count
        self.specials.merge(specials)

    def finalize(self) -> Any:
        return self.result()


class MinAccumulator:
    """``MIN(expr)``: keeps the first minimal non-NULL value.

    Partial state: ``(present, best)``; merging in partition order keeps
    the earliest partition's value on ties, like one left-to-right pass.
    """

    __slots__ = ("best", "present")

    def __init__(self) -> None:
        self.best: Any = None
        self.present = False

    def add(self, values: Tuple[Any, ...]) -> None:
        value = values[0]
        if value is None:
            return
        if not self.present:
            self.best = value
            self.present = True
        elif value < self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        buffer = _buffer(values, (INT64, FLOAT64))
        if buffer and not self.present:
            # Builtin min keeps the first extreme cell, as the loop does
            # (NaN and -0.0/0.0 ties included); against an earlier best the
            # two-stage compare would differ on NaN.
            self.best, self.present = min(buffer), True
            return
        for value in values:
            if value is None:
                continue
            if not self.present:
                self.best = value
                self.present = True
            elif value < self.best:
                self.best = value

    def result(self) -> Any:
        return self.best if self.present else None

    def partial(self) -> Tuple[bool, Any]:
        return (self.present, self.best)

    def merge(self, state: Tuple[bool, Any]) -> None:
        present, best = state
        if present:
            self.add((best,))

    def finalize(self) -> Any:
        return self.result()


class FirstValueAccumulator:
    """A bare non-key column of a grouped query: its group's first value.

    Partial state: ``(has, value)`` of the first row seen, a NULL value
    included.  Merged in partition order, the earliest partition's row
    wins, as MIN/MAX keep ties, so the value is the first row of one
    left-to-right pass.  A group with no row finalizes to NULL.
    """

    __slots__ = ("has", "value")

    def __init__(self) -> None:
        self.has, self.value = False, None

    def add(self, values: Tuple[Any, ...]) -> None:
        if not self.has:
            self.has, self.value = True, values[0]

    def partial(self) -> Tuple[bool, Any]:
        return (self.has, self.value)

    def merge(self, state: Tuple[bool, Any]) -> None:
        if state[0]:
            self.add(state[1:])

    def finalize(self) -> Any:
        return self.value


class MaxAccumulator:
    """``MAX(expr)``: keeps the first maximal non-NULL value.

    Partial state: ``(present, best)``.
    """

    __slots__ = ("best", "present")

    def __init__(self) -> None:
        self.best: Any = None
        self.present = False

    def add(self, values: Tuple[Any, ...]) -> None:
        value = values[0]
        if value is None:
            return
        if not self.present:
            self.best = value
            self.present = True
        elif value > self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        buffer = _buffer(values, (INT64, FLOAT64))
        if buffer and not self.present:
            # Builtin max keeps the first extreme cell, as the loop does
            # (NaN and -0.0/0.0 ties included); against an earlier best the
            # two-stage compare would differ on NaN.
            self.best, self.present = max(buffer), True
            return
        for value in values:
            if value is None:
                continue
            if not self.present:
                self.best = value
                self.present = True
            elif value > self.best:
                self.best = value

    def result(self) -> Any:
        return self.best if self.present else None

    def partial(self) -> Tuple[bool, Any]:
        return (self.present, self.best)

    def merge(self, state: Tuple[bool, Any]) -> None:
        present, best = state
        if present:
            self.add((best,))

    def finalize(self) -> Any:
        return self.result()


class StatAccumulator:
    """``STDDEV``/``VARIANCE`` family via exact moments.

    Keeps the count ``n``, ``sx`` (Σx times ``2**1074``) and ``sxx`` (Σx²
    times ``2**2148``) of the float-converted inputs as plain ints (see
    :func:`_scaled`), so adding and merging are int additions and the
    mean-square deviation is rounded only by the single final conversion:
    bit-identical to the batch functions and independent of input order
    or partitioning.  Partial state: ``(n, Σx, Σx²)``, the sums as
    :class:`~fractions.Fraction` values.
    """

    __slots__ = ("sample", "take_sqrt", "n", "sx", "sxx", "unconvertible", "unscalable")

    #: name -> (sample statistics?, take the square root?)
    _KINDS = {
        "STDDEV": (True, True),
        "STDDEV_SAMP": (True, True),
        "STDDEV_POP": (False, True),
        "VARIANCE": (True, False),
        "VAR_SAMP": (True, False),
        "VAR_POP": (False, False),
    }

    def __init__(self, name: str) -> None:
        self.sample, self.take_sqrt = self._KINDS[name.upper()]
        self.n = self.sx = self.sxx = 0
        #: The errors of the first value ``float`` refused and of the first
        #: converted value that cannot scale (inf, NaN), in that order of
        #: precedence: the batch functions convert every value before they
        #: scale any.  ``result``/``partial`` raise them.
        self.unconvertible: Optional[Exception] = None
        self.unscalable: Optional[Exception] = None

    def add(self, values: Tuple[Any, ...]) -> None:
        self.add_many(values[:1])

    def add_many(self, values: Sequence[Any]) -> None:
        for value in values:
            if value is None:
                continue
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError) as error:
                if self.unconvertible is None:
                    self.unconvertible = error
                continue
            try:
                # ``value * 2**1074`` is ``numerator << shift``; squaring
                # the short numerator is cheaper than squaring the scaled
                # int.
                numerator, denominator = value.as_integer_ratio()
            except (OverflowError, ValueError) as error:
                if self.unscalable is None:
                    self.unscalable = error
                continue
            shift = 1075 - denominator.bit_length()
            self.n += 1
            self.sx += numerator << shift
            self.sxx += numerator * numerator << 2 * shift

    def _raise_failure(self) -> None:
        failure = self.unconvertible or self.unscalable
        if failure is not None:
            raise failure

    def result(self) -> Any:
        self._raise_failure()
        n = self.n
        denominator = n - 1 if self.sample else n
        if denominator < 1:
            return None
        mss = Fraction(n * self.sxx - self.sx * self.sx, n * denominator << 2148)
        return _sqrt_of_fraction(mss) if self.take_sqrt else float(mss)

    def partial(self) -> Tuple[int, Fraction, Fraction]:
        self._raise_failure()
        return (self.n, Fraction(self.sx, _SCALE), Fraction(self.sxx, 1 << 2148))

    def merge(self, state: Tuple[int, Fraction, Fraction]) -> None:
        n, sx, sxx = state
        sx, sxx = _dyadic_scaled(sx, 1074), _dyadic_scaled(sxx, 2148)
        self.n += n
        self.sx += sx
        self.sxx += sxx

    def finalize(self) -> Any:
        return self.result()


def _dyadic_scaled(value: Fraction, bits: int) -> int:
    """``value * 2**bits`` of an exported moment, exactly.  Raises
    ``ExecutionError`` unless its denominator is a power of two dividing
    ``2**bits``."""
    denominator = value.denominator
    shift = bits + 1 - denominator.bit_length()
    if denominator & (denominator - 1) or shift < 0:
        raise ExecutionError(f"Not a moment scaled by 2**-{bits}: {value!r}")
    return value.numerator << shift


class BufferAccumulator:
    """Fallback accumulator: buffer rows, compute via the batch function.

    Produces results identical to the interpreted path for every aggregate,
    including ``DISTINCT`` handling and the two-argument regression family.
    """

    __slots__ = ("name", "is_star", "distinct", "width", "rows")

    def __init__(self, name: str, *, is_star: bool, distinct: bool, width: int) -> None:
        self.name = name
        self.is_star = is_star
        self.distinct = distinct
        self.width = max(width, 1)
        self.rows: List[Tuple[Any, ...]] = []

    def add(self, values: Tuple[Any, ...]) -> None:
        self.rows.append(values)

    def add_many(self, values: Sequence[Any]) -> None:
        self.rows.extend((value,) for value in values)

    def result(self) -> Any:
        if self.rows:
            columns = [list(column) for column in zip(*self.rows)]
        else:
            columns = [[] for _ in range(self.width)]
        return compute_aggregate(
            self.name, columns, is_star=self.is_star, distinct=self.distinct
        )


_INCREMENTAL_ACCUMULATORS: Dict[str, Callable[[], Any]] = {
    "COUNT": CountAccumulator,
    "SUM": SumAccumulator,
    "AVG": AvgAccumulator,
    "MIN": MinAccumulator,
    "MAX": MaxAccumulator,
}
for _name in StatAccumulator._KINDS:
    _INCREMENTAL_ACCUMULATORS[_name] = (
        lambda _name=_name: StatAccumulator(_name)
    )
del _name

#: Aggregates whose accumulators support the partial-state protocol
#: (``partial()``/``merge()``/``finalize()``).  ``DISTINCT`` variants,
#: multi-argument aggregates and ``MEDIAN`` are excluded.
DECOMPOSABLE_AGGREGATES = frozenset(_INCREMENTAL_ACCUMULATORS)


def is_decomposable_aggregate(
    name: str, *, is_star: bool = False, distinct: bool = False, arg_count: int = 1
) -> bool:
    """True when :func:`make_accumulator` returns a mergeable accumulator.

    Mirrors the dispatch conditions of :func:`make_accumulator` exactly, so
    decomposability analysis and execution can never disagree.
    """
    upper = name.upper()
    if upper == "COUNT" and is_star:
        return True
    return (
        not distinct
        and arg_count == 1
        and not is_star
        and upper in DECOMPOSABLE_AGGREGATES
    )


def make_accumulator(name: str, *, is_star: bool, distinct: bool, arg_count: int) -> Any:
    """Return an accumulator replicating ``compute_aggregate`` incrementally.

    Args:
        name: Aggregate function name (case-insensitive).
        is_star: True for ``COUNT(*)`` (callers feed ``(1,)`` per row).
        distinct: True for ``agg(DISTINCT expr)``.
        arg_count: Number of value columns fed per row (1 for star/no-arg).
    """
    upper = name.upper()
    if upper == "COUNT" and is_star:
        # compute_aggregate short-circuits COUNT(*) before DISTINCT handling.
        return CountStarAccumulator()
    if not distinct and arg_count == 1 and not is_star and upper in _INCREMENTAL_ACCUMULATORS:
        return _INCREMENTAL_ACCUMULATORS[upper]()
    return BufferAccumulator(upper, is_star=is_star, distinct=distinct, width=arg_count)


# ---------------------------------------------------------------------------
# grouped columns
# ---------------------------------------------------------------------------
#
# The grouped scan computes aggregates column at a time (as in
# MonetDB/X100): it gathers each argument column once per group, then one
# :func:`aggregate_column` call runs one aggregate's accumulator lifecycle
# over every group's slice.  Typed slices stay typed, so the accumulators'
# buffer paths serve them.

#: What an accumulator's ``partial``/``result`` may raise over its input.
#: A grouped run raises such an error after the groups before it.
FINALIZE_ERRORS = (ExecutionError, ArithmeticError, TypeError, ValueError)


class GroupedColumn:
    """One argument column of a grouped scan, gathered once per group.

    ``groups`` holds each group's row indices, or is None for one group
    holding the whole column.  Every aggregate over the column shares its
    gathered slices (:meth:`slice`) and their float sums
    (:meth:`expansion`).
    """

    __slots__ = ("column", "groups", "_slices", "_expansions")

    def __init__(
        self, column: Sequence[Any], groups: Optional[Sequence[Sequence[int]]]
    ) -> None:
        self.column = column
        self.groups = groups
        self._slices: Dict[int, Sequence[Any]] = {}
        self._expansions: Dict[int, Optional[Tuple[float, ...]]] = {}

    def expansion(self, group: int) -> Optional[Tuple[float, ...]]:
        """Group ``group``'s :func:`_buffer_expansion`, computed once for
        every ``SUM`` and ``AVG`` over the column."""
        if group in self._expansions:
            return self._expansions[group]
        parts = self._expansions[group] = _buffer_expansion(self.slice(group))
        return parts

    def slice(self, group: int) -> Sequence[Any]:
        """Group ``group``'s slice; a typed column's slices stay typed."""
        if self.groups is None:
            return self.column
        piece = self._slices.get(group)
        if piece is None:
            piece = self._slices[group] = take_column(self.column, self.groups[group])
        return piece


def _feed(
    accumulator: Any, arguments: Sequence[GroupedColumn], group: int, size: int
) -> None:
    """``add_many`` of group ``group``'s slice (a ones column for star
    rows); rows of several arguments go through ``add`` one by one."""
    if not arguments:
        accumulator.add_many([1] * size)
    elif len(arguments) == 1:
        argument = arguments[0]
        if isinstance(accumulator, _ExactFloatSum):
            accumulator.add_many(argument.slice(group), argument.expansion(group))
        else:
            accumulator.add_many(argument.slice(group))
    else:
        for row in zip(*(argument.slice(group) for argument in arguments)):
            accumulator.add(row)


class AggregateColumn:
    """One aggregate's values for every group, from :func:`aggregate_column`.

    ``values`` stops at ``failed_at``, the first group whose ``partial``/
    ``result`` raised ``error`` (both None when no group did).
    """

    __slots__ = ("values", "failed_at", "error")

    def __init__(
        self,
        values: List[Any],
        failed_at: Optional[int] = None,
        error: Optional[Exception] = None,
    ) -> None:
        self.values = values
        self.failed_at = failed_at
        self.error = error


def aggregate_column(
    name: str,
    *,
    is_star: bool,
    distinct: bool,
    arg_count: int,
    arguments: Sequence[GroupedColumn],
    sizes: Sequence[int],
    phase: str,
) -> AggregateColumn:
    """``phase`` (``"partial"`` or ``"result"``) of one aggregate call for
    every group, in one call.

    ``name``/``is_star``/``distinct``/``arg_count`` are
    :func:`make_accumulator`'s; ``arguments`` are the call's argument
    columns (none for star and argument-free calls, which read a ones
    column) and ``sizes`` the group sizes.  ``COUNT(*)`` is the group
    size; every other call runs the accumulator lifecycle per group
    (:func:`make_accumulator`, ``add_many`` of the slice unless it is
    empty, then ``phase``), so its values and errors are the
    accumulator's own: an ``add_many`` error propagates (the scan
    abandons), a ``phase`` error is recorded in the result.
    """
    if is_star and name.upper() == "COUNT":
        return AggregateColumn(list(sizes))
    result = AggregateColumn([])
    for group, size in enumerate(sizes):
        accumulator = make_accumulator(
            name, is_star=is_star, distinct=distinct, arg_count=arg_count
        )
        if size:
            _feed(accumulator, arguments, group, size)
        if result.error is not None:
            continue  # later groups are fed only for their feed errors
        try:
            result.values.append(getattr(accumulator, phase)())
        except FINALIZE_ERRORS as error:
            result.failed_at, result.error = group, error
    return result
