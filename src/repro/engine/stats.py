"""Per-column statistics and the cost-based optimizer's decision counters.

:class:`ColumnStats` summarizes one column — row/null counts, min/max, and
a distinct-count estimate from a fixed-size KMV (k-minimum-values) sketch
that stays *exact* for small domains (fewer distinct values than the sketch
size).  :class:`TableStats` materializes column summaries lazily per
relation and supports incremental row observation so appends do not force a
full recompute.  Both are order-independent: statistics built row-by-row
equal statistics recomputed from scratch over the same multiset of values,
which is what lets :class:`~repro.engine.table.Relation` keep them fresh
across append/extend/union/slice without ever diverging from a rebuild
(property-tested in ``tests/test_optimizer.py``).

Whether the planner uses these statistics is the ``optimizer`` field of
:class:`~repro.engine.config.EngineConfig`: ``EngineConfig(optimizer=False)``
restores the engine's syntactic plan choices — written conjunct order,
right-side hash builds, the fixed partial-aggregation ratio — as a
differential ablation arm.  Results are byte-identical either way; only the
work order changes.  :data:`optimizer_stats` counts the decisions taken.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, Optional, Sequence

__all__ = [
    "ColumnStats",
    "TableStats",
    "column_stats",
    "optimizer_stats",
    "value_hash",
]


# --------------------------------------------------------------------------
# Hashing + the KMV distinct sketch.

#: Sketch capacity: distinct counts up to this stay exact; beyond it the
#: k-minimum-values estimator takes over (error ~1/sqrt(k) ~ 6%).
_SKETCH_SIZE = 256

_MASK = (1 << 64) - 1
_HASH_SPACE = 1 << 64
_NAN_HASH = hash("nan")


def _mix(h: int) -> int:
    """64-bit avalanche finalizer (splitmix64) over Python's raw hash."""
    h &= _MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK
    h ^= h >> 33
    return h


def value_hash(value: Any) -> int:
    """A well-mixed 64-bit hash of any cell value.

    Python's ``hash`` keeps numeric cross-type equality (``hash(5) ==
    hash(5.0)``), which the sketch wants: typed-column storage may coerce a
    value the row path keeps as-is, and stats must agree either way.
    Unhashable values fall back to their ``repr``.  Every NaN hashes
    alike: ``hash(nan)`` is per object, which would count each NaN as a
    new distinct value and make the sketch depend on object identity.
    """
    try:
        h = hash(value)
    except TypeError:
        h = hash(repr(value))
    else:
        if value != value:
            h = _NAN_HASH
    return _mix(h)


class _Sketch:
    """KMV sketch: retains the :data:`_SKETCH_SIZE` smallest value hashes.

    The retained set is a pure function of the *set* of observed hashes
    (the k smallest, in any observation order), and ``pruned`` flips — in
    every order — exactly when more than k distinct hashes were seen, so
    sketch state is order-independent: the property the incremental ==
    from-scratch stats invariant rests on.
    """

    __slots__ = ("_members", "_heap", "pruned")

    def __init__(self) -> None:
        self._members: set = set()
        #: Negated max-heap over members: ``-_heap[0]`` is the largest
        #: retained hash (the k-th smallest overall once pruned).
        self._heap: list = []
        self.pruned = False

    def observe(self, h: int) -> None:
        members = self._members
        if h in members:
            return
        if len(members) < _SKETCH_SIZE:
            members.add(h)
            heapq.heappush(self._heap, -h)
            return
        self.pruned = True
        largest = -self._heap[0]
        if h >= largest:
            return
        members.discard(largest)
        members.add(h)
        heapq.heapreplace(self._heap, -h)

    def copy(self) -> "_Sketch":
        sketch = _Sketch()
        sketch._members = set(self._members)
        sketch._heap = list(self._heap)
        sketch.pruned = self.pruned
        return sketch

    def estimate(self) -> int:
        if not self.pruned:
            return len(self._members)
        kth = -self._heap[0]
        if kth <= 0:
            return _SKETCH_SIZE
        # Classic KMV: the k-th smallest of d uniform hashes sits near
        # k/d of the hash space, so d ~ (k-1) * space / kth.
        estimated = ((_SKETCH_SIZE - 1) * _HASH_SPACE) // kth
        return max(_SKETCH_SIZE + 1, estimated)

    def state(self):
        return (frozenset(self._members), self.pruned)


def _clamp(value: float, minimum: float = 0.0) -> float:
    return min(1.0, max(minimum, value))


def _plain_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ColumnStats:
    """Incremental summary of one column's values.

    Tracks row/null counts, a running min/max (abandoned the first time two
    values fail to compare — mixed-type columns stay summarized, just
    without range information), and the distinct sketch.  Also hosts the
    selectivity estimators the vectorized planner orders conjuncts with.
    """

    __slots__ = ("rows", "nulls", "minimum", "maximum", "comparable", "_sketch")

    def __init__(self) -> None:
        self.rows = 0
        self.nulls = 0
        self.minimum: Any = None
        self.maximum: Any = None
        self.comparable = True
        self._sketch = _Sketch()

    # -- maintenance -------------------------------------------------------

    def observe(self, value: Any) -> None:
        self.rows += 1
        if value is None:
            self.nulls += 1
            return
        if self.comparable:
            if self.rows - self.nulls == 1:
                self.minimum = value
                self.maximum = value
            else:
                try:
                    if value < self.minimum:
                        self.minimum = value
                    elif value > self.maximum:
                        self.maximum = value
                except TypeError:
                    self.comparable = False
                    self.minimum = None
                    self.maximum = None
        self._sketch.observe(value_hash(value))

    def extended(self, values: Iterable[Any]) -> "ColumnStats":
        """A new summary: this one's column followed by ``values``.

        The summarized state is copied and ``values`` are observed after it,
        so the result equals :func:`column_stats` over the concatenation
        (NaN-led and mixed-type runs included) at O(len(values)) cost.
        """
        stats = ColumnStats()
        stats.rows = self.rows
        stats.nulls = self.nulls
        stats.minimum = self.minimum
        stats.maximum = self.maximum
        stats.comparable = self.comparable
        stats._sketch = self._sketch.copy()
        for value in values:
            stats.observe(value)
        return stats

    # -- derived quantities ------------------------------------------------

    @property
    def non_null(self) -> int:
        return self.rows - self.nulls

    @property
    def null_fraction(self) -> float:
        return self.nulls / self.rows if self.rows else 0.0

    @property
    def distinct(self) -> int:
        """Estimated distinct non-null values (exact below the sketch size)."""
        return min(self._sketch.estimate(), self.non_null)

    @property
    def distinct_exact(self) -> bool:
        return not self._sketch.pruned

    # -- selectivity model -------------------------------------------------

    def eq_fraction(self, value: Any) -> float:
        """Estimated fraction of rows with ``column = value``."""
        if self.rows == 0 or value is None:
            return 0.0
        if self.comparable and self.minimum is not None:
            try:
                if value < self.minimum or value > self.maximum:
                    return 0.0
            except TypeError:
                pass
        return _clamp((self.non_null / self.rows) / max(self.distinct, 1))

    def range_fraction(self, op: str, value: Any) -> float:
        """Estimated fraction satisfying ``column <op> value``.

        Numeric min/max interpolation assuming a uniform spread; non-numeric
        or range-less columns fall back to the classic 1/3 guess scaled by
        the non-null fraction.
        """
        if self.rows == 0 or value is None:
            return 0.0
        non_null_frac = self.non_null / self.rows
        lo, hi = self.minimum, self.maximum
        if (
            not self.comparable
            or not _plain_number(lo)
            or not _plain_number(hi)
            or not _plain_number(value)
        ):
            return _clamp(non_null_frac / 3.0)
        width = hi - lo
        if op in ("<", "<="):
            if value < lo or (value == lo and op == "<"):
                return 0.0
            if value >= hi or width <= 0:
                base = non_null_frac
            else:
                base = non_null_frac * ((value - lo) / width)
        elif op in (">", ">="):
            if value > hi or (value == hi and op == ">"):
                return 0.0
            if value <= lo or width <= 0:
                base = non_null_frac
            else:
                base = non_null_frac * ((hi - value) / width)
        else:
            return _clamp(non_null_frac / 3.0)
        if op in ("<=", ">="):
            base = max(base, self.eq_fraction(value))
        return _clamp(base)

    def between_fraction(self, low: Any, high: Any) -> float:
        """Estimated fraction satisfying ``column BETWEEN low AND high``."""
        if self.rows == 0 or low is None or high is None:
            return 0.0
        le = self.range_fraction("<=", high)
        ge = self.range_fraction(">=", low)
        non_null_frac = self.non_null / self.rows
        return _clamp(le + ge - non_null_frac)

    # -- equality (for the incremental == from-scratch invariant) ----------

    def state(self):
        return (
            self.rows,
            self.nulls,
            self.minimum,
            self.maximum,
            self.comparable,
            self._sketch.state(),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnStats) and self.state() == other.state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStats(rows={self.rows}, nulls={self.nulls}, "
            f"min={self.minimum!r}, max={self.maximum!r}, "
            f"distinct~{self.distinct})"
        )


def column_stats(values: Sequence[Any]) -> ColumnStats:
    """Build :class:`ColumnStats` over a column array from scratch.

    Typed int64/float64/bool backings take a buffer-speed path: builtin
    min/max straight over the ``array`` buffer (the same left-to-right fold
    the incremental path performs, so results agree even for degenerate
    floats) and, without NULLs, one hash per *distinct* value.  The sketch
    keeps a set of hashes, and equal values hash alike (``hash(-0.0) ==
    hash(0.0)``; :func:`value_hash` maps every NaN to one hash), so
    hashing each distinct value once leaves the same sketch as hashing
    every cell.  A bool column's buffer holds ``0``/``1``; its min/max and
    observed cells are turned back into ``bool``.  Everything else —
    generic lists — runs the plain observe loop.
    """
    from repro.engine.columns import BOOL, FLOAT64, INT64, TypedColumn

    stats = ColumnStats()
    if isinstance(values, TypedColumn) and values.typecode in (INT64, FLOAT64, BOOL):
        data = values.data_array()
        cell = bool if values.typecode == BOOL else None
        if not values.null_count:
            n = len(data)
            stats.rows = n
            if n:
                stats.minimum = min(data)
                stats.maximum = max(data)
                if cell is not None:
                    stats.minimum = cell(stats.minimum)
                    stats.maximum = cell(stats.maximum)
            observe = stats._sketch.observe
            for value in set(data):
                observe(value_hash(value))
            return stats
        nulls = values.null_map()
        for index, value in enumerate(data):
            if nulls[index]:
                stats.rows += 1
                stats.nulls += 1
            else:
                stats.observe(value if cell is None else cell(value))
        return stats
    for value in values:
        stats.observe(value)
    return stats


class TableStats:
    """Lazy per-relation column statistics with incremental row feeding.

    Column summaries are computed on first request (from the relation's
    column arrays, at its then-current version) and cached by lowered name;
    :meth:`observe_row` keeps *already-computed* summaries fresh as rows
    append, while columns never asked about stay uncomputed.
    """

    __slots__ = ("rows", "_relation", "_names", "_columns")

    def __init__(self, relation) -> None:
        self.rows = len(relation)
        self._relation = relation
        self._names = {name.lower(): name for name in relation.schema.names}
        self._columns: Dict[str, Optional[ColumnStats]] = {}

    def column(self, name: str) -> Optional[ColumnStats]:
        """Stats for ``name`` (case-insensitive); ``None`` if no such column."""
        key = name.lower()
        if key in self._columns:
            return self._columns[key]
        original = self._names.get(key)
        stats: Optional[ColumnStats] = None
        if original is not None:
            values = self._relation.column_array(original)
            if values is not None:
                stats = column_stats(values)
        self._columns[key] = stats
        return stats

    def appended(self, relation) -> "TableStats":
        """Statistics for ``relation``: this table's rows followed by new ones.

        Every summary already computed here carries over with the new rows'
        values folded in (:meth:`ColumnStats.extended`), so an append costs
        O(new rows) per summarized column instead of a rebuild over the
        whole relation.  Columns never asked about stay uncomputed.
        """
        stats = TableStats(relation)
        for key, summary in self._columns.items():
            values = relation.column_array(key)
            if summary is not None and values is not None:
                stats._columns[key] = summary.extended(values[self.rows :])
        return stats

    def observe_row(self, row: Dict[str, Any]) -> None:
        """Fold one appended row into every already-computed column summary."""
        self.rows += 1
        if not self._columns:
            return
        lowered = {key.lower(): value for key, value in row.items()}
        for key, stats in self._columns.items():
            if stats is not None:
                stats.observe(lowered.get(key))


# --------------------------------------------------------------------------
# Optimizer decision counters (plain module ints, probe-read — the hot
# paths bump attributes and the metrics registry pulls on snapshot).


class OptimizerStats:
    """Process-wide counters of cost-based plan decisions."""

    __slots__ = (
        "conjunct_reorders",
        "or_scans",
        "order_by_scans",
        "distinct_scans",
        "expr_compare_scans",
        "build_side_flips",
        "nested_loop_joins",
        "adaptive_partial",
        "adaptive_fallback",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


optimizer_stats = OptimizerStats()


def _register_probes() -> None:
    from repro.obs.metrics import registry as _registry

    for name in OptimizerStats.__slots__:
        _registry.probe(
            f"engine.optimizer.{name}",
            lambda name=name: getattr(optimizer_stats, name),
        )


_register_probes()
