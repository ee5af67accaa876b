"""Group indexes: a relation's rows partitioned by GROUP BY key columns.

A grouped scan partitions the rows it selects by their key tuple
(:func:`group_rows`).  Over a long-lived relation — a sensor's resident
chunk — that partition is the same on every run, so
:class:`~repro.engine.table.Relation` caches one :class:`GroupIndex` per
key-column set at its version, the way it caches its statistics: any
mutation (a row-view write, ``rows.append``, ``rows`` replacement) makes
the next request rebuild it, and a re-registered relation starts without
one.  An appended stream chunk inherits its prefix's indexes extended by
the new rows (:meth:`GroupIndex.appended`), equal to a rebuild.

The index also holds a *key relation*: one row per group, the group's key
values gathered from its first row with their backing kept.  A WHERE
conjunct that reads only typed key columns has one value per group, so
the vectorized scan evaluates it there, once per group, and takes the
passing groups whole (:func:`repro.engine.vectorized.whole_groups`).

Any other conjunct is evaluated per row, but need not be followed by a
hash per selected row.  On demand the index builds its *row order*
(every group's members, one group after another), the *bounds* where
each group starts in it, and a group-ordered copy of each column a
conjunct reads (:meth:`GroupIndex.ordered`) — a projection sorted on the
grouping keys, as in C-Store (Stonebraker et al., VLDB 2005).  The scan
filters the copy, whose ascending selection cuts into groups at the
bounds (:meth:`GroupIndex.split`, called by
:func:`repro.engine.vectorized.split_groups`).  All three live and die
with the index.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left
from itertools import compress, repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.columns import BOOL, TypedColumn, gather, take_column
from repro.engine.table import Relation, freeze_value


def group_rows(
    relation: Relation,
    key_columns: Sequence[str],
    sel: Optional[Sequence[int]],
) -> Dict[Tuple[Any, ...], List[int]]:
    """Partition row indices by group key, in first-occurrence order.

    ``sel`` is the ascending rows to partition, None for all.  Raw key
    values are used while hashable, falling back to the frozen form on a
    TypeError — exactly the compiled fast-key behaviour, so group identity
    and order match the row path bit for bit.
    """
    indices = range(len(relation)) if sel is None else sel

    def key_values(array):
        # Typed key columns are never read per row through
        # TypedColumn.__getitem__: NULL-free int64/float64 keys are read
        # (and gathered) straight off the buffer, others are boxed once.
        if isinstance(array, TypedColumn):
            if array.typecode != BOOL and not array.null_count:
                array = array.data_array()
            else:
                array = array.to_list()
        return array if sel is None else gather(array, sel)

    # Key tuples are zipped from the (gathered) key columns at C speed.
    keys = zip(*map(key_values, map(relation.column_array, key_columns)))
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    get = groups.get
    for i, key in zip(indices, keys):
        try:
            bucket = get(key)
        except TypeError:
            key = tuple(freeze_value(value) for value in key)
            bucket = get(key)
        if bucket is None:
            groups[key] = [i]
        else:
            bucket.append(i)
    return groups


def _row_keys(
    relation: Relation, key_columns: Sequence[str], rows: Sequence[int]
) -> List[Tuple[Any, ...]]:
    """The group keys of ``rows`` under :func:`group_rows`' rule: the raw
    key values while hashable, else their frozen form."""

    def cells(column):
        # The cells group_rows reads: NULL-free int64/float64 buffers
        # unboxed, every other column through its own items.
        if isinstance(column, TypedColumn) and column.typecode != BOOL and not column.null_count:
            column = column.data_array()
        return gather(column, rows)

    return [_hashable(key) for key in zip(*map(cells, map(relation.column_array, key_columns)))]


def _hashable(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    try:
        hash(key)
    except TypeError:
        return tuple(freeze_value(value) for value in key)
    return key


class GroupIndex:
    """The groups of a relation's first ``rows`` rows under ``key_columns``.

    ``keys`` and ``members`` are what :func:`group_rows` returns over
    those rows (keys and ascending row indices, in first-occurrence
    order), each group's indices held as one ``array('q')``: 8 bytes a
    row, where a list of ints costs 36.  ``key_relation`` holds each
    group's key values, one row per group in the same order.  The row
    order (:attr:`order`, :attr:`bounds`) and the group-ordered column
    copies (:meth:`ordered`) are built the first time a split scan needs
    them, so an index only whole-group scans read holds neither.
    Read-only but for those: scans share it.  It holds no reference to
    its relation, so a dropped relation is freed at once.
    """

    __slots__ = ("key_columns", "keys", "members", "rows", "key_relation", "_layout", "_ordered")

    def __init__(
        self,
        relation: Relation,
        key_columns: Tuple[str, ...],
        keys: List[Tuple[Any, ...]],
        members: List[array],
    ) -> None:
        self.key_columns = key_columns
        self.keys = keys
        self.members = members
        self.rows = len(relation)
        firsts = [rows[0] for rows in members]
        names = list(dict.fromkeys(key_columns))  # GROUP BY x, x reads x once
        self.key_relation = Relation.from_columns(
            relation.schema.project(names),
            [take_column(relation.column_array(name), firsts) for name in names],
        )
        self._layout: Optional[Tuple[array, List[int]]] = None
        self._ordered: Dict[str, Any] = {}

    def _row_layout(self) -> Tuple[array, List[int]]:
        # Racing scans at worst both build it; the two are equal.
        layout = self._layout
        if layout is None:
            order = array("q")
            bounds = [0]
            for rows in self.members:
                order.extend(rows)
                bounds.append(len(order))
            layout = self._layout = (order, bounds)
        return layout

    @property
    def order(self) -> array:
        """The members concatenated, one group after another."""
        return self._row_layout()[0]

    @property
    def bounds(self) -> List[int]:
        """Where each group starts in :attr:`order`, then its length:
        group ``g`` is ``order[bounds[g]:bounds[g + 1]]``."""
        return self._row_layout()[1]

    def ordered(self, relation: Relation, names: Iterable[str]) -> Dict[str, Any]:
        """``relation``'s columns ``names`` in row order (see :attr:`order`),
        by name.

        ``relation`` is the indexed one.  Each copy is gathered, with its
        backing, the first time a scan asks for it, and kept with the
        index.  Scans racing on one column at worst both gather it; the
        copies are equal and either is kept.
        """
        copies = self._ordered
        columns = {}
        for name in names:
            column = copies.get(name)
            if column is None:
                column = copies[name] = take_column(relation.column_array(name), self.order)
            columns[name] = column
        return columns

    def split(
        self, relation: Relation, chosen: Sequence[int]
    ) -> Tuple[List[Tuple[Any, ...]], List[Sequence[int]]]:
        """The keys and members :func:`group_rows` gives over the rows at
        ascending positions ``chosen`` of :attr:`order` (``relation`` is
        the indexed one), without hashing a row.

        ``bisect`` cuts ``chosen`` at the group bounds, and the positions
        map back to rows through the row order: each group's passing rows,
        ascending.  Groups are ordered by their first passing row, and
        each key comes from that row: the index's key when that row is the
        group's first, else the row's own, since ``-0.0`` may open a group
        that ``0.0`` joins, or ``1.0`` one that ``1`` joins.
        """
        order, bounds = self._row_layout()
        rows = gather(order, chosen)
        cuts = list(map(bisect_left, repeat(chosen), bounds))
        live = list(compress(range(len(bounds) - 1), map(operator.lt, cuts, cuts[1:])))
        starts = gather(cuts, live)
        # Empty groups lie between live ones: each live group ends where
        # the next one starts.
        stops = [*starts[1:], len(chosen)]
        firsts = gather(rows, starts)
        if any(map(operator.gt, firsts, firsts[1:])):
            by_first = sorted(range(len(live)), key=firsts.__getitem__)
            live, starts, stops, firsts = (
                gather(items, by_first) for items in (live, starts, stops, firsts)
            )
        keys = list(gather(self.keys, live))
        opened = gather(order, gather(bounds, live))
        fresh = list(compress(range(len(live)), map(operator.ne, firsts, opened)))
        for i, key in zip(fresh, _row_keys(relation, self.key_columns, gather(firsts, fresh))):
            keys[i] = key
        return keys, list(map(rows.__getitem__, map(slice, starts, stops)))

    @classmethod
    def build(cls, relation: Relation, key_columns: Tuple[str, ...]) -> "GroupIndex":
        groups = group_rows(relation, key_columns, None)
        return cls(
            relation, key_columns, list(groups), [array("q", rows) for rows in groups.values()]
        )

    def appended(self, relation: Relation) -> "GroupIndex":
        """The index of ``relation``: the indexed rows followed by new ones.

        Only the new rows are grouped.  They come after every indexed row,
        so a group they join keeps its place and the groups they open
        follow in their first-occurrence order — a rebuild's order.  This
        index is left as it is (a concurrent scan may hold it).
        """
        delta = group_rows(relation, self.key_columns, range(self.rows, len(relation)))
        groups = dict(zip(self.keys, self.members))
        for key, rows in delta.items():
            known = groups.get(key)
            groups[key] = array("q", rows) if known is None else known + array("q", rows)
        return GroupIndex(relation, self.key_columns, list(groups), list(groups.values()))
