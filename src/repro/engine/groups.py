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
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

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


class GroupIndex:
    """The groups of a relation's first ``rows`` rows under ``key_columns``.

    ``keys`` and ``members`` are what :func:`group_rows` returns over
    those rows (keys and ascending row indices, in first-occurrence
    order), each group's indices held as one ``array('q')``: 8 bytes a
    row, where a list of ints costs 36.  ``key_relation`` holds each
    group's key values, one row per group in the same order.  Read-only
    once built: scans share it.
    """

    __slots__ = ("key_columns", "keys", "members", "rows", "key_relation")

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
