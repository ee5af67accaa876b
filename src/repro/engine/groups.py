"""Grouping a relation's selected rows by their GROUP BY key values."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.columns import BOOL, TypedColumn, gather
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
