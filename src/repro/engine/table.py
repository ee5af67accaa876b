"""The :class:`Relation` container used throughout the reproduction.

A relation couples a :class:`~repro.engine.schema.Schema` with row data.
Storage is **columnar**: one Python list per column, in schema order.  The
scan-bound hot paths of the compiled engine (projections, simple predicates,
aggregate scans, hash-join key builds) and the runtime's chunk/merge
machinery read and slice these arrays directly, paying no per-row dict
allocation or hashing.

Row-oriented consumers (anonymizers, metrics, policy checks, tests) keep
working unchanged through a lazy façade:

* ``relation.rows`` is a :class:`RowsView` — a live sequence that supports
  ``len``/iteration/indexing/slicing/``append``/``extend`` and compares equal
  to a list of plain dicts.
* Indexing or iterating yields :class:`RowView` — a mutable mapping over one
  row whose reads and writes go straight to the column arrays (mutating a
  view mutates the relation, exactly like the former stored dicts).
* ``to_dicts()`` materializes plain dict rows on demand (copies).

Column lookup is case-insensitive (mirroring :class:`Schema`); keys not in
the schema raise ``KeyError`` from views.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
)

from repro.engine.columns import (
    BOOL,
    FLOAT64,
    INT64,
    TypedBackingError,
    TypedColumn,
    copy_column,
    extend_column,
    take_column,
    typed_column_from_values,
)
from repro.engine.errors import SchemaError
from repro.engine.schema import ColumnDef, Schema
from repro.engine.stats import TableStats
from repro.engine.types import DataType
from repro.engine.wire import WireFormatError, packed_size

Row = Dict[str, Any]

#: Schema types that get a typed backing attempt at construction.  The
#: values are still verified cell by cell — a declared-INTEGER column
#: holding a stray string simply keeps the generic list backing.
_TYPECODES = {
    DataType.INTEGER: INT64,
    DataType.FLOAT: FLOAT64,
    DataType.BOOLEAN: BOOL,
}


class RowView(MutableMapping):
    """A mapping façade over one row of a columnar :class:`Relation`.

    Reads and writes resolve to the backing column arrays; keys are the
    schema's column names (original spelling), and lookup is
    case-insensitive.  Deleting or adding keys is not supported — the row
    shape is the relation's schema.
    """

    __slots__ = ("_relation", "_index")

    def __init__(self, relation: "Relation", index: int) -> None:
        self._relation = relation
        self._index = index

    def __getitem__(self, key: str) -> Any:
        column = self._relation._column_for(key)
        if column is None:
            raise KeyError(key)
        return column[self._index]

    def __setitem__(self, key: str, value: Any) -> None:
        relation = self._relation
        position = relation._index_by_name.get(key.lower())
        if position is None:
            raise KeyError(f"Cannot add column {key!r} through a row view")
        relation._set_cell(position, self._index, value)

    def __delitem__(self, key: str) -> None:
        raise TypeError("Cannot delete columns through a row view")

    def __iter__(self) -> Iterator[str]:
        return iter(self._relation.schema.names)

    def __len__(self) -> int:
        return len(self._relation.schema)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self._relation._column_for(key) is not None

    def to_dict(self) -> Row:
        """The row as a plain dict (copy), keyed by schema column names."""
        relation = self._relation
        index = self._index
        return {
            name: column[index]
            for name, column in zip(relation.schema.names, relation._columns)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowView({self.to_dict()!r})"


class RowsView:
    """A live, list-like view of a relation's rows.

    Supports the idioms the former ``List[Dict]`` storage allowed:
    ``len(rows)``, iteration, ``rows[i]`` (a :class:`RowView`),
    ``rows[a:b]`` (a list of views), ``rows.append(mapping)``,
    ``rows.extend(...)`` and equality against lists of dicts.
    """

    __slots__ = ("_relation",)

    def __init__(self, relation: "Relation") -> None:
        self._relation = relation

    def __len__(self) -> int:
        return self._relation._nrows

    def __bool__(self) -> bool:
        return self._relation._nrows > 0

    def __iter__(self) -> Iterator[RowView]:
        relation = self._relation
        for index in range(relation._nrows):
            yield RowView(relation, index)

    def __getitem__(self, index):
        relation = self._relation
        if isinstance(index, slice):
            return [RowView(relation, i) for i in range(*index.indices(relation._nrows))]
        if index < 0:
            index += relation._nrows
        if not 0 <= index < relation._nrows:
            raise IndexError("row index out of range")
        return RowView(relation, index)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row (missing schema columns become None)."""
        self._relation._append_row(row)

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self._relation._append_row(row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowsView):
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowsView({[dict(row) for row in self]!r})"


class Relation:
    """A named, schema-carrying bag of rows with columnar backing."""

    __slots__ = (
        "schema",
        "name",
        "_columns",
        "_index_by_name",
        "_nrows",
        "_version",
        "_scope_cache",
        "_stats_cache",
        "_bytes_cache",
        "_state_cache",
        # Kept work notes which chunk it read without keeping it alive
        # (``runtime.memo.note_placement``).
        "__weakref__",
    )

    def __init__(
        self,
        schema: Schema,
        rows: Optional[Iterable[Mapping[str, Any]]] = None,
        name: str = "",
    ) -> None:
        self.schema = schema
        self.name = name
        self._index_by_name = {
            column.name.lower(): position for position, column in enumerate(schema.columns)
        }
        self._version = 0
        self._scope_cache: Optional[tuple] = None
        self._stats_cache: Optional[tuple] = None
        self._bytes_cache: Optional[tuple] = None
        self._state_cache: Optional[tuple] = None
        if rows is None:
            self._columns: List[List[Any]] = [[] for _ in schema.columns]
            self._nrows = 0
        elif isinstance(rows, RowsView):
            source = rows._relation
            self._columns = source._aligned_column_copies(schema)
            self._nrows = source._nrows
        else:
            self._columns, self._nrows = _columns_from_rows(schema, rows)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        name: str = "",
        schema: Optional[Schema] = None,
    ) -> "Relation":
        """Build a relation from mapping rows, inferring the schema if needed."""
        materialized = list(rows)
        if schema is None:
            schema = Schema.infer(materialized)
        return cls(schema=schema, rows=materialized, name=name)

    @classmethod
    def from_columns(
        cls, schema: Schema, columns: Sequence[List[Any]], name: str = ""
    ) -> "Relation":
        """Build a relation directly from per-column value lists.

        Takes ownership of ``columns`` (no copy) — the fast constructor the
        vectorized scan paths and the chunk/merge machinery use.  All columns
        must have equal length and align positionally with ``schema``.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"Expected {len(schema)} columns, got {len(columns)}"
            )
        relation = cls(schema=schema, rows=None, name=name)
        columns = list(columns)
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise SchemaError(f"Ragged columns: lengths {sorted(lengths)}")
        relation._columns = columns
        relation._nrows = lengths.pop() if lengths else 0
        return relation

    @classmethod
    def empty(cls, schema: Schema, name: str = "") -> "Relation":
        """Return a relation with no rows."""
        return cls(schema=schema, rows=None, name=name)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[RowView]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> RowView:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.name == other.name
            and self._columns == other._columns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation(name={self.name!r}, rows={self._nrows}, columns={self.schema.names!r})"

    @property
    def rows(self) -> RowsView:
        """Live row-oriented view of the columnar data."""
        return RowsView(self)

    @rows.setter
    def rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        self._columns, self._nrows = _columns_from_rows(self.schema, rows)
        self._bump()

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return self.schema.names

    def column_values(self, name: str) -> List[Any]:
        """Return all values of one column (in row order; a copy)."""
        column = self._column_for(name)
        if column is None:
            raise SchemaError(f"Unknown column: {name}")
        return list(column)

    # ------------------------------------------------------------------
    # columnar accessors (engine-internal hot paths)
    # ------------------------------------------------------------------
    def columns(self) -> List[List[Any]]:
        """The live column arrays in schema order.

        Callers outside this module must treat the arrays as read-only;
        writes bypass the version counter that guards the scope cache.
        """
        return self._columns

    def column_array(self, name: str) -> Optional[List[Any]]:
        """The live value array of ``name`` (case-insensitive), or None."""
        return self._column_for(name)

    def _column_for(self, name: str) -> Optional[List[Any]]:
        position = self._index_by_name.get(name.lower())
        if position is None:
            return None
        return self._columns[position]

    @property
    def version(self) -> int:
        """The write counter: every write through the relation's API bumps
        it, so an unchanged relation object at an unchanged version holds
        the same rows."""
        return self._version

    def _bump(self) -> None:
        # Stats and size caches are version-keyed rather than cleared: a
        # mismatched version simply misses, and _append_row re-keys the
        # stats cache after folding the new row in.
        self._version += 1
        self._scope_cache = None

    def _set_cell(self, position: int, index: int, value: Any) -> None:
        """Write one cell, degrading a typed column the value does not fit."""
        column = self._columns[position]
        if isinstance(column, TypedColumn):
            try:
                column[index] = value
            except TypedBackingError:
                column = column.to_list()
                self._columns[position] = column
                column[index] = value
        else:
            column[index] = value
        self._bump()

    def _append_row(self, row: Mapping[str, Any]) -> None:
        values = [row.get(name) for name in self.schema.names]
        for position, value in enumerate(values):
            column = self._columns[position]
            if isinstance(column, TypedColumn):
                try:
                    column.append(value)
                except TypedBackingError:
                    column = column.to_list()
                    self._columns[position] = column
                    column.append(value)
            else:
                column.append(value)
        self._nrows += 1
        cache = self._stats_cache
        self._bump()
        if cache is not None and cache[0] == self._version - 1:
            # Fold the appended row into the cached summaries instead of
            # invalidating them — appends are the streaming hot path.
            cache[1].observe_row(values)
            self._stats_cache = (self._version, cache[1])

    def _aligned_column_copies(self, schema: Schema) -> List[List[Any]]:
        """Column copies aligned (by lower-cased name) to ``schema``'s order."""
        copies: List[List[Any]] = []
        for column_def in schema.columns:
            column = self._column_for(column_def.name)
            copies.append(
                copy_column(column) if column is not None else [None] * self._nrows
            )
        return copies

    def scope_rows(self) -> List[Dict[str, Any]]:
        """Per-row scope dicts keyed by lower-cased column names (cached).

        The compiled executor reuses these dicts as read-only row scopes
        across repeated executions — the columnar equivalent of reusing the
        stored row dicts.  Any mutation of the relation (append, row-view
        write, rows replacement) invalidates the cache.
        """
        cached = self._scope_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        lowered = [name.lower() for name in self.schema.names]
        if not lowered:
            scopes: List[Dict[str, Any]] = [{} for _ in range(self._nrows)]
        else:
            scopes = [dict(zip(lowered, values)) for values in zip(*self._columns)]
        self._scope_cache = (self._version, scopes)
        return scopes

    def stats(self) -> TableStats:
        """Per-column statistics at the relation's current version (cached).

        Column summaries materialize lazily on first request
        (:meth:`TableStats.column`), so asking for stats is cheap until a
        plan actually consults a column.  Row appends fold into cached
        summaries incrementally; every other mutation (row-view writes,
        ``rows`` replacement) conservatively invalidates via the version
        counter and the next request recomputes from the arrays.
        """
        cached = self._stats_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        stats = TableStats(self)
        self._stats_cache = (self._version, stats)
        return stats

    def cached_stats(self) -> Optional[TableStats]:
        """The statistics :meth:`stats` cached at the current version, or
        None; never builds any."""
        cached = self._stats_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        return None

    def inherit_stats(self, prefix: "Relation") -> None:
        """Seed this relation's statistics from ``prefix``'s.

        For a relation holding ``prefix``'s rows followed by new ones (an
        appended stream chunk): the summaries ``prefix`` already computed
        carry over, extended by the new rows (:meth:`TableStats.appended`),
        and equal a rebuild from scratch.
        """
        self._stats_cache = (self._version, prefix.stats().appended(self))

    def kept_states(self) -> Dict[Any, Any]:
        """The packed partial states kept for this relation at its current
        version; only :mod:`repro.runtime.memo` reads or writes it.  Each
        entry records how many leading rows its state covers.

        The dict lives and dies with the version: any write through this
        API starts an empty one, and a replaced chunk is a new relation
        with none (an appended one inherits its parent's,
        :func:`~repro.runtime.memo.carry_states`).  So a caller that takes
        the dict before it reads the rows stores a state that is only ever
        found while no write has happened since that read began.
        """
        cached = self._state_cache
        if cached is None or cached[0] != self._version:
            cached = self._state_cache = (self._version, {})
        return cached[1]

    def slice_rows(self, start: int, stop: Optional[int] = None, name: str = "") -> "Relation":
        """A new relation holding the contiguous row range ``[start, stop)``."""
        return Relation.from_columns(
            self.schema,
            [column[start:stop] for column in self._columns],
            name=name or self.name,
        )

    def take_rows(self, indices: Sequence[int], name: str = "") -> "Relation":
        """A new relation holding the given rows, in the given order."""
        return Relation.from_columns(
            self.schema,
            [take_column(column, indices) for column in self._columns],
            name=name or self.name,
        )

    # ------------------------------------------------------------------
    # functional operators (each returns a new relation)
    # ------------------------------------------------------------------
    def select(self, predicate: Callable[[Mapping[str, Any]], bool], name: str = "") -> "Relation":
        """Return only the rows for which ``predicate`` is true."""
        rows = self.rows
        kept = [i for i in range(self._nrows) if predicate(rows[i])]
        return self.take_rows(kept, name=name or self.name)

    def project(self, names: Sequence[str], name: str = "") -> "Relation":
        """Keep only the given columns."""
        schema = self.schema.project(names)
        columns = []
        for column_name in names:
            column = self._column_for(column_name)
            if column is None:
                raise SchemaError(f"Unknown column: {column_name}")
            columns.append(copy_column(column))
        return Relation.from_columns(schema, columns, name=name or self.name)

    def drop(self, names: Sequence[str], name: str = "") -> "Relation":
        """Remove the given columns."""
        remaining = [c for c in self.schema.names if c.lower() not in {n.lower() for n in names}]
        return self.project(remaining, name=name)

    def limit(self, count: int) -> "Relation":
        """Return the first ``count`` rows."""
        return self.slice_rows(0, count)

    def map_rows(
        self, mapper: Callable[[Row], Row], schema: Optional[Schema] = None
    ) -> "Relation":
        """Apply ``mapper`` to every row (as a dict), optionally with a new schema."""
        mapped = [mapper(row.to_dict()) for row in self.rows]
        return Relation(schema=schema or self.schema, rows=mapped, name=self.name)

    def copy(self) -> "Relation":
        """Copy with fresh column arrays (values shared, structure private)."""
        return Relation.from_columns(
            self.schema, [copy_column(column) for column in self._columns], name=self.name
        )

    def __reduce__(self):
        # Relations must never cross a process boundary through pickle —
        # the wire codec (repro.engine.wire.pack_relation) is the only
        # sanctioned transport, and a guard test enforces this.
        raise TypeError(
            "Relation is not picklable; serialize with repro.engine.wire "
            "pack_relation/unpack_relation"
        )

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append rows in place (used by stream buffers and simulators)."""
        for row in rows:
            self._append_row(row)

    # ------------------------------------------------------------------
    # measurement helpers used by the benchmarks
    # ------------------------------------------------------------------
    def estimated_bytes(self) -> int:
        """Per-cell wire-size estimate used for the transfer cost model.

        Every cell is charged at its :func:`repro.engine.wire.packed_size` —
        the exact encoded size of the codec that real shipments now pay —
        so size accounting, the link-latency cost model and checkpoints all
        agree.  Cells outside the wire vocabulary fall back to their
        textual length.  Typed columns are charged in O(1) per column
        (9 bytes per value, 1 per NULL, matching the generic cell tags).

        The walk is memoized per relation version: the cost model and the
        transfer log size the same relation repeatedly, and generic
        columns pay a per-cell ``packed_size`` each time without the memo.
        """
        cached = self._bytes_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        total = 0
        for column in self._columns:
            if isinstance(column, TypedColumn):
                total += column.packed_cells_size()
                continue
            for value in column:
                try:
                    total += packed_size(value)
                except WireFormatError:
                    # Cells outside the wire vocabulary (exotic objects)
                    # keep the textual estimate.
                    total += len(str(value))
        self._bytes_cache = (self._version, total)
        return total

    def to_dicts(self) -> List[Row]:
        """Return rows as a list of plain dicts (copies)."""
        names = self.schema.names
        if not names:
            return [{} for _ in range(self._nrows)]
        return [dict(zip(names, values)) for values in zip(*self._columns)]

    def head(self, count: int = 5) -> List[Row]:
        """Return the first ``count`` rows (for examples and debugging)."""
        return self.slice_rows(0, count).to_dicts()

    def pretty(self, max_rows: int = 10) -> str:
        """Render the relation as a fixed-width text table."""
        names = self.schema.names
        cells = [
            [_format_cell(value) for value in values]
            for values in zip(*(column[:max_rows] for column in self._columns))
        ]
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        separator = "-+-".join("-" * width for width in widths)
        lines = [header, separator]
        for row in cells:
            lines.append(" | ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
        if self._nrows > max_rows:
            lines.append(f"... ({self._nrows} rows total)")
        return "\n".join(lines)


def _columns_from_rows(
    schema: Schema, rows: Iterable[Mapping[str, Any]]
) -> tuple:
    """Materialize mapping rows into per-column arrays, in schema order.

    Each column then takes its backing from :func:`fit_backing`.
    """
    names = schema.names
    columns: List[Any] = [[] for _ in names]
    count = 0
    for row in rows:
        count += 1
        for position, name in enumerate(names):
            columns[position].append(row.get(name))
    return [
        fit_backing(column, column_def.data_type)
        for column, column_def in zip(columns, schema.columns)
    ], count


def fit_backing(column: Any, data_type: DataType) -> Any:
    """The one typing rule for a result column declared ``data_type``: the
    matching typed backing when every value fits, else a plain list.  Rows
    and columnar results both go through it, so a result's wire bytes never
    depend on the path that computed it."""
    typecode = _TYPECODES.get(data_type)
    if isinstance(column, TypedColumn):
        if column.typecode == typecode:
            return column
        column = column.to_list()
    if typecode is None:
        return column
    typed = typed_column_from_values(column, typecode)
    return column if typed is None else typed


def freeze_value(value: Any) -> Any:
    """Hashable stand-in for group/distinct keys (identity on scalars)."""
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


class _OrderKey:
    """Sort key of every ORDER BY: NULL first ascending (last descending),
    values of mixed types compared as strings."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_OrderKey") -> bool:
        left, right = self.value, other.value
        if not self.ascending:
            left, right = right, left
        if left is None:
            return right is not None
        if right is None:
            return False
        try:
            return left < right
        except TypeError:
            return str(left) < str(right)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value


def _format_cell(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def concat(relations: Sequence[Relation], name: str = "") -> Relation:
    """Concatenate relations with identical column names."""
    if not relations:
        raise SchemaError("Cannot concatenate zero relations")
    first = relations[0]
    expected = [n.lower() for n in first.schema.names]
    columns: List[Any] = [copy_column(column) for column in first.columns()]
    for relation in relations[1:]:
        if [n.lower() for n in relation.schema.names] != expected:
            raise SchemaError("Relations have different schemas")
        for position, column in enumerate(relation.columns()):
            columns[position] = extend_column(columns[position], column)
    return Relation.from_columns(first.schema, columns, name=name or first.name)


def union_partials(parts: Sequence[Relation], name: str) -> Relation:
    """Concatenate partial relations in order (the merge/union operator).

    The schema comes from the first non-empty partial: every partial is the
    same query over same-schema chunks, so non-empty ones agree; empty ones
    may carry weaker inferred types.  Degenerate inputs are handled too: an
    empty ``parts`` sequence yields an empty relation, and when *every*
    partial is empty the column types are merged across partials so one
    explicitly typed (but empty) chunk is not shadowed by the first
    partial's inferred-from-nothing defaults.

    Relations are columnar, so the union is a per-column ``extend`` over
    the partials' value arrays (aligned by column name) — no per-row dict
    copies, which is what makes the merge points of large parallel plans
    cheap.  Typed column backings are preserved: int64/float64 partials
    union into one contiguous typed buffer (degrading to a generic list
    only when a partial carries a different backing).
    """
    parts = list(parts)
    if not parts:
        return Relation(schema=Schema([]), rows=[], name=name)
    schema_source = next((part for part in parts if len(part)), None)
    if schema_source is not None:
        schema = schema_source.schema
    else:
        # All partials are empty.  Empty relations infer FLOAT for every
        # column, so prefer, per column, the first partial carrying a more
        # specific type.
        columns = []
        for index, column in enumerate(parts[0].schema.columns):
            data_type = column.data_type
            if data_type is DataType.FLOAT:
                for part in parts[1:]:
                    if index < len(part.schema.columns):
                        other = part.schema.columns[index].data_type
                        if other is not DataType.FLOAT:
                            data_type = other
                            break
            columns.append(ColumnDef(name=column.name, data_type=data_type))
        schema = Schema(columns)
    merged: List[Optional[list]] = [None for _ in schema.columns]
    for part in parts:
        if not len(part):
            continue
        for position, column_def in enumerate(schema.columns):
            source = part.column_array(column_def.name)
            if source is None:
                source = [None] * len(part)
            if merged[position] is None:
                merged[position] = copy_column(source)
            else:
                merged[position] = extend_column(merged[position], source)
    return Relation.from_columns(
        schema,
        [
            # A column no partial filled is empty: it takes the backing the
            # result-typing rule gives it, as an unfragmented run would.
            column if column is not None else fit_backing([], column_def.data_type)
            for column, column_def in zip(merged, schema.columns)
        ],
        name=name,
    )
