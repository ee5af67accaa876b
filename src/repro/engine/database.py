"""The per-node database façade.

A :class:`Database` couples a named catalog of relations with the parser and
executor, offering the small API the rest of the reproduction relies on:
``create_table`` / ``insert_rows`` / ``register`` / ``query``.

Every node of the vertical architecture (cloud, PC, appliance, sensor) carries
its own :class:`Database`, whose catalog holds the base data placed there.
A fragment reads the previous stage's result by its name (``d1``, ``d2``,
...) exactly like the staged queries in Section 4.2 of the paper, but the
runtime binds that result for the one call (``inputs=``) instead of
registering it, so concurrent runs never see each other's intermediates.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.errors import SchemaError
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.executor import NO_INPUTS, QueryExecutor
from repro.engine.vectorized import FinalizedGroups
from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.visitor import referenced_tables

#: The column names of each table a query reads, in the query's order
#: (``None`` for a table the catalog lacks): what an executor's plans for
#: that query captured.
Shapes = Tuple[Optional[Tuple[str, ...]], ...]


class Database:
    """A named collection of relations with a SQL query interface.

    Each database models one node of the vertical architecture, so a
    re-entrant lock serializes catalog mutations and query execution per
    node: the shared :class:`~repro.engine.executor.QueryExecutor` objects
    (whose plan memos and subquery-result epochs are single-threaded state)
    are only ever driven by one thread at a time, while queries against
    *different* nodes still run fully in parallel — which is exactly the
    concurrency the fragment runtime exploits.

    Every query method takes the :class:`~repro.engine.config.EngineConfig`
    to run under.  Executors read the live catalog and the relations a
    call binds (``inputs=``), and are kept per config and per *shape*: the
    column names of every table the query reads, a bound one's taken from
    the bound relation.  Compiled plans capture column names only (star
    expansion, fast scope keys, subquery constancy), so a plan stays valid
    for exactly as long as the shapes it was built against — binding
    ``d1`` with other columns routes its readers to another executor
    instead of flushing the plans of every query on the node.
    """

    #: Executors are flushed wholesale past this many (config, shapes)
    #: keys, mirroring the executors' own plan memos.
    _MAX_EXECUTORS = 64

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Relation] = {}
        self._executors: Dict[Tuple[EngineConfig, Shapes], QueryExecutor] = {}
        #: id(query) -> (query, lower-cased names of the tables it reads);
        #: each entry keeps its query alive so the id stays valid.
        self._reads: Dict[int, Tuple[ast.Query, Tuple[str, ...]]] = {}
        #: Executors built so far (tests and profiles check that warm
        #: queries build none).
        self.executor_builds = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> List[str]:
        """Names of all registered tables (registration order)."""
        return list(self._tables)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._tables

    def create_table(self, name: str, schema: Schema) -> Relation:
        """Create an empty table with the given schema."""
        with self._lock:
            key = name.lower()
            if key in self._tables:
                raise SchemaError(f"Table already exists: {name}")
            relation = Relation.empty(schema, name=name)
            self._tables[key] = relation
            return relation

    def register(self, name: str, relation: Relation, replace: bool = True) -> None:
        """Register an existing relation under ``name`` (a base table or a
        device table placed on this node)."""
        with self._lock:
            key = name.lower()
            if not replace and key in self._tables:
                raise SchemaError(f"Table already exists: {name}")
            # Defensive isolation without a deep copy: the columnar layout
            # makes this an O(#columns) list copy (values shared), not a
            # per-row dict materialization.  Mutations on either side stay
            # invisible to the other (see tests/test_columnar.py).
            replacement = relation.copy()
            replacement.name = name
            self._tables[key] = replacement

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                raise SchemaError(f"Unknown table: {name}")
            del self._tables[key]

    def table(self, name: str) -> Relation:
        """Return the relation registered under ``name``."""
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                raise SchemaError(f"Unknown table: {name}")
            return self._tables[key]

    def insert_rows(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append rows to an existing table; returns the number inserted."""
        with self._lock:
            relation = self.table(name)
            count = 0
            for row in rows:
                unknown = [key for key in row if key not in relation.schema]
                if unknown:
                    raise SchemaError(f"Unknown column(s) {unknown} for table {name}")
                relation.rows.append(
                    {column: row.get(column) for column in relation.schema.names}
                )
                count += 1
            return count

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        sql_or_ast: Union[str, ast.Query],
        config: EngineConfig = DEFAULT_CONFIG,
        inputs: Optional[Mapping[str, Relation]] = None,
    ) -> Relation:
        """Parse (if needed) and execute a query against this database.

        ``inputs`` binds relations by name for this call only: the query
        reads them before the catalog's same-named tables, which stay as
        they are.
        """
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        bound = _bound(inputs)
        with self._lock:
            return self._executor(config, query, bound).execute(query, bound)

    def _executor(
        self,
        config: EngineConfig,
        query: Optional[ast.Query] = None,
        inputs: Mapping[str, Relation] = NO_INPUTS,
    ) -> QueryExecutor:
        """The executor for ``config`` and the shapes of the tables
        ``query`` reads, a bound input's taken from the bound relation
        (built on first use).

        Calls that take their input directly instead of reading the
        catalog (combine, finalize) pass no query and skip the lookup.
        """
        key = (config, self._shapes(query, inputs) if query is not None else ())
        executor = self._executors.get(key)
        if executor is None:
            if len(self._executors) >= self._MAX_EXECUTORS:
                self._executors.clear()
            executor = self._executors[key] = QueryExecutor(self._tables, config)
            self.executor_builds += 1
        return executor

    def _shapes(self, query: ast.Query, inputs: Mapping[str, Relation]) -> Shapes:
        """The column names of every table ``query`` reads, as the call
        binds it or the catalog holds it."""
        entry = self._reads.get(id(query))
        if entry is None:
            if len(self._reads) >= QueryExecutor._MAX_PLAN_ENTRIES:
                self._reads.clear()
            names = tuple(name.lower() for name in referenced_tables(query))
            entry = self._reads[id(query)] = (query, names)
        tables = self._tables
        return tuple(
            tuple(inputs[name].schema.names)
            if name in inputs
            else tuple(tables[name].schema.names)
            if name in tables
            else None
            for name in entry[1]
        )

    def partial_aggregate(
        self,
        sql_or_ast: Union[str, ast.Query],
        config: EngineConfig = DEFAULT_CONFIG,
        inputs: Optional[Mapping[str, Relation]] = None,
    ) -> Relation:
        """Run a grouped query in *partial* mode: mergeable state rows.

        The query's FROM/WHERE read this node's catalog and ``inputs`` as
        :meth:`query` does, but grouping stops before finalization — the
        distributed runtime ships the (much smaller) state rows instead of
        raw rows.
        """
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        bound = _bound(inputs)
        with self._lock:
            executor = self._executor(config, query, bound)
            return executor.execute_partial_aggregation(query, bound)

    def combine_partials(
        self,
        sql_or_ast: Union[str, ast.Query],
        relation: Relation,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> Relation:
        """Merge partial-state rows (from several children) per group.

        ``relation`` is passed directly rather than read from the catalog:
        a combine reads no table, only the states it merges.
        """
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        with self._lock:
            return self._executor(config).combine_partial_aggregation(query, relation)

    def finalize_partials(
        self,
        sql_or_ast: Union[str, ast.Query],
        relation: Relation,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> Relation:
        """Merge partial-state rows and produce the query's real output."""
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        with self._lock:
            return self._executor(config).finalize_partial_aggregation(query, relation)

    def finalize_groups(
        self,
        query: ast.SelectQuery,
        relation: Relation,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> FinalizedGroups:
        """The first finalize step alone: merged groups, aggregates finalized.

        Several queries over the same groups (standing-query subscribers of
        one state tree) share one call and then each run
        :meth:`finalize_tail`.
        """
        with self._lock:
            return self._executor(config).finalize_partial_groups(query, relation)

    def finalize_tail(
        self,
        query: ast.SelectQuery,
        groups: FinalizedGroups,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> Relation:
        """The second finalize step alone: ``query``'s HAVING/items/ORDER BY."""
        with self._lock:
            return self._executor(config).finalize_tail(query, groups)

    def explain(self, sql_or_ast: Union[str, ast.Query]) -> dict:
        """Return the structural summary of a query (no execution)."""
        from repro.sql.analysis import query_summary

        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        return query_summary(query)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def load_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Optional[Schema] = None,
    ) -> Relation:
        """Create (or replace) a table directly from dict rows."""
        relation = Relation.from_rows(rows, name=name, schema=schema)
        with self._lock:
            self._tables[name.lower()] = relation
        return relation

    def total_rows(self) -> int:
        """Total number of rows across all tables (used by capacity checks)."""
        with self._lock:
            return sum(len(relation) for relation in self._tables.values())


def _bound(inputs: Optional[Mapping[str, Relation]]) -> Mapping[str, Relation]:
    """``inputs`` keyed by lower-cased name, as the executor reads them."""
    if not inputs:
        return NO_INPUTS
    return {name.lower(): relation for name, relation in inputs.items()}
