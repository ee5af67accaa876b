"""The per-node database façade.

A :class:`Database` couples a named catalog of relations with the parser and
executor, offering the small API the rest of the reproduction relies on:
``create_table`` / ``insert_rows`` / ``register`` / ``query``.

Every node of the vertical architecture (cloud, PC, appliance, sensor) carries
its own :class:`Database`; the PArADISE processor registers shipped
intermediate results under the fragment names (``d1``, ``d2``, ...) exactly
like the staged queries in Section 4.2 of the paper.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.engine.errors import ExecutionError, SchemaError
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.executor import QueryExecutor
from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.sql import ast
from repro.sql.parser import parse


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
    to run under; the database keeps one executor per config it has seen,
    so alternating configs never throws compiled plans away.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Relation] = {}
        # One executor per config, reused across queries so compiled plans
        # survive repeated executions; all are invalidated whenever the set
        # of registered tables changes.
        self._executors: Dict[EngineConfig, QueryExecutor] = {}
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
            self._executors.clear()
            return relation

    def register(self, name: str, relation: Relation, replace: bool = True) -> None:
        """Register an existing relation under ``name``.

        Shipped query results are registered this way when they arrive at a
        node (``d1`` arriving at the appliance, ``d2`` at the media center...).
        """
        with self._lock:
            key = name.lower()
            if not replace and key in self._tables:
                raise SchemaError(f"Table already exists: {name}")
            existing = self._tables.get(key)
            # Defensive isolation without a deep copy: the columnar layout
            # makes this an O(#columns) list copy (values shared), so the
            # pipeline's per-run d1..d4 re-registrations no longer pay a
            # per-row dict materialization.  Mutations on either side stay
            # invisible to the other (see tests/test_columnar.py).
            replacement = relation.copy()
            replacement.name = name
            self._tables[key] = replacement
            # Re-registering a same-shaped relation (the pipeline's per-run
            # d1..d4 fragments) keeps the executors and their compiled plans
            # warm; anything that changes the column-name shape invalidates.
            if existing is not None and [n.lower() for n in existing.schema.names] == [
                n.lower() for n in replacement.schema.names
            ]:
                for executor in self._executors.values():
                    executor.replace_relation(key, replacement)
            else:
                self._executors.clear()

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                raise SchemaError(f"Unknown table: {name}")
            del self._tables[key]
            self._executors.clear()

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
        self, sql_or_ast: Union[str, ast.Query], config: EngineConfig = DEFAULT_CONFIG
    ) -> Relation:
        """Parse (if needed) and execute a query against this database."""
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        with self._lock:
            return self._executor(config).execute(query)

    def _executor(self, config: EngineConfig) -> QueryExecutor:
        """The catalog executor for ``config`` (built on first use)."""
        executor = self._executors.get(config)
        if executor is None:
            executor = self._executors[config] = QueryExecutor(self._tables, config)
        return executor

    def partial_aggregate(
        self, sql_or_ast: Union[str, ast.Query], config: EngineConfig = DEFAULT_CONFIG
    ) -> Relation:
        """Run a grouped query in *partial* mode: mergeable state rows.

        The query's FROM/WHERE run against this node's catalog as usual,
        but grouping stops before finalization — the distributed runtime
        ships the (much smaller) state rows instead of raw rows.
        """
        query = parse(sql_or_ast) if isinstance(sql_or_ast, str) else sql_or_ast
        with self._lock:
            return self._executor(config).execute_partial_aggregation(query)

    def combine_partials(
        self,
        sql_or_ast: Union[str, ast.Query],
        relation: Relation,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> Relation:
        """Merge partial-state rows (from several children) per group.

        ``relation`` is passed directly rather than read from the catalog:
        combine points receive partials over the wire and never register
        the intermediate states.
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
            self._executors.clear()
        return relation

    def total_rows(self) -> int:
        """Total number of rows across all tables (used by capacity checks)."""
        with self._lock:
            return sum(len(relation) for relation in self._tables.values())
