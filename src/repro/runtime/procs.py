"""Process-pool execution backend for DAG engine operations.

The scheduler's thread pool overlaps simulated latencies well, but Python
threads cannot overlap the *compute* of two engine calls.  This module adds
a ``workers="processes"`` backend: the compute-heavy engine operations of a
DAG run (fragment queries, partial aggregation, state combines, aggregate
finalization, the cloud remainder) are dispatched to a
:class:`concurrent.futures.ProcessPoolExecutor`, while everything stateful
— shipping, catalogs, chaos injection, retries, checkpoints, spans — stays
on the coordinator.

**Everything crosses the process boundary as wire bytes.**  A job is one
``bytes`` payload framed by this module (magic ``PJB2``): the operation
kind, the whole :class:`~repro.engine.config.EngineConfig` (mode plus the
vectorized and optimizer flags), the query as rendered SQL text, the
referenced input relations and the optional merged partial-state
relation, each relation packed with :func:`repro.engine.wire.pack_relation`.
The worker runs the operation on a throwaway
:class:`~repro.engine.database.Database` with those relations bound as
its inputs, under the framed config, and returns
the output relation packed the same way.  No :class:`Relation` or aggregate
state is ever pickled (``Relation.__reduce__`` raises, so an accidental
pickle fails loudly); queries travel as SQL text, exercising the
render → parse round-trip.

Workers are plain spawned interpreters, so a dispatched operation sees
*only* what its payload carries — the same visibility contract as a real
remote node.  The pool (one per worker count) is created lazily, shared by
every dispatcher in the process and torn down at exit, amortizing the
spawn cost across runs.
"""

from __future__ import annotations

import atexit
import struct
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.config import MODES, EngineConfig
from repro.engine.database import Database
from repro.engine.table import Relation
from repro.engine.wire import WireFormatError, pack_relation, unpack_relation
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.render import render
from repro.sql.visitor import referenced_tables

#: Engine operations a worker can run.  Index = wire opcode.
OPERATIONS = ("query", "partial", "combine", "finalize")

_JOB_MAGIC = b"PJB2"

#: Config flag bits of the job header; any other bit is malformed.
_VECTORIZED = 0x01
_OPTIMIZER = 0x02


# ---------------------------------------------------------------------------
# job framing
# ---------------------------------------------------------------------------
def encode_job(
    op: str,
    config: EngineConfig,
    sql: str,
    tables: Sequence[Tuple[str, bytes]],
    state: Optional[bytes] = None,
) -> bytes:
    """Frame one worker job as a single self-describing byte payload."""
    if op not in OPERATIONS:
        raise ValueError(f"Unknown worker operation: {op!r}")
    out = bytearray(_JOB_MAGIC)
    out.append(OPERATIONS.index(op))
    out.append(MODES.index(config.mode))
    out.append(
        (_VECTORIZED if config.vectorized else 0) | (_OPTIMIZER if config.optimizer else 0)
    )
    sql_bytes = sql.encode("utf-8")
    out += struct.pack("<I", len(sql_bytes))
    out += sql_bytes
    out += struct.pack("<H", len(tables))
    for name, payload in tables:
        name_bytes = name.encode("utf-8")
        out += struct.pack("<H", len(name_bytes))
        out += name_bytes
        out += struct.pack("<I", len(payload))
        out += payload
    if state is None:
        out.append(0)
    else:
        out.append(1)
        out += struct.pack("<I", len(state))
        out += state
    return bytes(out)


class _JobReader:
    """Sequential reader over a job payload with loud truncation errors."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise WireFormatError("Truncated worker job payload")
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def decode_job(
    data: bytes,
) -> Tuple[str, EngineConfig, str, List[Tuple[str, bytes]], Optional[bytes]]:
    """Inverse of :func:`encode_job`; raises :class:`WireFormatError`."""
    reader = _JobReader(data)
    if reader.take(4) != _JOB_MAGIC:
        raise WireFormatError("Malformed worker job payload (bad magic)")
    op_code = reader.u8()
    mode_code = reader.u8()
    if op_code >= len(OPERATIONS) or mode_code >= len(MODES):
        raise WireFormatError("Malformed worker job payload (bad opcode)")
    flags = reader.u8()
    if flags & ~(_VECTORIZED | _OPTIMIZER):
        raise WireFormatError("Malformed worker job payload (unknown config flags)")
    config = EngineConfig(
        mode=MODES[mode_code],
        vectorized=bool(flags & _VECTORIZED),
        optimizer=bool(flags & _OPTIMIZER),
    )
    try:
        sql = reader.take(reader.u32()).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireFormatError("Malformed worker job payload (bad SQL)") from error
    tables: List[Tuple[str, bytes]] = []
    for _ in range(reader.u16()):
        name = reader.take(reader.u16()).decode("utf-8")
        tables.append((name, reader.take(reader.u32())))
    state = reader.take(reader.u32()) if reader.u8() else None
    if reader.offset != len(data):
        raise WireFormatError("Trailing bytes after worker job payload")
    return OPERATIONS[op_code], config, sql, tables, state


# ---------------------------------------------------------------------------
# the worker (runs in the spawned process)
# ---------------------------------------------------------------------------
def execute_job(payload: bytes) -> bytes:
    """Run one framed engine operation; bytes in, bytes out.

    This is the *entire* worker-side surface: decode the job, run the
    operation on a throwaway database with the packed input relations
    bound as its inputs, under the framed engine config, pack the output.
    """
    op, config, sql, tables, state = decode_job(payload)
    database = Database(name="procs-worker")
    inputs = {name: unpack_relation(blob) for name, blob in tables}
    merged = unpack_relation(state) if state is not None else None
    query = parse(sql)
    if op == "query":
        output = database.query(query, config, inputs=inputs)
    elif op == "partial":
        output = database.partial_aggregate(query, config, inputs=inputs)
    elif op == "combine":
        output = database.combine_partials(query, merged, config)
    else:
        output = database.finalize_partials(query, merged, config)
    return pack_relation(output)


# ---------------------------------------------------------------------------
# pool management (coordinator side)
# ---------------------------------------------------------------------------
_pools: Dict[int, ProcessPoolExecutor] = {}
_pools_lock = threading.Lock()


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool for ``workers`` slots; spawned once, reused forever.

    Spawned (never forked) so workers import a clean interpreter — no
    inherited catalogs, locks or metrics, the same cold-start a real
    remote executor would have.
    """
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=get_context("spawn")
            )
            _pools[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool (idempotent; also runs at exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# dispatcher (what the DAG tasks talk to)
# ---------------------------------------------------------------------------
class ProcessDispatcher:
    """Runs engine operations on the shared process pool, via wire bytes.

    One dispatcher serves a whole DAG run; it is stateless apart from its
    worker count, so concurrent scheduler threads may call :meth:`run`
    freely (``ProcessPoolExecutor.submit`` is thread-safe).
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"Process backend needs at least 1 worker, got {workers}")
        self.workers = workers
        #: Jobs dispatched through this dispatcher (observability/tests).
        self.jobs = 0
        #: Total job payload bytes shipped to workers.
        self.bytes_out = 0

    def gather_tables(
        self, database: Database, query: ast.Query, inputs: Mapping[str, Relation]
    ) -> List[Tuple[str, Relation]]:
        """The relations ``query`` reads (job inputs): each bound in
        ``inputs``, else resident in ``database`` (names match in any
        case, as the engine resolves them)."""
        bound = {name.lower(): relation for name, relation in inputs.items()}
        gathered = []
        for name in referenced_tables(query):
            relation = bound.get(name.lower())
            if relation is not None:
                gathered.append((name, relation))
            elif name in database:
                gathered.append((name, database.table(name)))
        return gathered

    def run(
        self,
        op: str,
        config: EngineConfig,
        query: ast.Query,
        tables: Sequence[Tuple[str, Relation]],
        state: Optional[Relation] = None,
    ) -> Relation:
        """Dispatch one engine operation and return its output relation."""
        packed_tables = [(name, pack_relation(rel)) for name, rel in tables]
        packed_state = pack_relation(state) if state is not None else None
        payload = encode_job(op, config, render(query), packed_tables, packed_state)
        self.jobs += 1
        self.bytes_out += len(payload)
        future = _shared_pool(self.workers).submit(execute_job, payload)
        return unpack_relation(future.result())
