"""Simulated peer network of the vertical architecture.

Every node of the :class:`~repro.fragment.topology.Topology` owns its own
in-memory :class:`~repro.engine.database.Database`.  Raw sensor data lives on
the sensor leaves; query fragments execute bottom-up and their results are
*shipped* to the node that runs the next fragment.  Every shipment is recorded
in the :class:`TransferLog`, which is what the Figure 3 benchmark measures:
how many rows/bytes travel on each hop and, in particular, how much data
crosses the apartment boundary towards the cloud (``d`` vs ``d'``).

Concurrency: the parallel fragment runtime (:mod:`repro.runtime`) ships
intermediate results from many worker threads at once, so :class:`TransferLog`
is lock-protected and :meth:`TransferLog.by_hop` reports hops in a
deterministic order independent of scheduling.  Callers that need an isolated
per-run log (concurrent sessions sharing one simulator) pass ``log=`` to
:meth:`NetworkSimulator.ship`.

Tree topologies with several sensor leaves hold the base data *horizontally
partitioned*: :meth:`NetworkSimulator.load_sensor_data` splits the relation
into contiguous chunks, one per leaf, in leaf order.  Concatenating the
chunks in that order reproduces the original row order exactly, which is what
keeps fragmented execution byte-identical to the unfragmented reference
(:mod:`repro.processor.reference`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.columns import copy_column, extend_column
from repro.engine.database import Database
from repro.engine.table import Relation
from repro.engine.wire import pack_relation, unpack_relation
from repro.fragment.topology import Node, Topology
from repro.obs.metrics import registry as _metrics
from repro.obs.trace import current_span


@dataclass(frozen=True)
class Transfer:
    """One shipment of a relation between two nodes."""

    source: str
    target: str
    relation_name: str
    rows: int
    bytes: int
    leaves_apartment: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        marker = "  [leaves apartment]" if self.leaves_apartment else ""
        return f"{self.source} -> {self.target}: {self.relation_name} ({self.rows} rows, {self.bytes} bytes){marker}"


@dataclass
class TransferLog:
    """All shipments of one processing run.

    Safe to record into from many scheduler workers at once; aggregate
    accessors snapshot the list under the same lock.
    """

    transfers: List[Transfer] = field(default_factory=list)
    #: Node names from the least powerful upwards; fixes the deterministic
    #: bottom-up hop order :meth:`by_hop` reports regardless of the
    #: (scheduling-dependent) order transfers were recorded in.
    node_order: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, transfer: Transfer) -> None:
        """Append one transfer (thread-safe)."""
        with self._lock:
            self.transfers.append(transfer)

    def snapshot(self) -> List[Transfer]:
        """A consistent copy of all transfers recorded so far."""
        with self._lock:
            return list(self.transfers)

    @property
    def total_rows(self) -> int:
        """Total rows moved across all hops."""
        return sum(transfer.rows for transfer in self.snapshot())

    @property
    def total_bytes(self) -> int:
        """Total bytes moved across all hops."""
        return sum(transfer.bytes for transfer in self.snapshot())

    @property
    def rows_leaving_apartment(self) -> int:
        """Rows that crossed the apartment boundary (shipped to the cloud)."""
        return sum(t.rows for t in self.snapshot() if t.leaves_apartment)

    @property
    def bytes_leaving_apartment(self) -> int:
        """Bytes that crossed the apartment boundary."""
        return sum(t.bytes for t in self.snapshot() if t.leaves_apartment)

    def by_hop(self) -> List[Dict[str, object]]:
        """Tabular per-hop summary in a deterministic bottom-up order.

        Parallel runs record transfers in scheduling order, which varies from
        run to run; sorting hops by topology position (sources closest to the
        sensors first, the apartment-leaving hop last) makes reports from
        repeated runs stable and comparable.  Nodes absent from
        ``node_order`` sort after known ones, by name.
        """
        known = {name: index for index, name in enumerate(self.node_order)}
        fallback = len(known)

        def position(name: str) -> tuple:
            return (known.get(name, fallback), name)

        ordered = sorted(
            self.snapshot(),
            key=lambda t: (
                position(t.source),
                position(t.target),
                t.relation_name,
                t.rows,
                t.bytes,
            ),
        )
        return [
            {
                "source": t.source,
                "target": t.target,
                "relation": t.relation_name,
                "rows": t.rows,
                "bytes": t.bytes,
                "leaves_apartment": t.leaves_apartment,
            }
            for t in ordered
        ]


class NetworkSimulator:
    """Holds the per-node databases and performs shipments.

    ``cost_model`` (optional, duck-typed — anything with a
    ``transfer_delay(bytes) -> seconds`` method, see
    :class:`repro.runtime.cost.CostModel`) simulates link latency: every
    inter-node shipment sleeps for the returned duration, so overlapping
    shipments from concurrent workers genuinely overlap in wall-clock time.
    """

    def __init__(self, topology: Topology, cost_model: Optional[object] = None) -> None:
        self.topology = topology
        self._databases: Dict[str, Database] = {
            node.name: Database(name=node.name) for node in topology
        }
        self.log = self.new_log()
        self.cost_model = cost_model
        #: table name (lower-case) -> ordered node names holding its chunks.
        self._partitions: Dict[str, List[str]] = {}
        #: (node name, table name) -> placement epoch.  Bumped whenever a
        #: chunk of the table moves onto or off the node (node failure
        #: re-placement), so task signatures built over the old placement
        #: stop matching and stale checkpoints are never restored.
        self._epochs: Dict[Tuple[str, str], int] = {}
        self._placement_lock = threading.Lock()

    # ------------------------------------------------------------------
    # data placement
    # ------------------------------------------------------------------
    def database(self, node_name: str) -> Database:
        """Return the database of ``node_name``."""
        if node_name not in self._databases:
            raise KeyError(f"Unknown node: {node_name}")
        return self._databases[node_name]

    def _sensor_leaves(self) -> List[Node]:
        """Leaf nodes of the topology's least powerful level, in order."""
        lowest = self.topology.nodes[0].level
        return [leaf for leaf in self.topology.leaves if leaf.level == lowest]

    def load_sensor_data(self, relation: Relation, table_name: str = "d") -> None:
        """Place raw sensor data on the sensor leaves.

        A single-sensor topology (the seed's chains) receives the whole
        relation on its lowest node.  A tree with several sensor leaves
        receives contiguous chunks, one per leaf in leaf order, modelling
        each sensor producing its own slice of the integrated stream.
        """
        leaves = self._sensor_leaves()
        if len(leaves) <= 1:
            target = leaves[0] if leaves else self.topology.nodes[0]
            self._register_stream(self.database(target.name), table_name, relation)
            self._partitions[table_name.lower()] = [target.name]
            return
        chunk_count = len(leaves)
        base, remainder = divmod(len(relation), chunk_count)
        start = 0
        holders: List[str] = []
        for index, leaf in enumerate(leaves):
            size = base + (1 if index < remainder else 0)
            # Contiguous columnar slice — no per-row copies.
            chunk = relation.slice_rows(start, start + size, name=table_name)
            start += size
            self._register_stream(self.database(leaf.name), table_name, chunk)
            holders.append(leaf.name)
        self._partitions[table_name.lower()] = holders

    def _register_stream(self, database: Database, table_name: str, relation: Relation) -> None:
        database.register(table_name, relation)
        # "SELECT * FROM stream" of the use case reads the sensor's own stream.
        if table_name != "stream":
            database.register("stream", relation)

    def append_to_partition(
        self, node_name: str, table_name: str, delta: Relation
    ) -> int:
        """Append ``delta`` rows at the *end* of ``node_name``'s chunk.

        The ingestion primitive of standing queries: a sensor's new readings
        extend its own contiguous slice of the partitioned stream, so the
        concatenation of all chunks in partition order stays exactly the
        relation a from-scratch load would have produced (append-at-end is
        what keeps incremental group order identical to re-execution's
        first-occurrence order).  Bumps the placement epoch so task
        signatures built over the old chunk — and any checkpoints saved
        under them — stop matching.  Returns the chunk's new row count.
        """
        database = self.database(node_name)
        if table_name in database:
            combined = self._concat_chunks(
                database.table(table_name), delta, table_name
            )
        else:
            combined = self._concat_chunks(
                Relation.from_columns(
                    delta.schema, [[] for _ in delta.schema.columns]
                ),
                delta,
                table_name,
            )
        self._register_stream(database, table_name, combined)
        holders = self._partitions.setdefault(table_name.lower(), [])
        if node_name not in holders:
            holders.append(node_name)
        self._bump_epoch(node_name, table_name)
        return len(combined)

    def load_device_tables(self, tables: Dict[str, Relation]) -> None:
        """Register every device table on the first sensor node."""
        sensor = self.topology.nodes[0]
        database = self.database(sensor.name)
        for name, relation in tables.items():
            database.register(name, relation)
            self._partitions[name.lower()] = [sensor.name]

    # ------------------------------------------------------------------
    # partition lookup
    # ------------------------------------------------------------------
    def partition_holders(self, table_name: str) -> List[str]:
        """Node names holding chunks of ``table_name``, in chunk order.

        Unknown tables fall back to the lowest node (where un-tracked data
        such as directly registered tables lives).
        """
        return list(
            self._partitions.get(table_name.lower(), [self.topology.nodes[0].name])
        )

    def base_table_names(self) -> List[str]:
        """Every placed base table (sensor streams and device tables)."""
        return list(self._partitions)

    def base_table_rows(self, table_name: str) -> int:
        """Total rows of ``table_name`` across all of its chunk holders."""
        total = 0
        for holder in self.partition_holders(table_name):
            database = self.database(holder)
            if table_name in database:
                total += len(database.table(table_name))
        return total

    # ------------------------------------------------------------------
    # failures and re-placement
    # ------------------------------------------------------------------
    def data_epoch(self, node_name: str, table_name: str) -> int:
        """Placement epoch of ``table_name``'s chunk on ``node_name``.

        Part of every leaf task's signature: a re-placed chunk bumps the
        epoch, which invalidates checkpoints computed over the old chunk.
        """
        with self._placement_lock:
            return self._epochs.get((node_name, table_name.lower()), 0)

    def _bump_epoch(self, node_name: str, table_name: str) -> None:
        with self._placement_lock:
            key = (node_name, table_name.lower())
            self._epochs[key] = self._epochs.get(key, 0) + 1

    @staticmethod
    def _concat_chunks(first: Relation, second: Relation, name: str) -> Relation:
        """Concatenate two same-schema chunks preserving row order.

        Typed column backings are preserved (an int64 chunk glued to an
        int64 chunk stays one contiguous typed buffer).
        """
        merged = []
        for column in first.schema.columns:
            head = first.column_array(column.name)
            tail = second.column_array(column.name)
            destination = copy_column(head) if head is not None else []
            merged.append(
                extend_column(destination, tail if tail is not None else [])
            )
        return Relation.from_columns(first.schema, merged, name=name)

    def fail_node(self, node_name: str, lose_data: bool = False) -> List:
        """Take ``node_name`` out of service and re-place its base chunks.

        Process-crash semantics (``lose_data=False``): the node's chunk of
        every partitioned base table is still readable and merges into an
        *adjacent* holder in partition order — into the previous holder's
        chunk tail, or ahead of the next holder's chunk, or (sole holder)
        onto the nearest live ancestor.  Concatenation order is preserved in
        every case, which is what keeps recovered parallel runs
        byte-identical to the healthy run.

        Device-destroyed semantics (``lose_data=True``): the chunk is gone;
        it is removed from the partition map and reported as a
        :class:`~repro.runtime.faults.LostPartition` (returned in partition
        order) for the completeness report.

        Either way the dead node's database drops its copies so nothing can
        silently read stale data, and placement epochs bump for every
        affected (node, table) pair.
        """
        from repro.runtime.faults import LostPartition

        self.topology.node(node_name)  # raise on unknown names
        lost: List[LostPartition] = []
        dead_database = self.database(node_name)
        for table_name, holders in self._partitions.items():
            if node_name not in holders:
                continue
            index = holders.index(node_name)
            chunk = (
                dead_database.table(table_name)
                if table_name in dead_database
                else None
            )
            if lose_data or chunk is None:
                lost.append(
                    LostPartition(
                        table=table_name,
                        node=node_name,
                        index=index,
                        rows=len(chunk) if chunk is not None else 0,
                    )
                )
            elif index > 0:
                # Append the dead chunk after its predecessor's chunk.
                heir = holders[index - 1]
                heir_database = self.database(heir)
                merged = self._concat_chunks(
                    heir_database.table(table_name), chunk, name=table_name
                )
                self._register_stream(heir_database, table_name, merged)
                self._bump_epoch(heir, table_name)
            elif len(holders) > 1:
                # First holder: prepend the dead chunk to its successor's.
                heir = holders[index + 1]
                heir_database = self.database(heir)
                merged = self._concat_chunks(
                    chunk, heir_database.table(table_name), name=table_name
                )
                self._register_stream(heir_database, table_name, merged)
                self._bump_epoch(heir, table_name)
            else:
                # Sole holder: move the chunk up to the nearest live ancestor.
                heir = self.topology.nearest_live_ancestor(node_name).name
                self._register_stream(self.database(heir), table_name, chunk)
                holders[index] = heir
                self._bump_epoch(heir, table_name)
                self._bump_epoch(node_name, table_name)
                self._drop_node_table(dead_database, table_name)
                continue
            holders.remove(node_name)
            self._bump_epoch(node_name, table_name)
            self._drop_node_table(dead_database, table_name)
        return lost

    @staticmethod
    def _drop_node_table(database: Database, table_name: str) -> None:
        """Drop a failed node's chunk plus its ``stream`` alias."""
        if table_name in database:
            database.drop_table(table_name)
        if table_name != "stream" and "stream" in database:
            database.drop_table("stream")

    def drop_namespace(self, namespace: str) -> int:
        """Drop every namespaced intermediate (``x__ns``) from every node.

        Failed or retried parallel runs call this so a re-plan (or the next
        session recycling the namespace) never reads a half-written
        intermediate; returns the number of tables dropped.
        """
        suffix = f"__{namespace}".lower()
        dropped = 0
        for database in self._databases.values():
            for table_name in database.table_names:
                if table_name.lower().endswith(suffix):
                    database.drop_table(table_name)
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def ship(
        self,
        relation: Relation,
        relation_name: str,
        source: str,
        target: str,
        log: Optional[TransferLog] = None,
        register: bool = True,
        injector: Optional[object] = None,
    ) -> Relation:
        """Ship ``relation`` from ``source`` to ``target`` and register it there.

        The relation genuinely crosses the link: it is serialized through
        the wire codec (:func:`repro.engine.wire.pack_relation`), the
        *encoded payload's* byte count drives the transfer log, the metrics
        and the cost model's link latency, and the relation registered at
        the target — also returned to the caller — is the **deserialized**
        copy.  A relation with a cell outside the wire vocabulary raises
        :class:`~repro.engine.wire.WireFormatError`: nothing is logged or
        registered, and sender and receiver never share mutable state.

        ``log`` selects the transfer log to record into; ``None`` uses the
        simulator's shared log.  Processing runs pass their own per-run log
        so concurrent runs do not interleave.
        ``register=False`` logs the shipment without registering the relation
        at the target (merge tasks register the union once instead of every
        partial, keeping the target's catalog shape stable).
        ``injector`` (duck-typed — anything with an
        ``on_ship(source, target) -> extra delay seconds`` method, see
        :class:`repro.runtime.faults.FailureInjector`) may delay the
        shipment or fail it with :class:`repro.runtime.faults.LinkDown`;
        nothing is logged or registered for a dropped shipment.
        """
        if source == target:
            if register:
                self.database(target).register(relation_name, relation)
            return relation
        source_node = self.topology.node(source)
        target_node = self.topology.node(target)
        extra_delay = 0.0
        if injector is not None:
            extra_delay = injector.on_ship(source, target)  # may raise LinkDown
        payload = pack_relation(relation)  # WireFormatError: nothing ships
        nbytes = len(payload)
        received = unpack_relation(payload)
        if self.cost_model is not None:
            extra_delay += self.cost_model.transfer_delay(nbytes)
        if extra_delay > 0:
            time.sleep(extra_delay)
        leaves = source_node.inside_apartment and not target_node.inside_apartment
        (log if log is not None else self.log).record(
            Transfer(
                source=source,
                target=target,
                relation_name=relation_name,
                rows=len(relation),
                bytes=nbytes,
                leaves_apartment=leaves,
            )
        )
        _metrics.counter("network.transfers").inc()
        _metrics.counter("network.bytes").inc(nbytes)
        if leaves:
            _metrics.counter("network.bytes_leaving_apartment").inc(nbytes)
        # Ambient trace attribution: whichever span is executing on this
        # thread (the scheduler's task span) gets the shipment as an instant
        # event.  One thread-local read when tracing is off.
        span = current_span()
        if span is not None:
            span.trace.add_event(
                span,
                "transfer",
                source=source,
                target=target,
                relation=relation_name,
                rows=len(relation),
                bytes=nbytes,
                leaves_apartment=leaves,
            )
        if register:
            self.database(target).register(relation_name, received)
        return received

    def new_log(self) -> TransferLog:
        """A fresh transfer log carrying this topology's hop order."""
        return TransferLog(node_order=[node.name for node in self.topology])

