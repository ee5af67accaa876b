"""Failure injection, retry policy and recovery state for the runtime.

Smart-environment devices are cheap and flaky: sensors run out of battery
mid-query, appliances hang, links drop packets.  The runtime (PRs 2-4)
assumed every node survives the whole DAG; this module supplies the pieces
that let it stop assuming that:

* :class:`FailureInjector` — a deterministic chaos harness.  A
  :class:`Fault` kills a named node at a named task boundary, makes a task
  raise a transient error, hangs a task (so the scheduler's timeout
  machinery can detect a stuck device), or drops/delays a link inside
  :class:`~repro.processor.network.NetworkSimulator`.  Faults match tasks
  by node and task-id substring, fire a bounded number of times, and the
  :meth:`FailureInjector.random_node_kills` helper derives a reproducible
  fault set from a seed — the chaos benchmark and the differential test
  grid both rely on runs being exactly replayable.

* :class:`RetryPolicy` — bounded per-task retries with exponential backoff
  for *transient* failures (injected task errors, link drops).  Genuine
  engine errors are never retried: the serial/parallel error-parity
  contract requires them to propagate unchanged.

* :class:`CheckpointStore` — mergeable aggregate states checkpointed at
  combine boundaries, packed through the exact binary codec of
  :mod:`repro.engine.wire`.  Checkpoints are keyed by *task signature* (a
  Merkle-style hash over the task's placement, names and dependency
  signatures, see :func:`repro.runtime.dag.build_execution_dag`), so after
  a re-plan only subtrees whose inputs actually changed re-run — recovery
  replays the lost leaves, not the whole tree.

* :class:`CompletenessReport` — the graceful-degradation contract.  When a
  failure is unrecoverable (a dead sensor whose chunk is truly lost) and
  policy allows partial results, the query still returns a relation plus a
  report that *exactly* enumerates what is missing: which partitions, on
  which nodes, how many rows, and whether aggregates are exact or partial.
  The salvage/reconcile/re-export recovery idiom: degrade explicitly
  instead of failing the session.

Exception taxonomy (what the scheduler does with each):

========================  =================================================
:class:`TransientTaskError`  retry the task in place, with backoff
:class:`LinkDown`            (a transient) — the link may come back
:class:`NodeDeath`           escalate: mark the node dead, re-plan the DAG
:class:`DataLossError`       unrecoverable loss refused by policy — abort
:class:`EpochAbandoned`      raised in a worker of a given-up attempt; its
                             result is never read
any other exception          genuine error: propagate unchanged (parity)
========================  =================================================
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.obs.metrics import registry as _metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.table import Relation
    from repro.fragment.topology import Topology


# ---------------------------------------------------------------------------
# exceptions
# ---------------------------------------------------------------------------


class FaultError(Exception):
    """Base class of every infrastructure failure the runtime can recover."""


class TransientTaskError(FaultError):
    """A task failure worth retrying in place (flaky read, injected error)."""


class InjectedTaskError(TransientTaskError):
    """A task error raised by the failure-injection harness."""


class LinkDown(TransientTaskError):
    """A shipment failed because the link between two nodes is down."""

    def __init__(self, source: str, target: str, message: str = "") -> None:
        self.source = source
        self.target = target
        super().__init__(message or f"link {source} -> {target} is down")


class NodeDeath(FaultError):
    """A node died (or was declared dead); the DAG must re-plan without it.

    ``lose_data`` distinguishes a crashed process whose data can be re-read
    by a sibling (recoverable: the differential contract demands a
    byte-identical result) from a destroyed device whose resident chunk is
    gone (unrecoverable: the result is partial and must say so).
    """

    def __init__(self, node: str, cause: str = "", lose_data: bool = False) -> None:
        self.node = node
        self.cause = cause
        self.lose_data = lose_data
        suffix = " (resident data lost)" if lose_data else ""
        super().__init__(f"node {node} died{suffix}: {cause or 'injected failure'}")


class EpochAbandoned(FaultError):
    """An abandoned attempt's worker tried to start engine work.

    When a hung task trips its deadline the scheduler gives the attempt up
    without draining its workers.  A stuck worker that wakes later must not
    run engine operations for an epoch nobody waits on any more; it raises
    this instead, into a future nobody reads.
    """


class DataLossError(FaultError):
    """Unrecoverable data loss that the session's policy refuses to degrade."""

    def __init__(self, lost: Sequence["LostPartition"], message: str = "") -> None:
        self.lost = list(lost)
        detail = "; ".join(str(partition) for partition in self.lost)
        super().__init__(
            message
            or f"query cannot complete: {detail or 'base data lost'} "
            "(pass on_data_loss='partial' to accept a partial result)"
        )


# ---------------------------------------------------------------------------
# fault model
# ---------------------------------------------------------------------------

KILL_NODE = "kill_node"
TASK_ERROR = "task_error"
HANG = "hang"
DROP_LINK = "drop_link"
DELAY_LINK = "delay_link"

_TASK_KINDS = (KILL_NODE, TASK_ERROR, HANG)
_LINK_KINDS = (DROP_LINK, DELAY_LINK)


@dataclass
class Fault:
    """One deterministic failure to inject.

    Attributes:
        kind: One of ``kill_node``, ``task_error``, ``hang`` (task-boundary
            faults) or ``drop_link``, ``delay_link`` (shipment faults).
        node: Node the fault applies to (task faults: the executing node;
            link faults: the source).  ``None`` matches any node.
        at_task: Substring matched against the task id (ids embed the
            fragment name and placement, e.g. ``t003:d1[sensor_2]`` or
            ``t014:d2~combine[appliance_1]``); ``None`` matches any task.
        when: ``"start"`` fires at the task-start boundary, ``"finish"``
            after the task's work completed (its output is discarded — the
            node died before reporting back).
        at_nth: Fire on the nth matching boundary only (1-based); ``None``
            fires on the first match.
        target: Link faults: the destination node (``None`` = any).
        lose_data: For ``kill_node``: the node's resident base-data chunk is
            destroyed with it (unrecoverable loss) instead of being
            re-readable by a sibling.
        delay_seconds: Sleep duration for ``hang`` and ``delay_link``.
        times: How many matching boundaries the fault fires on before
            disarming (a link that drops twice, then recovers).
    """

    kind: str
    node: Optional[str] = None
    at_task: Optional[str] = None
    when: str = "start"
    at_nth: Optional[int] = None
    target: Optional[str] = None
    lose_data: bool = False
    delay_seconds: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _TASK_KINDS + _LINK_KINDS:
            raise ValueError(f"Unknown fault kind: {self.kind!r}")
        if self.when not in ("start", "finish"):
            raise ValueError(f"Unknown fault boundary: {self.when!r}")
        if self.times < 1:
            raise ValueError("times must be at least 1")


class FailureInjector:
    """Deterministic, thread-safe fault firing for one processing run.

    The scheduler calls :meth:`before_task` / :meth:`after_task` around
    every task execution and :class:`~repro.processor.network.NetworkSimulator`
    calls :meth:`on_ship` for every shipment.  Matching is purely a function
    of the (deterministic) task ids and the per-fault counters, so a given
    fault plan replays identically run after run.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: int = 0) -> None:
        self.seed = seed
        self._faults = list(faults)
        self._matches: Dict[int, int] = {}
        self._remaining: Dict[int, int] = {
            index: fault.times for index, fault in enumerate(self._faults)
        }
        self._fired: List[str] = []
        #: Nodes a kill fault took down (name -> lose_data).  Death is
        #: sticky: once a node died, *every* later task boundary on it dies
        #: too — concurrent victims whose first NodeDeath was drained away
        #: are re-reported on the next attempt instead of silently reviving.
        self._down: Dict[str, bool] = {}
        self._lock = threading.Lock()

    # -- construction helpers ------------------------------------------
    @classmethod
    def random_node_kills(
        cls,
        topology: "Topology",
        n_failures: int,
        seed: int = 0,
        lose_data: bool = False,
        killable: Optional[Sequence[str]] = None,
    ) -> "FailureInjector":
        """A reproducible injector killing ``n_failures`` random nodes.

        Candidates are every non-root node (the cloud cannot die) unless
        ``killable`` narrows them; each victim dies at its first task
        boundary.  The same ``seed`` always picks the same victims — the
        chaos benchmark depends on that.
        """
        rng = random.Random(seed)
        candidates = list(
            killable
            if killable is not None
            else [node.name for node in topology.nodes[:-1]]
        )
        if n_failures > len(candidates):
            raise ValueError(
                f"Cannot kill {n_failures} of {len(candidates)} candidate nodes"
            )
        victims = rng.sample(candidates, n_failures)
        return cls(
            [Fault(kind=KILL_NODE, node=victim, lose_data=lose_data) for victim in victims],
            seed=seed,
        )

    # -- introspection -------------------------------------------------
    @property
    def fired(self) -> List[str]:
        """Human-readable log of every fault that fired (firing order)."""
        with self._lock:
            return list(self._fired)

    # -- matching ------------------------------------------------------
    def _take(self, fault_index: int, fault: Fault, description: str) -> bool:
        """Consume one firing of ``fault`` if it is armed for this match."""
        self._matches[fault_index] = self._matches.get(fault_index, 0) + 1
        nth = fault.at_nth or 1
        if self._matches[fault_index] < nth:
            return False
        if self._remaining[fault_index] <= 0:
            return False
        self._remaining[fault_index] -= 1
        self._fired.append(description)
        _metrics.counter("chaos.faults_fired").inc()
        return True

    def _task_fault(self, task: Any, when: str) -> Optional[Fault]:
        with self._lock:
            for index, fault in enumerate(self._faults):
                if fault.kind not in _TASK_KINDS or fault.when != when:
                    continue
                if fault.node is not None and task.node != fault.node:
                    continue
                if fault.at_task is not None and fault.at_task not in task.task_id:
                    continue
                if self._take(index, fault, f"{fault.kind}@{when} {task.task_id}"):
                    return fault
        return None

    def _fire_task_fault(self, fault: Fault, task: Any) -> None:
        if fault.kind == KILL_NODE:
            with self._lock:
                self._down.setdefault(task.node, fault.lose_data)
            raise NodeDeath(
                task.node,
                cause=f"injected kill at {task.task_id}",
                lose_data=fault.lose_data,
            )
        if fault.kind == TASK_ERROR:
            raise InjectedTaskError(f"injected task error at {task.task_id}")
        if fault.kind == HANG and fault.delay_seconds > 0.0:
            import time

            time.sleep(fault.delay_seconds)

    def before_task(self, task: Any) -> None:
        """Fire any fault armed for ``task``'s start boundary."""
        with self._lock:
            down = self._down.get(task.node)
        if down is not None:
            raise NodeDeath(task.node, cause="node is down", lose_data=down)
        fault = self._task_fault(task, "start")
        if fault is not None:
            self._fire_task_fault(fault, task)

    def after_task(self, task: Any) -> None:
        """Fire any fault armed for ``task``'s completion boundary."""
        fault = self._task_fault(task, "finish")
        if fault is not None:
            self._fire_task_fault(fault, task)

    def on_ship(self, source: str, target: str) -> float:
        """Link-fault hook; returns extra delay seconds, raises on drops."""
        delay = 0.0
        with self._lock:
            for index, fault in enumerate(self._faults):
                if fault.kind not in _LINK_KINDS:
                    continue
                if fault.node is not None and source != fault.node:
                    continue
                if fault.target is not None and target != fault.target:
                    continue
                if not self._take(index, fault, f"{fault.kind} {source}->{target}"):
                    continue
                if fault.kind == DROP_LINK:
                    raise LinkDown(source, target)
                delay += fault.delay_seconds
        return delay


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-task retry with exponential backoff.

    A task raising :class:`TransientTaskError` re-runs in place up to
    ``max_attempts`` times total; once the budget is exhausted the node is
    declared dead (a device that keeps failing *is* dead for scheduling
    purposes) and the DAG re-plans without it.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.005
    backoff_multiplier: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if self.backoff_seconds <= 0.0:
            return 0.0
        return self.backoff_seconds * (self.backoff_multiplier ** max(0, attempt - 1))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class CheckpointStore:
    """Signature-keyed checkpoints of mergeable aggregate-state relations.

    States are stored *packed* through :mod:`repro.engine.wire` — the same
    exact codec that sizes shipments — so a checkpoint round-trips bit for
    bit (the wire property tests pin this) and restoring one is equivalent
    to re-running the whole subtree that produced it.  Relations whose
    values fall outside the codec's vocabulary are skipped silently: a
    missing checkpoint only costs re-execution, never correctness.
    """

    def __init__(self) -> None:
        self._packed: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.saved = 0
        self.restored = 0
        self.skipped = 0

    def save(self, signature: str, relation: "Relation") -> bool:
        """Pack and store ``relation`` under ``signature``; False if unpackable."""
        from repro.engine.wire import WireFormatError, pack_state_relation

        if not signature:
            return False
        try:
            payload = pack_state_relation(relation)
        except WireFormatError:
            with self._lock:
                self.skipped += 1
            return False
        with self._lock:
            self._packed[signature] = payload
            self.saved += 1
        _metrics.counter("chaos.checkpoints_saved").inc()
        return True

    def restore(self, signature: str) -> Optional["Relation"]:
        """Unpack the checkpoint stored under ``signature`` (None if absent)."""
        from repro.engine.wire import unpack_state_relation

        with self._lock:
            payload = self._packed.get(signature)
        if payload is None:
            return None
        relation = unpack_state_relation(payload)
        with self._lock:
            self.restored += 1
        _metrics.counter("chaos.checkpoints_restored").inc()
        return relation

    def __contains__(self, signature: object) -> bool:
        with self._lock:
            return isinstance(signature, str) and signature in self._packed

    @property
    def total_bytes(self) -> int:
        """Total packed size of all stored checkpoints."""
        with self._lock:
            return sum(len(payload) for payload in self._packed.values())


# ---------------------------------------------------------------------------
# completeness reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LostPartition:
    """One base-table chunk that could not be recovered."""

    table: str
    node: str
    #: Position of the chunk in the original partition order (0-based).
    index: int
    rows: int

    def __str__(self) -> str:
        return f"partition {self.index} of {self.table!r} ({self.rows} rows on {self.node})"


@dataclass
class CompletenessReport:
    """What a (possibly degraded) query result does and does not cover.

    ``complete=True`` is the common case: every injected failure was
    recovered and the relation is byte-identical to the unfragmented
    reference (:func:`repro.processor.reference.reference_result`).
    Otherwise the report enumerates exactly which partitions are missing,
    and ``aggregates_exact=False`` warns that any aggregate/window values in
    the result were computed over the surviving rows only.
    """

    complete: bool = True
    lost_partitions: List[LostPartition] = field(default_factory=list)
    rows_lost: int = 0
    #: Leaf nodes whose data is gone (deduplicated, partition order).
    leaves_lost: List[str] = field(default_factory=list)
    #: True when every aggregate in the result saw all of its input rows
    #: (trivially true for queries without aggregates over complete data).
    aggregates_exact: bool = True
    #: Nodes declared dead during this run (death order).
    dead_nodes: List[str] = field(default_factory=list)
    #: Fault log: every injected failure that fired, in firing order.
    failures: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-or-more-line human-readable completeness statement."""
        if self.complete:
            if self.dead_nodes:
                return (
                    "result complete (recovered from failure of "
                    f"{', '.join(self.dead_nodes)})"
                )
            return "result complete"
        lines = [
            f"PARTIAL result: {self.rows_lost} input rows lost from "
            f"{len(self.lost_partitions)} partition(s)"
        ]
        for partition in self.lost_partitions:
            lines.append(f"  missing {partition}")
        if not self.aggregates_exact:
            lines.append("  aggregate values cover the surviving rows only")
        return "\n".join(lines)
