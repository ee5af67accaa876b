"""Concurrent admission front-end: many user queries, one shared topology.

The ROADMAP's north star is heavy traffic from many users against one smart
environment.  :class:`SessionFrontEnd` is the first step: it admits many
independent queries concurrently against a single shared
:class:`~repro.processor.paradise.ParadiseProcessor` (one topology, one
network simulator, one scheduler whose per-node worker slots all sessions
contend for — queries from different users genuinely compete for the same
sensors and appliances).

Each session runs on its own front-end thread, so sessions overlap one
another.  Within a session, the DAG runs on that same thread unless a task
can wait (simulated costs, the process backend, an injector), in which
case the scheduler runs it on a pool of its own (see
:mod:`repro.runtime.scheduler`).  Per-node slots throttle both alike.

Sessions need no isolation of their own: a run registers nothing on the
shared per-node databases (each task binds the relations it read for its
own engine call), so every session runs ``execution="parallel"`` against
the same catalogs, plans and kept DAGs, and records its shipments into its
own per-run :class:`~repro.processor.network.TransferLog`.  The thread
pool bounds how many run at once.

Results are returned in request order and are identical to processing the
same requests one at a time (the determinism tests enforce this).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING, Union

from repro.obs.metrics import registry as _metrics
from repro.processor.result import ProcessingResult
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.processor.paradise import ParadiseProcessor
    from repro.runtime.standing import StandingQueryRuntime


@dataclass
class QueryRequest:
    """One user query submitted to the front-end."""

    query: Union[str, ast.Query]
    module_id: str
    #: Extra keyword arguments for ``ParadiseProcessor.process`` (``anonymize``,
    #: ``pushdown``, ``apply_rewriting``).
    options: Dict[str, Any] = field(default_factory=dict)


class SessionFrontEnd:
    """Admits and executes many user queries concurrently.

    Args:
        processor: The shared processor (one topology + network + scheduler).
        max_concurrent: Upper bound on simultaneously executing sessions;
            further submissions queue.
    """

    def __init__(self, processor: "ParadiseProcessor", max_concurrent: int = 4) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        self.processor = processor
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="session"
        )
        self._standing: Optional["StandingQueryRuntime"] = None
        self._standing_lock = threading.Lock()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _run(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        options: Dict[str, Any],
        submitted_at: float,
    ) -> ProcessingResult:
        _metrics.histogram("session.queue_wait_seconds").observe(
            time.perf_counter() - submitted_at
        )
        active = _metrics.gauge("session.active")
        active.inc()
        try:
            result = self.processor.process(
                query,
                module_id,
                execution="parallel",
                **options,
            )
            _metrics.counter("session.completed").inc()
            return result
        except BaseException:
            _metrics.counter("session.failed").inc()
            raise
        finally:
            active.dec()

    def submit(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        **options: Any,
    ) -> "Future[ProcessingResult]":
        """Queue one query; returns a future with its :class:`ProcessingResult`."""
        _metrics.counter("session.submitted").inc()
        return self._pool.submit(
            self._run, query, module_id, options, time.perf_counter()
        )

    def run_batch(
        self,
        requests: Sequence[QueryRequest],
        return_exceptions: bool = False,
    ) -> List[Union[ProcessingResult, BaseException]]:
        """Execute ``requests`` concurrently; results come back in order.

        ``return_exceptions=True`` keeps one failed session (a dead node the
        runtime could not recover, a
        :class:`~repro.runtime.faults.DataLossError` the policy refused to
        degrade) from poisoning the whole batch: the exception object takes
        the failed request's slot and every other result still comes back.
        Degraded-but-successful sessions are ordinary results — check
        ``result.completeness`` for what they cover.
        """
        futures = [
            self.submit(request.query, request.module_id, **request.options)
            for request in requests
        ]
        if not return_exceptions:
            return [future.result() for future in futures]
        outcomes: List[Union[ProcessingResult, BaseException]] = []
        for future in futures:
            error = future.exception()
            outcomes.append(future.result() if error is None else error)
        return outcomes

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    @property
    def standing(self) -> "StandingQueryRuntime":
        """The front-end's shared standing-query runtime (lazily created).

        All sessions of one front-end share one runtime — that is what lets
        containment-equal standing queries from *different* users attach to
        one maintained state tree.
        """
        if self._standing is None:
            with self._standing_lock:
                if self._standing is None:
                    from repro.runtime.standing import StandingQueryRuntime

                    self._standing = StandingQueryRuntime(self.processor)
        return self._standing

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish queued sessions and release the worker threads."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SessionFrontEnd":
        return self

    def __exit__(self, *exc_info: object) -> Optional[bool]:
        self.close()
        return None
