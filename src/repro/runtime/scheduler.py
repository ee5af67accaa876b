"""Concurrent, fault-tolerant scheduler for fragment-execution DAGs.

The :class:`Scheduler` runs the tasks of an
:class:`~repro.runtime.dag.ExecutionDag` on a thread pool, dispatching every
task the moment its dependencies complete.  Two throttles model the physical
environment:

* **Per-node worker slots.** Each topology node owns a semaphore sized by
  its relative CPU power (a sensor runs one task at a time, the PC and the
  cloud a few), so two tasks pinned to the same node contend exactly like
  they would on the real device, while tasks on *sibling* nodes overlap
  freely.  The semaphores live on the scheduler, which is shared across
  concurrent sessions — queries from different users contend for the same
  physical nodes.
* **Per-node databases** additionally serialize raw query execution through
  their own locks (see :class:`~repro.engine.database.Database`), so the
  compiled executor's single-threaded plan state is never entered twice.

Failure semantics (PR 6): task failures are classified by the taxonomy of
:mod:`repro.runtime.faults` —

* :class:`~repro.runtime.faults.TransientTaskError` (injected errors, link
  drops) retries the task *in place* under the run's
  :class:`~repro.runtime.faults.RetryPolicy`, releasing the node's worker
  slot between attempts.  Tasks are idempotent by construction — they
  recompute their output from their dependencies' outputs and re-register
  under the same name — so a retry can never double-count.  A task that
  exhausts its budget escalates to
  :class:`~repro.runtime.faults.NodeDeath`: a device that keeps failing *is*
  dead for scheduling purposes.
* A task exceeding its **deadline** (``task_timeout``, derived from the
  cost model by the processor) is a hung node: the scheduler abandons the
  run and raises :class:`~repro.runtime.faults.NodeDeath` for it instead of
  blocking the DAG forever.
* Every other exception is a *genuine* query error and propagates
  unchanged — the serial/parallel error-parity contract.

On any failure the scheduler cancels all not-yet-started tasks and (except
for the hung-node case, where the stuck worker is abandoned) drains in-flight
ones before raising, so per-node slots are released and no zombie task writes
into a later attempt's context.  Recovery itself — marking the node dead,
re-placing its data, re-planning the DAG — is the processor's job
(:meth:`~repro.processor.paradise.ParadiseProcessor._run_dag`);
the scheduler supports it by **restoring checkpoints**: before running, any
task whose signature has a checkpointed output (see
:class:`~repro.runtime.faults.CheckpointStore`) is satisfied from the store
and its entire dependency subtree is pruned, so a re-plan replays only work
the failure actually invalidated.

Determinism: the result of a DAG run does not depend on scheduling order —
merges concatenate partials in fixed partition order and every task writes
only its own output slot — so repeated concurrent runs return identical
relations (enforced by the ``concurrency`` tests).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.engine.table import Relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry as _metrics
from repro.obs.trace import activate
from repro.runtime.dag import ExecutionContext, ExecutionDag, Task
from repro.runtime.faults import NodeDeath, RetryPolicy, TransientTaskError


@dataclass
class TaskTiming:
    """Wall-clock span of one executed task."""

    task_id: str
    kind: str
    node: str
    started: float
    finished: float
    #: 1-based attempt number that succeeded (retries bump this).
    attempt: int = 1

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


@dataclass
class DagRunReport:
    """What one scheduler run did and how long it took."""

    wall_seconds: float
    timings: List[TaskTiming] = field(default_factory=list)
    #: Tasks satisfied from the checkpoint store instead of executing.
    restored_tasks: int = 0
    #: Tasks pruned entirely (their only consumers were restored).
    skipped_tasks: int = 0
    #: Total in-place retry attempts that transient failures cost.
    retried_attempts: int = 0

    @property
    def busy_seconds(self) -> float:
        """Sum of per-task wall time (serial-equivalent busy time)."""
        return sum(timing.elapsed for timing in self.timings)


class _CallingThread(Executor):
    """The one-worker pool: ``submit`` runs the task to completion on the
    caller's thread.  No handoff, and no fresh worker thread per run (whose
    new malloc arena re-faults every page the run allocates)."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:
            future.set_exception(error)
        return future


def _node_slots(cpu_power: float, cap: int = 4) -> int:
    """Concurrent task slots a node offers: one per unit of relative power."""
    return max(1, min(cap, int(cpu_power)))


class Scheduler:
    """Runs DAG tasks concurrently on a pool of per-node workers."""

    def __init__(self, topology: Topology, max_workers: Optional[int] = None) -> None:
        self.topology = topology
        self._slots: Dict[str, threading.Semaphore] = {
            node.name: threading.Semaphore(_node_slots(node.cpu_power or 1.0))
            for node in topology
        }
        if max_workers is None:
            # Enough threads that every node could have a runnable task;
            # sleeps (simulated cost) release the GIL, real work is bounded
            # by the per-node database locks anyway.
            max_workers = min(32, len(topology) + 4)
        self.max_workers = max_workers

    def _slot_for(self, node_name: str) -> threading.Semaphore:
        slot = self._slots.get(node_name)
        if slot is None:
            # Replanned DAGs only ever use nodes of the original topology,
            # but stay safe for schedulers built over a pruned one.
            slot = self._slots.setdefault(node_name, threading.Semaphore(1))
        return slot

    # ------------------------------------------------------------------
    # checkpoint restoration
    # ------------------------------------------------------------------
    @staticmethod
    def _restore_satisfied(
        dag: ExecutionDag, context: ExecutionContext
    ) -> tuple[Set[str], int]:
        """Satisfy checkpointed tasks from the store; return (needed, restored).

        Walks the DAG from the final task towards the leaves; a task whose
        signature has a stored output is satisfied in place and its
        dependency subtree never enters ``needed`` (unless another live
        consumer pulls it in) — recovery replays only lost work.
        """
        by_id = dag.by_id()
        needed: Set[str] = set()
        restored = 0
        stack = [dag.final_task_id]
        while stack:
            task_id = stack.pop()
            if task_id in needed or task_id in context.outputs:
                continue
            task = by_id[task_id]
            output = context.restore_checkpoint(task)
            if output is not None:
                context.outputs[task_id] = output
                restored += 1
                continue
            needed.add(task_id)
            stack.extend(task.deps)
        return needed, restored

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        dag: ExecutionDag,
        context: ExecutionContext,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
    ) -> DagRunReport:
        """Execute ``dag`` to completion; returns the run report.

        ``retry_policy`` bounds in-place retries of transient task failures
        (defaults to :class:`~repro.runtime.faults.RetryPolicy`);
        ``task_timeout`` is the per-task deadline in seconds (``None``
        disables deadline checking).  ``max_workers`` caps this run's pool
        (default: the scheduler's); ``1`` runs the tasks one at a time in
        build order on the calling thread, which is ``execution="serial"``.
        On a non-recovered task failure it cancels pending tasks, lets
        in-flight ones drain, and raises the exception of the failed task
        first in build order among those that finished; a deadline violation
        raises :class:`~repro.runtime.faults.NodeDeath` for the hung node
        without draining (the stuck worker is abandoned; on the calling
        thread the task is declared hung when it returns).
        """
        policy = retry_policy or RetryPolicy()
        by_id = dag.by_id()
        needed, restored_count = self._restore_satisfied(dag, context)
        skipped_count = len(dag.tasks) - len(needed) - restored_count
        waiting: Dict[str, int] = {
            task_id: sum(1 for dep in by_id[task_id].deps if dep in needed)
            for task_id in needed
        }
        dependents: Dict[str, List[str]] = {task_id: [] for task_id in needed}
        for task_id in needed:
            for dep in by_id[task_id].deps:
                if dep in needed:
                    dependents[dep].append(task_id)

        timings: List[TaskTiming] = []
        stats_lock = threading.Lock()
        retried_attempts = [0]
        trace = context.trace
        # Per-run metric handles: one registry lookup each, then plain
        # striped-lock increments on the per-task path.
        tasks_counter = _metrics.counter("runtime.tasks_executed")
        queue_hist = _metrics.histogram("runtime.queue_wait_seconds")
        slots_gauge = _metrics.gauge("runtime.slots_busy")
        started_at = time.perf_counter()
        run_span = None
        if trace is not None:
            # One root span per (re-plan) epoch; task spans parent here, so
            # the trace's run wall time reconciles with the report's.
            run_span = trace.begin(
                f"dag_run[epoch={context.attempt}]",
                kind="dag_run",
                epoch=context.attempt,
                tasks=len(needed),
            )
            if restored_count or skipped_count:
                trace.add_event(
                    run_span,
                    "checkpoint_restore",
                    restored=restored_count,
                    skipped=skipped_count,
                )

        def hung(task: Task) -> str:
            return f"{task.task_id} exceeded its {task_timeout:.1f}s deadline (hung node)"

        def run_task(task: Task, ready_at: float, deadline: Optional[float]) -> Relation:
            slot = self._slot_for(task.node)
            previous_span = None
            for attempt in range(1, policy.max_attempts + 1):
                span = None
                try:
                    with slot:
                        queue_wait = time.perf_counter() - ready_at
                        if trace is not None:
                            attrs = {
                                "task_id": task.task_id,
                                "deps": list(task.deps),
                                "signature": task.signature,
                                "epoch": context.attempt,
                                "attempt": attempt,
                                "order": task.order,
                                "queue_wait": queue_wait,
                            }
                            if previous_span is not None:
                                attrs["retry_of"] = previous_span.span_id
                            span = trace.begin(
                                task.task_id,
                                kind="task",
                                node=task.node,
                                parent=run_span,
                                **attrs,
                            )
                        slots_gauge.inc()
                        try:
                            if context.injector is not None:
                                context.injector.before_task(task)
                            task_started = time.perf_counter()
                            with activate(span):
                                output = task.execute(context)
                            task_finished = time.perf_counter()
                            if context.injector is not None:
                                # A "finish"-boundary kill: the node did the
                                # work but died before reporting back, so the
                                # output is discarded with the raised
                                # NodeDeath.
                                context.injector.after_task(task)
                            if deadline is not None and time.monotonic() > deadline:
                                raise NodeDeath(task.node, cause=hung(task))
                        finally:
                            slots_gauge.dec()
                except TransientTaskError as error:
                    if span is not None:
                        trace.add_event(
                            span, "fault", error=str(error), transient=True
                        )
                    if attempt >= policy.max_attempts:
                        if span is not None:
                            trace.finish(span, status="aborted")
                        raise NodeDeath(
                            task.node,
                            cause=f"{attempt} failed attempts at {task.task_id}: {error}",
                        ) from error
                    if span is not None:
                        trace.finish(span, status="retried")
                        previous_span = span
                    with stats_lock:
                        retried_attempts[0] += 1
                    delay = policy.delay(attempt)
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                except BaseException as error:
                    # Node kills, link-down escalations, genuine query
                    # errors: the attempt's span aborts either way.
                    if span is not None:
                        trace.add_event(
                            span, "fault", error=str(error), transient=False
                        )
                        trace.finish(span, status="aborted")
                    raise
                saved = context.save_checkpoint(task, output)
                tasks_counter.inc()
                queue_hist.observe(queue_wait)
                if span is not None:
                    if saved:
                        trace.add_event(
                            span, "checkpoint_save", signature=task.signature[:12]
                        )
                    trace.finish(span, status="ok")
                    if context.calibration is not None:
                        rows = span.attrs.get("input_rows", 0) or 0
                        if context.cost_model is not None:
                            power = (
                                context.network.topology.node(task.node).cpu_power
                                or 1.0
                            )
                            predicted = context.cost_model.compute_delay(rows, power)
                            span.attrs["predicted_seconds"] = predicted
                        else:
                            predicted = 0.0
                        context.calibration.observe(
                            task.kind,
                            predicted,
                            task_finished - task_started,
                            rows=rows,
                        )
                with stats_lock:
                    timings.append(
                        TaskTiming(
                            task_id=task.task_id,
                            kind=task.kind,
                            node=task.node,
                            started=task_started - started_at,
                            finished=task_finished - started_at,
                            attempt=attempt,
                        )
                    )
                return output
            raise AssertionError("unreachable")  # pragma: no cover

        ready = [task_id for task_id in needed if waiting[task_id] == 0]
        # Deterministic dispatch order (ties broken by build order).
        ready.sort(key=lambda task_id: by_id[task_id].order)
        in_flight: Dict[Future, str] = {}
        deadlines: Dict[Future, float] = {}
        #: task id -> the exception it raised.
        failures: Dict[str, BaseException] = {}
        first_error: Optional[BaseException] = None
        workers = max_workers or self.max_workers
        pool = _CallingThread() if workers == 1 else ThreadPoolExecutor(workers)
        try:
            while (ready or in_flight) and first_error is None and not failures:
                while ready and len(in_flight) < workers:
                    task_id = ready.pop(0)
                    deadline = None
                    if task_timeout is not None:
                        deadline = time.monotonic() + task_timeout
                    # A pool worker that overruns is caught by the poll
                    # below; a calling-thread task only when it returns.
                    future = pool.submit(
                        run_task,
                        by_id[task_id],
                        time.perf_counter(),
                        deadline if workers == 1 else None,
                    )
                    in_flight[future] = task_id
                    if deadline is not None:
                        deadlines[future] = deadline
                poll: Optional[float] = None
                if deadlines:
                    poll = max(
                        0.01, min(deadlines.values()) - time.monotonic()
                    )
                done, _ = wait(
                    set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
                )
                if not done and deadlines:
                    now = time.monotonic()
                    for future, deadline in deadlines.items():
                        if now >= deadline and not future.done():
                            task = by_id[in_flight[future]]
                            first_error = NodeDeath(task.node, cause=hung(task))
                            # The hung worker is left running; once it
                            # wakes it must not start engine work for this
                            # given-up attempt (ExecutionContext.engine_call).
                            context.abandoned = True
                            break
                    continue
                for future in done:
                    task_id = in_flight.pop(future)
                    deadlines.pop(future, None)
                    error = future.exception()
                    if error is not None:
                        failures[task_id] = error
                        continue
                    context.outputs[task_id] = future.result()
                    for dependent in dependents[task_id]:
                        waiting[dependent] -= 1
                        if waiting[dependent] == 0:
                            ready.append(dependent)
                ready.sort(key=lambda task_id: by_id[task_id].order)
            if failures or first_error is not None:
                # Failure hygiene: nothing queued may start once the run is
                # lost, and (unless a worker is known hung) every in-flight
                # task drains so its node slot is released and no zombie
                # write can leak into a later re-plan attempt.
                for future in in_flight:
                    future.cancel()
                if not context.abandoned:
                    wait(set(in_flight))
                    for future, task_id in in_flight.items():
                        if not future.cancelled() and future.exception() is not None:
                            failures[task_id] = future.exception()
            if failures:
                # Tasks that fail together finish in thread-timing order;
                # escalating the first in build order keeps which node dies
                # first — and so the re-plan — deterministic.
                first_failed = min(failures, key=lambda task_id: by_id[task_id].order)
                first_error = failures[first_failed]
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if first_error is not None:
            if run_span is not None:
                trace.finish(run_span, status="aborted")
            raise first_error

        wall_seconds = time.perf_counter() - started_at
        if run_span is not None:
            trace.finish(run_span, status="ok")
        timings.sort(key=lambda timing: timing.started)
        timings.sort(key=lambda timing: by_id[timing.task_id].order)
        return DagRunReport(
            wall_seconds=wall_seconds,
            timings=timings,
            restored_tasks=restored_count,
            skipped_tasks=skipped_count,
            retried_attempts=retried_attempts[0],
        )
