"""Concurrent, fault-tolerant scheduler for fragment-execution DAGs.

The :class:`Scheduler` runs the tasks of an
:class:`~repro.runtime.dag.ExecutionDag`, dispatching every task the moment
its dependencies complete.  Where the tasks run depends on whether any of
them can wait (:attr:`~repro.runtime.tasks.ExecutionContext.can_wait`):

* **A fresh thread pool per run** when the run has simulated costs (their
  sleeps), a process dispatcher (the coordinator waits on worker
  processes) or a failure injector (hangs, link delays and retry backoff
  sleep, and a hung task must sit on a pool worker to be abandoned at its
  deadline).  Those waits release the GIL, so they overlap on threads.
* **The calling thread** otherwise, one task at a time in build order.
  Every node of the reproduction runs in one interpreter and engine work
  holds the GIL, so pool threads cannot overlap it; they only add a
  handoff per task, new threads per run, and slower engine work.  This
  is also ``execution="serial"``.  Build order is topological, so this
  path is a plain loop over the needed tasks: no futures, no ready
  queue, and the first task that fails is the first in build order.

Both paths run each task the same way, with the same slots, retries,
deadline check, checkpoints, timings and spans.  Two throttles model the
physical environment:

* **Per-node worker slots.** Each topology node owns a semaphore sized by
  its relative CPU power (a sensor runs one task at a time, under a plain
  lock; the PC and the cloud a few), so two tasks pinned to the same node
  contend exactly like they would on the real device, while tasks on
  *sibling* nodes overlap freely.  The slots live on the scheduler, which
  is shared across concurrent sessions — queries from different users
  contend for the same physical nodes.
* **Per-node databases** additionally serialize raw query execution through
  their own locks (see :class:`~repro.engine.database.Database`), so the
  compiled executor's single-threaded plan state is never entered twice.

Failure semantics (PR 6): task failures are classified by the taxonomy of
:mod:`repro.runtime.faults` —

* :class:`~repro.runtime.faults.TransientTaskError` (injected errors, link
  drops) retries the task *in place* under the run's
  :class:`~repro.runtime.faults.RetryPolicy`, releasing the node's worker
  slot between attempts.  Tasks are idempotent by construction — they
  recompute their output from their dependencies' outputs and write only
  their own slot of the run's outputs — so a retry can never double-count.  A task that
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
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.fragment.topology import Topology
from repro.obs.metrics import registry as _metrics
from repro.obs.trace import activate
from repro.runtime.dag import ExecutionDag
from repro.runtime.faults import NodeDeath, RetryPolicy, TransientTaskError
from repro.runtime.tasks import ExecutionContext, Output, Task


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
    #: Threads that ran the tasks (1 = the calling thread).
    workers: int = 1

    @property
    def busy_seconds(self) -> float:
        """Sum of per-task wall time (serial-equivalent busy time)."""
        return sum(timing.elapsed for timing in self.timings)


def _node_slots(cpu_power: float, cap: int = 4) -> int:
    """Concurrent task slots a node offers: one per unit of relative power."""
    return max(1, min(cap, int(cpu_power)))


def _slot(slots: int):
    """A node's worker slots: a lock for a one-slot node (every sensor),
    whose acquire and release cost a sixth of a semaphore's."""
    return threading.Lock() if slots == 1 else threading.Semaphore(slots)


class Scheduler:
    """Runs DAG tasks under per-node worker slots, on a pool where tasks
    can wait and on the calling thread otherwise."""

    def __init__(self, topology: Topology, max_workers: Optional[int] = None) -> None:
        self.topology = topology
        self._slots: Dict[str, object] = {
            node.name: _slot(_node_slots(node.cpu_power or 1.0)) for node in topology
        }
        if max_workers is None:
            # Enough threads that every node could have a runnable task;
            # sleeps (simulated cost) release the GIL, real work is bounded
            # by the per-node database locks anyway.
            max_workers = min(32, len(topology) + 4)
        self.max_workers = max_workers

    def _slot_for(self, node_name: str):
        slot = self._slots.get(node_name)
        if slot is None:
            # Replanned DAGs only ever use nodes of the original topology,
            # but stay safe for schedulers built over a pruned one.
            slot = self._slots.setdefault(node_name, _slot(1))
        return slot

    # ------------------------------------------------------------------
    # checkpoint restoration
    # ------------------------------------------------------------------
    @staticmethod
    def _restore_satisfied(
        dag: ExecutionDag, context: ExecutionContext
    ) -> Tuple[Set[str], int]:
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
        task_timeout: Optional[float] = None,
        max_workers: Optional[int] = None,
        dag_cache: Optional[str] = None,
    ) -> DagRunReport:
        """Execute ``dag`` to completion; returns the run report.

        Transient task failures retry in place under the default
        :class:`~repro.runtime.faults.RetryPolicy`; ``task_timeout`` is the
        per-task deadline in seconds (``None`` disables deadline
        checking).  ``max_workers`` caps this run's pool
        (default: the scheduler's); ``1`` runs the tasks one at a time in
        build order on the calling thread, which is ``execution="serial"``.
        A run in which no task can wait (``context.can_wait`` is false)
        runs on the calling thread too, whatever ``max_workers`` says: its
        tasks are GIL-bound, so pool threads would only add overhead.  The
        report's ``workers`` (and the ``dag_run`` span's) says which ran;
        ``dag_cache`` (``"hit"``/``"miss"``), when given, becomes the
        span's ``dag`` attribute.
        On a non-recovered task failure it cancels pending tasks, lets
        in-flight ones drain, and raises the exception of the failed task
        first in build order among those that finished; a deadline violation
        raises :class:`~repro.runtime.faults.NodeDeath` for the hung node
        without draining (the stuck worker is abandoned; on the calling
        thread the task is declared hung when it returns).
        """
        policy = RetryPolicy()
        # Pool threads only overlap tasks that wait with the GIL released;
        # a run of GIL-bound engine work is cheaper on the calling thread.
        workers = (max_workers or self.max_workers) if context.can_wait else 1
        needed, restored_count = self._restore_satisfied(dag, context)
        skipped_count = len(dag.tasks) - len(needed) - restored_count

        timings: List[TaskTiming] = []
        retry_lock = threading.Lock()
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
            attrs = {} if dag_cache is None else {"dag": dag_cache}
            run_span = trace.begin(
                f"dag_run[epoch={context.attempt}]",
                kind="dag_run",
                epoch=context.attempt,
                tasks=len(needed),
                workers=workers,
                pruned_partitions=dag.pruned_partitions,
                **attrs,
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

        def run_task(
            task: Task, ready_at: float, deadline: Optional[float]
        ) -> Tuple[Output, TaskTiming]:
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
                            if span is None:
                                output = task.execute(context)
                            else:
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
                    with retry_lock:
                        context.retried_attempts += 1
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
                    # A leaf partial that output a kept state, or folded
                    # the appended rows into one, did not do the work the
                    # cost model predicts.
                    if (
                        context.calibration is not None
                        and span.attrs.get("memo") in (None, "miss")
                    ):
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
                timing = TaskTiming(
                    task_id=task.task_id,
                    kind=task.kind,
                    node=task.node,
                    started=task_started - started_at,
                    finished=task_finished - started_at,
                    attempt=attempt,
                )
                return output, timing
            raise AssertionError("unreachable")  # pragma: no cover

        if workers == 1:
            first_error = self._run_in_order(
                dag, needed, context, run_task, task_timeout, timings
            )
        else:
            first_error = self._run_on_pool(
                dag, needed, context, run_task, task_timeout, workers, timings, hung
            )
        if first_error is not None:
            if run_span is not None:
                trace.finish(run_span, status="aborted")
            raise first_error

        wall_seconds = time.perf_counter() - started_at
        if run_span is not None:
            trace.finish(run_span, status="ok")
        return DagRunReport(
            wall_seconds=wall_seconds,
            timings=timings,
            restored_tasks=restored_count,
            skipped_tasks=skipped_count,
            workers=workers,
        )

    @staticmethod
    def _run_in_order(
        dag: ExecutionDag,
        needed: Set[str],
        context: ExecutionContext,
        run_task,
        task_timeout: Optional[float],
        timings: List[TaskTiming],
    ) -> Optional[BaseException]:
        """Run the needed tasks one at a time, in build order, on the
        calling thread; returns the first error (nothing after it starts).

        Build order is topological, so every dependency has finished when
        a task starts.  A task overrunning its deadline is declared hung
        when it returns.
        """
        for task in dag.tasks:
            if task.task_id not in needed:
                continue
            deadline = None
            if task_timeout is not None:
                deadline = time.monotonic() + task_timeout
            try:
                output, timing = run_task(task, time.perf_counter(), deadline)
            except BaseException as error:
                return error
            context.outputs[task.task_id] = output
            timings.append(timing)
        return None

    @staticmethod
    def _run_on_pool(
        dag: ExecutionDag,
        needed: Set[str],
        context: ExecutionContext,
        run_task,
        task_timeout: Optional[float],
        workers: int,
        timings: List[TaskTiming],
        hung,
    ) -> Optional[BaseException]:
        """Dispatch every ready task onto a fresh pool of ``workers``
        threads the moment its dependencies complete; returns the first
        error in build order (or the hung node's death)."""
        by_id = dag.by_id()
        waiting: Dict[str, int] = {
            task_id: sum(1 for dep in by_id[task_id].deps if dep in needed)
            for task_id in needed
        }
        dependents: Dict[str, List[str]] = {task_id: [] for task_id in needed}
        for task_id in needed:
            for dep in by_id[task_id].deps:
                if dep in needed:
                    dependents[dep].append(task_id)
        ready = [task_id for task_id in needed if waiting[task_id] == 0]
        # Deterministic dispatch order (ties broken by build order).
        ready.sort(key=lambda task_id: by_id[task_id].order)
        in_flight: Dict[Future, str] = {}
        deadlines: Dict[Future, float] = {}
        #: task id -> the exception it raised.
        failures: Dict[str, BaseException] = {}
        first_error: Optional[BaseException] = None
        pool = ThreadPoolExecutor(workers)
        try:
            while (ready or in_flight) and first_error is None and not failures:
                while ready and len(in_flight) < workers:
                    task_id = ready.pop(0)
                    future = pool.submit(
                        run_task, by_id[task_id], time.perf_counter(), None
                    )
                    in_flight[future] = task_id
                    if task_timeout is not None:
                        # An overrunning worker is caught by the poll below.
                        deadlines[future] = time.monotonic() + task_timeout
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
                    context.outputs[task_id], timing = future.result()
                    timings.append(timing)
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
        timings.sort(key=lambda timing: by_id[timing.task_id].order)
        return first_error
