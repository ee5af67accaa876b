"""Parallel fragment-execution runtime over tree topologies.

The seed processor executed every fragment plan serially, hop by hop, over a
flat chain — one sensor, one appliance, one PC, one cloud.  The paper's
architecture (Figure 3) is a *tree*: many sensors feed appliances, which
feed the apartment PC, which feeds the provider's cloud, and many users
query the environment at once.  This package closes that gap:

``dag`` / ``tasks`` / ``memo``
    Split by lifetime: :func:`~repro.runtime.dag.build_execution_dag` lays
    a plan out as tasks where the base chunks live (plan time), the tasks
    and :class:`~repro.runtime.tasks.ExecutionContext` do one run (a task
    binds the relations it read for its own engine call; nothing a run
    produces is registered on a node), and :mod:`~repro.runtime.memo`
    holds every rule about work kept across runs (leaf and combined
    states, derived queries, built DAGs).

``scheduler``
    :class:`~repro.runtime.scheduler.Scheduler` runs ready tasks under
    per-node worker slots sized from each node's ``cpu_power``: on a
    thread pool when a task can wait (simulated costs, the process
    backend, an injector), on the calling thread otherwise; per-node
    database locks keep the engine's single-threaded executor state safe.

``session``
    :class:`~repro.runtime.session.SessionFrontEnd` admits many independent
    user queries against one shared topology, each with a private
    transfer log.

``cost``
    :class:`~repro.runtime.cost.CostModel` simulates the relative node
    speeds of Table 1 and link latency with GIL-releasing sleeps, so the
    runtime-scaling benchmark measures genuine wall-clock overlap.

``faults``
    The fault-tolerance layer: a deterministic
    :class:`~repro.runtime.faults.FailureInjector`, bounded in-place
    retries, aggregate-state checkpoints and the
    :class:`~repro.runtime.faults.CompletenessReport` of degraded results.
    A node that dies is marked dead, its chunks are re-placed onto live
    siblings and the DAG is re-planned
    (:func:`~repro.runtime.dag.replan_without`).

Every query runs on this runtime: ``execution="serial"`` runs the
scheduler with one worker, a plain loop over the tasks in build order on
the calling thread, ``"parallel"`` the per-node slot pool wherever a task
can wait.
The differential oracle is independent of it:
:func:`repro.processor.reference.reference_result` runs the prepared query
once over the unfragmented base data, and every run must return
byte-identical relations — including every workload under every
*recoverable* injected failure (``tests/test_reference.py``,
``tests/test_runtime.py``, ``tests/test_chaos.py``).
"""

from repro.runtime.cost import DEFAULT_TASK_TIMEOUT, CostModel
from repro.engine.table import union_partials
from repro.runtime.dag import (
    ExecutionDag,
    build_execution_dag,
    anonymization_node,
    lift_node_groups,
    partial_aggregation_pays,
    replan_without,
)
from repro.runtime.faults import (
    CheckpointStore,
    CompletenessReport,
    DataLossError,
    FailureInjector,
    Fault,
    FaultError,
    InjectedTaskError,
    LinkDown,
    LostPartition,
    NodeDeath,
    RetryPolicy,
    TransientTaskError,
)
from repro.runtime.scheduler import DagRunReport, Scheduler, TaskTiming
from repro.runtime.session import QueryRequest, SessionFrontEnd
from repro.runtime.tasks import ExecutionContext
from repro.runtime.standing import (
    StandingQueryError,
    StandingQueryHandle,
    StandingQueryRuntime,
)

__all__ = [
    "anonymization_node",
    "CheckpointStore",
    "CompletenessReport",
    "CostModel",
    "DEFAULT_TASK_TIMEOUT",
    "DagRunReport",
    "DataLossError",
    "ExecutionContext",
    "ExecutionDag",
    "FailureInjector",
    "Fault",
    "FaultError",
    "InjectedTaskError",
    "LinkDown",
    "LostPartition",
    "NodeDeath",
    "QueryRequest",
    "RetryPolicy",
    "Scheduler",
    "SessionFrontEnd",
    "StandingQueryError",
    "StandingQueryHandle",
    "StandingQueryRuntime",
    "TaskTiming",
    "TransientTaskError",
    "build_execution_dag",
    "lift_node_groups",
    "partial_aggregation_pays",
    "replan_without",
    "union_partials",
]
