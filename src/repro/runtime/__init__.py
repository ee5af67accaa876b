"""Parallel fragment-execution runtime over tree topologies.

The seed processor executed every fragment plan serially, hop by hop, over a
flat chain — one sensor, one appliance, one PC, one cloud.  The paper's
architecture (Figure 3) is a *tree*: many sensors feed appliances, which
feed the apartment PC, which feeds the provider's cloud, and many users
query the environment at once.  This package closes that gap:

``dag``
    :func:`~repro.runtime.dag.build_execution_dag` partitions the bottom
    fragment of a plan horizontally across sibling sensor leaves, lifts
    row-distributive fragments up the tree one sibling-merge at a time, and
    inserts a global merge/union task where the first non-distributive
    fragment (windows, ordering) needs the whole relation.  GROUP BY
    fragments whose aggregates all decompose skip the global merge
    entirely: each leaf partition aggregates into mergeable states
    (``partial()``/``merge()``/``finalize()``, see
    :mod:`repro.engine.aggregates`), sibling states combine at each tree
    level, and the fragment finalizes at its assigned node — only group
    states ever cross a hop, never the raw rows.  Anonymization and the
    cloud remainder are the DAG's final tasks.

``scheduler``
    :class:`~repro.runtime.scheduler.Scheduler` runs ready tasks
    concurrently on a thread pool throttled by per-node worker slots sized
    from each node's ``cpu_power``; per-node database locks keep the
    engine's single-threaded executor state safe.

``session``
    :class:`~repro.runtime.session.SessionFrontEnd` admits many independent
    user queries against one shared topology, giving each a namespace for
    its intermediate relations and a private transfer log.

``cost``
    :class:`~repro.runtime.cost.CostModel` simulates the relative node
    speeds of Table 1 and link latency with GIL-releasing sleeps, so the
    runtime-scaling benchmark measures genuine wall-clock overlap.

``faults``
    The fault-tolerance layer (PR 6): a deterministic
    :class:`~repro.runtime.faults.FailureInjector` (kill a node at a task
    boundary, drop/delay a link, inject transient errors or hangs),
    :class:`~repro.runtime.faults.RetryPolicy` for bounded in-place
    retries, :class:`~repro.runtime.faults.CheckpointStore` for
    wire-packed aggregate-state checkpoints at combine boundaries, and
    :class:`~repro.runtime.faults.CompletenessReport` — the contract for
    gracefully degraded partial results.  The scheduler escalates
    unrecoverable task failures to
    :class:`~repro.runtime.faults.NodeDeath`; the processor's recovery
    loop marks the node dead, re-places its chunks onto live siblings and
    re-plans the DAG (:func:`~repro.runtime.dag.replan_without`).

Every query runs on this runtime: ``execution="serial"`` is the same
scheduler loop with one worker, ``"parallel"`` the per-node slot pool.
The differential oracle is independent of it:
:func:`repro.processor.reference.reference_result` runs the prepared query
once over the unfragmented base data, and every run must return
byte-identical relations — including every workload under every
*recoverable* injected failure (``tests/test_reference.py``,
``tests/test_runtime.py``, ``tests/test_chaos.py``).
"""

from repro.runtime.cost import DEFAULT_TASK_TIMEOUT, CostModel
from repro.runtime.dag import (
    CombinePartialsTask,
    ExecutionContext,
    ExecutionDag,
    FinalizeAggregationTask,
    PartialAggregateTask,
    build_execution_dag,
    anonymization_node,
    lift_node_groups,
    partial_aggregation_pays,
    replan_without,
    union_partials,
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
from repro.runtime.standing import (
    StandingQueryError,
    StandingQueryHandle,
    StandingQueryRuntime,
)

__all__ = [
    "anonymization_node",
    "CheckpointStore",
    "CombinePartialsTask",
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
    "FinalizeAggregationTask",
    "InjectedTaskError",
    "LinkDown",
    "LostPartition",
    "NodeDeath",
    "PartialAggregateTask",
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
