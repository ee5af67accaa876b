"""The PArADISE privacy-aware query processor.

A :class:`ParadiseProcessor` run performs the full pipeline of Figures 2/3:

1. **Admission** — the preprocessor checks the query against the module's
   policy (coverage, information gain, capacity, query interval).
2. **Rewriting** — disallowed attributes are removed, relations substituted,
   policy conditions and mandatory aggregations injected.  Steps 1–2 are
   :meth:`ParadiseProcessor.prepare`, the one place they happen:
   ``process``, ``explain`` and standing-query registration all go
   through it.
3. **Vertical fragmentation** — the rewritten query is split into fragments
   assigned to the lowest capable nodes of the topology.
4. **Distributed execution** — the plan becomes an execution DAG
   (:mod:`repro.runtime`) whose tasks run bottom-up on the per-node
   databases; intermediate results are shipped hop by hop and logged.
5. **Postprocessing** — before the result crosses the apartment boundary, the
   anonymization step ``A`` runs on an in-apartment node powerful enough to
   perform it.
6. **Remainder** — the cloud receives only ``d'`` and runs the remainder
   (for R workloads the surrounding ML call; for plain SQL a pass-through or
   the original query in the no-pushdown baseline).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

from repro.anonymize.anonymizer import Anonymizer
from repro.engine.config import EngineConfig
from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.engine.vectorized import estimate_select_rows, stats as scan_stats
from repro.fragment.fragmenter import VerticalFragmenter
from repro.fragment.plan import FragmentPlan
from repro.fragment.topology import Topology
from repro.obs.metrics import registry as _metrics
from repro.obs.profile import CalibrationLog, build_profile_report
from repro.obs.trace import QueryTrace
from repro.policy.model import PrivacyPolicy
from repro.processor.network import NetworkSimulator
from repro.processor.plan_cache import CachedPlan, PlanCache
from repro.processor.result import PreparedQuery, ProcessingResult, RuntimeStats
from repro.rewrite.analyzer import NodeCapacity, PolicyAnalyzer
from repro.rewrite.rewriter import QueryRewriter
from repro.rlang.sqlable import extract_sql_from_r
from repro.runtime.cost import DEFAULT_TASK_TIMEOUT, CostModel
from repro.runtime.dag import build_execution_dag, cached_execution_dag, replan_without
from repro.runtime.faults import (
    CheckpointStore,
    CompletenessReport,
    DataLossError,
    FailureInjector,
    LostPartition,
    NodeDeath,
)
from repro.runtime.memo import plan_memo
from repro.runtime.scheduler import Scheduler
from repro.runtime.tasks import ExecutionContext, StageTask, _rows
from repro.sql import ast
from repro.sql.parser import parse

_EXECUTION_MODES = ("serial", "parallel")

_WORKER_BACKENDS = ("threads", "processes")


def _check_execution(execution: str) -> str:
    if execution not in _EXECUTION_MODES:
        raise ValueError(
            f"Unknown execution mode: {execution!r} (expected one of {_EXECUTION_MODES})"
        )
    return execution


class ParadiseProcessor:
    """End-to-end privacy-aware query processing over a simulated environment."""

    def __init__(
        self,
        policy: PrivacyPolicy,
        topology: Optional[Topology] = None,
        schema: Optional[Schema] = None,
        anonymizer: Optional[Anonymizer] = None,
        minimum_information_gain: float = 0.25,
        enforce_query_interval: bool = False,
        engine_mode: str = "compiled",
        execution: str = "serial",
        cost_model: Optional[CostModel] = None,
        partial_aggregation: bool = True,
        optimizer: Optional[bool] = None,
        profile: bool = False,
        workers: str = "threads",
        process_workers: int = 2,
    ) -> None:
        _check_execution(execution)
        if workers not in _WORKER_BACKENDS:
            raise ValueError(
                f"Unknown worker backend: {workers!r} (expected one of {_WORKER_BACKENDS})"
            )
        if process_workers < 1:
            raise ValueError(
                f"Process backend needs at least 1 worker, got {process_workers}"
            )
        self.policy = policy
        self.topology = topology or Topology.default_chain()
        self.schema = schema
        #: Simulated per-node compute / per-hop transfer delays; the default
        #: free model never sleeps.  Both execution strategies charge the
        #: same operations, so benchmark speedups measure overlap only.
        self.cost_model = cost_model
        self.network = NetworkSimulator(self.topology, cost_model=cost_model)
        self.analyzer = PolicyAnalyzer(
            policy, minimum_information_gain=minimum_information_gain
        )
        self.rewriter = QueryRewriter(policy, schema=schema)
        self.fragmenter = VerticalFragmenter(self.topology)
        self.anonymizer = anonymizer or Anonymizer(algorithm="k_anonymity", k=5)
        self.enforce_query_interval = enforce_query_interval
        #: How every engine call of this processor runs, on every backend:
        #: the compiled path (default) or the interpreted reference oracle
        #: (benchmark baselines, audits), with or without the cost-based
        #: optimizer (benchmark ablation knob).  Results are byte-identical
        #: under every config.
        self.engine = EngineConfig(
            mode=engine_mode, optimizer=True if optimizer is None else bool(optimizer)
        )
        #: Plan execution strategy.  Both run the execution DAG on the
        #: scheduler (:mod:`repro.runtime`): "serial" with one worker, so
        #: tasks run one at a time in build order on the calling thread;
        #: "parallel" on the per-node slot pool when a task can wait, and
        #: like "serial" otherwise (``RuntimeStats.workers`` says which).
        self.execution = execution
        #: DAG runs decompose GROUP BY fragments into leaf partial
        #: aggregation plus per-level combines when possible; ``False``
        #: restores the global-merge baseline (benchmark ablation knob).
        self.partial_aggregation = partial_aggregation
        #: Compute backend for DAG tasks: ``"threads"`` runs engine
        #: operations in the scheduler's threads (default); ``"processes"``
        #: dispatches them to a spawned worker pool where every input and
        #: output crosses the process boundary as wire bytes
        #: (:mod:`repro.runtime.procs`) — true multi-core execution with
        #: remote-node visibility semantics.
        self.workers = workers
        #: Pool size for the process backend.
        self.process_workers = process_workers
        self._dispatcher = None
        #: Default profiling switch: ``True`` attaches a
        #: :class:`~repro.obs.trace.QueryTrace` and an EXPLAIN-ANALYZE-style
        #: :class:`~repro.obs.profile.ProfileReport` to every result
        #: (per-query override via ``process(profile=...)``).
        self.profile = profile
        #: Predicted-vs-observed task costs accumulated across profiled
        #: runs; shared with the cost model so
        #: ``cost_model.calibration_report()`` sees the same samples.
        self.calibration: CalibrationLog = (
            cost_model.calibration if cost_model is not None else CalibrationLog()
        )
        #: Runs every query's DAG; its per-node slots are shared by all runs.
        self.scheduler = Scheduler(self.topology)
        #: Repeated query texts reuse their parse, rewrite and fragment plan
        #: (:mod:`repro.processor.plan_cache`); admission runs every time.
        self.plans = PlanCache()

    # ------------------------------------------------------------------
    # data placement
    # ------------------------------------------------------------------
    def load_data(self, relation: Relation, table_name: str = "d") -> None:
        """Load the integrated sensor relation onto the sensor node."""
        self.network.load_sensor_data(relation, table_name=table_name)

    def load_device_tables(self, tables: Dict[str, Relation]) -> None:
        """Load per-device tables onto the sensor node."""
        self.network.load_device_tables(tables)

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    def process_r(self, r_code: str, module_id: str, **kwargs) -> ProcessingResult:
        """Process an R analysis script containing an embedded SQL query."""
        extraction = extract_sql_from_r(r_code)
        result = self.process(extraction.sql, module_id, **kwargs)
        result.remainder_call = extraction.residual_call("d_prime")
        return result

    def process(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        anonymize: bool = True,
        pushdown: bool = True,
        apply_rewriting: bool = True,
        execution: Optional[str] = None,
        faults: Optional[FailureInjector] = None,
        on_data_loss: str = "fail",
        task_timeout: Optional[float] = None,
        profile: Optional[bool] = None,
    ) -> ProcessingResult:
        """Process a SQL query end to end.

        Safe to call from any thread: a run registers nothing on the
        nodes (each task binds the relations it read for its own engine
        call), so concurrent calls share the processor's plans and DAGs
        and never see each other's intermediates.

        Args:
            query: SQL text or parsed query AST.
            module_id: The requesting module (must have a policy, unless
                rewriting is disabled for a baseline run).
            anonymize: Apply the postprocessing anonymization step ``A``.
            pushdown: Use vertical fragmentation; ``False`` ships the raw data
                to the cloud (the ablation baseline).
            apply_rewriting: Apply the policy-driven rewriting; ``False`` is
                the "no privacy" baseline.
            execution: Override the processor's execution strategy for this
                run ("serial" or "parallel").
            faults: Failure-injection harness for this run; the chaos tests
                and the recovery benchmark pass one.
            on_data_loss: ``"fail"`` raises on unrecoverable base-data loss,
                ``"partial"`` degrades to a partial result plus completeness
                report.
            task_timeout: Per-task deadline in seconds; ``None`` derives a
                generous one from the cost model for parallel runs and
                sets none for serial ones.
            profile: Collect a :class:`~repro.obs.trace.QueryTrace` and
                build an EXPLAIN-ANALYZE-style profile report for this run;
                ``None`` uses the processor's ``profile`` default.
        """
        strategy = _check_execution(execution or self.execution)
        if on_data_loss not in ("fail", "partial"):
            raise ValueError(
                f"Unknown data-loss policy: {on_data_loss!r} "
                "(expected 'fail' or 'partial')"
            )
        profiling = self.profile if profile is None else profile
        trace = QueryTrace(query_id=module_id) if profiling else None
        metrics_before = _metrics.snapshot() if profiling else None
        started = time.perf_counter()

        # 1. admission + 2. rewriting + 3. fragmentation.  A repeated text
        # takes its parse, rewrite, attribute analysis and plan from the
        # cache, but is admitted afresh: row estimate, capacity and query
        # interval are per run.  The first submission of a cold text plans
        # it; the others wait for its plan (``PlanCache.get``).
        key = self._plan_key(query, module_id, apply_rewriting, pushdown)
        cached = self.plans.get(key) if key is not None else None
        planning = key is not None and cached is None
        try:
            if cached is not None:
                parsed = cached.parsed
            else:
                parsed = parse(query) if isinstance(query, str) else query
            raw_rows = self._raw_input_rows()
            prepared = self._prepare(
                parsed, module_id, apply_rewriting, submit=True, raw_rows=raw_rows, cached=cached
            )
            result = ProcessingResult(
                module_id=module_id,
                admitted=prepared.admitted,
                admission=prepared.admission,
                rewrite=prepared.rewrite,
                raw_input_rows=raw_rows,
            )
            if not prepared.admitted:
                result.elapsed_seconds = time.perf_counter() - started
                return result
            if cached is None:
                cached = CachedPlan(
                    parsed=parsed,
                    rewrite=prepared.rewrite,
                    plan=self._fragment(prepared.query, pushdown),
                    analysis=prepared.admission.analysis if prepared.admission else None,
                )
                if key is not None:
                    cached = self.plans.put(key, cached)
        finally:
            if planning:
                self.plans.release(key)
        plan = result.plan = cached.plan

        # 4. distributed execution + 5. anonymization + 6. remainder
        result.result = self._run_dag(
            plan,
            result,
            anonymize=anonymize,
            strategy=strategy,
            faults=faults,
            on_data_loss=on_data_loss,
            task_timeout=task_timeout,
            trace=trace,
        )
        result.elapsed_seconds = time.perf_counter() - started
        if trace is not None:
            result.trace = trace
            result.profile = build_profile_report(
                trace,
                runtime_wall_seconds=result.runtime.wall_seconds,
                calibration=self.calibration,
                metrics_before=metrics_before,
                metrics_after=_metrics.snapshot(),
            )
        return result

    # ------------------------------------------------------------------
    # the front half: admission + rewriting
    # ------------------------------------------------------------------
    def prepare(
        self, query: Union[str, ast.Query], module_id: str, apply_rewriting: bool = True
    ) -> PreparedQuery:
        """Parse, admit and rewrite ``query`` without running it.

        Side-effect-free: previewing a query never starts the module's
        query interval.  Only submissions do — :meth:`process` and standing
        registration, which go through :meth:`_prepare` with ``submit``.
        ``apply_rewriting=False`` (the "no privacy" baseline) skips both
        admission and rewriting.
        """
        return self._prepare(query, module_id, apply_rewriting, submit=False)

    def _prepare(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        apply_rewriting: bool,
        submit: bool,
        raw_rows: Optional[int] = None,
        cached: Optional[CachedPlan] = None,
    ) -> PreparedQuery:
        """Parse, admit and rewrite ``query``; ``cached`` is the plan-cache
        entry of the same query, whose rewrite and attribute analysis are
        reused.  ``raw_rows`` is the base relation's row count when the
        caller has counted it."""
        parsed = parse(query) if isinstance(query, str) else query
        prepared = PreparedQuery(query=parsed)
        if not apply_rewriting:
            return prepared
        admit = self.analyzer.admit if submit else self.analyzer.check
        prepared.admission = admit(
            parsed,
            module_id,
            # The admission row estimate: the whole base relation, summed
            # over every chunk holder.
            estimated_rows=self._raw_input_rows() if raw_rows is None else raw_rows,
            capacity=NodeCapacity(
                cpu_power=self.topology.nodes[0].cpu_power or 1.0,
                free_memory_mb=self.topology.cloud.free_memory_mb,
            ),
            enforce_interval=self.enforce_query_interval,
            analysis=cached.analysis if cached is not None else None,
        )
        if prepared.admission.admitted:
            rewrite = cached.rewrite if cached is not None else None
            if rewrite is None:
                rewrite = self.rewriter.rewrite(parsed, module_id)
            prepared.rewrite = rewrite
            if prepared.rewrite.compliant:
                prepared.query = prepared.rewrite.query
        return prepared

    def _plan_key(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        apply_rewriting: bool,
        pushdown: bool,
    ) -> Optional[tuple]:
        """The plan-cache key of a submission, or ``None`` for a parsed
        query (only texts are cached).

        The module's policy enters as its full ``repr``, so any change to
        a rule, condition or setting is a new key.  The dead nodes do not
        enter: every run re-maps the cached plan around them
        (:meth:`_live_view`, kept per dead set in the plan's memo).
        """
        if not isinstance(query, str):
            return None
        policy = None
        if apply_rewriting and self.policy.has_module(module_id):
            policy = repr(self.policy.module(module_id))
        return (query, module_id, apply_rewriting, pushdown, policy)

    def _fragment(self, query: ast.Query, pushdown: bool) -> FragmentPlan:
        if pushdown:
            return self.fragmenter.fragment(query)
        return self.fragmenter.cloud_only_plan(query)

    # ------------------------------------------------------------------
    # EXPLAIN (plan + placement without executing)
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, ast.Query],
        module_id: str,
        pushdown: bool = True,
        apply_rewriting: bool = True,
        anonymize: bool = True,
        execution: Optional[str] = None,
    ) -> str:
        """Render the fragment plan and DAG placement without executing.

        Renders :meth:`prepare`'s admission and rewriting, then the
        fragmentation and the DAG build — all side-effect-free — as a
        human-readable plan: which fragment lands on which node, and how
        the runtime decomposes it into tasks.
        """
        strategy = _check_execution(execution or self.execution)
        prepared = self.prepare(query, module_id, apply_rewriting)
        lines = [f"EXPLAIN (module {module_id!r}, execution={strategy})"]
        admission, rewrite = prepared.admission, prepared.rewrite
        if admission is not None:
            if not admission.admitted:
                lines.append("admission: REJECTED")
                lines.extend(f"  - {reason}" for reason in admission.reasons)
                return "\n".join(lines)
            lines.append("admission: ok")
        if rewrite is not None:
            if not rewrite.compliant:
                lines.append("rewriting: NOT COMPLIANT")
                if rewrite.report.rejection_reason:
                    lines.append(f"  - {rewrite.report.rejection_reason}")
                return "\n".join(lines)
            lines.append(f"rewritten: {rewrite.sql}")

        plan, topology = self._live_view(self._fragment(prepared.query, pushdown))
        lines.append("")
        lines.append(plan.pretty(self._estimates(plan, self._raw_input_rows())))

        dag = build_execution_dag(
            plan,
            topology,
            self.network,
            anonymizer=self.anonymizer if anonymize else None,
            partial_aggregation=self.partial_aggregation,
            config=self.engine,
        )
        lines.append("")
        lines.append(
            f"{strategy} DAG: {len(dag.tasks)} tasks over "
            f"{dag.partition_width} partition(s)"
        )
        for task in sorted(dag.tasks, key=lambda t: t.order):
            line = f"  {task.order:3d}. {task.task_id} [{task.kind}] @ {task.node}"
            if task.parts:
                # A resident base chunk reads as ``d@sensor_3``.
                inputs = [
                    task_id or f"{getattr(task, 'base', '')}@{node}"
                    for task_id, node in task.parts
                ]
                line += f" <- {', '.join(inputs)}"
            if isinstance(task, StageTask):
                # Zone map verdicts name conjuncts, never a chunk's bounds.
                lines.extend(
                    f"       pruned {task.base}@{node}: refuted by {conjunct}"
                    for node, conjunct in task.pruned
                )
                if task.composes:
                    line += f" [merges {', '.join(task.composes)}]"
                if task.uses_resident_rule(topology):
                    line += " [Table 1: resident-partition rule]"
                if task.proves:
                    line += f" [zone map proves {'; '.join(task.proves)}]"
            lines.append(line)
        return "\n".join(lines)

    def _estimates(self, plan: FragmentPlan, raw_rows: int) -> List[Optional[int]]:
        """Per-fragment estimated output rows, chained bottom-up.

        Each fragment's estimate feeds the next fragment's input cardinality
        (fragments run over the previous fragment's output).  Advisory only:
        rendered by ``explain()``; profiled runs annotate each task span
        with its own estimate instead.
        """
        estimates: List[Optional[int]] = []
        rows = raw_rows
        for fragment in plan.fragments:
            estimated = estimate_select_rows(fragment.query, input_rows=rows)
            estimates.append(estimated)
            if estimated is not None:
                rows = estimated
        return estimates

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def _run_dag(
        self,
        plan: FragmentPlan,
        result: ProcessingResult,
        anonymize: bool,
        strategy: str,
        faults: Optional[FailureInjector] = None,
        on_data_loss: str = "fail",
        task_timeout: Optional[float] = None,
        trace: Optional[QueryTrace] = None,
    ) -> Relation:
        """Run ``plan`` as an execution DAG, recovering from node deaths;
        returns the result.

        ``strategy="serial"`` runs the scheduler with one worker, so tasks
        execute one at a time in build order on the calling thread;
        ``"parallel"`` dispatches every ready task onto the per-node slot
        pool when a task of the run can wait (simulated costs, the process
        backend or an injector, see ``ExecutionContext.can_wait``) and
        otherwise runs like ``"serial"``, since GIL-bound engine work does
        not overlap on threads.  ``result.runtime.workers`` says which.

        A run starts from the live view (:meth:`_live_view`: the plan
        re-mapped without the nodes that died in earlier runs) and takes
        its DAG from :func:`~repro.runtime.dag.cached_execution_dag`, which
        builds one only when an input of the build changed.

        The recovery loop: build and run the execution DAG; when the
        scheduler escalates a failure to
        :class:`~repro.runtime.faults.NodeDeath` (injected kill, exhausted
        retries, hung-node deadline), mark the node dead, re-place its base
        chunks onto live siblings (:meth:`NetworkSimulator.fail_node`),
        re-plan the DAG without it (:func:`repro.runtime.dag.replan_without`)
        and run again — checkpointed aggregate states survive across
        attempts, so only work the failure invalidated replays.  Chunks that
        are truly lost either abort the query
        (:class:`~repro.runtime.faults.DataLossError`) or, when policy
        allows, degrade it to a partial result whose
        :class:`~repro.runtime.faults.CompletenessReport` names exactly what
        is missing.
        """
        if task_timeout is None and strategy == "parallel":
            # The default deadline is for abandoning hung pool workers.
            if self.cost_model is not None:
                weakest = min(node.cpu_power or 1.0 for node in self.topology)
                task_timeout = self.cost_model.task_timeout(
                    result.raw_input_rows, weakest
                )
            else:
                task_timeout = DEFAULT_TASK_TIMEOUT

        run_log = self.network.new_log()
        context = ExecutionContext(
            network=self.network,
            log=run_log,
            config=self.engine,
            cost_model=self.cost_model,
            anonymizer=self.anonymizer,
            checkpoints=CheckpointStore(),
            injector=faults,
            trace=trace,
            calibration=self.calibration if trace is not None else None,
            dispatcher=self._process_dispatcher(),
        )

        # Nodes that died in earlier runs stay dead: the run starts from
        # the live view.
        current_plan, current_topology = self._live_view(plan)
        dead: List[str] = []
        lost: List[LostPartition] = []
        max_replans = max(1, len(self.topology) - 1)
        while True:
            dag, kept = cached_execution_dag(
                current_plan,
                current_topology,
                self.network,
                anonymizer=self.anonymizer if anonymize else None,
                partial_aggregation=self.partial_aggregation,
                config=self.engine,
            )
            scan_stats.zone_pruned += dag.pruned_partitions
            try:
                report = self.scheduler.run(
                    dag,
                    context,
                    task_timeout=task_timeout,
                    max_workers=1 if strategy == "serial" else None,
                    dag_cache="hit" if kept else "miss",
                )
                break
            except NodeDeath as death:
                if death.node in dead or len(dead) >= max_replans:
                    raise
                dead.append(death.node)
                _metrics.counter("runtime.node_deaths").inc()
                self.topology.mark_dead(death.node)
                newly_lost = self.network.fail_node(
                    death.node, lose_data=death.lose_data
                )
                lost.extend(newly_lost)
                if newly_lost and on_data_loss != "partial":
                    raise DataLossError(lost) from death
                current_plan, current_topology = self._live_view(plan)
                # Old task ids may collide with the new DAG's; checkpointed
                # states are re-keyed by signature, everything else re-runs.
                context = context.next_attempt()

        # A no-pushdown step A at the cloud may output the bytes its node
        # kept: every run returns a relation of its own.
        final = _rows(context.outputs[dag.final_task_id])
        final.name = "d_prime"
        result.executions.extend(context.ordered_executions())
        result.anonymization = context.anonymization
        result.transfers = run_log
        result.completeness = CompletenessReport(
            complete=not lost,
            lost_partitions=list(lost),
            rows_lost=sum(partition.rows for partition in lost),
            leaves_lost=list(dict.fromkeys(partition.node for partition in lost)),
            aggregates_exact=not lost,
            dead_nodes=list(dead),
            failures=faults.fired if faults is not None else [],
        )
        result.runtime = RuntimeStats(
            partition_width=dag.partition_width,
            task_count=len(dag.tasks),
            merge_count=sum(1 for task in dag.tasks if task.kind == "merge"),
            wall_seconds=report.wall_seconds,
            busy_seconds=report.busy_seconds,
            capacity_warnings=list(context.capacity_warnings),
            partial_count=sum(1 for task in dag.tasks if task.kind == "partial"),
            combine_count=sum(
                1 for task in dag.tasks if task.kind in ("combine", "finalize_agg")
            ),
            replans=len(dead),
            retried_attempts=context.retried_attempts,
            restored_tasks=report.restored_tasks,
            checkpoints_saved=context.checkpoints.saved,
            checkpoint_bytes=context.checkpoints.total_bytes,
            workers=report.workers,
            pruned_partitions=dag.pruned_partitions,
        )
        return final

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _live_view(self, plan: FragmentPlan) -> Tuple[FragmentPlan, Topology]:
        """``plan`` re-mapped onto the topology without its dead nodes, and
        that topology (``plan`` and the whole topology while none is dead).

        Kept in the plan's memo per dead set, which every re-mapping of
        the plan shares (:func:`~repro.runtime.dag.replan_without`), so
        the runs of one live view hand the DAG cache the same objects.
        """
        dead = self.topology.dead_nodes
        if not dead:
            return plan, self.topology
        return plan_memo(
            plan,
            ("live", frozenset(dead)),
            lambda: replan_without(plan, self.topology, dead),
        )

    def _process_dispatcher(self):
        """The shared process dispatcher, or ``None`` on the thread backend.

        Imported lazily so thread-backed processors never touch
        :mod:`multiprocessing`.
        """
        if self.workers != "processes":
            return None
        if self._dispatcher is None:
            from repro.runtime.procs import ProcessDispatcher

            self._dispatcher = ProcessDispatcher(self.process_workers)
        return self._dispatcher

    def _raw_input_rows(self) -> int:
        partitioned = self.network.base_table_rows("d")
        if partitioned:
            return partitioned
        sensor = self.topology.nodes[0]
        database = self.network.database(sensor.name)
        if "d" in database:
            return len(database.table("d"))
        return database.total_rows()
