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
4. **Distributed execution** — fragments run bottom-up on the per-node
   databases; intermediate results are shipped hop by hop and logged.
5. **Postprocessing** — before the result crosses the apartment boundary, the
   anonymization step ``A`` runs on the most powerful in-apartment node.
6. **Remainder** — the cloud receives only ``d'`` and runs the remainder
   (for R workloads the surrounding ML call; for plain SQL a pass-through or
   the original query in the no-pushdown baseline).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.anonymize.anonymizer import Anonymizer
from repro.engine.config import EngineConfig
from repro.engine.schema import Schema
from repro.engine.table import Relation
from repro.engine.vectorized import estimate_select_rows
from repro.fragment.fragmenter import VerticalFragmenter
from repro.fragment.plan import FragmentPlan
from repro.fragment.topology import Topology
from repro.obs.metrics import registry as _metrics
from repro.obs.profile import CalibrationLog, build_profile_report
from repro.obs.trace import QueryTrace, maybe_span
from repro.policy.model import PrivacyPolicy
from repro.processor.network import NetworkSimulator
from repro.processor.result import (
    FragmentExecution,
    PreparedQuery,
    ProcessingResult,
    RuntimeStats,
)
from repro.rewrite.analyzer import NodeCapacity, PolicyAnalyzer
from repro.rewrite.rewriter import QueryRewriter
from repro.rlang.sqlable import RQueryExtraction, extract_sql_from_r
from repro.runtime.cost import DEFAULT_TASK_TIMEOUT, CostModel
from repro.runtime.dag import (
    ExecutionContext,
    build_execution_dag,
    last_inside_node,
    replan_without,
    union_partials,
)
from repro.runtime.faults import (
    CheckpointStore,
    CompletenessReport,
    DataLossError,
    FailureInjector,
    LostPartition,
    NodeDeath,
    RetryPolicy,
)
from repro.runtime.scheduler import Scheduler
from repro.sql import ast
from repro.sql.parser import parse

_EXECUTION_MODES = ("serial", "parallel")

_WORKER_BACKENDS = ("threads", "processes")


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
        allow_partial_results: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        profile: bool = False,
        workers: str = "threads",
        process_workers: int = 2,
    ) -> None:
        if execution not in _EXECUTION_MODES:
            raise ValueError(
                f"Unknown execution mode: {execution!r} (expected one of {_EXECUTION_MODES})"
            )
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
        #: free model never sleeps.  Both execution paths charge the same
        #: operations, so benchmark speedups measure overlap only.
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
        #: Plan execution strategy: "serial" walks the plan hop by hop (the
        #: differential oracle); "parallel" schedules an execution DAG over
        #: the topology tree (:mod:`repro.runtime`).
        self.execution = execution
        #: Parallel runs decompose GROUP BY fragments into leaf partial
        #: aggregation plus per-level combines when possible; ``False``
        #: restores the global-merge baseline (benchmark ablation knob).
        self.partial_aggregation = partial_aggregation
        #: Default data-loss policy for parallel runs: ``False`` raises
        #: :class:`~repro.runtime.faults.DataLossError` when base data is
        #: unrecoverable, ``True`` degrades to a partial result with a
        #: :class:`~repro.runtime.faults.CompletenessReport` (per-query
        #: override via ``process(on_data_loss=...)``).
        self.allow_partial_results = allow_partial_results
        #: Compute backend for parallel DAG runs: ``"threads"`` runs engine
        #: operations in the scheduler's threads (default); ``"processes"``
        #: dispatches them to a spawned worker pool where every input and
        #: output crosses the process boundary as wire bytes
        #: (:mod:`repro.runtime.procs`) — true multi-core execution with
        #: remote-node visibility semantics.
        self.workers = workers
        #: Pool size for the process backend.
        self.process_workers = process_workers
        self._dispatcher = None
        #: Bounds in-place retries of transient task failures.
        self.retry_policy = retry_policy or RetryPolicy()
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
        self._scheduler: Optional[Scheduler] = None
        self._scheduler_lock = threading.Lock()

    @property
    def scheduler(self) -> Scheduler:
        """The lazily created scheduler (shared by all parallel runs)."""
        with self._scheduler_lock:
            if self._scheduler is None:
                self._scheduler = Scheduler(self.topology)
            return self._scheduler

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
        namespace: Optional[str] = None,
        faults: Optional[FailureInjector] = None,
        on_data_loss: Optional[str] = None,
        task_timeout: Optional[float] = None,
        profile: Optional[bool] = None,
    ) -> ProcessingResult:
        """Process a SQL query end to end.

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
            namespace: Suffix for intermediate relation names (parallel runs
                only); concurrent sessions pass a unique one each so shared
                per-node databases never collide.
            faults: Failure-injection harness for this run (parallel only);
                the chaos tests and the recovery benchmark pass one.
            on_data_loss: ``"fail"`` raises on unrecoverable base-data loss,
                ``"partial"`` degrades to a partial result plus completeness
                report; ``None`` uses the processor's
                ``allow_partial_results`` default.
            task_timeout: Per-task deadline in seconds (parallel only);
                ``None`` derives a generous one from the cost model.
            profile: Collect a :class:`~repro.obs.trace.QueryTrace` and
                build an EXPLAIN-ANALYZE-style profile report for this run;
                ``None`` uses the processor's ``profile`` default.
        """
        strategy = execution or self.execution
        if strategy not in _EXECUTION_MODES:
            raise ValueError(
                f"Unknown execution mode: {strategy!r} (expected one of {_EXECUTION_MODES})"
            )
        if on_data_loss not in (None, "fail", "partial"):
            raise ValueError(
                f"Unknown data-loss policy: {on_data_loss!r} "
                "(expected 'fail' or 'partial')"
            )
        if faults is not None and strategy != "parallel":
            raise ValueError("Failure injection requires execution='parallel'")
        profiling = self.profile if profile is None else profile
        trace = QueryTrace(query_id=module_id) if profiling else None
        metrics_before = _metrics.snapshot() if profiling else None
        started = time.perf_counter()
        if strategy == "serial":
            # The serial oracle keeps the seed's shared-log semantics; the
            # parallel path records into a per-run log instead (it may run
            # concurrently with other sessions on the same simulator).
            self.network.reset_log()

        # 1. admission + 2. rewriting
        prepared = self._prepare(query, module_id, apply_rewriting, submit=True)
        raw_rows = self._raw_input_rows()
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

        # 3. fragmentation
        plan = self._fragment(prepared.query, pushdown)
        result.plan = plan

        if trace is not None:
            self._annotate_estimates(plan, raw_rows)

        # 4. distributed execution + 5. anonymization + 6. remainder
        if strategy == "parallel" and plan.fragments:
            final = self._execute_plan_parallel(
                plan,
                result,
                anonymize=anonymize,
                namespace=namespace,
                faults=faults,
                on_data_loss=on_data_loss,
                task_timeout=task_timeout,
                trace=trace,
            )
        else:
            with maybe_span(trace, "serial_plan", kind="dag_run", epoch=0):
                final = self._execute_plan(plan, result, anonymize=anonymize, trace=trace)
            result.transfers = self.network.log
        result.result = final
        result.elapsed_seconds = time.perf_counter() - started
        if trace is not None:
            result.trace = trace
            result.profile = build_profile_report(
                trace,
                runtime_wall_seconds=(
                    result.runtime.wall_seconds if result.runtime is not None else 0.0
                ),
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
    ) -> PreparedQuery:
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
            estimated_rows=self._raw_input_rows(),
            capacity=NodeCapacity(
                cpu_power=self.topology.nodes[0].cpu_power or 1.0,
                free_memory_mb=self.topology.cloud.free_memory_mb,
            ),
            enforce_interval=self.enforce_query_interval,
        )
        if prepared.admission.admitted:
            prepared.rewrite = self.rewriter.rewrite(parsed, module_id)
            if prepared.rewrite.compliant:
                prepared.query = prepared.rewrite.query
        return prepared

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
        namespace: Optional[str] = None,
    ) -> str:
        """Render the fragment plan and DAG placement without executing.

        Renders :meth:`prepare`'s admission and rewriting, then the
        fragmentation and (for parallel strategies) the DAG build — all
        side-effect-free — as a human-readable plan: which fragment lands
        on which node, and how the parallel runtime would decompose it into
        tasks.
        """
        strategy = execution or self.execution
        if strategy not in _EXECUTION_MODES:
            raise ValueError(
                f"Unknown execution mode: {strategy!r} (expected one of {_EXECUTION_MODES})"
            )
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

        plan = self._fragment(prepared.query, pushdown)
        self._annotate_estimates(plan, self._raw_input_rows())
        lines.append("")
        lines.append(plan.pretty())

        if strategy == "parallel" and plan.fragments:
            dag = build_execution_dag(
                plan,
                self.topology,
                self.network,
                anonymize=anonymize,
                namespace=namespace,
                partial_aggregation=self.partial_aggregation,
                config=self.engine,
            )
            lines.append("")
            lines.append(
                f"parallel DAG: {len(dag.tasks)} tasks over "
                f"{dag.partition_width} partition(s)"
            )
            for task in sorted(dag.tasks, key=lambda t: t.order):
                deps = f" <- {', '.join(task.deps)}" if task.deps else ""
                lines.append(
                    f"  {task.order:3d}. {task.task_id} [{task.kind}] "
                    f"@ {task.node}{deps}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # plan execution (serial oracle)
    # ------------------------------------------------------------------
    def _charge_compute(self, rows: int, node_name: str) -> None:
        """Sleep for the simulated compute cost of ``rows`` on a node."""
        if self.cost_model is not None:
            power = self.topology.node(node_name).cpu_power or 1.0
            self.cost_model.charge_compute(rows, power)

    def _annotate_estimates(self, plan: FragmentPlan, raw_rows: int) -> None:
        """Fill per-fragment estimated output rows, chained bottom-up.

        Each fragment's estimate feeds the next fragment's input cardinality
        (fragments run over the previous fragment's output).  Advisory only:
        rendered by ``plan.pretty()``/``explain()`` and compared against
        observed counts in profiled runs.
        """
        rows = raw_rows
        for fragment in plan.fragments:
            estimated = estimate_select_rows(fragment.query, input_rows=rows)
            fragment.estimated_rows = estimated
            if estimated is not None:
                rows = estimated

    def _observe_serial(
        self,
        trace: Optional[QueryTrace],
        span,
        kind: str,
        node: str,
        input_rows: int,
        output: Relation,
        elapsed: float,
        query: Optional[ast.Query] = None,
        source: Optional[Relation] = None,
    ) -> None:
        """Annotate a serial-path span and feed the calibration log."""
        if trace is None or span is None:
            return
        span.attrs["input_rows"] = input_rows
        span.attrs["output_rows"] = len(output)
        span.attrs["estimated_bytes"] = output.estimated_bytes()
        if query is not None:
            estimated = estimate_select_rows(
                query,
                relation=source,
                input_rows=None if source is not None else input_rows,
            )
            if estimated is not None:
                span.attrs["estimated_rows"] = estimated
                self.calibration.observe(
                    "rows", float(estimated), float(len(output)), rows=len(output)
                )
        predicted = 0.0
        if self.cost_model is not None:
            power = self.topology.node(node).cpu_power or 1.0
            predicted = self.cost_model.compute_delay(input_rows, power)
            span.attrs["predicted_seconds"] = predicted
        self.calibration.observe(kind, predicted, elapsed, rows=input_rows)

    def _execute_plan(
        self,
        plan: FragmentPlan,
        result: ProcessingResult,
        anonymize: bool,
        trace: Optional[QueryTrace] = None,
    ) -> Relation:
        sensor_name = self.topology.nodes[0].name
        current_node = sensor_name
        current_relation: Optional[Relation] = None

        fragments = list(plan.fragments)
        if fragments and self.network.is_partitioned(fragments[0].input_name):
            current_node, current_relation, fragments = self._serial_leaf_stage(
                plan, result, fragments, trace=trace
            )

        for fragment in fragments:
            target_node = fragment.assigned_node or self.topology.cloud.name
            # Ship the previous intermediate result to the node that needs it.
            if current_relation is not None:
                self.network.ship(
                    current_relation, fragment.input_name, current_node, target_node
                )
            database = self.network.database(target_node)
            source = current_relation
            if source is None and fragment.input_name in database:
                source = database.table(fragment.input_name)
            input_rows = (
                len(source) if source is not None else self._raw_input_rows()
            )
            self._charge_compute(input_rows, target_node)
            with maybe_span(
                trace, fragment.name, kind="fragment", node=target_node
            ) as span:
                fragment_started = time.perf_counter()
                current_relation = database.query(fragment.query, self.engine)
                elapsed = time.perf_counter() - fragment_started
                self._observe_serial(
                    trace, span, "fragment", target_node, input_rows,
                    current_relation, elapsed,
                    query=fragment.query, source=source,
                )
            current_relation.name = fragment.name
            database.register(fragment.name, current_relation)
            result.executions.append(
                FragmentExecution(
                    fragment_name=fragment.name,
                    node=target_node,
                    level=fragment.level.short_name,
                    sql=fragment.sql,
                    input_rows=input_rows,
                    output_rows=len(current_relation),
                    elapsed_seconds=elapsed,
                )
            )
            current_node = target_node

        if current_relation is None:
            current_relation = Relation.from_rows([], name="d_prime")

        # 5. anonymization step A on the last in-apartment node.
        if anonymize:
            boundary_node = self._last_inside_node(current_node)
            self._charge_compute(len(current_relation), boundary_node)
            anonymize_input_rows = len(current_relation)
            with maybe_span(
                trace, "anonymize", kind="fragment", node=boundary_node
            ) as span:
                anonymize_started = time.perf_counter()
                outcome = self.anonymizer.anonymize(
                    current_relation,
                    node_cpu_power=self.topology.node(boundary_node).cpu_power or 1.0,
                )
                self._observe_serial(
                    trace, span, "anonymize", boundary_node, anonymize_input_rows,
                    outcome.relation, time.perf_counter() - anonymize_started,
                )
            result.anonymization = outcome
            current_relation = outcome.relation

        # 6. ship d' to the cloud and run the remainder there.
        cloud = self.topology.cloud.name
        if current_node != cloud:
            current_relation = self.network.ship(
                current_relation, plan.result_name, current_node, cloud
            )
            current_node = cloud
        if plan.remainder_query is not None:
            database = self.network.database(cloud)
            database.register(plan.remainder_input_alias, current_relation)
            remainder_input_rows = len(current_relation)
            self._charge_compute(remainder_input_rows, cloud)
            with maybe_span(trace, "Q_delta", kind="fragment", node=cloud) as span:
                remainder_started = time.perf_counter()
                current_relation = database.query(plan.remainder_query, self.engine)
                elapsed = time.perf_counter() - remainder_started
                self._observe_serial(
                    trace, span, "remainder", cloud, remainder_input_rows,
                    current_relation, elapsed,
                )
            result.executions.append(
                FragmentExecution(
                    fragment_name="Q_delta",
                    node=cloud,
                    level="E1",
                    sql=plan.remainder_description,
                    input_rows=remainder_input_rows,
                    output_rows=len(current_relation),
                    elapsed_seconds=elapsed,
                )
            )
        current_relation.name = "d_prime"
        return current_relation

    def _serial_leaf_stage(
        self,
        plan: FragmentPlan,
        result: ProcessingResult,
        fragments: List,
        trace: Optional[QueryTrace] = None,
    ) -> Tuple[str, Relation, List]:
        """Serial oracle over a partitioned base: leaf loop + ordered union.

        Visits each chunk holder in partition order, runs the bottom
        fragment there when it is row-distributive (otherwise just collects
        the raw chunks), ships every partial to the leaves' common ancestor
        and unions them in partition order — exactly the relation the
        parallel DAG produces, computed one leaf at a time.
        """
        first = fragments[0]
        base_table = first.input_name
        holders = self.network.partition_holders(base_table)
        run_fragment = first.partitionable

        partials: List[Relation] = []
        for holder in holders:
            database = self.network.database(holder)
            chunk_rows = len(database.table(base_table)) if base_table in database else 0
            if run_fragment:
                self._charge_compute(chunk_rows, holder)
                with maybe_span(
                    trace, f"{first.name}[{holder}]", kind="fragment", node=holder
                ) as span:
                    fragment_started = time.perf_counter()
                    partial = database.query(first.query, self.engine)
                    elapsed = time.perf_counter() - fragment_started
                    self._observe_serial(
                        trace, span, "fragment", holder, chunk_rows, partial, elapsed
                    )
                partial.name = f"{first.name}[{holder}]"
                result.executions.append(
                    FragmentExecution(
                        fragment_name=partial.name,
                        node=holder,
                        level=first.level.short_name,
                        sql=first.sql,
                        input_rows=chunk_rows,
                        output_rows=len(partial),
                        elapsed_seconds=elapsed,
                    )
                )
            else:
                partial = database.table(base_table)
            partials.append(partial)

        merge_name = first.name if run_fragment else base_table
        ancestor = self.topology.common_ancestor(holders).name
        received = []
        for holder, partial in zip(holders, partials):
            if holder != ancestor:
                partial = self.network.ship(
                    partial, f"{merge_name}@{holder}", holder, ancestor, register=False
                )
            received.append(partial)
        merged = union_partials(received, merge_name)
        self.network.database(ancestor).register(merge_name, merged)
        remaining = fragments[1:] if run_fragment else fragments
        return ancestor, merged, remaining

    # ------------------------------------------------------------------
    # plan execution (parallel runtime)
    # ------------------------------------------------------------------
    def _execute_plan_parallel(
        self,
        plan: FragmentPlan,
        result: ProcessingResult,
        anonymize: bool,
        namespace: Optional[str],
        faults: Optional[FailureInjector] = None,
        on_data_loss: Optional[str] = None,
        task_timeout: Optional[float] = None,
        trace: Optional[QueryTrace] = None,
    ) -> Relation:
        """Run ``plan`` on the parallel runtime, recovering from node deaths.

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
        loss_policy = on_data_loss or (
            "partial" if self.allow_partial_results else "fail"
        )
        if task_timeout is None:
            if self.cost_model is not None:
                weakest = min(node.cpu_power or 1.0 for node in self.topology)
                task_timeout = self.cost_model.task_timeout(
                    self._raw_input_rows(), weakest
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

        current_plan, current_topology = plan, self.topology
        dead: List[str] = []
        lost: List[LostPartition] = []
        max_replans = max(1, len(self.topology) - 1)
        while True:
            dag = build_execution_dag(
                current_plan,
                current_topology,
                self.network,
                anonymize=anonymize,
                namespace=namespace,
                partial_aggregation=self.partial_aggregation,
                config=self.engine,
            )
            try:
                report = self.scheduler.run(
                    dag,
                    context,
                    retry_policy=self.retry_policy,
                    task_timeout=task_timeout,
                )
                break
            except NodeDeath as death:
                # Failure hygiene: this attempt's intermediates must never
                # leak into the re-plan (or the next session recycling the
                # namespace).
                if namespace:
                    self.network.drop_namespace(namespace)
                if death.node in dead or len(dead) >= max_replans:
                    raise
                dead.append(death.node)
                _metrics.counter("runtime.node_deaths").inc()
                self.topology.mark_dead(death.node)
                newly_lost = self.network.fail_node(
                    death.node, lose_data=death.lose_data
                )
                lost.extend(newly_lost)
                if newly_lost and loss_policy != "partial":
                    raise DataLossError(lost) from death
                current_plan, current_topology = replan_without(
                    plan, self.topology, dead
                )
                # Old task ids may collide with the new DAG's; checkpointed
                # states are re-keyed by signature, everything else re-runs.
                context = context.next_attempt()
            except Exception:
                if namespace:
                    self.network.drop_namespace(namespace)
                raise

        final = context.outputs[dag.final_task_id]
        final.name = "d_prime"
        result.executions.extend(context.ordered_executions())
        result.anonymization = context.anonymization
        result.transfers = run_log
        leaves_lost: List[str] = []
        for partition in lost:
            if partition.node not in leaves_lost:
                leaves_lost.append(partition.node)
        result.completeness = CompletenessReport(
            complete=not lost,
            lost_partitions=list(lost),
            rows_lost=sum(partition.rows for partition in lost),
            leaves_lost=leaves_lost,
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
            retried_attempts=report.retried_attempts,
            restored_tasks=report.restored_tasks,
            checkpoints_saved=context.checkpoints.saved,
            checkpoint_bytes=context.checkpoints.total_bytes,
        )
        return final

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
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

    def _last_inside_node(self, current_node: str) -> str:
        return last_inside_node(self.topology, current_node)
