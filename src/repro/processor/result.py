"""Result objects of a PArADISE processing run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

from repro.anonymize.anonymizer import AnonymizationOutcome
from repro.engine.table import Relation
from repro.fragment.plan import FragmentPlan
from repro.obs.profile import ProfileReport
from repro.obs.trace import QueryTrace
from repro.rewrite.analyzer import AdmissionDecision
from repro.rewrite.rewriter import RewriteResult
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> result)
    from repro.processor.network import TransferLog
    from repro.runtime.faults import CompletenessReport


@dataclass
class FragmentExecution:
    """Execution record of one fragment on one node."""

    fragment_name: str
    node: str
    level: str
    sql: str
    input_rows: int
    output_rows: int
    elapsed_seconds: float

    @property
    def selectivity(self) -> float:
        """Output rows divided by input rows (1.0 when the input was empty)."""
        if self.input_rows == 0:
            return 1.0
        return self.output_rows / self.input_rows


@dataclass
class PreparedQuery:
    """A query through the pipeline's front half: parse, admission, rewriting.

    ``query`` is what fragmentation and execution consume: the rewritten
    query, or the parsed one when rewriting was skipped.  ``admission`` and
    ``rewrite`` stay ``None`` for steps that did not run.
    """

    query: ast.Query
    admission: Optional[AdmissionDecision] = None
    rewrite: Optional[RewriteResult] = None

    @property
    def admitted(self) -> bool:
        """False when admission refused or rewriting found no compliant form."""
        if self.admission is not None and not self.admission.admitted:
            return False
        return self.rewrite is None or self.rewrite.compliant


@dataclass
class RuntimeStats:
    """What the DAG runtime did for one query."""

    #: Number of leaf partitions the bottom fragment fanned out over.
    partition_width: int
    #: Total DAG tasks executed (scans, fragments, merges, anonymize, finalize).
    task_count: int
    #: Merge/union tasks among them.
    merge_count: int
    #: Wall-clock seconds of the scheduler run.
    wall_seconds: float
    #: Sum of per-task wall seconds (the serial-equivalent busy time); the
    #: ratio to ``wall_seconds`` estimates the achieved overlap.
    busy_seconds: float
    #: Nodes whose free memory a shipped intermediate exceeded.
    capacity_warnings: List[str] = field(default_factory=list)
    #: Leaf partial-aggregation tasks (the distributed GROUP BY protocol).
    partial_count: int = 0
    #: Per-level combine tasks plus the final merge-and-finalize task.
    combine_count: int = 0
    #: Node deaths this run recovered from by re-planning the DAG.
    replans: int = 0
    #: In-place retry attempts transient task failures cost, in every
    #: scheduler run of the query (those that ended in a re-plan too).
    retried_attempts: int = 0
    #: Tasks satisfied from aggregate-state checkpoints instead of re-running.
    restored_tasks: int = 0
    #: Aggregate-state checkpoints taken at partial/combine boundaries.
    checkpoints_saved: int = 0
    #: Total wire-packed size of the stored checkpoints.
    checkpoint_bytes: int = 0
    #: Threads that ran the DAG (1 = the calling thread); the pool runs
    #: only when a task can wait (``ExecutionContext.can_wait``).
    workers: int = 1
    #: Resident partitions a zone map refuted, which got no task.
    pruned_partitions: int = 0

    @property
    def overlap_factor(self) -> float:
        """Busy time divided by wall time (1.0 = fully serial)."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.busy_seconds / self.wall_seconds

    @property
    def overlap(self) -> float:
        """Achieved parallelism: ``busy_seconds / wall_seconds``.

        Unlike :attr:`overlap_factor` (which reports the neutral 1.0 for a
        degenerate run, as its display uses expect), a zero wall clock here
        yields 0.0 — benchmark JSON wants "no measurement", not "serial".
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / self.wall_seconds


@dataclass
class ProcessingResult:
    """Everything a :class:`~repro.processor.paradise.ParadiseProcessor` run yields."""

    module_id: str
    admitted: bool
    admission: Optional[AdmissionDecision] = None
    rewrite: Optional[RewriteResult] = None
    #: The text's fragment plan (shared through the plan cache); a run
    #: after a node death executes it re-mapped around the dead nodes.
    plan: Optional[FragmentPlan] = None
    executions: List[FragmentExecution] = field(default_factory=list)
    transfers: Optional[TransferLog] = None
    result: Optional[Relation] = None
    anonymization: Optional[AnonymizationOutcome] = None
    raw_input_rows: int = 0
    elapsed_seconds: float = 0.0
    #: The residual analysis call executed at the cloud (for R workloads).
    remainder_call: Optional[str] = None
    #: DAG-runtime statistics (``None`` when admission refused the query).
    runtime: Optional[RuntimeStats] = None
    #: What the result does and does not cover (``None`` when admission
    #: refused the query; ``complete=True`` unless base data was
    #: unrecoverably lost).
    completeness: Optional["CompletenessReport"] = None
    #: Span collection of this run (``profile=True`` only); exports to
    #: Chrome trace JSON via ``result.trace.to_chrome(path)``.
    trace: Optional[QueryTrace] = None
    #: EXPLAIN-ANALYZE-style report built from the trace (``profile=True``
    #: only); render with ``result.profile.render()``.
    profile: Optional[ProfileReport] = None

    # ------------------------------------------------------------------
    # derived measures used by benchmarks and examples
    # ------------------------------------------------------------------
    @property
    def rows_leaving_apartment(self) -> int:
        """Rows shipped across the apartment boundary."""
        if self.transfers is None:
            return 0
        return self.transfers.rows_leaving_apartment

    @property
    def bytes_leaving_apartment(self) -> int:
        """Bytes shipped across the apartment boundary."""
        if self.transfers is None:
            return 0
        return self.transfers.bytes_leaving_apartment

    @property
    def data_reduction_ratio(self) -> float:
        """Raw input rows divided by rows leaving the apartment (>= 1)."""
        leaving = self.rows_leaving_apartment
        if leaving == 0:
            return float("inf") if self.raw_input_rows > 0 else 1.0
        return self.raw_input_rows / leaving

    def summary(self) -> str:
        """Multi-line human-readable report of the run."""
        lines = [f"PArADISE processing result for module '{self.module_id}':"]
        lines.append(f"  admitted: {self.admitted}")
        if self.admission is not None and not self.admitted:
            lines.append(f"  reasons: {'; '.join(self.admission.reasons)}")
            return "\n".join(lines)
        if self.rewrite is not None:
            lines.append(f"  rewritten query: {self.rewrite.sql}")
        for execution in self.executions:
            lines.append(
                f"  [{execution.level} @ {execution.node}] {execution.fragment_name}: "
                f"{execution.input_rows} -> {execution.output_rows} rows "
                f"({execution.elapsed_seconds * 1000:.1f} ms)"
            )
        if self.transfers is not None:
            lines.append(
                f"  data leaving apartment: {self.rows_leaving_apartment} rows / "
                f"{self.bytes_leaving_apartment} bytes "
                f"(reduction x{self.data_reduction_ratio:.1f} over {self.raw_input_rows} raw rows)"
            )
        if self.runtime is not None:
            lines.append(
                f"  DAG runtime: {self.runtime.task_count} tasks "
                f"({self.runtime.merge_count} merges) over "
                f"{self.runtime.partition_width} partitions, "
                f"overlap x{self.runtime.overlap_factor:.1f}"
            )
            if self.runtime.replans or self.runtime.retried_attempts:
                lines.append(
                    f"  fault recovery: {self.runtime.replans} re-plan(s), "
                    f"{self.runtime.retried_attempts} retried attempt(s), "
                    f"{self.runtime.restored_tasks} task(s) restored from "
                    f"{self.runtime.checkpoints_saved} checkpoint(s)"
                )
        if self.completeness is not None and (
            not self.completeness.complete or self.completeness.dead_nodes
        ):
            lines.append("  " + self.completeness.summary().replace("\n", "\n  "))
        if self.anonymization is not None:
            lines.append("  " + self.anonymization.summary().replace("\n", "\n  "))
        if self.remainder_call:
            lines.append(f"  cloud remainder: {self.remainder_call}")
        return "\n".join(lines)
