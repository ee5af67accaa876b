"""Admission analysis: should a query be answered at all, and at which cost?

Section 3.1 of the paper lists the checks the preprocessor performs before the
actual rewriting:

* is every queried attribute uncovered by the user at all (projection check),
* can it only be used under constraints (preselection / aggregation),
* does the processing node have enough capacity,
* would the information system still gain enough information to produce a
  satisfactory result (estimated with a Kullback-Leibler style information
  loss metric),
* is the module's allowed query interval respected.

:class:`PolicyAnalyzer` bundles those checks.  The information-gain estimate
compares the attribute set the analysis asked for with the attribute set that
survives the policy; the exact data-dependent KL computation happens later in
the postprocessor (see :mod:`repro.metrics`), but the preprocessor uses the
attribute-level approximation to refuse queries that would come back useless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.policy.model import ModulePolicy, PrivacyPolicy
from repro.sql import ast
from repro.sql.analysis import analyze_query


@dataclass
class QueryPolicyAnalysis:
    """Attribute-level comparison of a query against a module policy."""

    module_id: str
    requested_attributes: List[str]
    allowed_attributes: List[str]
    denied_attributes: List[str]
    aggregated_attributes: List[str]
    conditioned_attributes: List[str]
    unknown_attributes: List[str]

    @property
    def coverage(self) -> float:
        """Fraction of requested attributes that survive (possibly aggregated)."""
        if not self.requested_attributes:
            return 1.0
        surviving = len(self.allowed_attributes) + len(self.aggregated_attributes)
        return surviving / len(self.requested_attributes)

    @property
    def fully_denied(self) -> bool:
        """True when nothing the query asked for may be revealed."""
        return self.coverage == 0.0


@dataclass
class AdmissionDecision:
    """Outcome of the admission check."""

    admitted: bool
    reasons: List[str] = field(default_factory=list)
    analysis: Optional[QueryPolicyAnalysis] = None
    estimated_information_gain: float = 1.0

    def explain(self) -> str:
        """Human-readable explanation."""
        status = "admitted" if self.admitted else "refused"
        if not self.reasons:
            return f"query {status}"
        return f"query {status}: " + "; ".join(self.reasons)


@dataclass
class NodeCapacity:
    """Capacity description of the node asked to process the query."""

    cpu_power: float = 1.0  # relative units; 1.0 = an apartment PC
    free_memory_mb: float = 1024.0
    #: Estimated memory needed per input row in bytes (used for the check
    #: "does the processing node have enough capacity").
    bytes_per_row: float = 64.0

    def can_process(self, estimated_rows: int) -> bool:
        """Rough check whether ``estimated_rows`` fit into free memory."""
        needed_mb = estimated_rows * self.bytes_per_row / (1024.0 * 1024.0)
        return needed_mb <= self.free_memory_mb


class PolicyAnalyzer:
    """Performs the preprocessor's admission checks."""

    def __init__(
        self,
        policy: PrivacyPolicy,
        minimum_information_gain: float = 0.25,
        clock=time.monotonic,
    ) -> None:
        self.policy = policy
        self.minimum_information_gain = minimum_information_gain
        self._clock = clock
        self._last_query_time: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # attribute-level analysis
    # ------------------------------------------------------------------
    def analyze(self, query: ast.Query, module_id: str) -> QueryPolicyAnalysis:
        """Compare the attributes referenced by ``query`` with the policy."""
        module = self.policy.module(module_id)
        features = analyze_query(query)
        requested = sorted(features.columns)

        allowed: List[str] = []
        denied: List[str] = []
        aggregated: List[str] = []
        conditioned: List[str] = []
        unknown: List[str] = []
        for attribute in requested:
            rule = module.rule_for(attribute)
            if rule is None:
                (allowed if module.default_allow else unknown).append(attribute)
                continue
            if not rule.allow:
                denied.append(attribute)
                continue
            if rule.aggregation is not None:
                aggregated.append(attribute)
            else:
                allowed.append(attribute)
            if rule.conditions:
                conditioned.append(attribute)
        return QueryPolicyAnalysis(
            module_id=module.module_id,
            requested_attributes=requested,
            allowed_attributes=allowed,
            denied_attributes=denied,
            aggregated_attributes=aggregated,
            conditioned_attributes=conditioned,
            unknown_attributes=unknown,
        )

    # ------------------------------------------------------------------
    # admission decision
    # ------------------------------------------------------------------
    def admit(
        self,
        query: ast.Query,
        module_id: str,
        estimated_rows: int = 0,
        capacity: Optional[NodeCapacity] = None,
        enforce_interval: bool = True,
    ) -> AdmissionDecision:
        """Admit a submitted query: :meth:`check` it, and when admitted,
        start the module's next query interval."""
        decision = self.check(query, module_id, estimated_rows, capacity, enforce_interval)
        if decision.admitted:
            self._last_query_time[module_id.lower()] = self._clock()
        return decision

    def check(
        self,
        query: ast.Query,
        module_id: str,
        estimated_rows: int = 0,
        capacity: Optional[NodeCapacity] = None,
        enforce_interval: bool = True,
    ) -> AdmissionDecision:
        """Decide whether the query should be processed at all.

        Side-effect-free: unlike :meth:`admit` it records nothing, so
        previewing a query (``ParadiseProcessor.explain``) leaves the
        module's query-interval budget untouched.
        """
        reasons: List[str] = []

        if not self.policy.has_module(module_id):
            return AdmissionDecision(
                admitted=False,
                reasons=[f"no policy defined for module '{module_id}'"],
            )

        module = self.policy.module(module_id)
        analysis = self.analyze(query, module_id)

        if analysis.fully_denied:
            reasons.append("the policy denies every requested attribute")

        # Information-gain estimate: the share of the requested attribute set
        # that survives, discounted for attributes only available aggregated.
        gain = self._estimate_information_gain(analysis)
        if gain < self.minimum_information_gain:
            reasons.append(
                f"estimated information gain {gain:.2f} is below the useful minimum "
                f"{self.minimum_information_gain:.2f}"
            )

        if capacity is not None and not capacity.can_process(estimated_rows):
            reasons.append(
                f"processing node lacks capacity for an estimated {estimated_rows} rows"
            )

        if enforce_interval and not self._interval_ok(module):
            interval = module.stream_settings.query_interval_seconds
            reasons.append(
                f"query interval of {interval:.0f}s for module '{module.module_id}' not elapsed"
            )

        return AdmissionDecision(
            admitted=not reasons,
            reasons=reasons,
            analysis=analysis,
            estimated_information_gain=gain,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _estimate_information_gain(self, analysis: QueryPolicyAnalysis) -> float:
        if not analysis.requested_attributes:
            return 1.0
        total = len(analysis.requested_attributes)
        full = len(analysis.allowed_attributes)
        # Aggregated attributes still carry information, but less of it.
        partial = 0.5 * len(analysis.aggregated_attributes)
        return (full + partial) / total

    def _interval_ok(self, module: ModulePolicy) -> bool:
        interval = module.stream_settings.query_interval_seconds
        if interval is None or interval <= 0:
            return True
        last = self._last_query_time.get(module.module_id.lower())
        if last is None:
            return True
        return (self._clock() - last) >= interval

    def reset_interval(self, module_id: Optional[str] = None) -> None:
        """Forget recorded query times (all modules or one)."""
        if module_id is None:
            self._last_query_time.clear()
        else:
            self._last_query_time.pop(module_id.lower(), None)
