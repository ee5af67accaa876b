"""Fluent construction of privacy policies.

Example — the policy of Figure 4 built programmatically::

    policy = (
        PolicyBuilder(owner="resident")
        .module("ActionFilter")
        .allow("x", condition="x > y")
        .allow("y")
        .allow("z", condition="z < 2",
               aggregation="AVG", group_by=["x", "y"], having="SUM(z) > 100")
        .allow("t")
        .build()
    )
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.policy.model import (
    AggregationRule,
    AttributeRule,
    ModulePolicy,
    PolicyError,
    PrivacyPolicy,
)


class PolicyBuilder:
    """Builds a :class:`~repro.policy.model.PrivacyPolicy` step by step."""

    def __init__(self, owner: str = "user") -> None:
        self._policy = PrivacyPolicy(owner=owner)
        self._current: Optional[ModulePolicy] = None

    # ------------------------------------------------------------------
    # module handling
    # ------------------------------------------------------------------
    def module(self, module_id: str, default_allow: bool = False) -> "PolicyBuilder":
        """Start (or switch to) the policy of ``module_id``."""
        if self._policy.has_module(module_id):
            self._current = self._policy.module(module_id)
        else:
            self._current = ModulePolicy(module_id=module_id, default_allow=default_allow)
            self._policy.add_module(self._current)
        return self

    def _require_module(self) -> ModulePolicy:
        if self._current is None:
            raise PolicyError("Call .module(<id>) before adding attribute rules")
        return self._current

    # ------------------------------------------------------------------
    # attribute rules
    # ------------------------------------------------------------------
    def allow(
        self,
        attribute: str,
        condition: Union[str, Sequence[str], None] = None,
        aggregation: Optional[str] = None,
        group_by: Optional[Sequence[str]] = None,
        having: Optional[str] = None,
        max_precision: Optional[int] = None,
    ) -> "PolicyBuilder":
        """Allow ``attribute``, optionally with conditions and an aggregation."""
        module = self._require_module()
        conditions = _normalize_conditions(condition)
        aggregation_rule = None
        if aggregation is not None:
            aggregation_rule = AggregationRule(
                aggregation_type=aggregation,
                group_by=list(group_by or []),
                having=having,
            )
        elif group_by or having:
            raise PolicyError("group_by/having require an aggregation type")
        module.add_rule(
            AttributeRule(
                name=attribute,
                allow=True,
                conditions=conditions,
                aggregation=aggregation_rule,
                max_precision=max_precision,
            )
        )
        return self

    def deny(self, attribute: str) -> "PolicyBuilder":
        """Deny ``attribute`` entirely for the current module."""
        module = self._require_module()
        module.add_rule(AttributeRule(name=attribute, allow=False))
        return self

    # ------------------------------------------------------------------
    # module-level settings
    # ------------------------------------------------------------------
    def substitute_relation(self, source: str, target: str) -> "PolicyBuilder":
        """Replace queries against ``source`` with ``target`` in FROM clauses."""
        module = self._require_module()
        module.relation_substitutions[source.lower()] = target
        return self

    def query_interval(self, seconds: float) -> "PolicyBuilder":
        """Set the minimum time between queries by the current module."""
        module = self._require_module()
        module.stream_settings.query_interval_seconds = seconds
        return self

    def max_aggregation_window(self, seconds: float) -> "PolicyBuilder":
        """Set the largest stream window the module may aggregate over."""
        module = self._require_module()
        module.stream_settings.max_aggregation_window_seconds = seconds
        return self

    def aggregation_levels(self, levels: Sequence[str]) -> "PolicyBuilder":
        """Set the allowed aggregation granularities for streams."""
        module = self._require_module()
        module.stream_settings.allowed_aggregation_levels = list(levels)
        return self

    def default_allow(self, value: bool = True) -> "PolicyBuilder":
        """Set the decision for attributes without an explicit rule."""
        module = self._require_module()
        module.default_allow = value
        return self

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def build(self) -> PrivacyPolicy:
        """Return the constructed policy."""
        if not self._policy.modules:
            raise PolicyError("Policy contains no module")
        return self._policy


def _normalize_conditions(condition: Union[str, Sequence[str], None]) -> List[str]:
    if condition is None:
        return []
    if isinstance(condition, str):
        return [condition]
    return list(condition)
