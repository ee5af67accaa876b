"""Dataclass model of the privacy policy language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sql import ast
from repro.sql.parser import parse_expression


class PolicyError(Exception):
    """Raised for malformed or inconsistent policies."""


@dataclass
class AggregationRule:
    """A mandatory aggregation for an attribute.

    Mirrors the ``<aggregation>`` element of Figure 4: the attribute may only
    appear inside the given aggregate function, grouped by ``group_by`` and
    guarded by the ``having`` condition (which ensures a minimum group size /
    mass so single readings cannot be reconstructed).
    """

    aggregation_type: str
    group_by: List[str] = field(default_factory=list)
    having: Optional[str] = None

    def __post_init__(self) -> None:
        self.aggregation_type = self.aggregation_type.upper()
        if not ast.is_aggregate_function(self.aggregation_type):
            raise PolicyError(
                f"Unknown aggregation type in policy: {self.aggregation_type}"
            )
        self.group_by = [name.strip() for name in self.group_by if name.strip()]
        if self.having is not None:
            self.having = self.having.strip() or None

    def having_expression(self) -> Optional[ast.Expression]:
        """Parse the HAVING condition into an expression AST."""
        if self.having is None:
            return None
        return parse_expression(self.having)

    def alias_for(self, attribute: str) -> str:
        """The output name the rewriter gives the aggregated attribute.

        The paper renames ``z`` to ``zAVG`` when the policy forces an AVG
        aggregation; we follow the same ``<attribute><TYPE>`` convention.
        """
        return f"{attribute}{self.aggregation_type}"


@dataclass
class AttributeRule:
    """Policy entry for one attribute of one module."""

    name: str
    allow: bool = True
    conditions: List[str] = field(default_factory=list)
    aggregation: Optional[AggregationRule] = None
    #: Optional coarsening precision (number of decimals kept); ``None`` keeps
    #: full precision.  Used by the postprocessor's value generalization.
    max_precision: Optional[int] = None

    def __post_init__(self) -> None:
        self.name = self.name.strip()
        if not self.name:
            raise PolicyError("Attribute rule requires a name")
        self.conditions = [c.strip() for c in self.conditions if c and c.strip()]

    @property
    def requires_aggregation(self) -> bool:
        """True when the attribute may only leave in aggregated form."""
        return self.allow and self.aggregation is not None


@dataclass
class StreamSettings:
    """Stream-level settings the policy adds on top of P3P.

    Attributes:
        query_interval_seconds: Minimum time between consecutive queries by
            the same module (``None`` means unrestricted).
        max_aggregation_window_seconds: Largest window a stream aggregate may
            cover.
        allowed_aggregation_levels: Aggregation granularities the user allows
            (e.g. ``["raw", "window", "session"]``); the most permissive level
            is listed first.
    """

    query_interval_seconds: Optional[float] = None
    max_aggregation_window_seconds: Optional[float] = None
    allowed_aggregation_levels: List[str] = field(default_factory=lambda: ["window"])


@dataclass
class ModulePolicy:
    """The policy one module (data consumer) is subject to."""

    module_id: str
    attributes: Dict[str, AttributeRule] = field(default_factory=dict)
    stream_settings: StreamSettings = field(default_factory=StreamSettings)
    #: Relations the module may query; empty means "no restriction".  When a
    #: disallowed relation is queried the rewriter substitutes the replacement
    #: ("If one sensor releases too much information, another sensor is
    #: queried by changing the relation in the FROM clause").
    relation_substitutions: Dict[str, str] = field(default_factory=dict)
    #: Default decision for attributes that have no explicit rule.
    default_allow: bool = False

    def __post_init__(self) -> None:
        normalized: Dict[str, AttributeRule] = {}
        for key, rule in self.attributes.items():
            normalized[key.lower()] = rule
        self.attributes = normalized

    # ------------------------------------------------------------------
    # rule lookup
    # ------------------------------------------------------------------
    def rule_for(self, attribute: str) -> Optional[AttributeRule]:
        """Return the rule for ``attribute`` (case-insensitive) or ``None``."""
        return self.attributes.get(attribute.lower())

    def add_rule(self, rule: AttributeRule) -> None:
        """Insert (or replace) an attribute rule."""
        self.attributes[rule.name.lower()] = rule

    @property
    def allowed_attributes(self) -> List[str]:
        """Names of all explicitly allowed attributes."""
        return [rule.name for rule in self.attributes.values() if rule.allow]

    @property
    def denied_attributes(self) -> List[str]:
        """Names of all explicitly denied attributes."""
        return [rule.name for rule in self.attributes.values() if not rule.allow]


@dataclass
class PrivacyPolicy:
    """A user's complete policy: one :class:`ModulePolicy` per module."""

    owner: str = "user"
    modules: Dict[str, ModulePolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.modules = {key.lower(): value for key, value in self.modules.items()}

    def module(self, module_id: str) -> ModulePolicy:
        """Return the policy for ``module_id``.

        Raises:
            PolicyError: when no policy exists for the module — the paper's
            processor refuses to answer queries from unknown modules.
        """
        policy = self.modules.get(module_id.lower())
        if policy is None:
            raise PolicyError(f"No policy defined for module: {module_id}")
        return policy

    def has_module(self, module_id: str) -> bool:
        """Return True when a policy exists for the module."""
        return module_id.lower() in self.modules

    def add_module(self, module_policy: ModulePolicy) -> None:
        """Insert (or replace) a module policy."""
        self.modules[module_policy.module_id.lower()] = module_policy

    @property
    def module_ids(self) -> List[str]:
        """All module identifiers with a policy."""
        return [policy.module_id for policy in self.modules.values()]
