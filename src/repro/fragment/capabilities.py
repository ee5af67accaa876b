"""Capability classes of the vertical architecture (Table 1 of the paper).

=====  ====================  ==========================================  =================
Level  System                Capability                                  Nodes per person
=====  ====================  ==========================================  =================
E1     cloud                 complex ML algorithm in R, SQL:2003 + UDF   n for m persons
E2     PC in apartment       full SQL (the use case runs the window
                             regression here)                            1
E3     appliance             "SQL light" with joins, grouping            10 – 50
E4     sensor                filter/window, simple selection, stream
                             aggregates over the last seconds            ≫ 100
=====  ====================  ==========================================  =================

Table 1 labels E2 as "SQL-92"; the use case of Section 4.2 nevertheless
executes the ``regr_intercept ... OVER`` window query on the apartment PC
("the local server has enough power to perform the regression analysis part
of the SQL query on its own").  We follow the use-case placement and include
window functions in E2's capability set.  Read strictly, Table 1 would send
the window stage, and with it every row that feeds it, to the cloud; the
use case is the paper's own worked example, so it wins.  The Table 1
benchmark (``benchmarks/bench_table1_capabilities.py``) exercises the
placement.

E4's "filter / simple selection" is the sensor fragment's WHERE: every
conjunct that tests one plain column against constants (a literal, or a
negated numeric literal such as ``-2``).  That is ``col <op> const`` for
the six comparison operators (either side), ``col [NOT] BETWEEN const AND
const``, ``col [NOT] IN (const, ...)`` and ``col IS [NOT] NULL``
(:func:`repro.fragment.fragmenter.is_column_constant_filter`).  ``IN
(SELECT ...)``, column-bounded ``BETWEEN``, ``OR`` terms, bare boolean
columns and arithmetic run at the appliance.

The one placement beyond a node's class is the **resident-partition rule**
(:data:`RESIDENT_PARTITION_FEATURES`).  A node may run the row-level work of
the appliance class (projection, attribute selection, arithmetic, scalar
functions, ``LIKE``, ``CASE``) and a partial aggregation (grouping keys and
mergeable aggregate states) over the base-relation chunk it holds itself.
The execution DAG relies on it to run the in-place fragments and the leaf
partial of a decomposable GROUP BY on the sensors
(:func:`repro.runtime.dag.build_execution_dag`).  The data never moves, and
only group states — or the rows that pass the filters — leave the sensor.
Lifting that work to the appliances instead was measured on the 30k-row,
8-sensor group-by of ``benchmarks/e2e``: the stage's CPU rose from 37.5 to
45.2 ms per query, and the sensors shipped 1.28 MB of filtered rows per
query instead of ~30 KB of states.  HAVING, ordering, joins, DISTINCT and
everything beyond stay with the class that Table 1 names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from repro.sql.analysis import QueryFeatures


class CapabilityLevel(enum.IntEnum):
    """Processing levels; smaller numbers are more powerful nodes."""

    E1_CLOUD = 1
    E2_PC = 2
    E3_APPLIANCE = 3
    E4_SENSOR = 4

    @property
    def short_name(self) -> str:
        """Short identifier such as ``E1``."""
        return f"E{int(self)}"

    def is_at_least(self, other: "CapabilityLevel") -> bool:
        """True when this level is at least as powerful as ``other``."""
        return int(self) <= int(other)


@dataclass(frozen=True)
class CapabilityClass:
    """What one level of the hierarchy can execute."""

    level: CapabilityLevel
    system: str
    description: str
    supported_features: FrozenSet[str]
    nodes_per_person: str
    #: Relative computing power (used by capacity checks and benchmarks).
    relative_power: float = 1.0
    #: True when the node can run the R / machine-learning remainder.
    supports_ml: bool = False

    def supports(self, features: Union[QueryFeatures, Iterable[str]]) -> bool:
        """Return True when every feature in ``features`` is supported."""
        if isinstance(features, QueryFeatures):
            needed = set(features.features)
        else:
            needed = set(features)
        return needed.issubset(self.supported_features)

    def missing(self, features: Union[QueryFeatures, Iterable[str]]) -> List[str]:
        """Return the features that exceed this capability class."""
        if isinstance(features, QueryFeatures):
            needed = set(features.features)
        else:
            needed = set(features)
        return sorted(needed - self.supported_features)


_SENSOR_FEATURES = frozenset(
    {
        "selection_constant",
        "limit",
        # Stream aggregation over the last seconds (no GROUP BY).
        "stream_window",
    }
)

_APPLIANCE_FEATURES = _SENSOR_FEATURES | frozenset(
    {
        "projection",
        "selection_attribute",
        "join",
        "group_by",
        "having",
        "aggregation",
        "order_by",
        "distinct",
        "arithmetic",
        "scalar_function",
        "like",
        "case_expression",
    }
)

_PC_FEATURES = _APPLIANCE_FEATURES | frozenset(
    {
        "subquery",
        "in_subquery",
        "exists",
        "set_operation",
        "window_function",
    }
)

_CLOUD_FEATURES = _PC_FEATURES | frozenset({"recursion", "udf", "ml_algorithm"})


#: The resident-partition rule: what a node may run over the base-relation
#: chunk it holds, beyond its own class (see the module docstring).
RESIDENT_PARTITION_FEATURES = frozenset(
    {
        "projection",
        "selection_attribute",
        "arithmetic",
        "scalar_function",
        "like",
        "case_expression",
        "group_by",
        "aggregation",
    }
)


#: The four capability classes, most powerful first (mirrors Table 1).
CAPABILITY_LEVELS: Dict[CapabilityLevel, CapabilityClass] = {
    CapabilityLevel.E1_CLOUD: CapabilityClass(
        level=CapabilityLevel.E1_CLOUD,
        system="cloud",
        description="complex ML algorithm in R, SQL:2003 with UDF",
        supported_features=_CLOUD_FEATURES,
        nodes_per_person="n for m persons",
        relative_power=100.0,
        supports_ml=True,
    ),
    CapabilityLevel.E2_PC: CapabilityClass(
        level=CapabilityLevel.E2_PC,
        system="PC in apartment",
        description="full SQL incl. window functions (local server)",
        supported_features=_PC_FEATURES,
        nodes_per_person="1 for 1 person",
        relative_power=10.0,
    ),
    CapabilityLevel.E3_APPLIANCE: CapabilityClass(
        level=CapabilityLevel.E3_APPLIANCE,
        system="appliance in apartment",
        description="SQL 'light' with joins",
        supported_features=_APPLIANCE_FEATURES,
        nodes_per_person="10 - 50 for 1 person",
        relative_power=2.0,
    ),
    CapabilityLevel.E4_SENSOR: CapabilityClass(
        level=CapabilityLevel.E4_SENSOR,
        system="sensor in appliance / environment",
        description="filter / window, simple selection, aggregates on streams",
        supported_features=_SENSOR_FEATURES,
        nodes_per_person=">= 100 for 1 person",
        relative_power=0.1,
    ),
}


def capability_for(level: CapabilityLevel) -> CapabilityClass:
    """Return the capability class of ``level``."""
    return CAPABILITY_LEVELS[level]


def permitted_features(
    level: CapabilityLevel, resident: bool = False
) -> FrozenSet[str]:
    """The features a node of ``level`` may run: its class, plus the
    resident-partition rule when the work reads only its own base chunk."""
    supported = CAPABILITY_LEVELS[level].supported_features
    return supported | RESIDENT_PARTITION_FEATURES if resident else supported


def lowest_capable_level(
    features: Union[QueryFeatures, Iterable[str]],
    available: Optional[Iterable[CapabilityLevel]] = None,
) -> CapabilityLevel:
    """Return the *lowest* (least powerful) level able to evaluate ``features``.

    The fragmenter pushes work as far down as possible, so candidate levels
    are inspected from the sensor upwards.
    """
    candidates = sorted(
        available if available is not None else CAPABILITY_LEVELS.keys(),
        key=int,
        reverse=True,  # E4 (sensor) first
    )
    for level in candidates:
        if CAPABILITY_LEVELS[level].supports(features):
            return level
    return CapabilityLevel.E1_CLOUD


def capability_table() -> List[Dict[str, str]]:
    """Return Table 1 as a list of dict rows (used by the benchmark/report)."""
    rows = []
    for level in sorted(CAPABILITY_LEVELS, key=int):
        capability = CAPABILITY_LEVELS[level]
        rows.append(
            {
                "level": level.short_name,
                "system": capability.system,
                "capability": capability.description,
                "nodes": capability.nodes_per_person,
            }
        )
    return rows
