"""Gate: fragmented execution equals unfragmented execution.

Every ``process`` result — fragmented, placed on the topology, run by the
DAG scheduler with one slot (``execution="serial"``) or the per-node slot
pool (``"parallel"``), shipped through the wire codec and anonymized at the
apartment boundary — must be byte-identical (``pack_relation``) to
:func:`~repro.processor.reference.reference_result`, which runs the
prepared query once over the concatenated base data and anonymizes that.
The reference shares no fragmenter, DAG, network or wire code with what it
checks.
"""

from __future__ import annotations

import functools

import pytest

from benchmarks.e2e.workloads import (
    FRONTEND_TEMPLATES,
    GROUPBY_SQL,
    STANDING_READ_SQL,
    occupancy_policy,
)
from tests.conftest import PAPER_R_CODE, PAPER_SQL, make_sensor_relation
from tests.test_runtime import RAW_WORKLOADS

from repro.engine.wire import pack_relation
from repro.fragment.capabilities import CapabilityLevel
from repro.fragment.topology import Node, Topology
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.rlang.sqlable import extract_sql_from_r
from repro.sensors.scenario import INTEGRATED_SCHEMA

TOPOLOGIES = {
    "chain": Topology.default_chain,
    "tree8": lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
    "tree3": lambda: Topology.smart_home_tree(n_sensors=3, sensors_per_appliance=2),
}

SIZES = (400, 3000)

#: Queries run without rewriting, each with and without anonymization.
RAW_QUERIES = RAW_WORKLOADS + [
    "SELECT x, COUNT(*) AS n, SUM(z) AS sz FROM d GROUP BY x HAVING COUNT(*) > 3",
    "SELECT DISTINCT x, y FROM d WHERE z < 1.2",
    "SELECT x, MAX(za) AS m, COUNT(*) AS n FROM "
    "(SELECT x, y, AVG(z) AS za FROM d WHERE z < 1.8 GROUP BY x, y) GROUP BY x",
    # Aliased plain columns must keep their output names.
    "SELECT x AS a, y FROM d WHERE z < 1.5",
    "SELECT x AS a, y AS b, t FROM d WHERE x > y",
]

#: (module, SQL) run under the policy's rewriting, with anonymization.
REWRITTEN_QUERIES = [
    ("ActionFilter", PAPER_SQL),
    ("ActionFilter", extract_sql_from_r(PAPER_R_CODE).sql),
    ("Occupancy", GROUPBY_SQL),
    ("Occupancy", STANDING_READ_SQL),
] + [
    (module, sql.format(lo=10.0, hi=round(10.0 + width, 1)))
    for module, sql, width in FRONTEND_TEMPLATES
]

#: (case id, module, SQL, process options) of the whole grid.
CASES = (
    [
        (f"raw{index}{'+A' if anonymize else ''}", "ActionFilter", sql,
         {"apply_rewriting": False, "anonymize": anonymize})
        for index, sql in enumerate(RAW_QUERIES)
        for anonymize in (False, True)
    ]
    + [
        (f"rewritten{index}", module, sql, {})
        for index, (module, sql) in enumerate(REWRITTEN_QUERIES)
    ]
    + [
        ("no_pushdown", "ActionFilter", PAPER_SQL, {"pushdown": False, "anonymize": False}),
        ("no_pushdown_raw", "ActionFilter", RAW_WORKLOADS[2],
         {"pushdown": False, "anonymize": False, "apply_rewriting": False}),
    ]
)


@functools.lru_cache(maxsize=None)
def processor_for(topology: str, rows: int) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        occupancy_policy(), topology=TOPOLOGIES[topology](), schema=INTEGRATED_SCHEMA
    )
    processor.load_data(make_sensor_relation(rows))
    return processor


@functools.lru_cache(maxsize=None)
def reference_bytes(topology: str, rows: int, case: str) -> bytes:
    _, module, sql, options = next(entry for entry in CASES if entry[0] == case)
    reference = reference_result(
        processor_for(topology, rows),
        sql,
        module,
        apply_rewriting=options.get("apply_rewriting", True),
        anonymize=options.get("anonymize", True),
    )
    return pack_relation(reference)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize("case,module,sql,options", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_process_matches_unfragmented_reference(
    topology, rows, case, module, sql, options, execution
):
    result = processor_for(topology, rows).process(
        sql, module, execution=execution, **options
    )
    assert result.admitted
    assert pack_relation(result.result) == reference_bytes(topology, rows, case)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_sensor_only_plan_anonymizes_inside_the_apartment(execution):
    """A plan whose last fragment runs on the sensor still gets step A: the
    sensor is too weak to anonymize, so A runs on the nearest powerful
    in-apartment ancestor and no raw row ships sensor -> cloud."""
    processor = processor_for("chain", 400)
    sql = RAW_WORKLOADS[0]
    result = processor.process(sql, "fig4", execution=execution, apply_rewriting=False)
    assert [fragment.assigned_node for fragment in result.plan.fragments] == ["sensor"]
    assert result.anonymization is not None and result.anonymization.applied
    expected = reference_result(processor, sql, "fig4", apply_rewriting=False)
    raw = reference_result(
        processor, sql, "fig4", apply_rewriting=False, anonymize=False
    )
    # The raw rows ship to A's node like every other hop: logged, through
    # the wire codec; only the anonymized result leaves the apartment.
    assert [
        (transfer.source, transfer.target, transfer.rows)
        for transfer in result.transfers.transfers
    ] == [("sensor", "appliance", len(raw)), ("appliance", "cloud", len(expected))]
    assert pack_relation(result.result) == pack_relation(expected)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_weak_path_anonymizes_on_the_most_powerful_in_apartment_node(execution):
    """When no node on the result's path to the cloud can anonymize, A runs
    on the most powerful in-apartment node, even off the path, so A applies
    exactly when the reference says it does."""
    topology = Topology(
        [
            Node("sensor_0", CapabilityLevel.E4_SENSOR, parent="appliance_0"),
            Node("sensor_1", CapabilityLevel.E4_SENSOR, parent="appliance_1"),
            Node("appliance_0", CapabilityLevel.E3_APPLIANCE, cpu_power=0.5, parent="pc"),
            Node("appliance_1", CapabilityLevel.E3_APPLIANCE, cpu_power=2.0, parent="pc"),
            Node("pc", CapabilityLevel.E2_PC, cpu_power=0.5, parent="cloud"),
            Node("cloud", CapabilityLevel.E1_CLOUD, inside_apartment=False),
        ]
    )
    processor = ParadiseProcessor(
        occupancy_policy(), topology=topology, schema=INTEGRATED_SCHEMA
    )
    processor.load_data(make_sensor_relation(400))
    sql = RAW_WORKLOADS[0]
    result = processor.process(sql, "fig4", execution=execution, apply_rewriting=False)
    assert result.anonymization is not None and result.anonymization.applied
    assert [(t.source, t.target) for t in result.transfers.transfers][-2:] == [
        ("pc", "appliance_1"),
        ("appliance_1", "cloud"),
    ]
    expected = reference_result(processor, sql, "fig4", apply_rewriting=False)
    assert pack_relation(result.result) == pack_relation(expected)


def test_order_by_only_columns_stay_inside_the_apartment():
    """``ORDER BY t`` without selecting ``t``: the timestamp orders the rows
    inside the apartment but never crosses the boundary."""
    processor = processor_for("tree8", 400)
    result = processor.process(RAW_WORKLOADS[3], "fig4", apply_rewriting=False)
    assert result.result.schema.names == ["x", "y"]
