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

from repro.engine.database import Database
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.types import DataType
from repro.engine.wire import PackedRelation, pack_relation
from repro.fragment.capabilities import CapabilityLevel
from repro.fragment.topology import Node, Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.processor.reference import reference_result
from repro.runtime import build_execution_dag
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
    # GROUP BY without aggregate calls: key columns, no state columns.
    "SELECT x FROM d GROUP BY x",
    "SELECT y, x FROM d WHERE z < 1.5 GROUP BY x, y ORDER BY y DESC, x",
    # Sensor filters: negative literals, NOT BETWEEN, IN lists, IS NULL.
    "SELECT x, y, t FROM d WHERE t NOT BETWEEN -1 AND 20 AND z > -2 AND x > y",
    "SELECT person_id, x, t FROM d WHERE person_id IN (1, 3) AND z IS NOT NULL "
    "AND activity NOT IN ('sit')",
    # ORDER BY aggregate calls, one of them not selected.
    "SELECT person_id, COUNT(*) AS n FROM d GROUP BY person_id ORDER BY MAX(z) DESC, COUNT(*)",
    # ORDER BY a group key that is not selected.
    "SELECT COUNT(*) AS n FROM d GROUP BY activity ORDER BY activity",
    # ORDER BY select-item aliases, with and without LIMIT.
    "SELECT x, COUNT(*) AS n FROM d GROUP BY x ORDER BY n DESC, x LIMIT 3",
    "SELECT activity, AVG(z) AS az FROM d GROUP BY activity ORDER BY az",
    "SELECT x AS a, y FROM d WHERE z < 1.5 ORDER BY a DESC, y",
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
] + [
    # A window past the data: every partition's stage output is empty.
    ("ActionFilter", FRONTEND_TEMPLATES[2][1].format(lo=1e6, hi=1e6 + 10)),
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
        (f"no_pushdown{'+A' if anonymize else ''}", "ActionFilter", PAPER_SQL,
         {"pushdown": False, "anonymize": anonymize})
        for anonymize in (False, True)
    ]
    + [
        (f"no_pushdown_raw{index}{'+A' if anonymize else ''}", "ActionFilter", sql,
         {"pushdown": False, "anonymize": anonymize, "apply_rewriting": False})
        for index, sql in enumerate([
            RAW_WORKLOADS[2],
            # The baseline anonymizes the released result, after the WHERE.
            "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d WHERE z < 1.5 GROUP BY x",
        ])
        for anonymize in (False, True)
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


#: (case id, module, SQL): the front-end templates, whose time windows the
#: sensors filter, and a column-bounded BETWEEN, which stays at the
#: appliance.  Checked under both engine modes.
SENSOR_FILTER_CASES = [
    (f"frontend{index}", module, sql.format(lo=10.0, hi=round(10.0 + width, 1)))
    for index, (module, sql, width) in enumerate(FRONTEND_TEMPLATES)
] + [
    ("between_columns", "Occupancy", "SELECT person_id, x, y, t FROM d WHERE x BETWEEN y AND 6"),
]


@functools.lru_cache(maxsize=None)
def engine_processor(topology: str, rows: int, engine_mode: str) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        occupancy_policy(),
        topology=TOPOLOGIES[topology](),
        schema=INTEGRATED_SCHEMA,
        engine_mode=engine_mode,
    )
    processor.load_data(make_sensor_relation(rows))
    return processor


@pytest.mark.parametrize("engine_mode", ["compiled", "interpreted"])
@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize(
    "case,module,sql", SENSOR_FILTER_CASES, ids=[c[0] for c in SENSOR_FILTER_CASES]
)
@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_sensor_filters_match_reference_in_both_engine_modes(
    topology, rows, case, module, sql, execution, engine_mode
):
    processor = engine_processor(topology, rows, engine_mode)
    result = processor.process(sql, module, execution=execution)
    assert result.admitted
    expected = reference_result(processor, sql, module)
    assert pack_relation(result.result) == pack_relation(expected)
    # Some rows pass the filters (anonymization may suppress small groups).
    assert len(reference_result(processor, sql, module, anonymize=False)) > 0


def sensor_names(processor: ParadiseProcessor) -> list:
    return [
        node.name
        for node in processor.topology.nodes
        if node.level is CapabilityLevel.E4_SENSOR
    ]


def record_sensor_shipments(monkeypatch, processor: ParadiseProcessor) -> list:
    """Wrap the network's ``ship``: the returned list collects ``(sensor,
    relation)`` for every relation that leaves a sensor.  A kept leaf
    state ships as its bytes; the list holds it decoded."""
    shipped = []
    sensors = set(sensor_names(processor))
    real_ship = processor.network.ship

    def ship(relation, relation_name, source, target, **options):
        if source in sensors and source != target:
            shipped.append(
                (
                    source,
                    relation.unpack()
                    if isinstance(relation, PackedRelation)
                    else relation,
                )
            )
        return real_ship(relation, relation_name, source, target, **options)

    monkeypatch.setattr(processor.network, "ship", ship)
    return shipped


def assert_sensors_ship_exactly(processor, shipped, sensor_sql: str, senders) -> None:
    """Each of ``senders`` ships one relation: ``sensor_sql`` over its own
    chunk, the same rows and columns, byte for byte; no other sensor
    ships."""
    expected = {}
    for sensor in senders:
        database = Database()
        database.register("d", processor.network.database(sensor).table("d"))
        expected[sensor] = database.query(sensor_sql)
    assert sorted(source for source, _ in shipped) == sorted(expected)
    for source, relation in shipped:
        want = expected[source]
        assert relation.schema.names == want.schema.names
        want.name = relation.name
        assert pack_relation(relation) == pack_relation(want)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize("topology", ["chain", "tree8"])
def test_between_ships_only_matching_rows_off_the_sensors(
    monkeypatch, topology, execution
):
    """The sensors evaluate ``t BETWEEN lo AND hi`` and, on their own
    chunk, the rest of the in-place WHERE and the projection: every hop out
    of a sensor carries exactly the rows of its chunk that pass both, with
    only the selected columns.  A sensor whose raw ``t`` range misses the
    window gets no task (its zone map refutes the BETWEEN) and ships
    nothing; on the chain the one sensor always runs."""
    processor = processor_for(topology, 3000)
    shipped = record_sensor_shipments(monkeypatch, processor)
    sql = "SELECT x, y, t FROM d WHERE t BETWEEN 40 AND 240.5 AND x > y"
    result = processor.process(
        sql, "fig4", execution=execution, apply_rewriting=False, anonymize=False
    )
    sensors = sensor_names(processor)
    senders = [
        sensor
        for sensor in sensors
        if min(raw_t := list(processor.network.database(sensor).table("d").column_array("t")))
        <= 240.5
        and max(raw_t) >= 40
    ]
    assert (len(sensors), len(senders)) == ((1, 1) if topology == "chain" else (8, 6))
    assert_sensors_ship_exactly(processor, shipped, sql, senders)
    assert 0 < sum(len(relation) for _, relation in shipped) < 3000
    expected = reference_result(
        processor, sql, "fig4", apply_rewriting=False, anonymize=False
    )
    assert pack_relation(result.result) == pack_relation(expected)


@pytest.mark.parametrize("execution", ["serial", "parallel"])
def test_chain_sensor_ships_the_paper_query_after_d2(monkeypatch, execution):
    """On the default chain the paper query's ``d1`` (``z < 2``), ``d2``
    (``x > y``) and the leaf partial of ``d3`` (``GROUP BY x, y``) run as
    one query on the sensor's chunk: its one hop carries a state relation,
    one row per group — the keys and ``__agg*`` state columns, the bare
    column ``t`` among them as a first-value state — and no raw reading."""
    processor = processor_for("chain", 3000)
    shipped = record_sensor_shipments(monkeypatch, processor)
    result = processor.process(PAPER_SQL, "ActionFilter", execution=execution)
    [(_, states)] = shipped
    assert states.schema.names == ["x", "y", "__agg0", "__agg1", "__agg2"]
    database = Database()
    database.register("d", processor.network.database("sensor").table("d"))
    groups = database.query(
        "SELECT x, y, COUNT(*) AS n FROM d WHERE z < 2 AND x > y GROUP BY x, y"
    )
    assert [(row["x"], row["y"]) for row in states.rows] == [
        (row["x"], row["y"]) for row in groups.rows
    ]
    assert 0 < len(states) < sum(row["n"] for row in groups.rows)
    # The first-value state is each group's first reading of t.
    first_t = database.query(
        "SELECT x, y, t FROM d WHERE z < 2 AND x > y GROUP BY x, y"
    )
    assert [row["__agg2"] for row in states.rows] == [
        (True, row["t"]) for row in first_t.rows
    ]
    assert [execution.node for execution in result.executions] == [
        "sensor", "appliance", "pc"
    ]
    expected = reference_result(processor, PAPER_SQL, "ActionFilter")
    assert pack_relation(result.result) == pack_relation(expected)


@pytest.mark.parametrize("engine_mode", ["compiled", "interpreted"])
@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize("topology", ["chain", "tree8"])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT x, y, t FROM d WHERE t BETWEEN 'a' AND 'b'",
        "SELECT x, t FROM d WHERE activity BETWEEN 1 AND 5",
        "SELECT x FROM d WHERE x > y AND t BETWEEN 'a' AND 5",
    ],
)
def test_type_mismatched_between_raises_like_the_reference(
    sql, topology, execution, engine_mode
):
    """Filtering at the sensor keeps the error an unfragmented run raises:
    comparing a number with a string is a ``TypeError``."""
    processor = engine_processor(topology, 400, engine_mode)
    with pytest.raises(TypeError):
        reference_result(processor, sql, "fig4", apply_rewriting=False)
    with pytest.raises(TypeError):
        processor.process(sql, "fig4", execution=execution, apply_rewriting=False)


#: The sensor keeps ``x > 2``; ``CAST(a AS INTEGER) > 1`` runs one level up.
#: On a tree both run inside each leaf partial, as one WHERE.
CAST_GUARD_SQL = (
    "SELECT person_id, COUNT(*) AS n, SUM(z) AS sz FROM d "
    "WHERE x > 2 AND CAST(a AS INTEGER) > 1 GROUP BY person_id"
)


def cast_guard_relation(rows: int) -> Relation:
    """The sensor relation plus a text column ``a`` that casts to an
    integer exactly where ``x > 2`` and is ``'p'`` everywhere else."""
    base = make_sensor_relation(rows)
    schema = Schema(
        list(base.schema.columns) + [ColumnDef(name="a", data_type=DataType.TEXT)]
    )
    data = [
        dict(row, a=str(int(row["x"]) - 2) if row["x"] > 2 else "p")
        for row in base.rows
    ]
    return Relation(schema=schema, rows=data, name="d")


@pytest.mark.parametrize("workers", ["threads", "processes"])
@pytest.mark.parametrize("engine_mode", ["compiled", "interpreted"])
def test_merged_leaf_where_raises_only_where_the_reference_does(engine_mode, workers):
    """Merging the in-place fragments into the leaf partial keeps the
    sensor conjunct ahead of the fallible CAST: no ``'p'`` reaches it, so
    the run neither raises nor differs from the reference."""
    processor = ParadiseProcessor(
        figure4_policy(),
        topology=TOPOLOGIES["tree8"](),
        engine_mode=engine_mode,
        workers=workers,
        execution="parallel",
    )
    processor.load_data(cast_guard_relation(400))
    plan = processor.fragmenter.fragment(
        processor.prepare(CAST_GUARD_SQL, "fig4", apply_rewriting=False).query
    )
    dag = build_execution_dag(plan, processor.topology, processor.network)
    assert {task.composes for task in dag.tasks if task.kind == "partial"} == {
        ("d1", "d2", "d3")
    }
    options = {"apply_rewriting": False, "anonymize": False}
    expected = reference_result(processor, CAST_GUARD_SQL, "fig4", **options)
    assert len(expected) > 0
    result = processor.process(CAST_GUARD_SQL, "fig4", **options)
    assert pack_relation(result.result) == pack_relation(expected)


#: Queries the fragmenter keeps as one fragment over the whole base
#: relation: a self-join, both set operations, a join under a GROUP BY.
#: The reference joins interpreted, so they run at the small size only.
WHOLE_RELATION_QUERIES = [
    "SELECT a.x, b.y FROM d a JOIN d b ON a.t = b.t WHERE a.z < 1.0",
    "SELECT x FROM d WHERE z < 0.5 UNION SELECT x FROM d WHERE z > 1.5",
    "SELECT x FROM d WHERE z < 0.5 UNION ALL SELECT x FROM d WHERE z > 1.5",
    "SELECT a.x, COUNT(*) AS n FROM d a JOIN d b ON a.t = b.t GROUP BY a.x",
]


@pytest.mark.parametrize("execution", ["serial", "parallel"])
@pytest.mark.parametrize("anonymize", [False, True])
@pytest.mark.parametrize("sql", WHOLE_RELATION_QUERIES)
@pytest.mark.parametrize(
    "topology",
    [
        Topology.default_chain,
        lambda: Topology.smart_home_tree(3),
        lambda: Topology.smart_home_tree(8),
    ],
    ids=["chain", "tree3", "tree8"],
)
def test_whole_relation_fragments_match_reference(topology, sql, anonymize, execution):
    """A fragment that reads the whole base relation gathers every chunk
    wherever the chunks live and wherever the fragment is placed — on the
    chain, that means shipping the sensor's chunk to the fragment's node."""
    processor = ParadiseProcessor(
        occupancy_policy(), topology=topology(), schema=INTEGRATED_SCHEMA
    )
    processor.load_data(make_sensor_relation(400))
    result = processor.process(
        sql, "fig4", execution=execution, apply_rewriting=False, anonymize=anonymize
    )
    expected = reference_result(
        processor, sql, "fig4", apply_rewriting=False, anonymize=anonymize
    )
    assert anonymize or len(expected) > 0
    assert pack_relation(result.result) == pack_relation(expected)


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
