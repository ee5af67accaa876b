"""Pinned execution-DAG shapes.

Each cell builds one execution DAG and compares its task listing — task
id, kind, node and dependencies, in build order — with a recorded one.
The cells between them hit every placement rule of
:func:`~repro.runtime.dag.build_execution_dag`: the single-holder chain,
the leaf fan-out, in-place fragments merged into the leaf partial of a
decomposable aggregation (or into one query per leaf ahead of the
high-cardinality fallback), the one-level lift (also under sensor-side
``BETWEEN`` filters), partial → combine → finalize, the high-cardinality
fallback, the merge at a fragment's assigned node, the final union,
``partial_aggregation=False`` and a namespace.  Results are checked
elsewhere (``tests/test_reference.py``); this file catches a builder change
that moves work between nodes or adds tasks while results stay right.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from benchmarks.e2e.workloads import (
    FRONTEND_TEMPLATES,
    GROUPBY_SQL,
    STANDING_READ_SQL,
    WORKLOADS,
    occupancy_policy,
)
from tests.conftest import PAPER_SQL, make_sensor_relation
from tests.test_runtime import RAW_WORKLOADS

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.wire import pack_relation
from repro.fragment.capabilities import CapabilityLevel, permitted_features
from repro.fragment.plan import (
    FragmentPlan,
    QueryFragment,
    is_decomposable_aggregation,
    is_row_distributive,
)
from repro.fragment.topology import Topology
from repro.processor.paradise import ParadiseProcessor
from repro.rlang.sqlable import extract_sql_from_r
from repro.runtime import build_execution_dag
from repro.runtime.dag import ExecutionContext, ExecutionDag, StageTask, merge_views
from repro.runtime.scheduler import Scheduler
from repro.sensors.scenario import INTEGRATED_SCHEMA
from repro.sql.parser import parse
from repro.sql.render import render

TOPOLOGIES = {
    "chain": Topology.default_chain,
    "tree3": lambda: Topology.smart_home_tree(n_sensors=3, sensors_per_appliance=2),
    "tree8": lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
    "tree16": lambda: Topology.smart_home_tree(n_sensors=16),
}

JOIN_SQL = "SELECT a.x, b.y FROM d a JOIN d b ON a.t = b.t WHERE a.z < 1.0"

#: The sensors filter the time window and ``z``; ``x > y`` and the
#: projection run one level up.
BETWEEN_SQL = "SELECT x, y, t FROM d WHERE t BETWEEN 10 AND 15 AND x > y AND z > -1"

#: cell -> (topology, module, SQL, options).  ``module=None`` skips
#: admission and rewriting.
CELLS = {
    "chain_paper": ("chain", "ActionFilter", PAPER_SQL, {}),
    "chain_groupby": ("chain", "Occupancy", GROUPBY_SQL, {}),
    "chain_join": ("chain", None, JOIN_SQL, {}),
    "tree8_fanout_union": ("tree8", None, RAW_WORKLOADS[0], {"anonymize": False}),
    "tree8_frontend": (
        "tree8", "Occupancy", FRONTEND_TEMPLATES[0][1].format(lo=10.0, hi=15.0), {}
    ),
    "tree8_between": ("tree8", None, BETWEEN_SQL, {}),
    "tree8_paper_lift": ("tree8", "ActionFilter", PAPER_SQL, {}),
    "tree8_groupby": ("tree8", "Occupancy", GROUPBY_SQL, {}),
    "tree8_groupby_no_partial": (
        "tree8", "Occupancy", GROUPBY_SQL, {"partial_aggregation": False}
    ),
    "tree8_fallback": (
        "tree8",
        None,
        "SELECT t, COUNT(*) AS n FROM d GROUP BY t",
        {"config": EngineConfig(optimizer=False)},
    ),
    "tree8_order_limit": ("tree8", None, RAW_WORKLOADS[3], {}),
    "tree8_join": ("tree8", None, JOIN_SQL, {}),
    "tree3_groupby": ("tree3", None, RAW_WORKLOADS[2], {}),
    "tree16_standing_namespace": (
        "tree16", "Occupancy", STANDING_READ_SQL, {"namespace": "s7"}
    ),
}


def build_dag(
    processor: ParadiseProcessor,
    sql: str,
    module=None,
    anonymize: bool = True,
    **options,
) -> ExecutionDag:
    """The execution DAG of ``sql``; ``module=None`` skips admission and
    rewriting."""
    prepared = processor.prepare(
        sql, module or "ActionFilter", apply_rewriting=module is not None
    )
    return build_execution_dag(
        processor.fragmenter.fragment(prepared.query),
        processor.topology,
        processor.network,
        anonymizer=processor.anonymizer if anonymize else None,
        **options,
    )


def cell_dag(cell: str) -> Tuple[ParadiseProcessor, ExecutionDag]:
    topology_name, module, sql, options = CELLS[cell]
    processor = ParadiseProcessor(
        occupancy_policy(), topology=TOPOLOGIES[topology_name]()
    )
    processor.load_data(make_sensor_relation(400))
    return processor, build_dag(processor, sql, module, **options)


def listing(dag: ExecutionDag) -> List[str]:
    """One ``"task_id kind @node deps..."`` line per task, in build order.

    Dependencies are named by their ``tNNN`` id prefix, which is unique
    within a DAG."""
    return [
        " ".join(
            [task.task_id, task.kind, f"@{task.node}"]
            + [dep.split(":")[0] for dep in task.deps]
        )
        for task in dag.tasks
    ]


def dag_listing(cell: str) -> List[str]:
    return listing(cell_dag(cell)[1])


EXPECTED = {
    "tree8_between": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1@appliance_0] merge @appliance_0 t001 t002 t003 t004",
        "t010:d2[appliance_0] fragment @appliance_0 t009",
        "t011:merge[d1@appliance_1] merge @appliance_1 t005 t006 t007 t008",
        "t012:d2[appliance_1] fragment @appliance_1 t011",
        "t013:merge[d2] merge @pc t010 t012",
        "t014:anonymize anonymize @pc t013",
        "t015:finalize finalize @cloud t014",
    ],
    "chain_groupby": [
        "t001:d1 fragment @sensor",
        "t002:d2 fragment @appliance t001",
        "t003:d3 fragment @appliance t002",
        "t004:anonymize anonymize @appliance t003",
        "t005:finalize finalize @cloud t004",
    ],
    "chain_join": [
        "t001:d1 fragment @appliance",
        "t002:anonymize anonymize @appliance t001",
        "t003:finalize finalize @cloud t002",
    ],
    "chain_paper": [
        "t001:d1 fragment @sensor",
        "t002:d2 fragment @appliance t001",
        "t003:d3 fragment @appliance t002",
        "t004:d4 fragment @pc t003",
        "t005:anonymize anonymize @pc t004",
        "t006:finalize finalize @cloud t005",
    ],
    "tree16_standing_namespace": [
        "t001:d3~partial[sensor_0] partial @sensor_0",
        "t002:d3~partial[sensor_1] partial @sensor_1",
        "t003:d3~partial[sensor_2] partial @sensor_2",
        "t004:d3~partial[sensor_3] partial @sensor_3",
        "t005:d3~partial[sensor_4] partial @sensor_4",
        "t006:d3~partial[sensor_5] partial @sensor_5",
        "t007:d3~partial[sensor_6] partial @sensor_6",
        "t008:d3~partial[sensor_7] partial @sensor_7",
        "t009:d3~partial[sensor_8] partial @sensor_8",
        "t010:d3~partial[sensor_9] partial @sensor_9",
        "t011:d3~partial[sensor_10] partial @sensor_10",
        "t012:d3~partial[sensor_11] partial @sensor_11",
        "t013:d3~partial[sensor_12] partial @sensor_12",
        "t014:d3~partial[sensor_13] partial @sensor_13",
        "t015:d3~partial[sensor_14] partial @sensor_14",
        "t016:d3~partial[sensor_15] partial @sensor_15",
        "t017:d3~combine[appliance_0] combine @appliance_0 t001 t002 t003 t004",
        "t018:d3~combine[appliance_1] combine @appliance_1 t005 t006 t007 t008",
        "t019:d3~combine[appliance_2] combine @appliance_2 t009 t010 t011 t012",
        "t020:d3~combine[appliance_3] combine @appliance_3 t013 t014 t015 t016",
        "t021:d3~combine[pc] combine @pc t017 t018 t019 t020",
        "t022:d3~finalize finalize_agg @appliance_0 t021",
        "t023:anonymize anonymize @appliance_0 t022",
        "t024:finalize finalize @cloud t023",
    ],
    "tree3_groupby": [
        "t001:d3~partial[sensor_0] partial @sensor_0",
        "t002:d3~partial[sensor_1] partial @sensor_1",
        "t003:d3~partial[sensor_2] partial @sensor_2",
        "t004:d3~combine[appliance_0] combine @appliance_0 t001 t002",
        "t005:d3~combine[appliance_1] combine @appliance_1 t003",
        "t006:d3~combine[pc] combine @pc t004 t005",
        "t007:d3~finalize finalize_agg @appliance_0 t006",
        "t008:anonymize anonymize @appliance_0 t007",
        "t009:finalize finalize @cloud t008",
    ],
    # No partial follows: d1 and d2 run as one query per leaf.
    "tree8_fallback": [
        "t001:d2[sensor_0] fragment @sensor_0",
        "t002:d2[sensor_1] fragment @sensor_1",
        "t003:d2[sensor_2] fragment @sensor_2",
        "t004:d2[sensor_3] fragment @sensor_3",
        "t005:d2[sensor_4] fragment @sensor_4",
        "t006:d2[sensor_5] fragment @sensor_5",
        "t007:d2[sensor_6] fragment @sensor_6",
        "t008:d2[sensor_7] fragment @sensor_7",
        "t009:merge[d2] merge @appliance_0 t001 t002 t003 t004 t005 t006 t007 t008",
        "t010:d3 fragment @appliance_0 t009",
        "t011:anonymize anonymize @appliance_0 t010",
        "t012:finalize finalize @cloud t011",
    ],
    "tree8_fanout_union": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1] merge @pc t001 t002 t003 t004 t005 t006 t007 t008",
        "t010:finalize finalize @cloud t009",
    ],
    "tree8_frontend": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1@appliance_0] merge @appliance_0 t001 t002 t003 t004",
        "t010:d2[appliance_0] fragment @appliance_0 t009",
        "t011:merge[d1@appliance_1] merge @appliance_1 t005 t006 t007 t008",
        "t012:d2[appliance_1] fragment @appliance_1 t011",
        "t013:merge[d2] merge @pc t010 t012",
        "t014:anonymize anonymize @pc t013",
        "t015:finalize finalize @cloud t014",
    ],
    # d1 and d2 run inside each leaf's partial aggregation.
    "tree8_groupby": [
        "t001:d3~partial[sensor_0] partial @sensor_0",
        "t002:d3~partial[sensor_1] partial @sensor_1",
        "t003:d3~partial[sensor_2] partial @sensor_2",
        "t004:d3~partial[sensor_3] partial @sensor_3",
        "t005:d3~partial[sensor_4] partial @sensor_4",
        "t006:d3~partial[sensor_5] partial @sensor_5",
        "t007:d3~partial[sensor_6] partial @sensor_6",
        "t008:d3~partial[sensor_7] partial @sensor_7",
        "t009:d3~combine[appliance_0] combine @appliance_0 t001 t002 t003 t004",
        "t010:d3~combine[appliance_1] combine @appliance_1 t005 t006 t007 t008",
        "t011:d3~combine[pc] combine @pc t009 t010",
        "t012:d3~finalize finalize_agg @appliance_0 t011",
        "t013:anonymize anonymize @appliance_0 t012",
        "t014:finalize finalize @cloud t013",
    ],
    "tree8_groupby_no_partial": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1@appliance_0] merge @appliance_0 t001 t002 t003 t004",
        "t010:d2[appliance_0] fragment @appliance_0 t009",
        "t011:merge[d1@appliance_1] merge @appliance_1 t005 t006 t007 t008",
        "t012:d2[appliance_1] fragment @appliance_1 t011",
        "t013:merge[d2] merge @appliance_0 t010 t012",
        "t014:d3 fragment @appliance_0 t013",
        "t015:anonymize anonymize @appliance_0 t014",
        "t016:finalize finalize @cloud t015",
    ],
    # A join reads the whole base relation: its merge reads the eight
    # resident chunks straight from the sensors at the join's own node.
    "tree8_join": [
        "t001:merge[d] merge @appliance_0",
        "t002:d1 fragment @appliance_0 t001",
        "t003:anonymize anonymize @appliance_0 t002",
        "t004:finalize finalize @cloud t003",
    ],
    "tree8_order_limit": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1@appliance_0] merge @appliance_0 t001 t002 t003 t004",
        "t010:d2[appliance_0] fragment @appliance_0 t009",
        "t011:merge[d1@appliance_1] merge @appliance_1 t005 t006 t007 t008",
        "t012:d2[appliance_1] fragment @appliance_1 t011",
        "t013:merge[d2] merge @appliance_0 t010 t012",
        "t014:d3 fragment @appliance_0 t013",
        "t015:anonymize anonymize @appliance_0 t014",
        "t016:finalize finalize @cloud t015",
    ],
    "tree8_paper_lift": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:merge[d1@appliance_0] merge @appliance_0 t001 t002 t003 t004",
        "t010:d2[appliance_0] fragment @appliance_0 t009",
        "t011:merge[d1@appliance_1] merge @appliance_1 t005 t006 t007 t008",
        "t012:d2[appliance_1] fragment @appliance_1 t011",
        "t013:merge[d2] merge @appliance_0 t010 t012",
        "t014:d3 fragment @appliance_0 t013",
        "t015:d4 fragment @pc t014",
        "t016:anonymize anonymize @pc t015",
        "t017:finalize finalize @cloud t016",
    ],
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_dag_shape_is_pinned(cell):
    assert dag_listing(cell) == EXPECTED[cell]


# ---------------------------------------------------------------------------
# view merging: which in-place chains run as one query
# ---------------------------------------------------------------------------


def hand_plan(*sqls: str) -> FragmentPlan:
    """Fragments ``d1 .. dn`` built from ``sqls`` as written: ``d1`` reads
    ``d``, every later one reads the fragment before it."""
    fragments = []
    for index, sql in enumerate(sqls, 1):
        query = parse(sql)
        fragments.append(
            QueryFragment(
                name=f"d{index}",
                query=query,
                level=CapabilityLevel.E3_APPLIANCE,
                input_name=f"d{index - 1}" if index > 1 else "d",
                assigned_node="appliance_0",
                partitionable=is_row_distributive(query),
                decomposable=is_decomposable_aggregation(query),
            )
        )
    return FragmentPlan(
        original_query=fragments[-1].query,
        fragments=fragments,
        result_name=fragments[-1].name,
    )


#: case -> (fragment SQL, the recorded 3-sensor listing).  Every chain is
#: in place; only the shapes decide what merges.
REFUSED = {
    # A qualified column in the sensor filter: d1 runs on its own.
    "qualified_inner": (
        ("SELECT * FROM d WHERE d.z < 2", "SELECT x, COUNT(*) AS n FROM d1 GROUP BY x"),
        [
            "t001:d1[sensor_0] fragment @sensor_0",
            "t002:d1[sensor_1] fragment @sensor_1",
            "t003:d1[sensor_2] fragment @sensor_2",
            "t004:d2~partial[sensor_0] partial @sensor_0 t001",
            "t005:d2~partial[sensor_1] partial @sensor_1 t002",
            "t006:d2~partial[sensor_2] partial @sensor_2 t003",
            "t007:d2~combine[appliance_0] combine @appliance_0 t004 t005",
            "t008:d2~combine[appliance_1] combine @appliance_1 t006",
            "t009:d2~combine[pc] combine @pc t007 t008",
            "t010:d2~finalize finalize_agg @appliance_0 t009",
            "t011:finalize finalize @cloud t010",
        ],
    ),
    # An aliased projection item renames a column: no merge.
    "aliased_inner_item": (
        ("SELECT x AS px, z FROM d WHERE z < 2", "SELECT px, SUM(z) AS s FROM d1 GROUP BY px"),
        [
            "t001:d1[sensor_0] fragment @sensor_0",
            "t002:d1[sensor_1] fragment @sensor_1",
            "t003:d1[sensor_2] fragment @sensor_2",
            "t004:d2~partial[sensor_0] partial @sensor_0 t001",
            "t005:d2~partial[sensor_1] partial @sensor_1 t002",
            "t006:d2~partial[sensor_2] partial @sensor_2 t003",
            "t007:d2~combine[appliance_0] combine @appliance_0 t004 t005",
            "t008:d2~combine[appliance_1] combine @appliance_1 t006",
            "t009:d2~combine[pc] combine @pc t007 t008",
            "t010:d2~finalize finalize_agg @appliance_0 t009",
            "t011:finalize finalize @cloud t010",
        ],
    ),
    # The refused link ends the chain; the next one starts over and
    # merges d2 into the leaf partial.
    "chain_restarts": (
        (
            "SELECT * FROM d WHERE d.z < 2",
            "SELECT x FROM d1 WHERE x > y",
            "SELECT x, COUNT(*) AS n FROM d2 GROUP BY x",
        ),
        [
            "t001:d1[sensor_0] fragment @sensor_0",
            "t002:d1[sensor_1] fragment @sensor_1",
            "t003:d1[sensor_2] fragment @sensor_2",
            "t004:d3~partial[sensor_0] partial @sensor_0 t001",
            "t005:d3~partial[sensor_1] partial @sensor_1 t002",
            "t006:d3~partial[sensor_2] partial @sensor_2 t003",
            "t007:d3~combine[appliance_0] combine @appliance_0 t004 t005",
            "t008:d3~combine[appliance_1] combine @appliance_1 t006",
            "t009:d3~combine[pc] combine @pc t007 t008",
            "t010:d3~finalize finalize_agg @appliance_0 t009",
            "t011:finalize finalize @cloud t010",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_merges_keep_separate_tasks(case):
    sqls, expected = REFUSED[case]
    processor = ParadiseProcessor(occupancy_policy(), topology=TOPOLOGIES["tree3"]())
    processor.load_data(make_sensor_relation(400))
    plan = hand_plan(*sqls)
    dag = build_execution_dag(plan, processor.topology, processor.network)
    assert listing(dag) == expected
    merged = [task.composes for task in dag.tasks if getattr(task, "composes", ())]
    assert merged == ([("d2", "d3")] * 3 if case == "chain_restarts" else [])
    # The DAG returns what the fragments return run one by one over the
    # whole relation.
    context = ExecutionContext(processor.network, processor.network.new_log())
    Scheduler(processor.topology).run(dag, context)
    database = Database()
    database.register("d", make_sensor_relation(400))
    for fragment in plan.fragments:
        database.register(fragment.name, database.query(fragment.query))
    expected_rows = database.table(plan.result_name)
    assert pack_relation(context.outputs[dag.final_task_id]) == pack_relation(expected_rows)


@pytest.mark.parametrize(
    "inner,outer,merged",
    [
        (
            "SELECT * FROM d WHERE z < 2",
            "SELECT activity, z FROM d1 WHERE valid",
            "SELECT activity, z FROM d WHERE z < 2 AND valid",
        ),
        (
            "SELECT x, z FROM d WHERE x > y AND t > 3",
            "SELECT * FROM d1 WHERE z < 1",
            "SELECT x, z FROM d WHERE x > y AND t > 3 AND z < 1",
        ),
        (
            "SELECT x, z FROM d WHERE z < 2",
            "SELECT x, AVG(z) AS az FROM d1 WHERE x > 1 GROUP BY x HAVING COUNT(*) > 2",
            "SELECT x, AVG(z) AS az FROM d WHERE z < 2 AND x > 1 GROUP BY x "
            "HAVING COUNT(*) > 2",
        ),
    ],
)
def test_merge_views_composes_the_fragmenter_shapes(inner, outer, merged):
    inner_query, outer_query = parse(inner), parse(outer)
    before = (render(inner_query), render(outer_query))
    assert render(merge_views(inner_query, "d1", outer_query)) == merged
    assert (render(inner_query), render(outer_query)) == before


@pytest.mark.parametrize(
    "inner,outer",
    [
        ("SELECT * FROM d WHERE d.z < 2", "SELECT x FROM d1"),
        ("SELECT * FROM d", "SELECT d1.x FROM d1"),
        ("SELECT x AS px FROM d", "SELECT px FROM d1"),
        ("SELECT * FROM d WHERE x IN (SELECT x FROM d WHERE z > 1)", "SELECT x FROM d1"),
        ("SELECT * FROM d1 WHERE x IN (SELECT x FROM d)", "SELECT x FROM d1"),
        ("SELECT * FROM d", "SELECT x FROM d1 WHERE x IN (SELECT x FROM d)"),
        ("SELECT DISTINCT x FROM d", "SELECT x FROM d1"),
        ("SELECT x FROM d LIMIT 5", "SELECT x FROM d1"),
        ("SELECT x FROM d GROUP BY x", "SELECT x FROM d1"),
        ("SELECT * FROM d e", "SELECT x FROM d1"),
        ("SELECT * FROM d", "SELECT x FROM d1 e"),
        ("SELECT * FROM d", "SELECT x FROM d7"),
        # The outer query reads a column the list drops, or skips one it
        # keeps: the chain would fail where a merged query would not.
        ("SELECT x FROM d", "SELECT x, y FROM d1"),
        ("SELECT x FROM d", "SELECT * FROM d1 WHERE y > 1"),
        ("SELECT x, y FROM d", "SELECT x FROM d1"),
        # ORDER BY z names the alias, not the listed column.
        ("SELECT x, z FROM d", "SELECT x, SUM(z) AS z FROM d1 GROUP BY x ORDER BY z"),
    ],
)
def test_merge_views_refuses_other_shapes(inner, outer):
    assert merge_views(parse(inner), "d1", parse(outer)) is None


# ---------------------------------------------------------------------------
# Table 1: every stage task runs what its node's class (plus the
# resident-partition rule) allows
# ---------------------------------------------------------------------------


def assert_within_table1(processor: ParadiseProcessor, dag: ExecutionDag) -> None:
    for task in dag.tasks:
        if isinstance(task, StageTask):
            level = processor.topology.node(task.node).level
            beyond = task.features() - permitted_features(level, task.resident)
            assert not beyond, f"{task.task_id} @{task.node}: {sorted(beyond)}"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_dag_cells_stay_within_table1(cell):
    assert_within_table1(*cell_dag(cell))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_e2e_reads_stay_within_table1(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed=0, rows=400, n_ops=2 * workload.cycle)
    processor = ParadiseProcessor(
        workload.policy(), topology=workload.topology(), schema=INTEGRATED_SCHEMA
    )
    processor.load_data(inputs.base)
    reads = {(op.module, op.query) for op in inputs.ops if op.kind == "read"}
    assert reads
    for module, query in sorted(reads):
        if name == "paper_chain_30k":
            query = extract_sql_from_r(query).sql
        assert_within_table1(processor, build_dag(processor, query, module))


def test_explain_names_inputs_merges_and_the_resident_rule():
    processor = ParadiseProcessor(occupancy_policy(), topology=TOPOLOGIES["tree8"]())
    processor.load_data(make_sensor_relation(400))
    text = processor.explain(GROUPBY_SQL, "Occupancy")
    # The fragment plan stays the paper's three stages.
    assert "] d1:" in text and "] d2:" in text and "] d3:" in text
    assert (
        "t001:d3~partial[sensor_0] [partial] @ sensor_0 <- d@sensor_0 "
        "[merges d1, d2, d3] [Table 1: resident-partition rule]"
    ) in text
    assert "t009:d3~combine[appliance_0] [combine] @ appliance_0 <- t001:" in text
    assert "resident-partition" not in text.split("t009:")[1]
