"""Pinned execution-DAG shapes.

Each cell builds one execution DAG and compares its task listing — task
id, kind, node and dependencies, in build order — with a recorded one.
The cells between them hit every placement rule of
:func:`~repro.runtime.dag.build_execution_dag`: the single-holder chain,
the leaf fan-out, running in place ahead of a decomposable aggregation,
the one-level lift (also under sensor-side ``BETWEEN`` filters), partial
→ combine → finalize, the high-cardinality fallback, the merge at a
fragment's assigned node, the final union, ``partial_aggregation=False``
and a namespace.  Results are checked
elsewhere (``tests/test_reference.py``); this file catches a builder change
that moves work between nodes or adds tasks while results stay right.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import (
    FRONTEND_TEMPLATES,
    GROUPBY_SQL,
    STANDING_READ_SQL,
    occupancy_policy,
)
from tests.conftest import PAPER_SQL, make_sensor_relation
from tests.test_runtime import RAW_WORKLOADS

from repro.engine.config import EngineConfig
from repro.fragment.topology import Topology
from repro.processor.paradise import ParadiseProcessor
from repro.runtime import build_execution_dag

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


def dag_listing(cell: str) -> list:
    """One ``"task_id kind @node deps..."`` line per task, in build order.

    Dependencies are named by their ``tNNN`` id prefix, which is unique
    within a DAG."""
    topology_name, module, sql, options = CELLS[cell]
    options = dict(options)
    anonymize = options.pop("anonymize", True)
    processor = ParadiseProcessor(
        occupancy_policy(), topology=TOPOLOGIES[topology_name]()
    )
    processor.load_data(make_sensor_relation(400))
    prepared = processor.prepare(
        sql, module or "ActionFilter", apply_rewriting=module is not None
    )
    plan = processor.fragmenter.fragment(prepared.query)
    dag = build_execution_dag(
        plan,
        processor.topology,
        processor.network,
        anonymizer=processor.anonymizer if anonymize else None,
        **options,
    )
    return [
        " ".join(
            [task.task_id, task.kind, f"@{task.node}"]
            + [dep.split(":")[0] for dep in task.deps]
        )
        for task in dag.tasks
    ]


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
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:d1[sensor_8] fragment @sensor_8",
        "t010:d1[sensor_9] fragment @sensor_9",
        "t011:d1[sensor_10] fragment @sensor_10",
        "t012:d1[sensor_11] fragment @sensor_11",
        "t013:d1[sensor_12] fragment @sensor_12",
        "t014:d1[sensor_13] fragment @sensor_13",
        "t015:d1[sensor_14] fragment @sensor_14",
        "t016:d1[sensor_15] fragment @sensor_15",
        "t017:d2[sensor_0] fragment @sensor_0 t001",
        "t018:d2[sensor_1] fragment @sensor_1 t002",
        "t019:d2[sensor_2] fragment @sensor_2 t003",
        "t020:d2[sensor_3] fragment @sensor_3 t004",
        "t021:d2[sensor_4] fragment @sensor_4 t005",
        "t022:d2[sensor_5] fragment @sensor_5 t006",
        "t023:d2[sensor_6] fragment @sensor_6 t007",
        "t024:d2[sensor_7] fragment @sensor_7 t008",
        "t025:d2[sensor_8] fragment @sensor_8 t009",
        "t026:d2[sensor_9] fragment @sensor_9 t010",
        "t027:d2[sensor_10] fragment @sensor_10 t011",
        "t028:d2[sensor_11] fragment @sensor_11 t012",
        "t029:d2[sensor_12] fragment @sensor_12 t013",
        "t030:d2[sensor_13] fragment @sensor_13 t014",
        "t031:d2[sensor_14] fragment @sensor_14 t015",
        "t032:d2[sensor_15] fragment @sensor_15 t016",
        "t033:d3~partial[sensor_0] partial @sensor_0 t017",
        "t034:d3~partial[sensor_1] partial @sensor_1 t018",
        "t035:d3~partial[sensor_2] partial @sensor_2 t019",
        "t036:d3~partial[sensor_3] partial @sensor_3 t020",
        "t037:d3~partial[sensor_4] partial @sensor_4 t021",
        "t038:d3~partial[sensor_5] partial @sensor_5 t022",
        "t039:d3~partial[sensor_6] partial @sensor_6 t023",
        "t040:d3~partial[sensor_7] partial @sensor_7 t024",
        "t041:d3~partial[sensor_8] partial @sensor_8 t025",
        "t042:d3~partial[sensor_9] partial @sensor_9 t026",
        "t043:d3~partial[sensor_10] partial @sensor_10 t027",
        "t044:d3~partial[sensor_11] partial @sensor_11 t028",
        "t045:d3~partial[sensor_12] partial @sensor_12 t029",
        "t046:d3~partial[sensor_13] partial @sensor_13 t030",
        "t047:d3~partial[sensor_14] partial @sensor_14 t031",
        "t048:d3~partial[sensor_15] partial @sensor_15 t032",
        "t049:d3~combine[appliance_0] combine @appliance_0 t033 t034 t035 t036",
        "t050:d3~combine[appliance_1] combine @appliance_1 t037 t038 t039 t040",
        "t051:d3~combine[appliance_2] combine @appliance_2 t041 t042 t043 t044",
        "t052:d3~combine[appliance_3] combine @appliance_3 t045 t046 t047 t048",
        "t053:d3~combine[pc] combine @pc t049 t050 t051 t052",
        "t054:d3~finalize finalize_agg @appliance_0 t053",
        "t055:anonymize anonymize @appliance_0 t054",
        "t056:finalize finalize @cloud t055",
    ],
    "tree3_groupby": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d2[sensor_0] fragment @sensor_0 t001",
        "t005:d2[sensor_1] fragment @sensor_1 t002",
        "t006:d2[sensor_2] fragment @sensor_2 t003",
        "t007:d3~partial[sensor_0] partial @sensor_0 t004",
        "t008:d3~partial[sensor_1] partial @sensor_1 t005",
        "t009:d3~partial[sensor_2] partial @sensor_2 t006",
        "t010:d3~combine[appliance_0] combine @appliance_0 t007 t008",
        "t011:d3~combine[appliance_1] combine @appliance_1 t009",
        "t012:d3~combine[pc] combine @pc t010 t011",
        "t013:d3~finalize finalize_agg @appliance_0 t012",
        "t014:anonymize anonymize @appliance_0 t013",
        "t015:finalize finalize @cloud t014",
    ],
    "tree8_fallback": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:d2[sensor_0] fragment @sensor_0 t001",
        "t010:d2[sensor_1] fragment @sensor_1 t002",
        "t011:d2[sensor_2] fragment @sensor_2 t003",
        "t012:d2[sensor_3] fragment @sensor_3 t004",
        "t013:d2[sensor_4] fragment @sensor_4 t005",
        "t014:d2[sensor_5] fragment @sensor_5 t006",
        "t015:d2[sensor_6] fragment @sensor_6 t007",
        "t016:d2[sensor_7] fragment @sensor_7 t008",
        "t017:merge[d2] merge @appliance_0 t009 t010 t011 t012 t013 t014 t015 t016",
        "t018:d3 fragment @appliance_0 t017",
        "t019:anonymize anonymize @appliance_0 t018",
        "t020:finalize finalize @cloud t019",
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
    "tree8_groupby": [
        "t001:d1[sensor_0] fragment @sensor_0",
        "t002:d1[sensor_1] fragment @sensor_1",
        "t003:d1[sensor_2] fragment @sensor_2",
        "t004:d1[sensor_3] fragment @sensor_3",
        "t005:d1[sensor_4] fragment @sensor_4",
        "t006:d1[sensor_5] fragment @sensor_5",
        "t007:d1[sensor_6] fragment @sensor_6",
        "t008:d1[sensor_7] fragment @sensor_7",
        "t009:d2[sensor_0] fragment @sensor_0 t001",
        "t010:d2[sensor_1] fragment @sensor_1 t002",
        "t011:d2[sensor_2] fragment @sensor_2 t003",
        "t012:d2[sensor_3] fragment @sensor_3 t004",
        "t013:d2[sensor_4] fragment @sensor_4 t005",
        "t014:d2[sensor_5] fragment @sensor_5 t006",
        "t015:d2[sensor_6] fragment @sensor_6 t007",
        "t016:d2[sensor_7] fragment @sensor_7 t008",
        "t017:d3~partial[sensor_0] partial @sensor_0 t009",
        "t018:d3~partial[sensor_1] partial @sensor_1 t010",
        "t019:d3~partial[sensor_2] partial @sensor_2 t011",
        "t020:d3~partial[sensor_3] partial @sensor_3 t012",
        "t021:d3~partial[sensor_4] partial @sensor_4 t013",
        "t022:d3~partial[sensor_5] partial @sensor_5 t014",
        "t023:d3~partial[sensor_6] partial @sensor_6 t015",
        "t024:d3~partial[sensor_7] partial @sensor_7 t016",
        "t025:d3~combine[appliance_0] combine @appliance_0 t017 t018 t019 t020",
        "t026:d3~combine[appliance_1] combine @appliance_1 t021 t022 t023 t024",
        "t027:d3~combine[pc] combine @pc t025 t026",
        "t028:d3~finalize finalize_agg @appliance_0 t027",
        "t029:anonymize anonymize @appliance_0 t028",
        "t030:finalize finalize @cloud t029",
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
