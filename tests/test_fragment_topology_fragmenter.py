"""Tests for the topology model and the vertical fragmenter."""

import pytest

from repro.fragment import CapabilityLevel, Topology, VerticalFragmenter
from repro.fragment.topology import Node
from repro.policy.presets import figure4_policy
from repro.rewrite import QueryRewriter
from repro.sql import ast, parse, render
from repro.sql.analysis import analyze_query
from repro.sql.render import render_expression


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def test_default_chain_shape():
    topology = Topology.default_chain()
    assert [node.level for node in topology.nodes] == [
        CapabilityLevel.E4_SENSOR,
        CapabilityLevel.E3_APPLIANCE,
        CapabilityLevel.E2_PC,
        CapabilityLevel.E1_CLOUD,
    ]
    assert topology.cloud.name == "cloud"
    assert not topology.cloud.inside_apartment
    assert topology.boundary_index == len(topology) - 1


def test_topology_lookup():
    topology = Topology.default_chain(appliance_count=2)
    assert len(topology.nodes_at(CapabilityLevel.E3_APPLIANCE)) == 2
    assert topology.node("pc").level is CapabilityLevel.E2_PC
    with pytest.raises(KeyError):
        topology.node("nope")


def test_first_node_at_or_above_skips_missing_levels():
    topology = Topology.cloud_only()
    node = topology.first_node_at_or_above(CapabilityLevel.E3_APPLIANCE)
    assert node.level is CapabilityLevel.E1_CLOUD


def test_topology_rejects_empty_and_duplicate_names():
    with pytest.raises(ValueError):
        Topology([])
    with pytest.raises(ValueError):
        Topology(
            [
                Node(name="a", level=CapabilityLevel.E4_SENSOR),
                Node(name="a", level=CapabilityLevel.E1_CLOUD),
            ]
        )


def test_node_capacity_check():
    node = Node(name="sensor", level=CapabilityLevel.E4_SENSOR, free_memory_mb=1.0)
    assert node.can_hold_rows(100)
    assert not node.can_hold_rows(10_000_000)
    assert node.cpu_power == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# fragmenter
# ---------------------------------------------------------------------------


@pytest.fixture
def paper_plan(paper_sql):
    rewritten = QueryRewriter(figure4_policy()).rewrite_sql(paper_sql, "ActionFilter")
    return VerticalFragmenter(Topology.default_chain()).fragment(rewritten.query)


def test_paper_plan_reproduces_the_four_staged_queries(paper_plan):
    """The plan must match the four per-level queries printed in Section 4.2."""
    sqls = [fragment.sql for fragment in paper_plan.fragments]
    assert sqls[0] == "SELECT * FROM d WHERE z < 2"
    assert sqls[1] == "SELECT x, y, z, t FROM d1 WHERE x > y"
    assert sqls[2] == "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100"
    assert "REGR_INTERCEPT(y, x) OVER (PARTITION BY zAVG ORDER BY t)" in sqls[3]
    assert sqls[3].endswith("FROM d3")


def test_paper_plan_levels_and_nodes(paper_plan):
    levels = [fragment.level for fragment in paper_plan.fragments]
    assert levels == [
        CapabilityLevel.E4_SENSOR,
        CapabilityLevel.E3_APPLIANCE,
        CapabilityLevel.E3_APPLIANCE,
        CapabilityLevel.E2_PC,
    ]
    assert paper_plan.fragments[0].assigned_node == "sensor"
    assert paper_plan.fragments[-1].assigned_node == "pc"
    assert paper_plan.deepest_pushdown is CapabilityLevel.E4_SENSOR
    assert paper_plan.result_name == paper_plan.fragments[-1].name


def test_fragments_chain_via_intermediate_names(paper_plan):
    names = [fragment.name for fragment in paper_plan.fragments]
    assert names == ["d1", "d2", "d3", "d4"]
    inputs = [fragment.input_name for fragment in paper_plan.fragments]
    assert inputs == ["d", "d1", "d2", "d3"]


def test_each_fragment_is_executable_by_its_level(paper_plan):
    from repro.fragment.capabilities import capability_for

    for fragment in paper_plan.fragments:
        capability = capability_for(fragment.level)
        assert capability.supports(analyze_query(fragment.query)), fragment.sql


def test_plan_pretty(paper_plan):
    text = paper_plan.pretty()
    assert "d1" in text and "Q_delta" in text
    assert paper_plan.fragments_at(CapabilityLevel.E3_APPLIANCE)


def test_flat_query_still_fragments():
    plan = VerticalFragmenter().fragment(
        parse("SELECT x, y FROM d WHERE z < 2 AND x > y")
    )
    assert len(plan.fragments) == 2
    assert plan.fragments[0].level is CapabilityLevel.E4_SENSOR
    assert "z < 2" in plan.fragments[0].sql
    assert "x > y" in plan.fragments[1].sql


def test_constant_only_query_yields_single_sensor_fragment():
    plan = VerticalFragmenter().fragment(parse("SELECT * FROM stream WHERE z < 2"))
    assert len(plan.fragments) == 1
    assert plan.fragments[0].level is CapabilityLevel.E4_SENSOR


def test_aggregate_query_places_grouping_on_appliance():
    plan = VerticalFragmenter().fragment(
        parse("SELECT x, AVG(z) AS m FROM d GROUP BY x HAVING COUNT(*) > 5")
    )
    levels = [fragment.level for fragment in plan.fragments]
    assert levels[-1] is CapabilityLevel.E3_APPLIANCE


def test_join_query_is_one_appliance_fragment():
    plan = VerticalFragmenter().fragment(
        parse("SELECT a.x FROM ubisense a JOIN sensfloor b ON a.t = b.t WHERE a.x > 1")
    )
    assert len(plan.fragments) == 1
    assert plan.fragments[0].level is CapabilityLevel.E3_APPLIANCE


def test_order_by_limit_needs_appliance():
    plan = VerticalFragmenter().fragment(parse("SELECT * FROM d WHERE z < 2 ORDER BY t LIMIT 5"))
    assert plan.fragments[0].level is CapabilityLevel.E4_SENSOR
    assert plan.fragments[-1].level is CapabilityLevel.E3_APPLIANCE
    assert plan.fragments[-1].query.limit == 5


def test_missing_levels_fall_back_to_more_powerful_nodes(paper_sql):
    rewritten = QueryRewriter(figure4_policy()).rewrite_sql(paper_sql, "ActionFilter")
    plan = VerticalFragmenter(Topology.cloud_only()).fragment(rewritten.query)
    # Appliance/PC fragments must run somewhere that exists in the topology.
    for fragment in plan.fragments:
        assert fragment.assigned_node in {"sensor", "cloud"}


def test_cloud_only_plan_ships_raw_data(paper_sql):
    fragmenter = VerticalFragmenter()
    plan = fragmenter.cloud_only_plan(parse(paper_sql))
    assert len(plan.fragments) == 1
    assert plan.fragments[0].sql == "SELECT * FROM d"
    assert plan.remainder_query is not None
    assert render(plan.remainder_query) == render(parse(paper_sql))


def test_three_level_nesting_produces_monotonic_levels():
    sql = (
        "SELECT SUM(v) OVER (ORDER BY t) FROM ("
        "  SELECT t, AVG(z) AS v FROM (SELECT t, z FROM d WHERE z < 2) GROUP BY t"
        ")"
    )
    plan = VerticalFragmenter().fragment(parse(sql))
    numeric_levels = [int(fragment.level) for fragment in plan.fragments]
    assert numeric_levels == sorted(numeric_levels, reverse=True)


# ---------------------------------------------------------------------------
# the sensor's filter vocabulary
# ---------------------------------------------------------------------------

#: Conjuncts that test one plain column against constants: the sensor
#: fragment ``d1`` evaluates them.
SENSOR_TERMS = [
    "z < 2",
    "2 > z",
    "z > -2",
    "z <> 1.5",
    "activity = 'walk'",
    "t BETWEEN 10 AND 15",
    "t BETWEEN -1 AND 5",
    "t NOT BETWEEN 10 AND 15.5",
    "person_id IN (1, 2, 3)",
    "z IN (-1, 0.5)",
    "activity NOT IN ('sit', 'stand')",
    "z IS NULL",
    "z IS NOT NULL",
]

#: Conjuncts the sensor cannot evaluate: they stay in the appliance
#: fragment ``d2``.
APPLIANCE_TERMS = [
    "x > y",
    "t BETWEEN x AND 15",
    "t BETWEEN 10 AND y",
    "z BETWEEN -x AND 1",
    "x IN (SELECT x FROM e)",
    "x IN (1, y)",
    "z < 1 OR x > 2",
    "valid",
    "NOT valid",
    "x + 1 > 2",
    "z < -(1 + 1)",
    "-z < 1",
    "activity LIKE 'w%'",
    "NOT (t BETWEEN 10 AND 15)",
    "UPPER(activity) = 'WALK'",
]


def _where_terms(fragment):
    return [render_expression(term) for term in ast.conjunction_terms(fragment.query.where)]


def _rendered(term):
    return render_expression(parse(f"SELECT * FROM d WHERE {term}").where)


@pytest.mark.parametrize("term", SENSOR_TERMS)
def test_column_against_constants_filters_at_the_sensor(term):
    plan = VerticalFragmenter().fragment(parse(f"SELECT x, y FROM d WHERE {term}"))
    sensor, appliance = plan.fragments
    assert sensor.level is CapabilityLevel.E4_SENSOR
    assert _where_terms(sensor) == [_rendered(term)]
    assert appliance.query.where is None


@pytest.mark.parametrize("term", APPLIANCE_TERMS)
def test_other_filters_stay_at_the_appliance(term):
    plan = VerticalFragmenter().fragment(parse(f"SELECT x, y FROM d WHERE {term}"))
    sensor, appliance = plan.fragments
    assert sensor.query.where is None
    assert appliance.level is CapabilityLevel.E3_APPLIANCE
    assert _where_terms(appliance) == [_rendered(term)]


def test_mixed_where_splits_term_by_term_keeping_order():
    plan = VerticalFragmenter().fragment(
        parse(
            "SELECT x, y, t FROM d WHERE x > y AND t BETWEEN 10 AND 15 AND valid "
            "AND z IS NOT NULL AND t BETWEEN x AND 20 AND person_id IN (1, 2) "
            "AND (z < 1 OR z > 1.5) AND z > -0.5"
        )
    )
    sensor, appliance = plan.fragments
    assert sensor.sql == (
        "SELECT * FROM d WHERE t BETWEEN 10 AND 15 AND z IS NOT NULL "
        "AND person_id IN (1, 2) AND z > -0.5"
    )
    assert appliance.sql == (
        "SELECT x, y, t FROM d1 WHERE x > y AND valid AND t BETWEEN x AND 20 "
        "AND (z < 1 OR z > 1.5)"
    )


def test_frontend_templates_filter_at_the_sensor():
    """The BETWEEN time windows of the front-end templates (and the
    rewriter's ``z < 2``) run at the sensor; ``x > y`` stays above."""
    from benchmarks.e2e.workloads import FRONTEND_TEMPLATES, occupancy_policy

    rewriter = QueryRewriter(occupancy_policy())
    sensor_sql = []
    for module, sql, width in FRONTEND_TEMPLATES:
        rewritten = rewriter.rewrite_sql(sql.format(lo=10.0, hi=10.0 + width), module)
        plan = VerticalFragmenter().fragment(rewritten.query)
        sensor_sql.append(plan.fragments[0].sql)
        assert all("BETWEEN" not in fragment.sql for fragment in plan.fragments[1:])
    assert sensor_sql[0] == "SELECT * FROM d WHERE t BETWEEN 10.0 AND 15.0"
    assert sensor_sql[1].startswith("SELECT * FROM d WHERE t > 10.0")
    assert sensor_sql[2].startswith("SELECT * FROM d WHERE t BETWEEN 10.0 AND 20.0")
