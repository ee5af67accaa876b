"""Tests for the capability classes of Table 1."""

from repro.fragment.capabilities import (
    CAPABILITY_LEVELS,
    CapabilityLevel,
    capability_for,
    capability_table,
    lowest_capable_level,
)
from repro.sql.analysis import analyze_query
from repro.sql.parser import parse


def test_levels_are_ordered_cloud_to_sensor():
    assert CapabilityLevel.E1_CLOUD < CapabilityLevel.E4_SENSOR
    assert CapabilityLevel.E1_CLOUD.is_at_least(CapabilityLevel.E4_SENSOR)
    assert not CapabilityLevel.E4_SENSOR.is_at_least(CapabilityLevel.E1_CLOUD)
    assert CapabilityLevel.E2_PC.short_name == "E2"


def test_capability_sets_are_nested():
    sensor = capability_for(CapabilityLevel.E4_SENSOR).supported_features
    appliance = capability_for(CapabilityLevel.E3_APPLIANCE).supported_features
    pc = capability_for(CapabilityLevel.E2_PC).supported_features
    cloud = capability_for(CapabilityLevel.E1_CLOUD).supported_features
    assert sensor < appliance < pc < cloud


def test_sensor_supports_only_constant_selection():
    sensor = capability_for(CapabilityLevel.E4_SENSOR)
    assert sensor.supports(analyze_query(parse("SELECT * FROM stream WHERE z < 2")))
    assert not sensor.supports(analyze_query(parse("SELECT x FROM d")))  # projection
    assert not sensor.supports(analyze_query(parse("SELECT * FROM d WHERE x > y")))


def test_appliance_supports_joins_and_grouping_but_not_windows():
    appliance = capability_for(CapabilityLevel.E3_APPLIANCE)
    grouped = analyze_query(
        parse("SELECT x, AVG(z) FROM d GROUP BY x HAVING SUM(z) > 100")
    )
    assert appliance.supports(grouped)
    joined = analyze_query(parse("SELECT a.x FROM a JOIN b ON a.t = b.t"))
    assert appliance.supports(joined)
    windowed = analyze_query(parse("SELECT SUM(z) OVER (ORDER BY t) FROM d"))
    assert not appliance.supports(windowed)


def test_pc_supports_windows_and_subqueries(paper_sql):
    pc = capability_for(CapabilityLevel.E2_PC)
    assert pc.supports(analyze_query(parse(paper_sql)))
    assert pc.supports(analyze_query(parse("SELECT x FROM a UNION SELECT x FROM b")))


def test_only_cloud_supports_ml():
    assert capability_for(CapabilityLevel.E1_CLOUD).supports_ml
    assert capability_for(CapabilityLevel.E1_CLOUD).supports({"ml_algorithm", "recursion"})
    assert not capability_for(CapabilityLevel.E2_PC).supports({"ml_algorithm"})
    assert not capability_for(CapabilityLevel.E2_PC).supports_ml


def test_lowest_capable_level_pushes_down():
    assert (
        lowest_capable_level(analyze_query(parse("SELECT * FROM stream WHERE z < 2")))
        is CapabilityLevel.E4_SENSOR
    )
    assert (
        lowest_capable_level(analyze_query(parse("SELECT x, y FROM d WHERE x > y")))
        is CapabilityLevel.E3_APPLIANCE
    )
    assert (
        lowest_capable_level(
            analyze_query(parse("SELECT SUM(z) OVER (ORDER BY t) FROM d"))
        )
        is CapabilityLevel.E2_PC
    )
    assert lowest_capable_level({"ml_algorithm"}) is CapabilityLevel.E1_CLOUD


def test_lowest_capable_level_respects_available_levels():
    level = lowest_capable_level(
        analyze_query(parse("SELECT * FROM stream WHERE z < 2")),
        available=[CapabilityLevel.E1_CLOUD, CapabilityLevel.E2_PC],
    )
    assert level is CapabilityLevel.E2_PC


def test_relative_power_increases_with_level():
    powers = [capability_for(level).relative_power for level in sorted(CAPABILITY_LEVELS, key=int)]
    assert powers == sorted(powers, reverse=True)


def test_capability_table_has_four_rows_matching_paper():
    rows = capability_table()
    assert [row["level"] for row in rows] == ["E1", "E2", "E3", "E4"]
    assert rows[0]["system"] == "cloud"
    assert "sensor" in rows[3]["system"]
    assert "1 for 1 person" in rows[1]["nodes"]
