"""Tests for the smart-environment simulators."""

import random

import pytest

from repro.sensors import (
    AalApartment,
    Activity,
    EibGateway,
    LampSensor,
    PenSensor,
    PersonSimulator,
    PowerSocketSensor,
    ScreenSensor,
    SensFloor,
    SmartMeetingRoom,
    Thermometer,
    UbisenseTag,
    VgaSensor,
)
from repro.sensors.scenario import INTEGRATED_SCHEMA, fall_events, quantize_positions


def test_activity_typical_heights_are_ordered():
    assert Activity.FALL.typical_height < Activity.SIT.typical_height
    assert Activity.SIT.typical_height < Activity.STAND.typical_height


def test_person_trace_covers_duration_and_is_deterministic():
    person = PersonSimulator(1, rng=random.Random(1))
    trace = person.generate_trace(120.0)
    assert trace.duration == pytest.approx(120.0)
    assert trace.activity_at(0.0) is Activity.WALK
    assert trace.activity_at(500.0) is None
    # Determinism: the same seed yields the same segmentation.
    again = PersonSimulator(1, rng=random.Random(1)).generate_trace(120.0)
    assert [s.activity for s in trace.segments] == [s.activity for s in again.segments]


def test_person_positions_stay_inside_room():
    person = PersonSimulator(2, room_width=8.0, room_depth=6.0, rng=random.Random(2))
    trace = person.generate_trace(60.0)
    rows = person.positions(trace, rate_hz=10)
    assert len(rows) == 600
    assert all(0.0 <= row["x"] <= 8.0 for row in rows)
    assert all(0.0 <= row["y"] <= 6.0 for row in rows)
    assert all(row["z"] > 0 for row in rows)


def test_apartment_scenario_includes_falls_eventually():
    person = PersonSimulator(3, scenario="apartment", rng=random.Random(3))
    trace = person.generate_trace(2000.0, mean_segment=20.0)
    activities = {segment.activity for segment in trace.segments}
    assert Activity.FALL in activities


def test_invalid_scenario_rejected():
    with pytest.raises(ValueError):
        PersonSimulator(1, scenario="spaceship")


@pytest.mark.parametrize(
    "device_class,kwargs,expected_columns",
    [
        (LampSensor, {}, {"level", "powered"}),
        (ScreenSensor, {}, {"lowered"}),
        (PowerSocketSensor, {}, {"milliamperes", "active"}),
        (Thermometer, {}, {"celsius"}),
        (VgaSensor, {}, {"projector", "port", "connected"}),
        (EibGateway, {}, {"blind", "position"}),
    ],
)
def test_simple_devices_produce_schema_conform_readings(device_class, kwargs, expected_columns):
    device = device_class("dev_0", **kwargs)
    batch = device.generate(30.0, rate_hz=1.0)
    assert len(batch) > 0
    for reading in batch.readings:
        assert expected_columns <= set(reading)
        assert "t" in reading and "device_id" in reading
    relation = batch.to_relation(schema=device.schema)
    assert expected_columns <= set(relation.column_names)


def test_pen_sensor_reports_every_pen():
    batch = PenSensor("pen_0").generate(10.0, rate_hz=1.0)
    pens = {reading["pen"] for reading in batch.readings}
    assert pens == set(PenSensor.PEN_COLOURS)


def test_thermometer_values_are_plausible():
    batch = Thermometer("temp", base_temperature=21.0).generate(100.0, rate_hz=0.5)
    values = [reading["celsius"] for reading in batch.readings]
    assert all(18.0 < value < 24.0 for value in values)


def test_ubisense_tag_follows_trajectory_and_flags_invalid():
    person = PersonSimulator(1, rng=random.Random(5))
    trace = person.generate_trace(30.0)
    tag = UbisenseTag("tag_1", person=person, trace=trace, rng=random.Random(5))
    batch = tag.generate(30.0)
    assert len(batch) == 300
    invalid = [r for r in batch.readings if not r["valid"]]
    assert all(r["x"] is None for r in invalid)
    valid = [r for r in batch.readings if r["valid"]]
    assert all(r["x"] is not None for r in valid)


def test_sensfloor_only_reports_inside_area():
    person = PersonSimulator(1, rng=random.Random(6))
    trace = person.generate_trace(30.0)
    tag = UbisenseTag("tag_1", person=person, trace=trace)
    floor = SensFloor("floor", trajectories=[tag.trajectory], area=(2.0, 1.5, 6.0, 4.5))
    batch = floor.generate(30.0)
    for reading in batch.readings:
        assert reading["cell_x"] >= 0
        assert reading["cell_y"] >= 0
        assert reading["pressure"] > 0


def test_meeting_room_scenario_bundle(meeting_data):
    assert meeting_data.name == "smart_meeting_room"
    assert len(meeting_data.integrated) > 0
    assert set(meeting_data.integrated.column_names) == set(INTEGRATED_SCHEMA.names)
    expected_tables = {
        "ubisense",
        "lamp",
        "screen",
        "powersocket",
        "pensensor",
        "thermometer",
        "vgasensor",
        "eibgateway",
        "sensfloor",
    }
    assert expected_tables <= set(meeting_data.device_tables)
    assert meeting_data.total_rows > len(meeting_data.integrated)


def test_scenario_is_reproducible():
    first = SmartMeetingRoom(person_count=2, seed=9).generate(duration_seconds=10.0)
    second = SmartMeetingRoom(person_count=2, seed=9).generate(duration_seconds=10.0)
    assert first.integrated.to_dicts() == second.integrated.to_dicts()


def test_aal_apartment_and_fall_events():
    data = AalApartment(person_count=1, seed=5).generate(duration_seconds=120.0)
    assert len(data.integrated) > 0
    events = fall_events(data)
    for event in events:
        assert event["end"] > event["start"]


def test_quantize_positions_snaps_to_grid(meeting_data):
    snapped = quantize_positions(meeting_data.integrated, cell_size=0.5)
    for row in snapped.rows[:50]:
        if row["x"] is not None:
            assert (row["x"] * 2) == pytest.approx(round(row["x"] * 2))


def test_person_count_validation():
    with pytest.raises(ValueError):
        SmartMeetingRoom(person_count=0)
