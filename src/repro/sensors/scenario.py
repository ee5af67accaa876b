"""Scenario generators composing devices into complete smart environments.

Two scenarios mirror the paper's application settings:

* :class:`SmartMeetingRoom` — the MuSAMA Smart Appliance Lab (Figure 1) with
  lamps, screens, power sockets, the pen sensor, a thermometer, UbiSense tags
  (one per participant), the SensFloor carpet, VGA sensors and the EIB
  gateway.
* :class:`AalApartment` — the Ambient Assisted Living apartment of the
  fall-detection use case, with UbiSense tags, SensFloor, power sockets and a
  thermometer.

Both produce a :class:`ScenarioData` bundle: the integrated relation ``d``
(the "database d integrating the entire sensor data recorded in our
environment" of Section 4) plus one relation per device table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation, concat
from repro.engine.types import DataType
from repro.sensors.activity import ActivityTrace, PersonSimulator
from repro.sensors.base import SensorDevice
from repro.sensors.devices import (
    EibGateway,
    LampSensor,
    PenSensor,
    PowerSocketSensor,
    ScreenSensor,
    SensFloor,
    Thermometer,
    UbisenseTag,
    VgaSensor,
)

#: Schema of the integrated sensor relation ``d`` used by the running example.
INTEGRATED_SCHEMA = Schema(
    [
        ColumnDef(name="person_id", data_type=DataType.INTEGER, identifying=True),
        ColumnDef(name="x", data_type=DataType.FLOAT, quasi_identifier=True),
        ColumnDef(name="y", data_type=DataType.FLOAT, quasi_identifier=True),
        ColumnDef(name="z", data_type=DataType.FLOAT, sensitive=True),
        ColumnDef(name="t", data_type=DataType.FLOAT),
        ColumnDef(name="valid", data_type=DataType.BOOLEAN),
        ColumnDef(name="activity", data_type=DataType.TEXT, sensitive=True),
    ]
)


@dataclass
class ScenarioData:
    """Everything a scenario run produces."""

    name: str
    integrated: Relation
    device_tables: Dict[str, Relation] = field(default_factory=dict)
    traces: List[ActivityTrace] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        """Total row count across the integrated table and all device tables."""
        return len(self.integrated) + sum(len(t) for t in self.device_tables.values())


class _ScenarioBase:
    """Shared machinery of the two scenario generators."""

    scenario_kind = "meeting"
    room_width = 8.0
    room_depth = 6.0

    def __init__(self, person_count: int, seed: int = 42) -> None:
        if person_count < 1:
            raise ValueError("person_count must be at least 1")
        self.person_count = person_count
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------
    def _build_people(self, duration: float) -> tuple[List[UbisenseTag], List[ActivityTrace]]:
        tags: List[UbisenseTag] = []
        traces: List[ActivityTrace] = []
        for person_id in range(1, self.person_count + 1):
            person = PersonSimulator(
                person_id=person_id,
                room_width=self.room_width,
                room_depth=self.room_depth,
                scenario=self.scenario_kind,
                rng=random.Random(self.seed * 1000 + person_id),
            )
            trace = person.generate_trace(duration)
            traces.append(trace)
            tags.append(
                UbisenseTag(
                    device_id=f"ubisense_{person_id}",
                    person=person,
                    trace=trace,
                    rng=random.Random(self.seed * 2000 + person_id),
                )
            )
        return tags, traces

    def _collect(
        self,
        devices: List[SensorDevice],
        duration: float,
        rate_overrides: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Relation]:
        tables: Dict[str, Relation] = {}
        rate_overrides = rate_overrides or {}
        for device in devices:
            rate = rate_overrides.get(device.device_type)
            batch = device.generate(duration, rate_hz=rate)
            relation = batch.to_relation(schema=device.schema, name=device.device_type)
            existing = tables.get(device.device_type)
            if existing is None:
                tables[device.device_type] = relation
            else:
                tables[device.device_type] = concat([existing, relation], name=device.device_type)
        return tables

    @staticmethod
    def _integrated_from_tags(tables: Dict[str, Relation]) -> Relation:
        ubisense = tables.get("ubisense")
        if ubisense is None:
            return Relation.empty(INTEGRATED_SCHEMA, name="d")
        rows = []
        for row in ubisense:
            rows.append(
                {
                    "person_id": row.get("person_id"),
                    "x": row.get("x"),
                    "y": row.get("y"),
                    "z": row.get("z"),
                    "t": row.get("t"),
                    "valid": row.get("valid"),
                    "activity": row.get("activity"),
                }
            )
        return Relation(schema=INTEGRATED_SCHEMA, rows=rows, name="d")


class SmartMeetingRoom(_ScenarioBase):
    """The MuSAMA Smart Appliance Lab scenario."""

    scenario_kind = "meeting"

    def __init__(
        self,
        person_count: int = 6,
        lamp_count: int = 6,
        screen_count: int = 2,
        socket_count: int = 8,
        seed: int = 42,
    ) -> None:
        super().__init__(person_count=person_count, seed=seed)
        self.lamp_count = lamp_count
        self.screen_count = screen_count
        self.socket_count = socket_count

    def generate(self, duration_seconds: float = 120.0, position_rate_hz: float = 10.0) -> ScenarioData:
        """Run a meeting of ``duration_seconds`` and return all recorded data."""
        tags, traces = self._build_people(duration_seconds)
        devices: List[SensorDevice] = list(tags)
        devices.extend(
            LampSensor(f"lamp_{i}", rng=random.Random(self.seed + 10 + i))
            for i in range(self.lamp_count)
        )
        devices.extend(
            ScreenSensor(f"screen_{i}", rng=random.Random(self.seed + 30 + i))
            for i in range(self.screen_count)
        )
        devices.extend(
            PowerSocketSensor(
                f"socket_{i}",
                base_load_ma=self._rng.uniform(50, 400),
                rng=random.Random(self.seed + 50 + i),
            )
            for i in range(self.socket_count)
        )
        devices.append(PenSensor("pensensor_0", rng=random.Random(self.seed + 70)))
        devices.append(Thermometer("thermometer_0", rng=random.Random(self.seed + 80)))
        devices.append(VgaSensor("vgasensor_0", rng=random.Random(self.seed + 90)))
        devices.append(EibGateway("eibgateway_0", rng=random.Random(self.seed + 100)))
        devices.append(
            SensFloor(
                "sensfloor_0",
                trajectories=[tag.trajectory for tag in tags],
                rng=random.Random(self.seed + 110),
            )
        )

        tables = self._collect(
            devices, duration_seconds, rate_overrides={"ubisense": position_rate_hz}
        )
        integrated = self._integrated_from_tags(tables)
        return ScenarioData(
            name="smart_meeting_room",
            integrated=integrated,
            device_tables=tables,
            traces=traces,
        )


class AalApartment(_ScenarioBase):
    """The Ambient Assisted Living apartment (fall detection) scenario."""

    scenario_kind = "apartment"
    room_width = 10.0
    room_depth = 8.0

    def __init__(
        self,
        person_count: int = 1,
        socket_count: int = 12,
        seed: int = 7,
    ) -> None:
        super().__init__(person_count=person_count, seed=seed)
        self.socket_count = socket_count

    def generate(self, duration_seconds: float = 300.0, position_rate_hz: float = 10.0) -> ScenarioData:
        """Simulate apartment life for ``duration_seconds``."""
        tags, traces = self._build_people(duration_seconds)
        devices: List[SensorDevice] = list(tags)
        devices.extend(
            PowerSocketSensor(
                f"socket_{i}",
                base_load_ma=self._rng.uniform(20, 600),
                rng=random.Random(self.seed + 50 + i),
            )
            for i in range(self.socket_count)
        )
        devices.append(Thermometer("thermometer_0", rng=random.Random(self.seed + 80)))
        devices.append(
            SensFloor(
                "sensfloor_0",
                trajectories=[tag.trajectory for tag in tags],
                area=(1.0, 1.0, 9.0, 7.0),
                rng=random.Random(self.seed + 110),
            )
        )

        tables = self._collect(
            devices, duration_seconds, rate_overrides={"ubisense": position_rate_hz}
        )
        integrated = self._integrated_from_tags(tables)
        return ScenarioData(
            name="aal_apartment",
            integrated=integrated,
            device_tables=tables,
            traces=traces,
        )


def quantize_positions(relation: Relation, cell_size: float = 0.5) -> Relation:
    """Snap x/y coordinates to a grid of ``cell_size`` metres.

    The policy of Figure 4 groups the z-aggregation by x and y; on raw
    continuous coordinates every group would contain a single reading and the
    ``SUM(z) > 100`` guard would eliminate everything.  Quantising positions to
    zone coordinates (as a localisation system configured for zone-level
    output would deliver them) produces the group sizes the paper's use case
    assumes.
    """
    def snap(row):
        new_row = dict(row)
        for key in ("x", "y"):
            value = new_row.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                new_row[key] = round(round(value / cell_size) * cell_size, 3)
        return new_row

    return relation.map_rows(snap)


def fall_events(data: ScenarioData) -> List[dict]:
    """Extract ground-truth fall events from a scenario (for examples/tests)."""
    events = []
    for trace in data.traces:
        for segment in trace.segments:
            if segment.activity.value == "fall":
                events.append(
                    {
                        "person_id": trace.person_id,
                        "start": segment.start,
                        "end": segment.end,
                    }
                )
    return events
