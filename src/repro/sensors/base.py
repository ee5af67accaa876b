"""Common base class for simulated sensor devices."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.streams.stream import SensorStream

Reading = Dict[str, Any]


@dataclass
class SensorReadingBatch:
    """A batch of readings produced by one device over a sampling run."""

    device_id: str
    device_type: str
    readings: List[Reading] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.readings)

    def to_relation(self, schema: Optional[Schema] = None, name: str = "") -> Relation:
        """Materialise the batch as a relation."""
        return Relation.from_rows(self.readings, name=name or self.device_id, schema=schema)


class SensorDevice:
    """Base class for every simulated device.

    Subclasses define :attr:`schema` and implement :meth:`sample` which
    produces the reading(s) for one point in time.  :meth:`generate` drives the
    sampling loop at a fixed rate — the paper quotes capture rates of "up to
    100 times per second"; the defaults below use device-appropriate rates.
    """

    device_type: str = "sensor"
    default_rate_hz: float = 1.0

    def __init__(self, device_id: str, rng: Optional[random.Random] = None) -> None:
        self.device_id = device_id
        self._rng = rng or random.Random(hash(device_id) & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """Schema of the readings this device produces."""
        raise NotImplementedError

    def sample(self, timestamp: float) -> List[Reading]:
        """Return zero or more readings for time ``timestamp`` (seconds)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def generate(
        self, duration_seconds: float, rate_hz: Optional[float] = None
    ) -> SensorReadingBatch:
        """Sample the device for ``duration_seconds`` at ``rate_hz``."""
        rate = rate_hz or self.default_rate_hz
        step = 1.0 / rate
        readings: List[Reading] = []
        timestamp = 0.0
        while timestamp < duration_seconds:
            for reading in self.sample(timestamp):
                reading.setdefault("device_id", self.device_id)
                reading.setdefault("t", round(timestamp, 3))
                readings.append(reading)
            timestamp += step
        return SensorReadingBatch(
            device_id=self.device_id, device_type=self.device_type, readings=readings
        )

    def stream(self, duration_seconds: float, rate_hz: Optional[float] = None) -> SensorStream:
        """Generate readings and load them into a :class:`SensorStream`."""
        batch = self.generate(duration_seconds, rate_hz)
        stream = SensorStream(name=self.device_id, schema=self.schema)
        stream.push_many(batch.readings)
        return stream

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _base_columns() -> List[ColumnDef]:
        from repro.engine.types import DataType

        return [
            ColumnDef(name="device_id", data_type=DataType.TEXT, identifying=False),
            ColumnDef(name="t", data_type=DataType.FLOAT),
        ]
