"""Simulated node and link costs for the fragment runtime.

The reproduction runs every node of the smart environment inside one Python
process, so the *relative* speeds of Table 1 (a sensor at 0.1x, an appliance
at 2x, the PC at 10x, the cloud at 100x) are invisible to wall-clock
measurements unless they are simulated.  A :class:`CostModel` charges every
fragment execution a delay proportional to its input rows and inversely
proportional to the node's relative CPU power, and every shipment a delay
proportional to its bytes.  Delays are real ``time.sleep`` calls — they
release the GIL, so delays on *independent* tasks genuinely overlap when the
scheduler runs them concurrently, while a one-worker (``execution="serial"``)
run pays them end to end.  Both strategies run the same DAG and charge the
identical set of operations (fragment scans, the anonymization step, the
cloud remainder, every shipment; merges are pointer work and charge
nothing), which makes the parallel-vs-serial speedup a pure measure of
overlap, not of differing work.

``CostModel()`` with all-zero rates is free and is the default everywhere:
ordinary processing never sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.profile import CalibrationLog, CalibrationReport

#: Fallback per-task deadline (seconds) when no cost estimate is available.
#: Generous on purpose: a timeout declares the node dead and triggers a
#: re-plan, so it must only ever fire for genuinely hung devices.
DEFAULT_TASK_TIMEOUT = 30.0


@dataclass(frozen=True)
class CostModel:
    """Per-row compute and per-kilobyte transfer delays.

    Attributes:
        seconds_per_row: Simulated seconds one input row costs on a node of
            relative CPU power 1.0 (an apartment PC is 10.0, a sensor 0.1).
        seconds_per_kb: Simulated seconds one shipped kilobyte costs on a
            network hop.
    """

    seconds_per_row: float = 0.0
    seconds_per_kb: float = 0.0
    #: Predicted-vs-observed task costs, filled by the scheduler during
    #: profiled runs.  The binding is frozen with the dataclass but the log
    #: itself is mutable (and thread-safe); it never participates in
    #: equality or hashing.
    calibration: CalibrationLog = field(
        default_factory=CalibrationLog, compare=False, repr=False
    )

    def calibration_report(self) -> CalibrationReport:
        """Per-task-kind prediction error accumulated by profiled runs."""
        return self.calibration.report()

    @property
    def is_free(self) -> bool:
        """True when the model never sleeps."""
        return self.seconds_per_row <= 0.0 and self.seconds_per_kb <= 0.0

    def compute_delay(self, rows: int, cpu_power: float) -> float:
        """Seconds of simulated compute for ``rows`` input rows."""
        if self.seconds_per_row <= 0.0 or rows <= 0:
            return 0.0
        return rows * self.seconds_per_row / max(cpu_power, 1e-9)

    def transfer_delay(self, nbytes: int) -> float:
        """Seconds of simulated link time for ``nbytes`` shipped bytes."""
        if self.seconds_per_kb <= 0.0 or nbytes <= 0:
            return 0.0
        return nbytes / 1024.0 * self.seconds_per_kb

    def charge_compute(self, rows: int, cpu_power: float) -> float:
        """Sleep for the compute delay; returns the seconds slept."""
        delay = self.compute_delay(rows, cpu_power)
        if delay > 0.0:
            time.sleep(delay)
        return delay

    def task_timeout(
        self,
        rows: int,
        cpu_power: float,
        floor: float = DEFAULT_TASK_TIMEOUT,
        slack: float = 10.0,
    ) -> float:
        """A generous per-task deadline for the fault-tolerant scheduler.

        ``slack`` times the simulated compute cost of the task's worst-case
        input (its node is also paying transfer and queueing time), but
        never below ``floor`` — timeouts exist to catch *hung* nodes, not to
        race healthy slow ones, so false positives must be essentially
        impossible.
        """
        return max(floor, slack * self.compute_delay(rows, cpu_power))
