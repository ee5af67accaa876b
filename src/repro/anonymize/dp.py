"""Differential privacy primitives (Laplace mechanism).

The paper names differential privacy [Dwo11] as one of the anonymization
concepts the postprocessor can choose from.  Smart-environment queries that
survive the rewriter are typically aggregates (the policy of Figure 4 forces
``AVG`` releases), so the natural mechanism is Laplace noise calibrated to the
aggregate's sensitivity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine.table import Relation


@dataclass
class LaplaceMechanism:
    """Adds Laplace noise scaled to ``sensitivity / epsilon``."""

    epsilon: float = 1.0
    sensitivity: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        self._rng = random.Random(self.seed)

    @property
    def scale(self) -> float:
        """The Laplace scale parameter b = sensitivity / epsilon."""
        return self.sensitivity / self.epsilon

    def noise(self) -> float:
        """Draw one Laplace(0, b) sample."""
        # Inverse CDF sampling: u uniform in (-0.5, 0.5).
        u = self._rng.random() - 0.5
        return -self.scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))

    def randomize(self, value: float) -> float:
        """Return ``value`` plus calibrated noise."""
        return float(value) + self.noise()


def private_aggregate(
    values: Sequence[float],
    kind: str = "avg",
    epsilon: float = 1.0,
    value_range: Optional[tuple] = None,
    seed: Optional[int] = None,
) -> float:
    """Differentially private COUNT / SUM / AVG over ``values``.

    ``value_range`` bounds each contribution (required for SUM/AVG
    sensitivity); it defaults to the empirical range of the data, which is the
    usual practical approximation when no domain bounds are known.
    """
    kind = kind.lower()
    present = [float(v) for v in values if v is not None]
    count = len(present)

    if kind == "count":
        mechanism = LaplaceMechanism(epsilon=epsilon, sensitivity=1.0, seed=seed)
        return max(0.0, mechanism.randomize(count))

    if not present:
        return 0.0
    low, high = value_range if value_range is not None else (min(present), max(present))
    spread = max(abs(low), abs(high), 1e-9)

    if kind == "sum":
        mechanism = LaplaceMechanism(epsilon=epsilon, sensitivity=spread, seed=seed)
        return mechanism.randomize(sum(present))
    if kind == "avg":
        # Split the budget between the noisy sum and the noisy count.
        sum_mechanism = LaplaceMechanism(epsilon=epsilon / 2.0, sensitivity=spread, seed=seed)
        count_mechanism = LaplaceMechanism(
            epsilon=epsilon / 2.0, sensitivity=1.0, seed=None if seed is None else seed + 1
        )
        noisy_sum = sum_mechanism.randomize(sum(present))
        noisy_count = max(1.0, count_mechanism.randomize(count))
        return noisy_sum / noisy_count
    raise ValueError(f"Unsupported private aggregate: {kind}")


def perturb_numeric_columns(
    relation: Relation,
    columns: Sequence[str],
    epsilon: float = 1.0,
    seed: Optional[int] = None,
) -> Relation:
    """Perturb every value of the given numeric columns with Laplace noise.

    This is the record-level variant used when the postprocessor must release
    tuples (not aggregates) under a differential-privacy-style guarantee; the
    per-value sensitivity is approximated by the column's empirical range.
    """
    rng_seed = seed
    rows = relation.to_dicts()
    for offset, name in enumerate(columns):
        if name not in relation.schema:
            continue
        values = [
            row.get(name)
            for row in rows
            if isinstance(row.get(name), (int, float)) and not isinstance(row.get(name), bool)
        ]
        if not values:
            continue
        spread = max(values) - min(values) or 1.0
        mechanism = LaplaceMechanism(
            epsilon=epsilon,
            sensitivity=spread * 0.05,
            seed=None if rng_seed is None else rng_seed + offset,
        )
        for row in rows:
            value = row.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[name] = round(mechanism.randomize(float(value)), 4)
    return Relation(schema=relation.schema, rows=rows, name=relation.name or "dp")
