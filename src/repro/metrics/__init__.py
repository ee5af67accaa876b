"""Information-loss and privacy metrics.

Section 3.2 of the paper quantifies the quality difference between the
original and the anonymized data with two metrics:

* the **Direct Distance** ``DD(R, R')`` — the number of attribute values that
  differ between the original relation R and the anonymized relation R'
  (normalised by ``m * n`` it becomes the quality ratio), and
* the **Kullback-Leibler divergence** between the value distributions of R
  and R'.

This subpackage implements both, plus the standard k-anonymity quality
measures (discernibility, average equivalence-class size) used by the
anonymization benchmarks.
"""

from repro.metrics.distance import DirectDistanceResult, direct_distance
from repro.metrics.divergence import (
    kl_divergence,
    kl_divergence_relation,
    value_distribution,
)
from repro.metrics.quality import (
    average_equivalence_class_size,
    discernibility_metric,
    suppression_ratio,
    InformationLossSummary,
    information_loss_summary,
)

__all__ = [
    "DirectDistanceResult",
    "direct_distance",
    "kl_divergence",
    "kl_divergence_relation",
    "value_distribution",
    "average_equivalence_class_size",
    "discernibility_metric",
    "suppression_ratio",
    "InformationLossSummary",
    "information_loss_summary",
]
