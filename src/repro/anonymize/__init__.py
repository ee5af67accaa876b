"""Result anonymization (the postprocessor of Figure 2).

The postprocessor modifies intermediate query results "with privacy-preserving
algorithms like k-anonymity or data slicing, if and only if the processing
unit has enough power".  This subpackage provides:

* :mod:`repro.anonymize.qid` — quasi-identifier detection (the paper's
  "detecting quasi-identifiers" step),
* :mod:`repro.anonymize.kanonymity` — tuple-wise anonymization via
  k-anonymity (Mondrian-style multidimensional generalization + suppression),
* :mod:`repro.anonymize.slicing` — column-wise anonymization via slicing
  (attribute partitioning + per-bucket permutation),
* :mod:`repro.anonymize.dp` — differential privacy (Laplace mechanism) for
  aggregate releases,
* :mod:`repro.anonymize.anonymizer` — the postprocessor façade that picks an
  algorithm and reports information loss.
"""

from repro.anonymize.qid import QuasiIdentifierReport, detect_quasi_identifiers
from repro.anonymize.kanonymity import KAnonymizer, KAnonymityResult, is_k_anonymous
from repro.anonymize.slicing import Slicer, SlicingResult
from repro.anonymize.dp import LaplaceMechanism, private_aggregate
from repro.anonymize.anonymizer import AnonymizationOutcome, Anonymizer

__all__ = [
    "QuasiIdentifierReport",
    "detect_quasi_identifiers",
    "KAnonymizer",
    "KAnonymityResult",
    "is_k_anonymous",
    "Slicer",
    "SlicingResult",
    "LaplaceMechanism",
    "private_aggregate",
    "AnonymizationOutcome",
    "Anonymizer",
]
