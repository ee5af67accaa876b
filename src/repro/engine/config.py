"""The one explicit object that selects how the engine runs a query.

An :class:`EngineConfig` travels with every engine call — ``Database.query``
and the partial-aggregation protocol take it, the DAG runtime carries it on
``ExecutionContext``, and the process backend frames it into every job
header — so a setting is in force wherever a query runs, whichever thread
or process runs it.  Every field changes *how* a query runs, never *what* it
returns; the differential suites hold results byte-identical across them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Execution paths, in wire order (the process backend frames the index).
MODES = ("compiled", "interpreted")


@dataclass(frozen=True)
class EngineConfig:
    """Engine behaviour for one query execution.

    * ``mode`` — ``"compiled"`` (closures, hash joins, single-pass GROUP BY)
      or ``"interpreted"``, the per-row reference oracle.
    * ``vectorized`` — let the compiled path take the columnar fast paths
      of :mod:`repro.engine.vectorized`; ``False`` keeps the row-at-a-time
      compiled path (the pre-columnar ablation).  The interpreted oracle
      never vectorizes.
    * ``optimizer`` — statistics-driven plan choices: selectivity-ordered
      conjuncts, vectorized OR/ORDER BY/DISTINCT scans, join build side and
      nested-loop preference, adaptive partial-aggregation placement, and
      in compiled mode the zone map rule (:attr:`zone_maps`).
      ``False`` restores the purely syntactic choices (the ablation arm).
    """

    mode: str = "compiled"
    vectorized: bool = True
    optimizer: bool = True

    @property
    def zone_maps(self) -> bool:
        """Whether chunk min/max may skip work: a scan drops the conjuncts
        they prove and reads no row when one refutes, and the DAG gives a
        refuted partition no task (:func:`~repro.engine.vectorized.zone_verdicts`).
        Never in interpreted mode, so the oracle evaluates every conjunct."""
        return self.optimizer and self.mode == "compiled"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"Unknown engine mode: {self.mode!r} (expected one of {MODES})")
        if not isinstance(self.vectorized, bool) or not isinstance(self.optimizer, bool):
            raise ValueError("EngineConfig.vectorized and .optimizer must be bools")


#: The default configuration: compiled, vectorized, optimized.
DEFAULT_CONFIG = EngineConfig()
