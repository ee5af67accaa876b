"""The postprocessor façade.

Section 3.2: "the result is modified with privacy-preserving algorithms like
k-anonymity or data slicing, if and only if the processing unit has enough
power. [...] By prior analysis and rewriting of the queries it can thereby be
determined which attributes can be used for anonymization, and whether the
anonymization should be done column-wise (e.g. Slicing) or tuple-wise (e.g.
k-anonymity)."

:class:`Anonymizer` bundles that decision: it detects quasi-identifiers,
chooses (or is told) an algorithm, applies it when the executing node has
enough power and reports the resulting information loss (on first read).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.anonymize.dp import perturb_numeric_columns
from repro.anonymize.kanonymity import KAnonymizer
from repro.anonymize.qid import QuasiIdentifierReport, detect_quasi_identifiers
from repro.anonymize.slicing import Slicer, default_column_groups
from repro.engine.table import Relation
from repro.engine.wire import PackedRelation
from repro.metrics.quality import InformationLossSummary, information_loss_summary


class _DecodedOnRead:
    """A relation field that may hold the relation's packed bytes (a
    :class:`~repro.engine.wire.PackedRelation`): its first read decodes
    them, so a release kept as bytes costs no decode unless it is read."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, outcome: object, owner: Optional[type] = None) -> Relation:
        if outcome is None:
            # No class-level default: the dataclass field stays required.
            raise AttributeError(self._slot)
        value = outcome.__dict__[self._slot]
        if isinstance(value, PackedRelation):
            value = outcome.__dict__[self._slot] = value.unpack()
        return value

    def __set__(self, outcome: object, value: object) -> None:
        outcome.__dict__[self._slot] = value


@dataclass
class AnonymizationOutcome:
    """Everything a postprocessing run produces.

    A release a node kept (:func:`repro.runtime.memo.kept_output`) gives
    :attr:`relation` and :attr:`original` as their packed bytes; each is
    decoded when it is first read, into a relation of this outcome's own.
    """

    relation: Relation = _DecodedOnRead()
    algorithm: str
    applied: bool
    quasi_identifier_report: Optional[QuasiIdentifierReport] = None
    notes: List[str] = field(default_factory=list)
    #: The relation before anonymization, when it was applied;
    #: :attr:`information_loss` compares it with :attr:`relation`.
    original: Optional[Relation] = field(default=None, repr=False, compare=False)
    _loss: Optional[InformationLossSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def information_loss(self) -> Optional[InformationLossSummary]:
        """Information loss of the anonymized relation against the
        original, computed on first read: the pipeline itself never reads
        it.  None when anonymization was not applied."""
        if self._loss is None and self.original is not None:
            if isinstance(self.original, PackedRelation):
                self.original = self.original.unpack()
            self._loss = information_loss_summary(self.original, self.relation)
        return self._loss

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        lines = [f"anonymization: {self.algorithm} (applied={self.applied})"]
        if self.quasi_identifier_report is not None:
            lines.append(
                "  quasi-identifiers: "
                + ", ".join(self.quasi_identifier_report.quasi_identifiers or ["none"])
            )
        if self.information_loss is not None:
            loss = self.information_loss
            lines.append(
                f"  DD={loss.direct_distance} (ratio {loss.direct_distance_ratio:.3f}), "
                f"KL={loss.kl_divergence_mean:.3f}, "
                f"suppressed {loss.suppression_ratio:.1%} of rows"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


class Anonymizer:
    """Chooses and applies an anonymization algorithm to a query result."""

    #: Algorithms the postprocessor knows about.
    ALGORITHMS = ("none", "k_anonymity", "slicing", "differential_privacy")

    def __init__(
        self,
        algorithm: str = "k_anonymity",
        k: int = 5,
        epsilon: float = 1.0,
        seed: Optional[int] = None,
        minimum_cpu_power: float = 1.0,
    ) -> None:
        if algorithm not in self.ALGORITHMS:
            raise ValueError(f"Unknown anonymization algorithm: {algorithm}")
        self.algorithm = algorithm
        self.k = k
        self.epsilon = epsilon
        self.seed = seed
        #: Below this relative CPU power the node skips anonymization and
        #: defers it to a more powerful node (the paper's "if and only if the
        #: processing unit has enough power").
        self.minimum_cpu_power = minimum_cpu_power

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def choose_algorithm(self, relation: Relation, aggregated: bool) -> str:
        """Pick column-wise vs tuple-wise anonymization for a result shape.

        Aggregated results (the common case after rewriting) keep their tuple
        structure but have few rows — slicing's permutation would destroy the
        grouping keys, so tuple-wise k-anonymity (or DP noise) fits better.
        Wide, row-heavy raw results benefit from column-wise slicing.
        """
        if aggregated:
            return "k_anonymity" if len(relation) >= self.k else "differential_privacy"
        if len(relation.schema) >= 4 and len(relation) >= 2 * self.k:
            return "slicing"
        return "k_anonymity"

    def anonymize(
        self,
        relation: Relation,
        node_cpu_power: float = 10.0,
        quasi_identifiers: Optional[Sequence[str]] = None,
        sensitive: Optional[Sequence[str]] = None,
        algorithm: Optional[str] = None,
    ) -> AnonymizationOutcome:
        """Anonymize ``relation`` (when the node has enough power).

        Args:
            relation: The intermediate query result to protect.
            node_cpu_power: Relative power of the executing node; nodes below
                :attr:`minimum_cpu_power` skip the work ("the raw data will be
                sent to a more powerful node and anonymized later").
            quasi_identifiers: Explicit quasi-identifier columns; detected
                automatically when omitted.
            sensitive: Explicit sensitive columns; taken from the QI report
                when omitted.
            algorithm: Override the configured algorithm for this call.
        """
        chosen = algorithm or self.algorithm
        if node_cpu_power < self.minimum_cpu_power:
            return AnonymizationOutcome(
                relation=relation,
                algorithm=chosen,
                applied=False,
                notes=[
                    "node lacks the power to anonymize; deferring to a more powerful node"
                ],
            )
        if chosen == "none" or len(relation) == 0:
            return AnonymizationOutcome(relation=relation, algorithm="none", applied=False)

        report = detect_quasi_identifiers(relation)
        qi = list(quasi_identifiers) if quasi_identifiers is not None else report.quasi_identifiers
        qi = [name for name in qi if name in relation.schema]
        sensitive_columns = (
            list(sensitive) if sensitive is not None else report.sensitive
        )

        if chosen == "k_anonymity":
            outcome_relation, notes = self._apply_k_anonymity(relation, qi)
        elif chosen == "slicing":
            outcome_relation, notes = self._apply_slicing(relation, qi, sensitive_columns)
        elif chosen == "differential_privacy":
            outcome_relation, notes = self._apply_differential_privacy(
                relation, qi, sensitive_columns
            )
        else:  # pragma: no cover - guarded in __init__
            outcome_relation, notes = relation, ["unknown algorithm"]

        return AnonymizationOutcome(
            relation=outcome_relation,
            algorithm=chosen,
            applied=True,
            quasi_identifier_report=report,
            notes=notes,
            original=relation,
        )

    # ------------------------------------------------------------------
    # algorithm wrappers
    # ------------------------------------------------------------------
    def _apply_k_anonymity(self, relation: Relation, qi: List[str]):
        if not qi:
            return relation, ["no quasi-identifiers found; nothing to generalize"]
        result = KAnonymizer(k=self.k).anonymize(relation, qi)
        notes = [
            f"k={self.k}, partitions={result.partitions}, suppressed={result.suppressed_rows}"
        ]
        if not result.satisfied:
            notes.append("warning: residual groups below k remain")
        return result.relation, notes

    def _apply_slicing(self, relation: Relation, qi: List[str], sensitive: List[str]):
        groups = default_column_groups(relation, qi, sensitive)
        if not groups:
            return relation, ["no column groups to slice"]
        result = Slicer(bucket_size=max(2, self.k), seed=self.seed).anonymize(relation, groups)
        return result.relation, [
            f"bucket_size={result.bucket_size}, buckets={result.buckets}, "
            f"groups={result.column_groups}"
        ]

    def _apply_differential_privacy(
        self, relation: Relation, qi: List[str], sensitive: List[str]
    ):
        columns = [
            name
            for name in (list(sensitive) + list(qi))
            if name in relation.schema
        ]
        numeric = [
            name
            for name in columns
            if relation.schema.column(name).data_type.is_numeric
        ]
        if not numeric:
            numeric = [
                column.name for column in relation.schema if column.data_type.is_numeric
            ]
        if not numeric:
            return relation, ["no numeric columns to perturb"]
        perturbed = perturb_numeric_columns(
            relation, numeric, epsilon=self.epsilon, seed=self.seed
        )
        return perturbed, [f"epsilon={self.epsilon}, perturbed columns={numeric}"]
