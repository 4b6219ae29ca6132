"""Verdict and report types shared by every comparison operation.

A comparison of a pair always reads the pair as (first, second); in reports
rendered for users the two sides are labelled X and Y.  ``FIRST_PRECEDES``
means the first variable is the stochastically smaller one, so the *second*
is the preferred (larger) side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, NamedTuple

from .errors import ValidationError


class Outcome(Enum):
    FIRST_PRECEDES = "first_precedes"
    SECOND_PRECEDES = "second_precedes"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    INCONCLUSIVE = "inconclusive"


#: Preferred (larger) side of an (X, Y) pair for each outcome.
_PREFERRED = {
    Outcome.FIRST_PRECEDES: "Y",
    Outcome.SECOND_PRECEDES: "X",
    Outcome.EQUAL: "tie",
    Outcome.INCOMPARABLE: "none",
    Outcome.INCONCLUSIVE: "none",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a comparison plus the numeric quantities that were compared.

    ``INCOMPARABLE`` is only ever issued by the marginal-based partial
    orders; ``INCONCLUSIVE`` is reserved for defining quantities that are
    non-finite or below resolution.
    """

    outcome: Outcome
    evidence: Mapping[str, float] = field(default_factory=dict)

    def preferred(self) -> str:
        """Label of the preferred (larger) side: 'X', 'Y', 'tie' or 'none'."""
        return _PREFERRED[self.outcome]

    def swapped(self) -> "Verdict":
        """The same verdict read with the two coordinates exchanged.

        Mirrors the outcome and every orientation-bound evidence entry.
        """
        flip = {
            Outcome.FIRST_PRECEDES: Outcome.SECOND_PRECEDES,
            Outcome.SECOND_PRECEDES: Outcome.FIRST_PRECEDES,
        }
        evidence = dict(self.evidence)
        for a, b in (("p_x_leq_y", "p_y_leq_x"), ("mean_x", "mean_y"), ("below_term", "above_term")):
            if a in evidence and b in evidence:
                evidence[a], evidence[b] = evidence[b], evidence[a]
        if "max_advantage" in evidence and "min_advantage" in evidence:
            high, low = -evidence["min_advantage"], -evidence["max_advantage"]
            evidence["max_advantage"], evidence["min_advantage"] = high, low
        return Verdict(flip.get(self.outcome, self.outcome), evidence)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "preferred": self.preferred(),
            "evidence": {k: float(v) for k, v in self.evidence.items()},
        }


@dataclass(frozen=True)
class DecompositionReport:
    """Two-term split of a distance between X and Y.

    ``below_term`` is the mass-weighted contribution accrued on {X < Y},
    ``above_term`` the one on {X > Y}; atoms with x == y contribute to
    neither.  ``normalized_below`` is below/total, defined only when the
    total is positive.
    """

    metric: str  # "L1" or "K*"
    below_term: float
    above_term: float
    total: float
    normalized_below: float | None

    def __post_init__(self):
        if self.metric not in ("L1", "K*"):
            raise ValidationError(f"unknown metric {self.metric!r}")
        if math.isfinite(self.total):
            if abs((self.below_term + self.above_term) - self.total) > 1e-9 * max(1.0, abs(self.total)):
                raise ValidationError("decomposition terms do not add up to the total")
            # |d| / (1 + |d|) < 1 exactly, but rounds to 1.0 once |d| exceeds 2**53, and
            # the masses, so the K* total too, may exceed 1 by the 1e-12 a joint allows
            if self.metric == "K*" and not 0.0 <= self.total <= 1.0 + 2e-12:
                raise ValidationError(f"K* total {self.total!r} outside [0, 1 + 2e-12]")
        defined = math.isfinite(self.total) and self.total > 0.0
        if (self.normalized_below is None) == defined:
            raise ValidationError("normalized_below must be set iff total is finite and > 0")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "below": self.below_term,
            "above": self.above_term,
            "total": self.total,
            "normalized_below": self.normalized_below,
        }


@dataclass(frozen=True)
class PartialOrderReport:
    """Result of one of the marginal-based partial orders.

    ``witness`` holds two abscissae where the defining inequality points in
    opposite directions; it is present exactly when the verdict is
    ``INCOMPARABLE``.
    """

    order: str  # "st", "hr", "lr" or "mrl"
    verdict: Verdict
    witness: tuple[float, float] | None = None

    def __post_init__(self):
        incomparable = self.verdict.outcome is Outcome.INCOMPARABLE
        if incomparable and self.witness is None:
            raise ValidationError("incomparable report requires a witness")
        if not incomparable and self.witness is not None:
            raise ValidationError("witness only allowed on incomparable reports")


class EventProbs(NamedTuple):
    """Probabilities of the three order events of a pair."""

    p_less: float     # P(X < Y)
    p_equal: float    # P(X = Y)
    p_greater: float  # P(X > Y)

    def to_dict(self) -> dict:
        return {"p_less": self.p_less, "p_equal": self.p_equal, "p_greater": self.p_greater}


@dataclass(frozen=True)
class ComparisonReport:
    """All joint-law verdicts for one pair, with the backing decompositions."""

    sp: Verdict
    mean: Verdict
    cp_l1: Verdict
    cp_kstar: Verdict
    l1: DecompositionReport
    kstar: DecompositionReport
    probs: EventProbs

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).to_dict() for f in fields(self)}
