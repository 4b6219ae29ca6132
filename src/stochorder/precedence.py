"""Joint-law precedence orders and their exact decompositions.

Unlike the marginal-based partial orders, everything here consumes the
joint law of the pair, so dependence between the coordinates matters.
Four orders are provided:

* stochastic precedence (sp): compares P(X <= Y) and P(Y <= X) against 1/2;
  connex but blind to the size of X - Y.
* mean order: compares E(X) and E(Y); total but blind to dependence.
* conditional L1 precedence (cp-L1): splits E|X - Y| into the contribution
  accrued on {X < Y} and the one accrued on {X > Y} and compares the two
  terms.  Each term is computed as the mass-weighted sum
  sum_{x<y} (y - x) p, i.e. conditional expectation times event
  probability, which stays well-defined when the event has probability 0.
* conditional K* precedence (cp-K*): the same split applied to the bounded
  distance E(|X-Y| / (1 + |X-Y|)) (the Ky Fan metric, which metrizes
  convergence in probability and takes values in [0, 1)), damping the
  influence of large differences.

Atoms with x == y contribute to neither side of a decomposition.  Every
term is the ``math.fsum`` of one column of a per-atom table, whose entries
are the atoms' weighted contributions to that term; :func:`compare_all`
builds the report from these sums, and every other function here reads
it.  A difference that overflows to infinity contributes its limit p to
K*, and an infinite L1 term, which leaves the cp-L1 verdict inconclusive.

Every verdict is one rule, :func:`_trichotomy`, on two decision statistics,
the first arguing that X precedes: (E(Y), E(X)), the (below, above) terms,
and for sp whether P(X <= Y) >= 1/2 and whether P(Y <= X) >= 1/2.  So sp is
equal when both reach 1/2, and also when neither does, which a total kept
within 1e-12 of 1 allows.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import FiniteJointDistribution, _fsum
from .verdicts import (
    ComparisonReport,
    DecompositionReport,
    EventProbs,
    Outcome,
    Verdict,
)

#: Relative tolerance at which two compared quantities count as equal.
EQUALITY_RTOL = 1e-12


def _trichotomy(first: float, second: float, evidence: dict[str, float]) -> Verdict:
    """The joint-law decision rule: ``first`` argues that X precedes, ``second`` that Y does.

    A non-finite statistic leaves the verdict inconclusive; statistics
    within EQUALITY_RTOL relative of each other are equal; otherwise the
    larger one wins.
    """
    if not (math.isfinite(first) and math.isfinite(second)):
        return Verdict(Outcome.INCONCLUSIVE, evidence)
    tol = EQUALITY_RTOL * max(abs(first), abs(second))
    if first - second > tol:
        return Verdict(Outcome.FIRST_PRECEDES, evidence)
    if first - second < -tol:
        return Verdict(Outcome.SECOND_PRECEDES, evidence)
    return Verdict(Outcome.EQUAL, evidence)


def _table(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> dict[str, np.ndarray]:
    """Per-atom contributions of weight ``w`` to each joint-law term.

    Each term is the sum of its column.  With ``w`` the atom masses the sums
    are the exact terms; with ``w = 1`` the columns hold the per-pair
    transforms that a bootstrap weighs by resampled counts.
    """
    with np.errstate(over="ignore"):  # an overflow to +-inf keeps the sign of the difference
        d = y - x
    dist = np.abs(d)
    below, above = d > 0.0, d < 0.0
    l1 = dist * w
    with np.errstate(invalid="ignore"):  # inf / inf: an infinite distance counts as its limit 1
        kstar = np.where(np.isinf(dist), w, l1 / (1.0 + dist))
    return {
        "p_less": np.where(below, w, 0.0),
        "p_equal": np.where(d == 0.0, w, 0.0),
        "p_greater": np.where(above, w, 0.0),
        "l1_below": np.where(below, l1, 0.0),
        "l1_above": np.where(above, l1, 0.0),
        "kstar_below": np.where(below, kstar, 0.0),
        "kstar_above": np.where(above, kstar, 0.0),
        "mean_x": x * w,
        "mean_y": y * w,
    }


def _terms(j: FiniteJointDistribution) -> dict[str, float]:
    """The exact terms of a joint: the fsum of each column of its mass-weighted table."""
    return {name: _fsum(column) for name, column in _table(j.x, j.y, j.p).items()}


def event_probs(j: FiniteJointDistribution) -> EventProbs:
    """Probabilities of {X < Y}, {X = Y} and {X > Y}."""
    return compare_all(j).probs


def compare_sp(j: FiniteJointDistribution) -> Verdict:
    """Stochastic precedence order on a finite joint."""
    return compare_all(j).sp


def compare_mean(j: FiniteJointDistribution) -> Verdict:
    """Mean order on a finite joint."""
    return compare_all(j).mean


def decomposition_from_terms(below: float, above: float, metric: str) -> DecompositionReport:
    """Assemble a decomposition report from its two terms."""
    total = below + above
    normalized = below / total if (math.isfinite(total) and total > 0.0) else None
    return DecompositionReport(metric, below, above, total, normalized)


def l1_decompose(j: FiniteJointDistribution) -> DecompositionReport:
    """Split E|X - Y| into its {X < Y} and {X > Y} contributions."""
    return compare_all(j).l1


def kstar_decompose(j: FiniteJointDistribution) -> DecompositionReport:
    """Split E(|X-Y| / (1 + |X-Y|)) into its {X < Y} and {X > Y} contributions."""
    return compare_all(j).kstar


def compare_cp_l1(j: FiniteJointDistribution) -> Verdict:
    """Conditional L1 precedence order on a finite joint."""
    return compare_all(j).cp_l1


def compare_cp_kstar(j: FiniteJointDistribution) -> Verdict:
    """Conditional K* precedence order on a finite joint."""
    return compare_all(j).cp_kstar


def _report(terms: dict[str, float]) -> ComparisonReport:
    """All four verdicts and their decompositions from the joint-law terms."""
    probs = EventProbs(terms["p_less"], terms["p_equal"], terms["p_greater"])
    l1 = decomposition_from_terms(terms["l1_below"], terms["l1_above"], "L1")
    kstar = decomposition_from_terms(terms["kstar_below"], terms["kstar_above"], "K*")
    p_xley = probs.p_less + probs.p_equal
    p_ylex = probs.p_greater + probs.p_equal
    mean_x, mean_y = terms["mean_x"], terms["mean_y"]
    sp = _trichotomy(p_xley >= 0.5, p_ylex >= 0.5, {"p_x_leq_y": p_xley, "p_y_leq_x": p_ylex})
    mean = _trichotomy(mean_y, mean_x, {"mean_x": mean_x, "mean_y": mean_y})
    cp_l1, cp_kstar = (
        _trichotomy(below, above, {"below_term": below, "above_term": above})
        for below, above in ((l1.below_term, l1.above_term), (kstar.below_term, kstar.above_term))
    )
    return ComparisonReport(sp, mean, cp_l1, cp_kstar, l1, kstar, probs)


def compare_all(j: FiniteJointDistribution) -> ComparisonReport:
    """All four joint-law verdicts plus the decompositions behind them."""
    return _report(_terms(j))
