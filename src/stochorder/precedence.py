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


def _nearly_equal(a: float, b: float) -> bool:
    return abs(a - b) <= EQUALITY_RTOL * max(abs(a), abs(b))


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


def verdict_sp_from_probs(p_less: float, p_equal: float, p_greater: float) -> Verdict:
    """Stochastic-precedence rule on raw event probabilities.

    X precedes iff P(X <= Y) >= 1/2 while P(Y <= X) < 1/2; both holding
    means equality in the order.  Because the two probabilities sum to at
    least 1, a verdict always exists (the order is connex).
    """
    p_xley = p_less + p_equal
    p_ylex = p_greater + p_equal
    evidence = {"p_x_leq_y": p_xley, "p_y_leq_x": p_ylex}
    first = p_xley >= 0.5
    second = p_ylex >= 0.5
    if first and second:
        return Verdict(Outcome.EQUAL, evidence)
    if first:
        return Verdict(Outcome.FIRST_PRECEDES, evidence)
    return Verdict(Outcome.SECOND_PRECEDES, evidence)


def compare_sp(j: FiniteJointDistribution) -> Verdict:
    """Stochastic precedence order on a finite joint."""
    return compare_all(j).sp


def verdict_mean_from_means(mean_x: float, mean_y: float) -> Verdict:
    """Mean-order rule: the side with the smaller mean precedes."""
    evidence = {"mean_x": mean_x, "mean_y": mean_y}
    if _nearly_equal(mean_x, mean_y):
        return Verdict(Outcome.EQUAL, evidence)
    if mean_x < mean_y:
        return Verdict(Outcome.FIRST_PRECEDES, evidence)
    return Verdict(Outcome.SECOND_PRECEDES, evidence)


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


def verdict_from_decomposition(report: DecompositionReport) -> Verdict:
    """Conditional-precedence rule on a two-term decomposition.

    The side whose opposite event carries the larger share of the distance
    precedes: below > above means the first variable precedes.  Equal terms
    (including the degenerate 0 = 0 case of an almost-surely identical
    pair) give equality; non-finite terms are inconclusive.
    """
    below, above = report.below_term, report.above_term
    evidence = {"below_term": below, "above_term": above}
    if not (math.isfinite(below) and math.isfinite(above)):
        return Verdict(Outcome.INCONCLUSIVE, evidence)
    if _nearly_equal(below, above):
        return Verdict(Outcome.EQUAL, evidence)
    if below > above:
        return Verdict(Outcome.FIRST_PRECEDES, evidence)
    return Verdict(Outcome.SECOND_PRECEDES, evidence)


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
    return ComparisonReport(
        sp=verdict_sp_from_probs(*probs),
        mean=verdict_mean_from_means(terms["mean_x"], terms["mean_y"]),
        cp_l1=verdict_from_decomposition(l1),
        cp_kstar=verdict_from_decomposition(kstar),
        l1=l1,
        kstar=kstar,
        probs=probs,
    )


def compare_all(j: FiniteJointDistribution) -> ComparisonReport:
    """All four joint-law verdicts plus the decompositions behind them."""
    return _report(_terms(j))
