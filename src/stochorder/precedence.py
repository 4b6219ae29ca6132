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

Every term but E(X) and E(Y) reads only the law of D = Y - X.  The six
sided terms, P, L1 and K* on {d > 0} and on {d < 0}, are the ``math.fsum``
of the rows of a per-difference table; P(D = 0), E(X) and E(Y) are fsums
beside it.  The exact path weighs the table by atom mass, and the plug-in
estimate of :mod:`~stochorder.estimators` reads the count-weighted table of
the empirical law of D.  :func:`compare_all` builds the report from these
sums, and every other function here reads it.  A difference that overflows
to infinity contributes its limit p to K*, and an infinite L1 term, which
leaves the cp-L1 verdict inconclusive.

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
from .verdicts import ComparisonReport, DecompositionReport, EventProbs, Outcome, Verdict

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


#: The sided terms, in the rows of ``_table``: P, L1 and K*, each on {X < Y} then on {X > Y}.
SIDED = ("p_less", "p_greater", "l1_below", "l1_above", "kstar_below", "kstar_above")


def _table(d: np.ndarray, w: np.ndarray | float) -> np.ndarray:
    """Per-difference contributions of weight ``w``: row i to the term SIDED[i].

    Each term is the sum of its row.  With ``w`` the atom masses the sums are
    the exact terms, with counts n times the plug-in estimates, and with the
    scalar ``w = 1`` the rows hold the transforms a bootstrap weighs.
    """
    table = np.zeros((len(SIDED), d.size))
    dist = np.abs(d)
    for side, (p, l1, kstar) in zip((d > 0.0, d < 0.0), (table[0::2], table[1::2])):
        np.copyto(p, w, where=side)
        np.multiply(dist, w, out=l1, where=side)
        with np.errstate(invalid="ignore"):  # inf / inf: an infinite distance counts as its limit 1
            np.divide(l1, 1.0 + dist, out=kstar, where=side)
        np.copyto(kstar, w, where=side & np.isinf(dist))
    return table


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
    cp_l1, cp_kstar = (
        _trichotomy(below, above, {"below_term": below, "above_term": above})
        for below, above in ((l1.below_term, l1.above_term), (kstar.below_term, kstar.above_term))
    )
    # E(Y) - E(X) = l1_below - l1_above, so the mean order is cp-L1; the means, which
    # cancel far from 0, decide only where an L1 term is infinite
    finite = cp_l1.outcome is not Outcome.INCONCLUSIVE
    first, second = (l1.below_term, l1.above_term) if finite else (mean_y, mean_x)
    mean = _trichotomy(first, second, {"mean_x": mean_x, "mean_y": mean_y})
    return ComparisonReport(sp, mean, cp_l1, cp_kstar, l1, kstar, probs)


def compare_all(j: FiniteJointDistribution) -> ComparisonReport:
    """All four joint-law verdicts plus the decompositions behind them."""
    with np.errstate(over="ignore"):  # an overflow to +-inf keeps the sign of the difference
        d = j.y - j.x
    terms = dict(zip(SIDED, map(_fsum, _table(d, j.p))))
    terms["p_equal"] = _fsum(np.where(d == 0.0, j.p, 0.0))  # finite x, y: y - x == 0 iff x == y
    return _report({**terms, "mean_x": _fsum(j.x * j.p), "mean_y": _fsum(j.y * j.p)})
