"""Classical marginal-based partial orders.

Four orders, each decided by a pointwise comparison of a defining quantity
of the two marginals:

* st  -- usual stochastic order: F_x >= F_y everywhere.
* hr  -- hazard rate order: f_x / survival_x >= f_y / survival_y everywhere.
* lr  -- likelihood ratio order: fy / fx nondecreasing.
* mrl -- mean residual life order: expected remaining life beyond t smaller
  for the preceding side at every t.

The usual stochastic order is available both for finite marginals (cdf
step functions compared on the union of supports) and for gridded
densities; the other three are defined for densities only, so they accept
a :class:`GridDensityPair`.

One pointwise rule decides every order: at each node, a - b is a tie
within 1e-12 + 1e-9 * max(|a|, |b|) for the two compared quantities a and
b (for lr, the ratio at the right and at the left node of each step).  The
evidence is the largest and smallest a - b, each clamped at 0.
``INCOMPARABLE`` means the inequality points both ways; the report then
carries two witness abscissae.

Grid comparisons truncate at the last node: mass beyond it is treated as
zero, hazard and mean-residual-life comparisons exclude nodes where either
survival has dropped to 1e-12 or below, and the likelihood ratio is only
examined where the first density exceeds 1e-12.
"""

from __future__ import annotations

import numpy as np

from .distributions import FiniteMarginal, GridDensityPair, _reverse_cumulative_trapezoid
from .errors import EmptyComparisonRegion, ValidationError
from .verdicts import Outcome, PartialOrderReport, Verdict

#: Pointwise classification tolerance: differences a - b within
#: ABS_TOL + REL_TOL * max(|a|, |b|) count as ties.
ABS_TOL = 1e-12
REL_TOL = 1e-9
#: Survival floor below which hr/mrl nodes are excluded.
SURVIVAL_FLOOR = 1e-12
#: Density floor below which lr nodes are excluded.
DENSITY_FLOOR = 1e-12


def _pointwise_report(
    order: str,
    abscissae: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> PartialOrderReport:
    """Classify the pointwise comparison of ``a`` with ``b``.

    ``a[i] > b[i]`` argues that the first variable precedes at
    ``abscissae[i]``; ``a[i] < b[i]`` argues the opposite.
    """
    advantage = a - b
    tol = ABS_TOL + REL_TOL * np.maximum(np.abs(a), np.abs(b))
    pos = advantage > tol
    neg = advantage < -tol
    evidence = {
        "max_advantage": float(advantage.max(initial=0.0)),
        "min_advantage": float(advantage.min(initial=0.0)),
    }
    if pos.any() and neg.any():
        witness = (
            float(abscissae[int(np.argmax(advantage))]),
            float(abscissae[int(np.argmin(advantage))]),
        )
        return PartialOrderReport(order, Verdict(Outcome.INCOMPARABLE, evidence), witness)
    if pos.any():
        return PartialOrderReport(order, Verdict(Outcome.FIRST_PRECEDES, evidence))
    if neg.any():
        return PartialOrderReport(order, Verdict(Outcome.SECOND_PRECEDES, evidence))
    return PartialOrderReport(order, Verdict(Outcome.EQUAL, evidence))


def compare_st(
    a: FiniteMarginal | GridDensityPair,
    b: FiniteMarginal | None = None,
) -> PartialOrderReport:
    """Usual stochastic order: the first side precedes iff its cdf dominates.

    Call either with two finite marginals or with a single
    :class:`GridDensityPair` (cdfs obtained by the trapezoid rule).
    """
    if isinstance(a, GridDensityPair):
        if b is not None:
            raise ValidationError("pass either two marginals or one GridDensityPair")
        return _pointwise_report("st", a.grid, a.cdf_x, a.cdf_y)
    if not isinstance(b, FiniteMarginal):
        raise ValidationError("comparing a finite marginal requires a second marginal")
    # a's keys plus b's others: a key both share keeps a's sign of zero, whatever the sort does
    support = np.sort(np.concatenate((a.v, np.setdiff1d(b.v, a.v))))
    return _pointwise_report("st", support, a.cdf(support), b.cdf(support))


def _survival_mask(g: GridDensityPair) -> np.ndarray:
    """The grid nodes where both survivals exceed SURVIVAL_FLOOR."""
    mask = (g.survival_x > SURVIVAL_FLOOR) & (g.survival_y > SURVIVAL_FLOOR)
    if not mask.any():
        raise EmptyComparisonRegion("no grid node has both survivals above the floor")
    return mask


def compare_hr(g: GridDensityPair) -> PartialOrderReport:
    """Hazard rate order: the side with the everywhere-larger hazard precedes."""
    mask = _survival_mask(g)
    rx = g.fx[mask] / g.survival_x[mask]
    ry = g.fy[mask] / g.survival_y[mask]
    return _pointwise_report("hr", g.grid[mask], rx, ry)


def compare_lr(g: GridDensityPair) -> PartialOrderReport:
    """Likelihood ratio order, decided by monotonicity of fy / fx.

    The ratio is examined across the nodes where fx exceeds the density
    floor.  A nondecreasing, non-constant ratio means the first side
    precedes; nonincreasing means the second side; a constant ratio means
    equality; an up-and-down ratio is incomparable, witnessed by the left
    abscissae of the steepest step in each direction.
    """
    mask = g.fx > DENSITY_FLOOR
    if not mask.any():
        raise EmptyComparisonRegion("fx is below the density floor everywhere")
    t = g.grid[mask]
    ratio = g.fy[mask] / g.fx[mask]
    # each step of the ratio, at its left node; a single node has no step, hence equality
    return _pointwise_report("lr", t[:-1], ratio[1:], ratio[:-1])


def compare_mrl(g: GridDensityPair) -> PartialOrderReport:
    """Mean residual life order: the side expected to run out sooner precedes.

    The remaining-life integral truncates at the last grid node, so values
    near the end of the grid are those of the truncated law.
    """
    mask = _survival_mask(g)
    with np.errstate(over="ignore"):  # reported below, naming the cause
        tail_x = _reverse_cumulative_trapezoid(g.survival_x, g.grid)
        tail_y = _reverse_cumulative_trapezoid(g.survival_y, g.grid)
    if not (np.isfinite(tail_x).all() and np.isfinite(tail_y).all()):
        raise ValidationError("the remaining-life integral overflows: the grid span is too large")
    mrl_x = tail_x[mask] / g.survival_x[mask]
    mrl_y = tail_y[mask] / g.survival_y[mask]
    # smaller mean residual life argues the first side precedes
    return _pointwise_report("mrl", g.grid[mask], mrl_y, mrl_x)
