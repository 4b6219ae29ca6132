"""Canonical scenario fixtures and their verification.

Five named scenarios exercise every engine in the package:

* ``example1`` / ``example2`` -- coin-toss gambling schemes comparing a
  risky payoff against a guaranteed one, with reference values for every
  order quantity.  Both joints couple the two schemes on the *same* toss,
  so they are deliberately not product couplings.
* ``transform`` -- a nondecreasing relabeling of example1's payoffs that
  flips the conditional L1 verdict, showing the order is not preserved
  under general monotone maps (affine maps do preserve it).
* ``example4`` -- a band-and-triangle density on the unit square for which
  stochastic precedence and the usual stochastic order point in opposite
  directions.  Expected values come from closed-form integrals over its
  two regions, not from the sampler's own mass formulas.
* ``dice`` -- three intransitive dice demonstrating that stochastic
  precedence admits cycles under independent coupling.

Fixtures hold only constants; every check recomputes through the generic
engines and compares against the stored expectations.  ``REPRODUCTIONS``
is the list of scenario checks that ``stochorder reproduce`` runs, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .distributions import (
    FiniteJointDistribution,
    GridDensityPair,
    PairedSample,
    apply_transform,
    expectation,
    make_joint,
    make_marginal,
    marginal_x,
    marginal_y,
    product_joint,
)
from .estimators import SeededStream, band_triangle_densities, sample_example4
from .partial_orders import compare_st
from .precedence import compare_all, compare_sp
from .verdicts import Outcome


@dataclass(frozen=True)
class ExpectedQuantity:
    """One expected numeric value with its provenance and check tolerance."""

    name: str
    value: float
    tol: float
    source: str  # "reference" for externally stated values, "arithmetic" for hand-derived


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one reproduction check.

    ``asserted`` is False for informational rows that are reported but must
    not gate a reproduction run.
    """

    name: str
    expected: object
    computed: object
    passed: bool
    asserted: bool = True
    note: str = ""


def _check(name: str, expected, computed, tol: float | None = None, **kw) -> CheckResult:
    """A check row that passes on equality, or within ``tol`` when one is given."""
    passed = computed == expected or (tol is not None and abs(computed - expected) <= tol)
    return CheckResult(name, expected, computed, passed, **kw)


@dataclass(frozen=True)
class ScenarioFixture:
    """An exact joint with its expected quantities and order preferences."""

    name: str
    joint: FiniteJointDistribution
    quantities: tuple[ExpectedQuantity, ...]
    preferences: tuple[tuple[str, str], ...]  # (order, preferred side "X"/"Y"/"tie")


def example1() -> ScenarioFixture:
    """Risky 1000-or-nothing scheme vs a guaranteed 999, on one 0.6-head coin."""
    joint = make_joint([(1000.0, 999.0, 0.6), (0.0, 999.0, 0.4)])
    quantities = (
        ExpectedQuantity("p_less", 0.4, 0.0, "reference"),
        ExpectedQuantity("p_equal", 0.0, 0.0, "reference"),
        ExpectedQuantity("p_greater", 0.6, 0.0, "reference"),
        ExpectedQuantity("mean_x", 600.0, 1e-9, "reference"),
        ExpectedQuantity("mean_y", 999.0, 1e-9, "reference"),
        ExpectedQuantity("l1_below", 399.6, 1e-9, "reference"),
        ExpectedQuantity("l1_above", 0.6, 1e-9, "reference"),
        ExpectedQuantity("kstar_below", 0.3996, 1e-9, "reference"),
        ExpectedQuantity("kstar_above", 0.3, 1e-9, "reference"),
    )
    preferences = (("sp", "X"), ("mean", "Y"), ("cp_l1", "Y"), ("cp_kstar", "Y"))
    return ScenarioFixture("example1", joint, quantities, preferences)


def example2() -> ScenarioFixture:
    """Riskier 1100-or-nothing scheme vs a guaranteed 999, on a 0.9-head coin."""
    joint = make_joint([(1100.0, 999.0, 0.9), (0.0, 999.0, 0.1)])
    quantities = (
        ExpectedQuantity("p_less", 0.1, 0.0, "reference"),
        ExpectedQuantity("p_greater", 0.9, 0.0, "reference"),
        ExpectedQuantity("mean_x", 990.0, 1e-9, "arithmetic"),
        ExpectedQuantity("mean_y", 999.0, 1e-9, "arithmetic"),
        ExpectedQuantity("l1_below", 99.9, 1e-9, "arithmetic"),
        ExpectedQuantity("l1_above", 90.9, 1e-9, "arithmetic"),
        ExpectedQuantity("kstar_below", 0.0999, 1e-4, "reference"),
        ExpectedQuantity("kstar_above", 0.8912, 1e-4, "reference"),
    )
    preferences = (("sp", "X"), ("mean", "Y"), ("cp_l1", "Y"), ("cp_kstar", "X"))
    return ScenarioFixture("example2", joint, quantities, preferences)


#: Relabeling of example1's payoffs that flips the cp-L1 verdict.
TRANSFORM_TABLE: Mapping[float, float] = {0.0: 0.0, 999.0: 1.0, 1000.0: 1000.0}


def transform_counterexample() -> ScenarioFixture:
    """Example1 pushed through a nondecreasing relabeling; cp-L1 flips sides."""
    joint = apply_transform(example1().joint, TRANSFORM_TABLE)
    quantities = (
        ExpectedQuantity("l1_below", 0.4, 1e-9, "arithmetic"),
        ExpectedQuantity("l1_above", 599.4, 1e-9, "arithmetic"),
    )
    preferences = (("cp_l1", "X"),)
    return ScenarioFixture("transform", joint, quantities, preferences)


def verify_fixture(fix: ScenarioFixture) -> list[CheckResult]:
    """Recompute a fixture's quantities through the generic engines."""
    report = compare_all(fix.joint)
    values = {
        "p_less": report.probs.p_less,
        "p_equal": report.probs.p_equal,
        "p_greater": report.probs.p_greater,
        "mean_x": expectation(marginal_x(fix.joint)),
        "mean_y": expectation(marginal_y(fix.joint)),
        "l1_below": report.l1.below_term,
        "l1_above": report.l1.above_term,
        "kstar_below": report.kstar.below_term,
        "kstar_above": report.kstar.above_term,
    }
    checks = [_check(q.name, q.value, values[q.name], q.tol) for q in fix.quantities]
    for order, side in fix.preferences:
        checks.append(_check(f"{order}_preferred", side, getattr(report, order).preferred()))
    return checks


# ---------------------------------------------------------------------------
# Band-and-triangle density, with closed-form integrals over its two regions

#: Nodes of the interior grid on which example4's marginal densities are tabulated.
GRID_POINTS = 200


@dataclass(frozen=True)
class BandTriangleScenario:
    """The crossing-verdict density plus its closed-form oracle.

    The oracle methods integrate the density, a on the band
    {0 <= x - y <= eps} and b on the triangle {y - x >= 1 - eps}, in closed
    form over each region, apart from the sampler's mass formula.  Y has
    the law of 1 - X, as f_Y(t) = f_X(1 - t).
    ``reference_p_x_leq_y`` is the quadratic closed form eps**2/2 sometimes
    quoted for P(X <= Y); it equals the bare area of the triangle, whereas
    integrating the stated density over the triangle gives mass eps.  The
    oracle value is authoritative; the quadratic form is reported only so
    the discrepancy stays visible.
    """

    eps: float
    band_density: float
    triangle_density: float
    reference_p_x_leq_y: float

    def oracle_region_masses(self) -> tuple[float, float]:
        """Band and triangle masses: each density times its region's area."""
        e = self.eps
        return self.band_density * (e - e * e / 2.0), self.triangle_density * e * e / 2.0

    def oracle_p_x_leq_y(self) -> float:
        """P(X <= Y): the triangle's mass, as the band lies on x >= y and the diagonal has none."""
        return self.oracle_region_masses()[1]

    def oracle_cdf_x(self, ts) -> np.ndarray:
        """Marginal cdf of X at each abscissa: both regions' mass on x <= t."""
        t, e = np.clip(np.atleast_1d(np.asarray(ts, dtype=float)), 0.0, 1.0), self.eps
        band = np.minimum(t, e) ** 2 / 2.0 + e * np.maximum(t - e, 0.0)
        triangle = (e * e - np.maximum(e - t, 0.0) ** 2) / 2.0
        return self.band_density * band + self.triangle_density * triangle

    def oracle_cdf_y(self, ts) -> np.ndarray:
        """Marginal cdf of Y at each abscissa, as Y has the law of 1 - X."""
        return 1.0 - self.oracle_cdf_x(1.0 - np.asarray(ts, dtype=float))

    def marginal_density_x(self, ts) -> np.ndarray:
        """Marginal density of X: y-extent of each region at fixed x."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        band_len, tri_len = np.minimum(t, self.eps), np.maximum(0.0, self.eps - t)
        density = self.band_density * band_len + self.triangle_density * tri_len
        return np.where((t > 0.0) & (t < 1.0), density, 0.0)

    def marginal_density_y(self, ts) -> np.ndarray:
        """Marginal density of Y, as Y has the law of 1 - X."""
        return self.marginal_density_x(1.0 - np.asarray(ts, dtype=float))

    def marginal_grid_pair(self, m: int = GRID_POINTS) -> GridDensityPair:
        """Both marginal densities tabulated on an m-point interior grid."""
        grid = np.linspace(0.5 / m, 1.0 - 0.5 / m, m)
        return GridDensityPair.from_arrays(
            grid, self.marginal_density_x(grid), self.marginal_density_y(grid), normalize=True
        )

    def sample(self, n: int, stream: SeededStream) -> PairedSample:
        return sample_example4(self.eps, n, stream)


def example4_spec(eps: float) -> BandTriangleScenario:
    """Band-and-triangle scenario for a given eps in (0, 1)."""
    d_band, d_triangle = band_triangle_densities(eps)
    eps = float(eps)
    return BandTriangleScenario(eps, d_band, d_triangle, reference_p_x_leq_y=eps * eps / 2.0)


#: Fixed bound of the deterministic quadratic-reference row; it sets only its PASS/NOTE label.
REFERENCE_TOL = 0.005


def verify_example4(
    scn: BandTriangleScenario, n: int = 200_000, stream: SeededStream | None = None
) -> list[CheckResult]:
    """Check the sampler and the usual-stochastic claim against the oracle."""
    stream = stream if stream is not None else SeededStream(0)
    sample = scn.sample(n, stream)
    p_mc = float(np.mean(sample.x <= sample.y))
    p_oracle = scn.oracle_p_x_leq_y()
    mc_tol = 5.0 * math.sqrt(p_oracle * (1.0 - p_oracle) / n)  # five binomial standard errors

    checks = [_check("p_x_leq_y_mc_vs_oracle", p_oracle, p_mc, mc_tol)]

    pair = scn.marginal_grid_pair()
    fx = scn.oracle_cdf_x(pair.grid)
    fy = scn.oracle_cdf_y(pair.grid)
    dominated = bool(np.all(fx >= fy - 1e-12))
    checks.append(_check("st_oracle_cdf_dominance", True, dominated))

    st_report = compare_st(pair)
    outcome = st_report.verdict.outcome.value
    checks.append(_check("st_grid_verdict", Outcome.FIRST_PRECEDES.value, outcome))

    # sp test: does P(Y <= X) reach 1/2?  Judged on the oracle and on the
    # sample; values within mc_tol of 1/2 agree with either side.
    p_yx_oracle = 1.0 - p_oracle  # the diagonal carries no mass
    p_yx_mc = float(np.mean(sample.y <= sample.x))
    agree = (p_yx_oracle >= 0.5) == (p_yx_mc >= 0.5)
    tied = abs(p_yx_oracle - 0.5) <= mc_tol and abs(p_yx_mc - 0.5) <= mc_tol
    checks.append(CheckResult("sp_half_test_vs_oracle", p_yx_oracle, p_yx_mc, agree or tied))

    note = (
        "the quadratic reference eps^2/2 is the bare triangle area; the stated density assigns"
        " mass eps to that region, and the polygon-integration oracle above is authoritative."
    )
    quadratic = (scn.reference_p_x_leq_y, p_oracle, REFERENCE_TOL)
    checks.append(_check("p_x_leq_y_reference_quadratic", *quadratic, asserted=False, note=note))
    return checks


# ---------------------------------------------------------------------------
# Intransitive dice under independent coupling

DICE_FACES: Mapping[str, tuple[int, ...]] = {
    "A": (2, 2, 4, 4, 9, 9),
    "B": (1, 1, 6, 6, 8, 8),
    "C": (3, 3, 5, 5, 7, 7),
}

#: Pair orientation in which the first die stochastically precedes: each
#: left die loses to the right one with probability 5/9, so preference
#: cycles A over B over C over A.
DICE_CYCLE_PAIRS = (("B", "A"), ("C", "B"), ("A", "C"))


@dataclass(frozen=True)
class DicePair:
    first: str
    second: str
    joint: FiniteJointDistribution


@dataclass(frozen=True)
class DiceCycle:
    faces: Mapping[str, tuple[int, ...]]
    pairs: tuple[DicePair, ...]


def intransitive_demo() -> DiceCycle:
    """Three dice whose pairwise stochastic-precedence verdicts form a cycle."""
    marginals = {
        name: make_marginal((float(v), 1.0 / 6.0) for v in faces)
        for name, faces in DICE_FACES.items()
    }
    pairs = tuple(
        DicePair(a, b, product_joint(marginals[a], marginals[b])) for a, b in DICE_CYCLE_PAIRS
    )
    return DiceCycle(DICE_FACES, pairs)


def enumerate_p_first_less(faces_a: tuple[int, ...], faces_b: tuple[int, ...]) -> float:
    """P(first < second) for independent dice by exhaustive face enumeration."""
    wins = sum(1 for a in faces_a for b in faces_b if a < b)
    return wins / (len(faces_a) * len(faces_b))


def verify_dice(cycle: DiceCycle) -> list[CheckResult]:
    """Confirm each pairwise verdict against the 36-outcome enumeration."""
    checks = []
    all_first = True
    for pair in cycle.pairs:
        p_enum = enumerate_p_first_less(cycle.faces[pair.first], cycle.faces[pair.second])
        verdict = compare_sp(pair.joint)
        name = f"P({pair.first}<{pair.second})"
        checks.append(_check(name, p_enum, verdict.evidence["p_x_leq_y"], 1e-12))
        precedes = f"{pair.first}_precedes_{pair.second}"
        checks.append(_check(precedes, Outcome.FIRST_PRECEDES.value, verdict.outcome.value))
        checks.append(_check(f"enumerated {name} > 1/2", True, p_enum > 0.5))
        all_first = all_first and verdict.outcome is Outcome.FIRST_PRECEDES
    checks.append(_check("sp_cycle", True, all_first))
    return checks


#: Scenario name -> checks given example4's (eps, n, seed); ``reproduce`` runs them in this order.
REPRODUCTIONS: Mapping[str, Callable[[float, int, int], list[CheckResult]]] = {
    "example1": lambda eps, n, seed: verify_fixture(example1()),
    "example2": lambda eps, n, seed: verify_fixture(example2()),
    "transform": lambda eps, n, seed: verify_fixture(transform_counterexample()),
    "example4": lambda eps, n, seed: verify_example4(example4_spec(eps), n, SeededStream(seed)),
    "dice": lambda eps, n, seed: verify_dice(intransitive_demo()),
}
