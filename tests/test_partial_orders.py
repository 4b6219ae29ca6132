"""Marginal-based partial orders on finite marginals and gridded densities."""

import math

import numpy as np
import pytest

from stochorder import (
    EmptyComparisonRegion,
    GridDensityPair,
    Outcome,
    ValidationError,
    compare_hr,
    compare_lr,
    compare_mrl,
    compare_st,
    make_marginal,
)

from conftest import random_marginal, random_smooth_grid_pair


def exponential_pair(rate_x=2.0, rate_y=1.0, end=10.0, nodes=2001) -> GridDensityPair:
    grid = np.linspace(0.0, end, nodes)
    return GridDensityPair.from_functions(
        grid,
        lambda t: rate_x * math.exp(-rate_x * t),
        lambda t: rate_y * math.exp(-rate_y * t),
    )


def identical_pair() -> GridDensityPair:
    grid = np.linspace(0.0, 10.0, 2001)
    f = np.exp(-grid)
    return GridDensityPair.from_arrays(grid, f, f, normalize=True)


class TestUsualStochasticOrder:
    def test_crossing_cdfs_incomparable(self):
        a = make_marginal([(0, 0.4), (1000, 0.6)])
        b = make_marginal([(999, 1.0)])
        report = compare_st(a, b)
        assert report.verdict.outcome is Outcome.INCOMPARABLE
        t_first, t_second = report.witness
        # the witness points carry opposite strict cdf gaps
        assert a.cdf(t_first) > b.cdf(t_first)
        assert a.cdf(t_second) < b.cdf(t_second)

    def test_identical_marginals_equal(self):
        m = make_marginal([(0, 0.25), (1, 0.75)])
        assert compare_st(m, m).verdict.outcome is Outcome.EQUAL

    def test_shifted_support_first_precedes(self):
        a = make_marginal([(0, 0.5), (1, 0.5)])
        b = make_marginal([(1, 0.5), (2, 0.5)])
        assert compare_st(a, b).verdict.outcome is Outcome.FIRST_PRECEDES
        assert compare_st(b, a).verdict.outcome is Outcome.SECOND_PRECEDES

    def test_signed_zero_support_keeps_the_first_sides_zero(self):
        # a key both marginals hold (-0.0 == 0.0) enters the support once, with the
        # first marginal's sign; an unstable sort of the joined supports could pick
        # the second one's
        a = make_marginal([(-0.0, 0.9)] + [(float(k), 0.1 / 39) for k in range(1, 40)])
        b = make_marginal(
            [(float(k), 0.3 / 40) for k in range(-40, 0)] + [(0.0, 0.1), (0.5, 0.5), (1000.0, 0.1)]
        )
        report = compare_st(a, b)
        assert report.verdict.outcome is Outcome.INCOMPARABLE
        assert report.witness == (0.0, -1.0)
        assert math.copysign(1.0, report.witness[0]) == -1.0
        mirrored = compare_st(b, a)
        assert mirrored.witness == (-1.0, 0.0)
        assert math.copysign(1.0, mirrored.witness[1]) == 1.0

    def test_grid_form(self):
        g = exponential_pair()
        assert compare_st(g).verdict.outcome is Outcome.FIRST_PRECEDES
        assert compare_st(identical_pair()).verdict.outcome is Outcome.EQUAL

    def test_mixed_arguments_rejected(self):
        m = make_marginal([(0, 1.0)])
        with pytest.raises(ValidationError):
            compare_st(exponential_pair(), m)
        with pytest.raises(ValidationError):
            compare_st(m)

    def test_antisymmetry_on_random_marginals(self, rng):
        mirror = {
            Outcome.FIRST_PRECEDES: Outcome.SECOND_PRECEDES,
            Outcome.SECOND_PRECEDES: Outcome.FIRST_PRECEDES,
            Outcome.EQUAL: Outcome.EQUAL,
            Outcome.INCOMPARABLE: Outcome.INCOMPARABLE,
        }
        for _ in range(60):
            a, b = random_marginal(rng), random_marginal(rng)
            fwd = compare_st(a, b).verdict.outcome
            rev = compare_st(b, a).verdict.outcome
            assert rev is mirror[fwd]


class TestHazardRateOrder:
    def test_exponentials_first_precedes(self):
        g = exponential_pair()
        report = compare_hr(g)
        assert report.verdict.outcome is Outcome.FIRST_PRECEDES
        # oracle: the tabulated law is the exponential truncated at T, whose
        # hazard is rate / (1 - e^{-rate (T - t)})
        T = 10.0
        mask = (g.survival_x > 1e-6) & (g.survival_y > 1e-6)
        t = g.grid[mask]
        rx = g.fx[mask] / g.survival_x[mask]
        ry = g.fy[mask] / g.survival_y[mask]
        assert np.allclose(rx, 2.0 / (1.0 - np.exp(-2.0 * (T - t))), rtol=1e-3)
        assert np.allclose(ry, 1.0 / (1.0 - np.exp(-1.0 * (T - t))), rtol=1e-3)

    def test_identical_equal(self):
        assert compare_hr(identical_pair()).verdict.outcome is Outcome.EQUAL

    def test_crossing_hazards_incomparable(self):
        # increasing-hazard shape vs constant hazard: the rates cross once
        grid = np.linspace(0.0, 2.5, 2001)
        g = GridDensityPair.from_functions(
            grid,
            lambda t: 3.0 * t * t * math.exp(-(t**3)),
            lambda t: math.exp(-t),
        )
        report = compare_hr(g)
        assert report.verdict.outcome is Outcome.INCOMPARABLE
        t_first, t_second = report.witness
        # grid oracle at the witnesses: hazard gap signs must be opposite
        def hazard_gap(t):
            i = int(np.searchsorted(grid, t))
            return g.fx[i] / g.survival_x[i] - g.fy[i] / g.survival_y[i]

        assert hazard_gap(t_first) > 0
        assert hazard_gap(t_second) < 0

    def test_swap_antisymmetry(self):
        g = exponential_pair()
        assert compare_hr(g.swapped()).verdict.outcome is Outcome.SECOND_PRECEDES


class TestLikelihoodRatioOrder:
    def test_exponentials_first_precedes(self):
        g = exponential_pair()
        report = compare_lr(g)
        assert report.verdict.outcome is Outcome.FIRST_PRECEDES
        # oracle: the ratio is proportional to e^t, strictly increasing
        mask = g.fx > 1e-12
        ratio = g.fy[mask] / g.fx[mask]
        expected = ratio[0] * np.exp(g.grid[mask] - g.grid[mask][0])
        assert np.allclose(ratio, expected, rtol=1e-9)

    def test_identical_equal(self):
        assert compare_lr(identical_pair()).verdict.outcome is Outcome.EQUAL

    def test_increasing_ratio_evidence_clamped_at_zero(self):
        # every step of fy / fx is positive; the smallest advantage is clamped at 0, as for st/hr/mrl
        evidence = compare_lr(exponential_pair()).verdict.evidence
        assert evidence["max_advantage"] > 0.0
        assert evidence["min_advantage"] == 0.0

    def test_equal_mean_normals_incomparable(self):
        grid = np.linspace(-6.0, 6.0, 1201)
        g = GridDensityPair.from_functions(
            grid,
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
            lambda t: math.exp(-t * t / 8.0) / (2.0 * math.sqrt(2.0 * math.pi)),
        )
        report = compare_lr(g)
        assert report.verdict.outcome is Outcome.INCOMPARABLE
        assert report.witness is not None

    def test_empty_region(self):
        # a valid density can still sit below the absolute floor everywhere
        # when spread over an enormous range
        grid = np.linspace(0.0, 1e15, 11)
        flat = np.full(11, 1e-15)
        g = GridDensityPair(grid, flat, flat)
        with pytest.raises(EmptyComparisonRegion):
            compare_lr(g)


class TestMeanResidualLifeOrder:
    def test_exponentials_first_precedes(self):
        g = exponential_pair()
        assert compare_mrl(g).verdict.outcome is Outcome.FIRST_PRECEDES

    def test_truncated_closed_form(self):
        # oracle: mean residual life of the exponential truncated at T is
        # [ (e^{-r t} - e^{-r T})/r - e^{-r T} (T - t) ] / (e^{-r t} - e^{-r T})
        g = exponential_pair(nodes=4001)
        grid, T, r = g.grid, 10.0, 2.0
        from stochorder.distributions import _reverse_cumulative_trapezoid

        mask = (g.survival_x > 1e-6) & (g.survival_y > 1e-6)
        t = grid[mask]
        mrl_x = _reverse_cumulative_trapezoid(g.survival_x, grid)[mask] / g.survival_x[mask]
        surv = np.exp(-r * t) - math.exp(-r * T)
        expected = (surv / r - math.exp(-r * T) * (T - t)) / surv
        assert np.allclose(mrl_x, expected, atol=1e-3)

    def test_identical_equal(self):
        assert compare_mrl(identical_pair()).verdict.outcome is Outcome.EQUAL

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_tail_integral_names_the_cause(self):
        # a valid grid whose span exceeds the largest float: each step is finite, their sum is not
        f = [0.0, 0.0, 2 / 1.7e308]
        g = GridDensityPair([-1.7e308, 0.0, 1.7e308], f, f)
        assert compare_st(g).verdict.outcome is Outcome.EQUAL
        with pytest.raises(ValidationError, match="remaining-life integral overflows"):
            compare_mrl(g)

    def test_hr_ordered_pair_is_mrl_ordered(self):
        g = exponential_pair()
        assert compare_hr(g).verdict.outcome is Outcome.FIRST_PRECEDES
        assert compare_mrl(g).verdict.outcome is Outcome.FIRST_PRECEDES


class TestImplicationChain:
    def test_chain_on_random_pairs(self, rng):
        lr_first = 0
        for _ in range(40):
            g = random_smooth_grid_pair(rng)
            lr = compare_lr(g).verdict.outcome
            hr = compare_hr(g).verdict.outcome
            if lr is Outcome.FIRST_PRECEDES:
                lr_first += 1
                assert hr is not Outcome.SECOND_PRECEDES
            if hr is Outcome.FIRST_PRECEDES:
                assert compare_st(g).verdict.outcome is not Outcome.SECOND_PRECEDES
                assert compare_mrl(g).verdict.outcome is not Outcome.SECOND_PRECEDES
        assert lr_first >= 5  # the generator must actually produce ordered pairs


class TestRefinementConsistency:
    def test_exponential_verdicts_stable_under_midpoint_refinement(self):
        coarse = exponential_pair(nodes=801)
        grid = coarse.grid
        fine_grid = np.sort(np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])]))
        fine = GridDensityPair.from_functions(
            fine_grid,
            lambda t: 2.0 * math.exp(-2.0 * t),
            lambda t: math.exp(-t),
        )
        for compare in (compare_st, compare_hr, compare_lr, compare_mrl):
            assert compare(coarse).verdict.outcome is compare(fine).verdict.outcome
            assert compare(coarse).verdict.outcome is Outcome.FIRST_PRECEDES
