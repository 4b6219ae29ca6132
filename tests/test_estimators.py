"""Sampling, plug-in estimation and bootstrap confidence intervals."""

import math
from collections import Counter

import numpy as np
import pytest

from stochorder import (
    InvalidEpsilon,
    Outcome,
    PairedSample,
    SampleTooSmall,
    SeededStream,
    ValidationError,
    compare_all,
    estimate_orders,
    make_joint,
    sample_example4,
    sample_joint,
)
from stochorder import estimators
from stochorder.estimators import band_triangle_densities
from stochorder.scenarios import example4_spec

EX1 = make_joint([(1000.0, 999.0, 0.6), (0.0, 999.0, 0.4)])


class TestSeededStream:
    def test_reproducible(self):
        s = SeededStream(123)
        assert s.rng().random(5).tolist() == s.rng().random(5).tolist()

    def test_children_are_independent_streams(self):
        s = SeededStream(123)
        assert s.child(0).seed != s.child(1).seed
        assert s.child(0) == s.child(0)

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            SeededStream(-1)
        with pytest.raises(ValidationError):
            SeededStream(2**64)

    def test_numpy_integer_seeds(self):
        s = SeededStream(np.int64(3))
        assert s == SeededStream(3) and type(s.seed) is int
        assert s.rng().random(3).tolist() == SeededStream(3).rng().random(3).tolist()
        assert SeededStream(np.uint64(2**64 - 1)).seed == 2**64 - 1
        for bad in (np.int64(-1), np.float64(3.0), 3.0):
            with pytest.raises(ValidationError):
                SeededStream(bad)


class TestSampleJoint:
    def test_single_atom_all_identical(self):
        s = sample_joint(make_joint([(3.0, 4.0, 1.0)]), 100, SeededStream(0))
        assert np.all(s.x == 3.0) and np.all(s.y == 4.0)

    def test_same_seed_same_sample(self):
        a = sample_joint(EX1, 1000, SeededStream(5))
        b = sample_joint(EX1, 1000, SeededStream(5))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_empirical_event_frequency(self):
        s = sample_joint(EX1, 100_000, SeededStream(11))
        assert float(np.mean(s.x > s.y)) == pytest.approx(0.6, abs=0.01)

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            sample_joint(EX1, 0, SeededStream(0))
        for n in (2.5, 3.0, "3", None):
            with pytest.raises(ValidationError, match="sample size must be a positive integer"):
                sample_joint(EX1, n, SeededStream(0))
        a = sample_joint(EX1, np.int64(50), SeededStream(3))
        b = sample_joint(EX1, 50, SeededStream(3))
        assert a.n == 50 and np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestSizeCaps:
    # the caps are lowered, so no test ever requests an oversized allocation
    def test_sample_size_cap(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_SAMPLE_SIZE", 10)
        assert sample_joint(EX1, 10, SeededStream(0)).n == 10
        assert sample_example4(0.3, 10, SeededStream(0)).n == 10
        message = "sample size must be a positive integer up to 10, got 11"
        with pytest.raises(ValidationError, match=message):
            sample_joint(EX1, 11, SeededStream(0))
        with pytest.raises(ValidationError, match=message):
            sample_example4(0.3, 11, SeededStream(0))
        with pytest.raises(ValidationError, match="up to 10, got np.int64"):
            sample_joint(EX1, np.int64(11), SeededStream(0))
        with pytest.raises(ValidationError, match="sample size must be a positive integer, got 0"):
            sample_joint(EX1, 0, SeededStream(0))

    def test_bootstrap_cap(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_BOOTSTRAP", 5)
        sample = PairedSample(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert estimate_orders(sample, bootstrap=5).bootstrap == 5
        with pytest.raises(ValidationError, match="resample count must be a positive integer up to 5"):
            estimate_orders(sample, bootstrap=6)

    def test_defaults(self):
        assert estimators.MAX_SAMPLE_SIZE == 10**8 and estimators.MAX_BOOTSTRAP == 10**5
        with pytest.raises(ValidationError, match="up to 18446744073709551615, got 18446744073709551616"):
            SeededStream(2**64)


class TestEstimateOrders:
    def test_points_match_plugin_joint(self, rng):
        # oracle: the empirical law is itself a finite joint, built here by
        # counting pairs; the estimate is the exact engine on it, so every
        # point and verdict must agree bit for bit
        x = rng.normal(size=500)
        continuous = PairedSample(x, x + rng.normal(scale=0.5, size=500))
        grid = make_joint([(float(a), float(b), 1.0 / 9.0) for a in range(3) for b in range(3)])
        duplicated = sample_joint(grid, 3000, SeededStream(6))
        for sample in (continuous, duplicated):
            counts = Counter(sample.pairs())
            plugin = compare_all(make_joint([(a, b, c / sample.n) for (a, b), c in counts.items()]))
            report = estimate_orders(sample, bootstrap=50, stream=SeededStream(3))
            assert report.comparison == plugin
            points = {name: est.point for name, est in report.quantities.items()}
            assert points == {
                "p_less": plugin.probs.p_less,
                "p_greater": plugin.probs.p_greater,
                "l1_below": plugin.l1.below_term,
                "l1_above": plugin.l1.above_term,
                "kstar_below": plugin.kstar.below_term,
                "kstar_above": plugin.kstar.above_term,
                "mean_diff": plugin.l1.below_term - plugin.l1.above_term,
            }

    def test_mean_diff_keeps_precision_far_from_zero(self, rng):
        x = 1e6 + 1e3 * rng.normal(size=3000)
        sample = PairedSample(x, x + rng.normal(size=3000))
        d = sample.y - sample.x
        point = estimate_orders(sample, bootstrap=20).quantities["mean_diff"].point
        assert point == pytest.approx(math.fsum(d) / d.size, rel=1e-12)

    def test_overflowing_difference_names_the_pair(self):
        sample = PairedSample(np.array([0.0, 1e308]), np.array([1.0, -1e308]))
        with pytest.raises(ValidationError, match=r"pair 1: y - x overflows at \(1e\+308, -1e\+308\)"):
            estimate_orders(sample)

    def test_huge_finite_distance_counts_one_in_kstar(self):
        # d / (1 + d) rounds to exactly 1 once d exceeds 2**53
        sample = PairedSample(np.array([0.0, 1.0]), np.array([1e17, 2e17]))
        report = estimate_orders(sample, bootstrap=50)
        est = report.quantities["kstar_below"]
        assert (est.point, est.ci_low, est.ci_high) == (1.0, 1.0, 1.0)
        assert report.comparison.kstar.total == 1.0

    def test_empirical_decomposition_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 400))
            sample = PairedSample(rng.normal(size=n), rng.normal(size=n))
            report = estimate_orders(sample, bootstrap=10, stream=SeededStream(1))
            direct = float(np.mean(np.abs(sample.x - sample.y)))
            total = report.quantities["l1_below"].point + report.quantities["l1_above"].point
            assert total == pytest.approx(direct, rel=1e-9, abs=1e-15)

    def test_identical_pairs_all_equal(self):
        sample = PairedSample(np.array([2.0, 2.0, 5.0]), np.array([2.0, 2.0, 5.0]))
        report = estimate_orders(sample, bootstrap=100, stream=SeededStream(0))
        c = report.comparison
        assert all(v.outcome is Outcome.EQUAL for v in (c.sp, c.mean, c.cp_l1, c.cp_kstar))
        est = report.quantities["l1_below"]
        assert (est.point, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            estimate_orders(PairedSample(np.array([1.0]), np.array([2.0])))

    def test_level_validation(self):
        sample = PairedSample(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        with pytest.raises(ValidationError):
            estimate_orders(sample, level=1.0)
        with pytest.raises(ValidationError):
            estimate_orders(sample, bootstrap=0)
        with pytest.raises(ValidationError, match="bootstrap resample count must be a positive"):
            estimate_orders(sample, bootstrap=2.5)
        report = estimate_orders(sample, bootstrap=np.int32(20))
        assert type(report.bootstrap) is int
        assert report.to_dict() == estimate_orders(sample, bootstrap=20).to_dict()

    def test_deterministic_reports(self):
        sample = sample_joint(EX1, 5000, SeededStream(9))
        a = estimate_orders(sample, bootstrap=200, stream=SeededStream(4))
        b = estimate_orders(sample, bootstrap=200, stream=SeededStream(4))
        assert a.to_dict() == b.to_dict()

    def test_intervals_bracket_points(self, rng):
        # both bootstrap paths: few distinct pairs (multinomial) and many
        # distinct pairs (index resampling)
        discrete = sample_joint(EX1, 2000, SeededStream(2))
        continuous = PairedSample(rng.normal(size=400), rng.normal(size=400))
        for sample in (discrete, continuous):
            report = estimate_orders(sample, bootstrap=300, stream=SeededStream(8))
            for est in report.quantities.values():
                assert est.ci_low <= est.point <= est.ci_high

    def test_ci_narrows_with_n(self):
        wide = estimate_orders(sample_joint(EX1, 500, SeededStream(1)), stream=SeededStream(5))
        tight = estimate_orders(sample_joint(EX1, 50_000, SeededStream(1)), stream=SeededStream(5))
        w = wide.quantities["p_greater"]
        t = tight.quantities["p_greater"]
        assert (t.ci_high - t.ci_low) < (w.ci_high - w.ci_low)

    def test_report_dict_shape(self):
        report = estimate_orders(sample_joint(EX1, 1000, SeededStream(0)), stream=SeededStream(0))
        doc = report.to_dict()
        assert set(doc) >= {"sp", "mean", "cp_l1", "cp_kstar", "l1", "kstar", "probs", "ci"}
        assert set(doc["ci"]) == {
            "p_less",
            "p_greater",
            "l1_below",
            "l1_above",
            "kstar_below",
            "kstar_above",
            "mean_diff",
        }
        assert doc["n"] == 1000 and doc["method"] == "bootstrap-percentile"


class TestSampleExample4:
    def test_invalid_eps(self):
        bad = (0.0, 1.0, -0.2, 1.5, float("nan"), True, np.float32("nan"), np.float64(1.5), "0.5")
        for eps in bad:
            with pytest.raises(InvalidEpsilon):
                sample_example4(eps, 10, SeededStream(0))

    def test_a_region_may_get_no_draws(self):
        # with eps near 0 (or 1) a single pair almost surely misses the
        # triangle (or the band), which then draws nothing
        for eps in (0.01, 0.99):
            for seed in range(5):
                assert sample_example4(eps, 1, SeededStream(seed)).n == 1

    def test_numpy_eps_accepted(self):
        assert band_triangle_densities(np.float32(0.5)) == band_triangle_densities(0.5)
        a = sample_example4(np.float64(0.3), 1000, SeededStream(7))
        b = sample_example4(0.3, 1000, SeededStream(7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        scn = example4_spec(np.float32(0.5))
        assert type(scn.eps) is float and scn.eps == 0.5

    def test_sample_size_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="sample size must be a positive integer"):
            sample_example4(0.3, 2.5, SeededStream(0))
        a = sample_example4(0.3, np.uint16(40), SeededStream(1))
        b = sample_example4(0.3, 40, SeededStream(1))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_support_strictly_inside_unit_square(self):
        s = sample_example4(0.4, 50_000, SeededStream(3))
        for arr in (s.x, s.y):
            assert float(arr.min()) > 0.0
            assert float(arr.max()) < 1.0

    def test_reproducible(self):
        a = sample_example4(0.3, 1000, SeededStream(7))
        b = sample_example4(0.3, 1000, SeededStream(7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_region_masses_match_oracle(self):
        for eps in (0.1, 0.5, 0.9):
            scn = example4_spec(eps)
            band_mass, triangle_mass = scn.oracle_region_masses()
            s = sample_example4(eps, 200_000, SeededStream(17))
            in_triangle = float(np.mean((s.y - s.x) > (1.0 - eps)))
            assert in_triangle == pytest.approx(triangle_mass, abs=0.005)
            assert 1.0 - in_triangle == pytest.approx(band_mass, abs=0.005)

    def test_p_x_leq_y_matches_oracle(self):
        eps = 0.5
        s = sample_example4(eps, 200_000, SeededStream(23))
        p_mc = float(np.mean(s.x <= s.y))
        assert p_mc == pytest.approx(example4_spec(eps).oracle_p_x_leq_y(), abs=0.005)

    def test_empirical_cdf_dominance(self):
        # F_X(t) >= F_Y(t) - 0.005 on a decile grid
        eps = 0.5
        s = sample_example4(eps, 200_000, SeededStream(29))
        for t in np.arange(0.1, 1.0, 0.1):
            fx = float(np.mean(s.x <= t))
            fy = float(np.mean(s.y <= t))
            assert fx >= fy - 0.005

    def test_band_points_satisfy_band_inequalities(self):
        eps = 0.25
        s = sample_example4(eps, 20_000, SeededStream(31))
        d = s.x - s.y
        in_band = (d >= 0.0) & (d <= eps)
        in_triangle = (s.y - s.x) > (1.0 - eps)
        assert np.all(in_band | in_triangle)
