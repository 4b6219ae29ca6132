"""Sampling, plug-in estimation and bootstrap confidence intervals."""

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stochorder.scenarios import (
    example1,
    example2,
    example4_spec,
    intransitive_demo,
    transform_counterexample,
)

from conftest import oracle_example4_terms

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

    @pytest.mark.parametrize(
        "atoms",
        [
            # dyadic masses: every cumulative mass lies on an edge of the inversion's cells
            [(0, 1, 0.5), (1, 0, 0.25), (2, 2, 0.125), (3, 1, 0.0625), (0, 4, 0.0625)],
            # the 36-atom joint of the sample_roundtrip benchmark workload
            [(x, y, (2.0 if x <= y else 1.0) / 57.0) for x in range(1, 7) for y in range(1, 7)],
        ],
        ids=["dyadic", "joint36"],
    )
    def test_draws_are_the_searchsorted_inverse_cdf(self, atoms):
        joint = make_joint(atoms)
        cum = np.cumsum(joint.p)
        cum[-1] = 1.0
        for seed in range(3):
            sample = sample_joint(joint, 50_000, SeededStream(seed))
            idx = np.searchsorted(cum, SeededStream(seed).rng().random(50_000), side="right")
            assert sample.x.tobytes() == joint.x[idx].tobytes() and sample.y.tobytes() == joint.y[idx].tobytes()


class TestInvert:
    @settings(max_examples=200, deadline=None)
    @given(
        masses=st.lists(st.integers(0, 8), min_size=1, max_size=40)
        | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        scale=st.integers(0, 12),
        normalize=st.booleans(),
        extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    def test_equals_searchsorted_bit_for_bit(self, masses, scale, normalize, extra):
        # integer masses over a power of two are dyadic, and their cdf values fall on the
        # cells' edges; a zero mass repeats a cdf value; a list of one is one atom
        cdf = np.cumsum(np.array(masses, dtype=float))
        cdf = cdf / cdf[-1] if normalize and cdf[-1] > 0.0 else cdf / 2.0**scale
        inside = cdf[(cdf >= 0.0) & (cdf < 1.0)]
        near = np.concatenate([inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)])
        u = np.concatenate([[0.0], np.arange(1024) / 1024.0, near, extra])
        u = u[(u >= 0.0) & (u < 1.0)]
        for draws in (u, np.resize(u, 2**15 + 3)):  # and past two chunks of draws
            got, want = estimators._invert(cdf, draws), np.searchsorted(cdf, draws, side="right")
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n, b", [(10**5, None), (10**8, None), (10**7, 1)], ids=["1e5", "1e8", "1e7-b1"])
    def test_poisson_cells_chi_square_against_the_pmf(self, n, b):
        # the bag's lam at n = 1e5 (about 31.2) and 1e8 (about 251), with b = ceil(n ** 0.7);
        # at n = 1e7 and b = 1 the cdf's window starts far above 0
        lam = (n - 4.0 * math.sqrt(n)) / (b or math.ceil(n**estimators._BLB_GAMMA))
        draws = estimators._poisson(np.random.default_rng(17), lam, (200, 1000)).ravel()
        # 40 bins of about equal mass under the pmf, each term from math.lgamma
        k0, width = int(lam), int(15.0 * math.sqrt(lam)) + 40
        ks = range(max(k0 - width, 0), k0 + width)
        pmf = {k: math.exp(k * math.log(lam) - lam - math.lgamma(k + 1.0)) for k in ks}
        edges, masses, mass = [], [], 0.0
        for k, q in pmf.items():
            mass += q
            if mass >= 1.0 / 40.0:
                edges.append(k + 1)
                masses.append(mass)
                mass = 0.0
        masses[-1] += 1.0 - sum(masses)  # the last bin takes the rest, tail included
        edges[-1] = draws.max() + 1
        observed = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=len(edges))
        expected = draws.size * np.array(masses)
        chi2, df = float(((observed - expected) ** 2 / expected).sum()), len(edges) - 1
        bound = df * (1.0 - 2.0 / (9 * df) + 3.09 * math.sqrt(2.0 / (9 * df))) ** 3
        assert chi2 < bound, (chi2, df)


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
        # oracle: per-pair sums over the sample.  The P points are count / n
        # exactly; with few distinct differences the L1 and K* points group
        # the summands by difference, so they agree to 1e-12; the verdicts
        # are the exact engine's on the empirical joint
        x = rng.normal(size=500)
        continuous = PairedSample(x, x + rng.normal(scale=0.5, size=500))
        grid = make_joint([(float(a), float(b), 1.0 / 9.0) for a in range(3) for b in range(3)])
        duplicated = sample_joint(grid, 3000, SeededStream(6))
        for sample in (continuous, duplicated):
            n, d = sample.n, sample.y - sample.x
            below, above = d > 0.0, d < 0.0
            report = estimate_orders(sample, bootstrap=50, stream=SeededStream(3))
            points = {name: est.point for name, est in report.quantities.items()}
            assert points["p_less"] == np.count_nonzero(below) / n
            assert points["p_greater"] == np.count_nonzero(above) / n
            assert report.comparison.probs.p_equal == np.count_nonzero(d == 0.0) / n
            per_pair = {
                "l1_below": d[below],
                "l1_above": -d[above],
                "kstar_below": d[below] / (1.0 + d[below]),
                "kstar_above": -d[above] / (1.0 - d[above]),
            }
            for name, column in per_pair.items():
                assert points[name] == pytest.approx(math.fsum(column) / n, rel=1e-12, abs=0.0)
            assert points["mean_diff"] == points["l1_below"] - points["l1_above"]
            counts = Counter(sample.pairs())
            plugin = compare_all(make_joint([(a, b, c / n) for (a, b), c in counts.items()]))
            for key in ("sp", "mean", "cp_l1", "cp_kstar"):
                assert getattr(report.comparison, key).outcome is getattr(plugin, key).outcome

    def test_sp_at_an_exact_tie_is_equal(self):
        # 5 pairs with x < y, 2 with x == y and 7 with x > y: P(X <= Y) is
        # exactly 1/2, which an fsum of per-pair-group frequencies missed by an ulp
        x = [0, 0, 2, 0, 3, 5, 2, 2, 5, 5, 3, 2, 5, 0]
        y = [5, 3, 3, 5, 2, 0, 1, 0, 4, 0, 3, 5, 3, 0]
        sp = estimate_orders(PairedSample(x, y), bootstrap=20).comparison.sp
        assert sp.outcome is Outcome.EQUAL and sp.evidence["p_x_leq_y"] == 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=60))
    def test_p_points_are_counts_over_n_and_decide_sp(self, pairs):
        x, y = np.array(pairs, dtype=float).T
        n = len(pairs)
        less, equal = int(np.sum(x < y)), int(np.sum(x == y))
        greater = n - less - equal
        report = estimate_orders(PairedSample(x, y), bootstrap=1)
        assert report.quantities["p_less"].point == less / n
        assert report.quantities["p_greater"].point == greater / n
        assert report.comparison.probs.p_equal == equal / n
        first, second = 2 * (less + equal) >= n, 2 * (greater + equal) >= n
        outcome = {
            (True, True): Outcome.EQUAL,
            (True, False): Outcome.FIRST_PRECEDES,
            (False, True): Outcome.SECOND_PRECEDES,
        }
        assert report.comparison.sp.outcome is outcome[first, second]

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

    @pytest.mark.parametrize("y", [[1e308, 1.5e308], [1e308, 7e307]])
    def test_n_times_the_largest_distance_overflows(self, y):
        # each y - x is finite, but the points' sum, or a resample's, is not
        sample = PairedSample(np.array([0.0, 0.0]), np.array(y))
        message = re.escape(f"2 times the largest |y - x|, {max(y)!r}, overflows")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            estimate_orders(sample)

    def test_coordinates_near_the_float_range_keep_finite_means(self):
        sample = PairedSample(np.array([1e308, 1.5e308]), np.array([1e308, 1.5e308]))
        evidence = estimate_orders(sample, bootstrap=20).comparison.mean.evidence
        assert evidence == {"mean_x": 1.25e308, "mean_y": 1.25e308}

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

    def test_bootstrap_weighs_one_table_at_unit_weight(self, monkeypatch):
        # the multinomial path's one subset is the distinct differences, weighed
        # by their counts for the points and at weight 1 for the resamples; above
        # the cutoff the points take one table of all the rows at weight 1, and
        # the bag of little bootstraps one table of each subset's
        # ceil(600 ** 0.7) = 89 rows: at 5 resamples, 5 subsets of one resample each
        calls = []

        def spy(d, w):
            calls.append((d.size, w if np.isscalar(w) else "counts"))
            return table(d, w)

        table = estimators._table
        monkeypatch.setattr(estimators, "_table", spy)
        grid = make_joint([(float(a), float(b), 1.0 / 9.0) for a in range(3) for b in range(3)])
        continuous = sample_example4(0.3, 600, SeededStream(1))
        for sample, want in (
            (sample_joint(grid, 600, SeededStream(1)), [(5, "counts"), (5, 1.0)]),
            (continuous, [(600, 1.0)] + [(89, 1.0)] * 5),
        ):
            calls.clear()
            estimate_orders(sample, bootstrap=5)
            assert calls == want

    @pytest.mark.parametrize("bootstrap", [1, 5, 15, 1000])
    def test_the_spread_holds_exactly_the_reported_resamples(self, bootstrap, monkeypatch):
        # the bag splits B resamples over min(B, 10) subsets as evenly as possible; the
        # multinomial path weighs its one subset B times
        events, widths = [], []
        table, counts, percentile = estimators._table, estimators._uniform_counts, np.percentile

        def spy_table(d, w):  # a table starts a subset, and the draws up to the next are its own
            events.append(None)
            return table(d, w)

        def spy_counts(rng, n, b, r):
            events[-1] = (events[-1] or 0) + r
            return counts(rng, n, b, r)

        def spy_percentile(a, q, **kwargs):
            widths.append(a.shape[1])
            return percentile(a, q, **kwargs)

        monkeypatch.setattr(estimators, "_table", spy_table)
        monkeypatch.setattr(estimators, "_uniform_counts", spy_counts)
        monkeypatch.setattr(estimators.np, "percentile", spy_percentile)
        report = estimate_orders(sample_example4(0.3, 600, SeededStream(1)), bootstrap=bootstrap)
        per_subset = events[1:]  # the first table is the points'
        assert report.method == "blb-percentile" and widths == [bootstrap]
        assert len(per_subset) == min(bootstrap, 10) and sum(per_subset) == bootstrap
        assert max(per_subset) - min(per_subset) <= 1
        grid = make_joint([(float(a), float(b), 1.0 / 9.0) for a in range(3) for b in range(3)])
        report = estimate_orders(sample_joint(grid, 600, SeededStream(1)), bootstrap=bootstrap)
        assert report.method == "bootstrap-percentile" and widths == [bootstrap] * 2

    def test_multinomial_path_weighs_distinct_differences(self, monkeypatch):
        # integer data: about 11,000 distinct pairs, but 11 distinct differences
        calls = []

        def spy(d, w):
            calls.append(d.size)
            return table(d, w)

        table = estimators._table
        monkeypatch.setattr(estimators, "_table", spy)
        rng = np.random.default_rng(12)
        x = rng.integers(0, 1000, 100_000).astype(float)
        sample = PairedSample(x, x + rng.integers(-5, 6, x.size))
        assert len(set(sample.pairs())) > estimators._MULTINOMIAL_CUTOFF
        report = estimate_orders(sample, bootstrap=1000)
        assert calls == [11, 11]
        est = report.quantities["mean_diff"]
        assert est.ci_low < est.point < est.ci_high

    def test_blocked_multinomial_draws_are_one_draw(self):
        # two and a half blocks of resamples: drawn block by block, rng.multinomial
        # consumes its stream as one call does, so the interval ends are the
        # percentiles of one draw of all the resamples, up to rounding
        joint = make_joint([(0, 1, 0.3), (1, 0, 0.2), (2, 2, 0.1), (3, 1, 0.3), (0, 4, 0.1)])
        sample = sample_joint(joint, 1000, SeededStream(3))
        bootstrap = 2 * estimators._BLB_BLOCK + estimators._BLB_BLOCK // 2
        report = estimate_orders(sample, bootstrap=bootstrap, stream=SeededStream(6))
        assert report.method == "bootstrap-percentile"
        values, counts = np.unique(sample.y - sample.x, return_counts=True)
        draws = SeededStream(6).rng().multinomial(sample.n, counts / sample.n, size=bootstrap)
        replicates = estimators._with_mean_diff(estimators._table(values, 1.0) @ draws.T / sample.n)
        for name, low, high in zip(estimators.QUANTITIES, *np.percentile(replicates, [2.5, 97.5], axis=1)):
            est = report.quantities[name]
            width = est.ci_high - est.ci_low
            assert width > 0.0, name
            assert abs(est.ci_low - min(low, est.point)) <= 1e-12 * width, name
            assert abs(est.ci_high - max(high, est.point)) <= 1e-12 * width, name

    @pytest.mark.parametrize("level", ["0.5", None])
    def test_level_that_is_not_a_number(self, level):
        sample = PairedSample(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        with pytest.raises(ValidationError, match=rf"confidence level must be in \(0, 1\), got {level!r}$"):
            estimate_orders(sample, level=level)

    @pytest.mark.parametrize("level", [Fraction(19, 20), np.float32(0.95)])
    def test_real_level_is_reported_as_a_float(self, level):
        sample = PairedSample(np.arange(10.0), np.arange(10.0)[::-1])
        report = estimate_orders(sample, level=level, bootstrap=20)
        assert type(report.level) is float and report.level == float(level)
        assert json.loads(json.dumps(report.to_dict()))["level"] == float(level)

    def test_deterministic_reports(self):
        sample = sample_joint(EX1, 5000, SeededStream(9))
        a = estimate_orders(sample, bootstrap=200, stream=SeededStream(4))
        b = estimate_orders(sample, bootstrap=200, stream=SeededStream(4))
        assert a.to_dict() == b.to_dict()

    def test_intervals_bracket_points(self, rng):
        # both bootstrap paths: few distinct differences (multinomial) and many
        # (the bag of little bootstraps), there down to one resample per subset
        discrete = sample_joint(EX1, 2000, SeededStream(2))
        continuous = PairedSample(rng.normal(size=400), rng.normal(size=400))
        for sample, bootstrap in ((discrete, 300), (continuous, 300), (continuous, 5), (continuous, 1)):
            report = estimate_orders(sample, bootstrap=bootstrap, stream=SeededStream(8))
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

    # the distinct differences of a sample are sorted, so a swap, which
    # negates them, changes which one each multinomial draw lands on: there
    # only the points mirror.  Above the cutoff ("bag") the bag of little
    # bootstraps draws its subsets and counts by row position, so a swap only
    # negates each subset's differences and the intervals mirror bit for bit
    @pytest.mark.parametrize("path", ["bag", "multinomial"])
    def test_swapping_the_sample_mirrors_the_report(self, path):
        if path == "bag":
            sample = sample_example4(0.3, 1000, SeededStream(3))
        else:
            joint = make_joint([(0, 1, 0.3), (1, 0, 0.2), (2, 2, 0.1), (3, 1, 0.4)])
            sample = sample_joint(joint, 1000, SeededStream(3))
        distinct = len(set(zip(sample.x.tolist(), sample.y.tolist())))
        assert (distinct > estimators._MULTINOMIAL_CUTOFF) == (path == "bag")
        report = estimate_orders(sample, bootstrap=200, stream=SeededStream(6))
        swapped = estimate_orders(PairedSample(sample.y, sample.x), bootstrap=200, stream=SeededStream(6))
        for key in ("sp", "mean", "cp_l1", "cp_kstar"):
            want = getattr(report.comparison, key).swapped().outcome
            assert getattr(swapped.comparison, key).outcome is want
        mirror = {"p_less": "p_greater", "l1_below": "l1_above", "kstar_below": "kstar_above"}
        mirror.update({b: a for a, b in mirror.items()})
        for name, other in mirror.items():
            got, want = swapped.quantities[other], report.quantities[name]
            assert got.point == want.point
            if path == "bag":
                assert (got.ci_low, got.ci_high) == (want.ci_low, want.ci_high)
        assert swapped.quantities["mean_diff"].point == -report.quantities["mean_diff"].point


#: Joints whose few distinct differences take the multinomial path; example4 takes the bag.
REFERENCE_JOINTS = {
    "example1": example1().joint,
    "example2": example2().joint,
    "transform": transform_counterexample().joint,
    **{f"dice-{pair.first}{pair.second}": pair.joint for pair in intransitive_demo().pairs},
}


class TestNormalReference:
    """Every row of QUANTITIES is the mean of a per-pair transform of D = Y - X,
    so point +- z sd / sqrt(n) is a reference for both ends of its interval
    that takes no random draws."""

    @pytest.mark.parametrize("name", [*REFERENCE_JOINTS, "example4-0.3", "example4-0.7"])
    def test_interval_ends_follow_the_normal_reference(self, name):
        # each end, averaged over 20 bootstrap streams at B = 200, lies within
        # 0.125 normal half-widths of its reference.  Over 40 sample seeds the
        # worst end read 0.092 on the multinomial path and 0.084 on the bag.
        # Had the bag taken the mean over subsets of each subset's percentiles
        # of its 20 resamples, its ends would sit 0.166-0.211 half-widths
        # inside: too narrow, and caught here
        if name in REFERENCE_JOINTS:
            sample = sample_joint(REFERENCE_JOINTS[name], 2000, SeededStream(1))
        else:
            sample = sample_example4(float(name[9:]), 2000, SeededStream(5))
        method = "bootstrap-percentile" if name in REFERENCE_JOINTS else "blb-percentile"
        d = sample.y - sample.x
        up, down = np.maximum(d, 0.0), np.maximum(-d, 0.0)  # the rows below follow QUANTITIES
        terms = np.array([d > 0.0, d < 0.0, up, down, up / (1.0 + up), down / (1.0 + down), d], dtype=float)
        assert len(terms) == len(estimators.QUANTITIES)
        point = terms.mean(axis=1)
        half = NormalDist().inv_cdf(0.975) * terms.std(axis=1) / math.sqrt(sample.n)
        ends = np.zeros((2, len(point)))
        for seed in range(20):
            report = estimate_orders(sample, bootstrap=200, stream=SeededStream(seed))
            assert report.method == method
            ests = [report.quantities[q] for q in estimators.QUANTITIES]
            ends += [[est.ci_low for est in ests], [est.ci_high for est in ests]]
        deviation = np.abs(ends / 20 - [point - half, point + half]) / half
        assert deviation.max() <= 0.125, dict(zip(estimators.QUANTITIES, deviation.max(axis=0).round(3)))


class TestUniformCounts:
    """The bag's counts are exactly multinomial(n, 1/b): Poisson cells topped up to n."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10**7), b=st.integers(1, 400), r=st.integers(1, 4), seed=st.integers(0, 2**32))
    def test_rows_are_nonnegative_integers_summing_to_n(self, n, b, r, seed):
        counts = estimators._uniform_counts(np.random.default_rng(seed), n, b, r)
        assert counts.shape == (r, b) and counts.dtype == float
        assert (counts >= 0).all() and (counts == np.floor(counts)).all()
        assert (counts.sum(axis=1) == n).all()

    @pytest.mark.parametrize("n, b", [(6, 3), (25, 3)])
    def test_chi_square_against_the_multinomial_pmf(self, n, b):
        # n = 6 takes the top-up alone; at n = 25, lam = 5/3 and the Poisson cells
        # carry most of the count.  Outcomes expected fewer than 5 times are pooled
        rows = 40_000
        counts = estimators._uniform_counts(np.random.default_rng(123), n, b, rows)
        seen = Counter(map(tuple, counts.astype(int).tolist()))
        outcomes = [c for c in itertools.product(range(n + 1), repeat=b) if sum(c) == n]
        pmf = [math.factorial(n) / math.prod(map(math.factorial, c)) / b**n for c in outcomes]
        assert math.isclose(sum(pmf), 1.0)
        expected = rows * np.array(pmf)
        observed = np.array([seen[c] for c in outcomes], dtype=float)
        rare = expected < 5.0
        if rare.any():
            expected = np.append(expected[~rare], expected[rare].sum())
            observed = np.append(observed[~rare], observed[rare].sum())
        chi2, df = float(((observed - expected) ** 2 / expected).sum()), expected.size - 1
        # the 0.999 quantile of chi-square(df), by the Wilson-Hilferty approximation
        bound = df * (1.0 - 2.0 / (9 * df) + 3.09 * math.sqrt(2.0 / (9 * df))) ** 3
        assert chi2 < bound, (chi2, df)

    def test_a_row_past_n_is_drawn_again(self, monkeypatch):
        redrawn = []
        poisson = estimators._poisson

        def overshooting(rng, lam, size):
            counts = poisson(rng, lam, size)
            counts[::2, 0] += 10**6  # every other row passes n
            return counts

        class Recording(np.random.Generator):
            def multinomial(self, n, pvals, size):
                redrawn.append(size)
                return super().multinomial(n, pvals, size=size)

        monkeypatch.setattr(estimators, "_poisson", overshooting)
        counts = estimators._uniform_counts(Recording(np.random.PCG64(5)), 1000, 40, 6)
        assert redrawn == [3]
        assert (counts.sum(axis=1) == 1000).all() and (counts >= 0).all()
        assert counts[:, 0].max() < 10**6

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_below_16_every_count_comes_from_the_top_up(self, n, monkeypatch):
        # n - 4 sqrt(n) < 0 for n < 16, so lam clamps to 0 and the Poisson cells are empty
        rates, cells = [], []
        poisson = estimators._poisson

        def recording(rng, lam, size):
            rates.append(lam)
            cells.append(poisson(rng, lam, size))
            return cells[-1]

        monkeypatch.setattr(estimators, "_poisson", recording)
        counts = estimators._uniform_counts(np.random.Generator(np.random.PCG64(7)), n, 3, 50)
        assert rates == [0.0] and not cells[0].any()
        assert (counts.sum(axis=1) == n).all() and (counts >= 0).all()


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

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_empirical_cdfs_match_the_oracle(self, eps):
        # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: an empirical cdf
        # strays further than sqrt(ln(2 / 1e-6) / (2 n)) from the true one with
        # probability at most 1e-6.  The oracle reads Y's cdf as 1 - F_X(1 - t),
        # so this checks that the sampler's Y has the law of 1 - X
        n, ts = 200_000, np.linspace(0.05, 0.95, 19)
        s, scn = sample_example4(eps, n, SeededStream(37)), example4_spec(eps)
        bound = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        for values, oracle in ((s.x, scn.oracle_cdf_x), (s.y, scn.oracle_cdf_y)):
            empirical = np.searchsorted(np.sort(values), ts, side="right") / n
            assert np.abs(empirical - oracle(ts)).max() <= bound

    def test_band_points_satisfy_band_inequalities(self):
        eps = 0.25
        s = sample_example4(eps, 20_000, SeededStream(31))
        d = s.x - s.y
        in_band = (d >= 0.0) & (d <= eps)
        in_triangle = (s.y - s.x) > (1.0 - eps)
        assert np.all(in_band | in_triangle)


class TestExample4Oracle:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_oracle_matches_quadrature(self, eps):
        # 200-node Gauss-Legendre rule on the density of D: a (1 - t) at -t
        # for t in [0, eps], b (1 - u) at u in (1 - eps, 1)
        a, b = band_triangle_densities(eps)
        t, w = np.polynomial.legendre.leggauss(200)
        t, w = eps / 2.0 * (t + 1.0), eps / 2.0 * w
        u = 1.0 - eps + t
        band, triangle = a * (1.0 - t) * w, b * (1.0 - u) * w
        want = {
            "p_less": triangle.sum(),
            "p_greater": band.sum(),
            "l1_below": (triangle * u).sum(),
            "l1_above": (band * t).sum(),
            "kstar_below": (triangle * u / (1.0 + u)).sum(),
            "kstar_above": (band * t / (1.0 + t)).sum(),
        }
        oracle = oracle_example4_terms(eps)
        assert {name: oracle[name] for name in want} == pytest.approx(want, rel=1e-12)
        masses = example4_spec(eps).oracle_region_masses()
        assert (oracle["p_greater"], oracle["p_less"]) == pytest.approx(masses, rel=1e-12)

    def test_oracle_values_at_eps_0_3(self):
        oracle = {name: round(value, 5) for name, value in oracle_example4_terms(0.3).items()}
        assert oracle == {
            "p_less": 0.3,
            "p_greater": 0.7,
            "l1_below": 0.24,
            "l1_above": 0.09882,
            "kstar_below": 0.13308,
            "kstar_above": 0.0831,
            "mean_diff": 0.14118,
        }

    @pytest.mark.parametrize(
        "n, bootstrap",
        [
            pytest.param(500, 500, id="500"),
            pytest.param(2000, 500, id="2000"),
            pytest.param(2000, 200, id="2000-200"),
        ],
    )
    def test_bag_of_little_bootstraps_covers_the_oracle(self, n, bootstrap):
        # both sizes are above the cutoff; every interval must cover the exact
        # term at 0.95 within three binomial standard errors over the seeds.
        # One percentile of all subsets' pooled centred replicates: with the mean
        # of each subset's percentiles of 20 resamples (bootstrap=200), those sat
        # inside the tails and n = 2000 covered 0.89-0.905
        seeds, truth = 200, oracle_example4_terms(0.3)
        covered = Counter()
        for seed in range(seeds):
            sample = sample_example4(0.3, n, SeededStream(seed))
            report = estimate_orders(sample, bootstrap=bootstrap, stream=SeededStream(10_000 + seed))
            assert report.method == "blb-percentile"
            for name, est in report.quantities.items():
                covered[name] += est.ci_low <= truth[name] <= est.ci_high
        floor = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / seeds)
        assert min(covered[name] for name in truth) >= floor * seeds, covered

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_estimate_matches_oracle(self, eps):
        # within one 95% interval width of the oracle: about 4 standard errors
        sample = sample_example4(eps, 100_000, SeededStream(41))
        report = estimate_orders(sample, bootstrap=200, stream=SeededStream(42))
        for name, want in oracle_example4_terms(eps).items():
            est = report.quantities[name]
            assert abs(est.point - want) <= est.ci_high - est.ci_low, name
