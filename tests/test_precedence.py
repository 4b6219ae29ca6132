"""Joint-law orders: exact values, decomposition identities, invariances."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    Outcome,
    PairedSample,
    apply_transform,
    compare_all,
    compare_cp_kstar,
    compare_cp_l1,
    compare_mean,
    compare_sp,
    compare_st,
    estimate_orders,
    event_probs,
    expectation,
    kstar_decompose,
    l1_decompose,
    make_joint,
    marginal_x,
    marginal_y,
    swap,
)

from conftest import direct_kstar, direct_l1, random_joint, random_product_joint

EX1 = make_joint([(1000.0, 999.0, 0.6), (0.0, 999.0, 0.4)])
EX2 = make_joint([(1100.0, 999.0, 0.9), (0.0, 999.0, 0.1)])
DIAGONAL = make_joint([(3.0, 3.0, 1.0)])


class TestEventProbs:
    def test_example1(self):
        assert event_probs(EX1) == (0.4, 0.0, 0.6)

    def test_diagonal(self):
        assert event_probs(DIAGONAL) == (0.0, 1.0, 0.0)

    def test_example2(self):
        assert event_probs(EX2) == (0.1, 0.0, 0.9)

    def test_sums_to_one(self, rng):
        for _ in range(50):
            probs = event_probs(random_joint(rng))
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


class TestStochasticPrecedence:
    def test_example1_prefers_x(self):
        v = compare_sp(EX1)
        assert v.outcome is Outcome.SECOND_PRECEDES
        assert v.evidence["p_y_leq_x"] == 0.6

    def test_diagonal_equal(self):
        assert compare_sp(DIAGONAL).outcome is Outcome.EQUAL

    def test_example2_prefers_x(self):
        assert compare_sp(EX2).outcome is Outcome.SECOND_PRECEDES

    def test_connex(self, rng):
        # a verdict always exists; INCOMPARABLE can never be produced
        for _ in range(100):
            v = compare_sp(random_joint(rng))
            assert v.outcome in (Outcome.FIRST_PRECEDES, Outcome.SECOND_PRECEDES, Outcome.EQUAL)


class TestMeanOrder:
    def test_example1(self):
        v = compare_mean(EX1)
        assert v.outcome is Outcome.FIRST_PRECEDES
        assert v.evidence == {"mean_x": 600.0, "mean_y": 999.0}

    def test_example2(self):
        v = compare_mean(EX2)
        assert v.outcome is Outcome.FIRST_PRECEDES
        assert v.evidence["mean_x"] == pytest.approx(990.0, abs=1e-9)

    def test_symmetrized_joint_is_equal(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            sym = make_joint(
                [(x, y, p / 2) for x, y, p in j.atoms] + [(y, x, p / 2) for x, y, p in j.atoms],
                normalize=True,
            )
            assert compare_mean(sym).outcome is Outcome.EQUAL


class TestL1Decomposition:
    def test_example1(self):
        d = l1_decompose(EX1)
        assert d.below_term == pytest.approx(399.6, abs=1e-9)
        assert d.above_term == pytest.approx(0.6, abs=1e-9)
        assert d.total == pytest.approx(400.2, abs=1e-9)

    def test_diagonal_all_zero(self):
        d = l1_decompose(DIAGONAL)
        assert (d.below_term, d.above_term, d.total) == (0.0, 0.0, 0.0)
        assert d.normalized_below is None

    def test_example2(self):
        d = l1_decompose(EX2)
        assert d.below_term == pytest.approx(99.9, abs=1e-9)
        assert d.above_term == pytest.approx(90.9, abs=1e-9)


class TestKstarDecomposition:
    def test_example1(self):
        d = kstar_decompose(EX1)
        assert d.below_term == pytest.approx(0.3996, abs=1e-9)
        assert d.above_term == pytest.approx(0.3, abs=1e-9)

    def test_example2(self):
        d = kstar_decompose(EX2)
        assert d.below_term == pytest.approx(0.0999, abs=1e-4)
        assert d.above_term == pytest.approx(0.8912, abs=1e-4)
        assert d.above_term == pytest.approx(0.9 * 101.0 / 102.0, abs=1e-12)

    def test_diagonal_all_zero(self):
        d = kstar_decompose(DIAGONAL)
        assert (d.below_term, d.above_term, d.total) == (0.0, 0.0, 0.0)

    def test_bounded_below_one(self, rng):
        for _ in range(200):
            assert kstar_decompose(random_joint(rng)).total < 1.0


class TestConditionalVerdicts:
    def test_example1_cp_l1(self):
        assert compare_cp_l1(EX1).outcome is Outcome.FIRST_PRECEDES

    def test_diagonal_equal(self):
        assert compare_cp_l1(DIAGONAL).outcome is Outcome.EQUAL
        assert compare_cp_kstar(DIAGONAL).outcome is Outcome.EQUAL

    def test_transform_flips_cp_l1(self):
        transformed = make_joint([(0.0, 1.0, 0.4), (1000.0, 1.0, 0.6)])
        assert compare_cp_l1(transformed).outcome is Outcome.SECOND_PRECEDES

    def test_example_kstar_verdicts(self):
        assert compare_cp_kstar(EX1).outcome is Outcome.FIRST_PRECEDES
        assert compare_cp_kstar(EX2).outcome is Outcome.SECOND_PRECEDES

    def test_normalized_form_equivalence(self, rng):
        # with positive total, below > above is the same test as
        # normalized_below > 1/2
        for _ in range(100):
            report = compare_all(random_joint(rng))
            for d, v in ((report.l1, report.cp_l1), (report.kstar, report.cp_kstar)):
                if d.total <= 0.0:
                    continue
                if v.outcome is Outcome.FIRST_PRECEDES:
                    assert d.normalized_below > 0.5
                elif v.outcome is Outcome.SECOND_PRECEDES:
                    assert d.normalized_below < 0.5
                else:
                    assert d.normalized_below == pytest.approx(0.5, abs=1e-12)


@given(
    atoms=st.lists(
        st.tuples(
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(1e-6, 1.0),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_decomposition_identity(atoms):
    j = make_joint(atoms, normalize=True)
    l1 = l1_decompose(j)
    ks = kstar_decompose(j)
    assert l1.below_term + l1.above_term == pytest.approx(direct_l1(j), rel=1e-9, abs=1e-12)
    assert ks.below_term + ks.above_term == pytest.approx(direct_kstar(j), rel=1e-9, abs=1e-12)
    assert 0.0 <= ks.total < 1.0


@given(
    atoms=st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
            st.floats(1e-6, 1.0),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_swap_antisymmetry(atoms):
    j = make_joint(atoms, normalize=True)
    swapped = swap(j)
    for compare in (compare_sp, compare_mean, compare_cp_l1, compare_cp_kstar):
        mirrored = compare(j).swapped()
        assert compare(swapped).outcome is mirrored.outcome
        assert compare(swapped).evidence == pytest.approx(mirrored.evidence, rel=1e-12)


class TestIndependenceEquivalence:
    def test_cp_l1_equals_mean_order_for_products(self, rng):
        # under independence the two terms differ exactly by E(Y) - E(X)
        count = 0
        while count < 200:
            j = random_product_joint(rng)
            d = l1_decompose(j)
            mean_x = expectation(marginal_x(j))
            mean_y = expectation(marginal_y(j))
            scale = max(1.0, abs(mean_x), abs(mean_y))
            if abs(d.below_term - d.above_term) < 1e-6 * scale:
                continue  # regenerate near-ties
            assert compare_cp_l1(j).outcome is compare_mean(j).outcome
            count += 1

    def test_term_difference_is_mean_difference(self, rng):
        for _ in range(100):
            j = random_product_joint(rng)
            d = l1_decompose(j)
            mean_gap = expectation(marginal_y(j)) - expectation(marginal_x(j))
            assert d.below_term - d.above_term == pytest.approx(mean_gap, rel=1e-9, abs=1e-9)


class TestLocationScaleInvariance:
    def test_positive_scale_preserves_all_orders(self, rng):
        from stochorder import apply_transform

        count = 0
        while count < 100:
            j = random_joint(rng)
            d = l1_decompose(j)
            if abs(d.below_term - d.above_term) < 1e-6 * max(1.0, d.total):
                continue
            a, b = rng.uniform(-5, 5), rng.uniform(0.1, 10.0)
            moved = apply_transform(j, lambda t: a + b * t)
            for compare in (compare_cp_l1, compare_sp, compare_mean):
                assert compare(moved).outcome is compare(j).outcome
            count += 1

    def test_negative_scale_swaps_sides(self, rng):
        from stochorder import apply_transform

        count = 0
        while count < 100:
            j = random_joint(rng)
            d = l1_decompose(j)
            if abs(d.below_term - d.above_term) < 1e-6 * max(1.0, d.total):
                continue
            a, b = rng.uniform(-5, 5), -rng.uniform(0.1, 10.0)
            moved = apply_transform(j, lambda t: a + b * t)
            for compare in (compare_cp_l1, compare_sp, compare_mean):
                assert compare(moved).outcome is compare(j).swapped().outcome
            count += 1


class TestStImpliesSpUnderIndependence:
    def test_no_reversal(self, rng):
        from stochorder import make_marginal, product_joint

        checked = 0
        for _ in range(400):
            if rng.random() < 0.5:
                # construct a stochastically dominated pair by shifting values up
                k = int(rng.integers(1, 6))
                values = np.sort(rng.uniform(-5, 5, k))
                masses = rng.dirichlet(np.ones(k))
                mx = make_marginal(zip(values, masses), normalize=True)
                my = make_marginal(zip(values + rng.uniform(0.1, 3.0), masses), normalize=True)
            else:
                mx = marginal_x(random_product_joint(rng))
                my = marginal_y(random_product_joint(rng))
            if compare_st(mx, my).verdict.outcome is not Outcome.FIRST_PRECEDES:
                continue
            assert compare_sp(product_joint(mx, my)).outcome is not Outcome.SECOND_PRECEDES
            checked += 1
        assert checked >= 100


class TestCompareAll:
    def test_example1_row(self):
        r = compare_all(EX1)
        assert (r.sp.preferred(), r.mean.preferred(), r.cp_l1.preferred(), r.cp_kstar.preferred()) == (
            "X",
            "Y",
            "Y",
            "Y",
        )

    def test_example2_row(self):
        r = compare_all(EX2)
        assert (r.sp.preferred(), r.mean.preferred(), r.cp_l1.preferred(), r.cp_kstar.preferred()) == (
            "X",
            "Y",
            "Y",
            "X",
        )

    def test_diagonal_all_equal(self):
        r = compare_all(DIAGONAL)
        assert all(
            v.outcome is Outcome.EQUAL for v in (r.sp, r.mean, r.cp_l1, r.cp_kstar)
        )

    def test_dict_shape(self):
        doc = compare_all(EX1).to_dict()
        assert set(doc) == {"sp", "mean", "cp_l1", "cp_kstar", "l1", "kstar", "probs"}
        assert doc["probs"] == {"p_less": 0.4, "p_equal": 0.0, "p_greater": 0.6}
        assert doc["l1"]["below"] == pytest.approx(399.6)
        assert doc["sp"]["preferred"] == "X"


class TestKstarAtNumericEdges:
    def test_overflowing_distance_counts_as_one(self):
        # 1e308 - (-1e308) overflows to inf; |d| / (1 + |d|) tends to 1 there
        j = make_joint([(1e308, -1e308, 0.5), (0.0, 1.0, 0.5)])
        d = kstar_decompose(j)
        assert d.above_term == pytest.approx(0.5, rel=1e-15)
        assert d.below_term == 0.25
        assert compare_cp_kstar(j).outcome is Outcome.SECOND_PRECEDES
        assert compare_cp_l1(j).outcome is Outcome.INCONCLUSIVE

    @pytest.mark.parametrize(
        "atoms, normalize",
        [
            ([(0.0, 1e17, 0.5), (1.0, 1e17, 0.5 + 4e-13)], False),  # kept: within 1e-12 of 1
            ([(0.0, 1e300, 8), (1.0, 1e300, 6), (2.0, 1e300, 3)], True),  # rescaled to 1 + 1 ulp
        ],
    )
    def test_total_over_one_where_the_masses_are(self, atoms, normalize):
        # every p |d| / (1 + |d|) rounds to about p, so the K* total is the masses'
        # total, up to the roundings of |d| p and of the division
        j = make_joint(atoms, normalize=normalize)
        report = compare_all(j)
        assert report.kstar.total > 1.0
        assert report.kstar.total == pytest.approx(math.fsum(j.p), rel=1e-15, abs=0.0)
        assert report.cp_kstar.outcome is Outcome.FIRST_PRECEDES

    def test_distance_that_rounds_to_one(self):
        # 1e17 / (1 + 1e17) rounds to exactly 1.0
        report = compare_all(make_joint([(0.0, 1e17, 1.0)]))
        d = report.kstar
        assert (d.below_term, d.above_term, d.total) == (1.0, 0.0, 1.0)
        assert report.cp_kstar.outcome is Outcome.FIRST_PRECEDES


def _off_by(rel: float) -> list:
    """A joint whose L1, K* and mean statistics differ by about ``rel`` relative (x side larger)."""
    return [(0.0, 1.0, 0.5), (1.0 + rel, 0.0, 0.5)]


class TestDecisionRule:
    """Every joint-law verdict is one trichotomy; these rows sit on its boundaries."""

    @pytest.mark.parametrize(
        "atoms, orders, outcome",
        [
            # sp: P(X <= Y) and P(Y <= X) at exactly 1/2
            ([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5)], ("sp",), Outcome.EQUAL),
            ([(0.0, 1.0, 0.5), (1.0, 1.0, 0.25), (1.0, 0.0, 0.25)], ("sp",), Outcome.EQUAL),
            ([(0.0, 1.0, 0.25), (1.0, 1.0, 0.25), (1.0, 0.0, 0.5)], ("sp",), Outcome.EQUAL),
            # sp: one side one ulp below 1/2, the other one ulp above
            ([(0.0, 1.0, 0.49999999999999994), (1.0, 0.0, 0.5000000000000001)], ("sp",),
             Outcome.SECOND_PRECEDES),
            ([(0.0, 1.0, 0.5000000000000001), (1.0, 0.0, 0.49999999999999994)], ("sp",),
             Outcome.FIRST_PRECEDES),
            # the statistics 5e-13 relative apart (K*: 2.5e-13) are equal; 4e-12 apart (K*: 2e-12) are not
            (_off_by(0.5e-12), ("mean", "cp_l1", "cp_kstar"), Outcome.EQUAL),
            (_off_by(-0.5e-12), ("mean", "cp_l1", "cp_kstar"), Outcome.EQUAL),
            (_off_by(4e-12), ("mean", "cp_l1", "cp_kstar"), Outcome.SECOND_PRECEDES),
            (_off_by(-4e-12), ("mean", "cp_l1", "cp_kstar"), Outcome.FIRST_PRECEDES),
            # an infinite L1 term; the mean order then falls back to the means
            ([(1e308, -1e308, 0.5), (0.0, 1.0, 0.5)], ("cp_l1",), Outcome.INCONCLUSIVE),
            ([(1e308, -1e308, 0.5), (0.0, 1.0, 0.5)], ("mean",), Outcome.SECOND_PRECEDES),
            # Y > X surely, by 1e-7 at 1e6: far inside 1e-12 of the means, but not of the L1 terms
            ([(1e6, 1e6 + 1e-7, 1.0)], ("sp", "mean", "cp_l1", "cp_kstar"), Outcome.FIRST_PRECEDES),
        ],
    )
    def test_boundaries(self, atoms, orders, outcome):
        report = compare_all(make_joint(atoms))
        for order in orders:
            assert getattr(report, order).outcome is outcome, order

    def test_sp_equal_when_both_probabilities_round_below_half(self):
        # the total is within 1e-12 of 1, so the masses are kept as given and
        # both P(X <= Y) and P(Y <= X) are 0.4999999999999996
        j = make_joint([(0.0, 1.0, 0.4999999999999996), (1.0, 0.0, 0.4999999999999996)])
        for joint in (j, swap(j)):
            verdict = compare_all(joint).sp
            assert verdict.evidence == {"p_x_leq_y": 0.4999999999999996, "p_y_leq_x": 0.4999999999999996}
            assert verdict.outcome is Outcome.EQUAL


class TestMeanOrderIsCpL1:
    """E(Y) - E(X) = l1_below - l1_above, so the mean order decides on the L1 terms."""

    def test_estimate_decides_the_mean_on_the_l1_points(self):
        sample = PairedSample([1e6, 2e6, 3e6], [1e6 + 1e-7, 2e6 + 1e-7, 3e6 + 1e-7])
        mean = estimate_orders(sample, bootstrap=20).comparison.mean
        assert mean.outcome is Outcome.FIRST_PRECEDES
        assert mean.evidence["mean_y"] - mean.evidence["mean_x"] < 1e-12 * 2e6  # the old rule's tie

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e9, 1e9),
        st.lists(
            st.tuples(
                st.one_of(st.floats(-1.0, 1.0), st.floats(-1.7e308, 1.7e308)),
                st.one_of(st.floats(-1.0, 1.0), st.floats(-1.7e308, 1.7e308)),
                st.floats(1e-3, 1.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_mean_verdict_is_the_cp_l1_verdict_when_the_l1_terms_are_finite(self, location, offsets):
        # pairs near a common location far from 0 hold the ties the means cannot see;
        # offsets near the float range make y - x overflow, and the means decide
        j = make_joint([(location + a, location + b, p) for a, b, p in offsets], normalize=True)
        report = compare_all(j)
        mean_x, mean_y = report.mean.evidence["mean_x"], report.mean.evidence["mean_y"]
        if math.isfinite(report.l1.below_term) and math.isfinite(report.l1.above_term):
            assert report.mean.outcome is report.cp_l1.outcome
        elif mean_x == mean_y:
            assert report.mean.outcome is Outcome.EQUAL
        else:
            want = Outcome.FIRST_PRECEDES if mean_y > mean_x else Outcome.SECOND_PRECEDES
            assert report.mean.outcome is want

    def test_a_mean_past_the_float_range_is_infinite(self):
        # the masses total 1 + 4e-13, within 1e-12 of 1, so they are kept; E(Y)
        # then passes the largest float and is infinite, not an error, and the
        # finite L1 terms decide the mean order
        big = 1.7976931348623157e308
        report = compare_all(make_joint([(big, big, 0.5), (big / 2, big, 0.5 + 4e-13)]))
        assert math.isfinite(report.mean.evidence["mean_x"]) and report.mean.evidence["mean_y"] == math.inf
        assert report.cp_l1.outcome is report.mean.outcome is Outcome.FIRST_PRECEDES


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-100, 100), st.integers(-100, 100), st.integers(1, 10)),
        min_size=1,
        max_size=8,
    )
)
def test_sp_is_invariant_under_cubing(atoms):
    # x -> x**3 is strictly increasing, and exact in floats on integers up to 100
    # in magnitude, so it keeps each atom's side of the diagonal and the masses
    j = make_joint(atoms, normalize=True)
    cubed = compare_all(apply_transform(j, lambda t: t**3))
    report = compare_all(j)
    assert cubed.sp == report.sp and cubed.probs == report.probs


#: Values at the edges of the float range: signed zeros, subnormals, the smallest
#: normal, and magnitudes whose differences overflow.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300,
    1.0, -1.0, 3.0, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
)
LARGEST = Fraction(1.7976931348623157e308)


def _near(got: float, exact: Fraction, scale: Fraction, atoms: int) -> bool:
    """``got`` within a few roundings of each summand of ``exact``: 1e-15 of the
    summands' absolute sum ``scale``, plus one subnormal step per atom."""
    slack = scale / 10**15 + atoms * Fraction(5e-324)
    if math.isinf(got):
        return abs(exact) + slack > LARGEST and (got > 0) == (exact > 0)
    return abs(Fraction(got) - exact) <= slack


def _fraction_terms(j) -> dict:
    """Each term of ``compare_all`` in exact rational arithmetic on the atoms,
    as (value, absolute sum of the summands).  A difference is the float
    y - x, as in the engine: one that overflows makes its L1 term infinite
    (None here) and counts its mass in K*."""
    names = ("p_less", "p_equal", "p_greater", "l1_below", "l1_above", "kstar_below", "kstar_above")
    terms = dict.fromkeys((*names, "mean_x", "mean_y"), (Fraction(0), Fraction(0)))

    def add(name, value):
        sums = terms[name]
        terms[name] = None if value is None or sums is None else (sums[0] + value, sums[1] + abs(value))

    for x, y, p in j.atoms:
        d, p = y - x, Fraction(p)
        add("mean_x", Fraction(x) * p)
        add("mean_y", Fraction(y) * p)
        if d == 0:
            add("p_equal", p)
            continue
        side = "below" if d > 0 else "above"
        dist = abs(Fraction(d)) if math.isfinite(d) else None
        add("p_less" if side == "below" else "p_greater", p)
        add(f"l1_{side}", None if dist is None else dist * p)
        add(f"kstar_{side}", p if dist is None else p * dist / (1 + dist))
    return terms


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(EDGE_VALUES), st.sampled_from(EDGE_VALUES), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    )
)
def test_compare_all_matches_exact_rationals_at_the_float_edges(atoms):
    j = make_joint(atoms, normalize=True)
    report = compare_all(j)
    got = {
        **report.probs._asdict(),
        "l1_below": report.l1.below_term,
        "l1_above": report.l1.above_term,
        "kstar_below": report.kstar.below_term,
        "kstar_above": report.kstar.above_term,
        **report.mean.evidence,
    }
    exact = _fraction_terms(j)
    for name in ("p_less", "p_equal", "p_greater"):  # fsums of the same masses: correctly rounded
        assert got[name] == float(exact[name][0]), name
    for name, value in got.items():
        if exact[name] is None:
            assert value == math.inf, name
        else:
            assert _near(value, *exact[name], len(j)), name
    # verdicts, where the exact statistics are clear of the rule's boundaries, of
    # underflow (a subnormal d p can round to 0) and of the top of the float range
    reach = [exact["p_less"][0] + exact["p_equal"][0] >= Fraction(1, 2),
             exact["p_greater"][0] + exact["p_equal"][0] >= Fraction(1, 2)]
    halves = (exact[name][0] + exact["p_equal"][0] - Fraction(1, 2) for name in ("p_less", "p_greater"))
    if all(abs(q) > Fraction(2) ** -50 for q in halves):
        sides = {(True, False): Outcome.FIRST_PRECEDES, (False, True): Outcome.SECOND_PRECEDES}
        assert report.sp.outcome is sides.get(tuple(reach), Outcome.EQUAL)
    for order, metric in (("cp_l1", "l1"), ("mean", "l1"), ("cp_kstar", "kstar")):
        if exact[f"{metric}_below"] is None or exact[f"{metric}_above"] is None:
            continue
        below, above = exact[f"{metric}_below"][0], exact[f"{metric}_above"][0]
        if max(below, above) > LARGEST / 2 or any(0 < t < Fraction(2) ** -1000 for t in (below, above)):
            continue
        gap = abs(below - above) / max(below, above, Fraction(1, 10**300))
        if gap > Fraction(2, 10**12):
            want = Outcome.FIRST_PRECEDES if below > above else Outcome.SECOND_PRECEDES
        elif gap < Fraction(1, 2 * 10**12):
            want = Outcome.EQUAL
        else:
            continue
        assert getattr(report, order).outcome is want, order
