"""Joint-law orders: exact values, decomposition identities, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    Outcome,
    compare_all,
    compare_cp_kstar,
    compare_cp_l1,
    compare_mean,
    compare_sp,
    compare_st,
    event_probs,
    expectation,
    kstar_decompose,
    l1_decompose,
    make_joint,
    marginal_x,
    marginal_y,
    swap,
)
from stochorder.precedence import verdict_from_decomposition

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
            j = random_joint(rng)
            for d in (l1_decompose(j), kstar_decompose(j)):
                if d.total <= 0.0:
                    continue
                v = verdict_from_decomposition(d)
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

    def test_distance_that_rounds_to_one(self):
        # 1e17 / (1 + 1e17) rounds to exactly 1.0
        d = kstar_decompose(make_joint([(0.0, 1e17, 1.0)]))
        assert (d.below_term, d.above_term, d.total) == (1.0, 0.0, 1.0)
        assert verdict_from_decomposition(d).outcome is Outcome.FIRST_PRECEDES
