"""Construction, validation and elementary functionals of the substrates."""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochorder.distributions

from stochorder import (
    EmptyDistribution,
    FiniteJointDistribution,
    FiniteMarginal,
    GridDensityPair,
    NotNormalizable,
    PairedSample,
    SupportTooLarge,
    UndefinedAtSupport,
    ValidationError,
    apply_transform,
    expectation,
    make_joint,
    make_marginal,
    marginal_x,
    marginal_y,
    product_joint,
    swap,
)
from stochorder.distributions import _fsum, _grouped

from conftest import random_joint

EX1_ATOMS = [(0.0, 999.0, 0.4), (1000.0, 999.0, 0.6)]


class TestMakeJoint:
    def test_two_point_table(self):
        j = make_joint(EX1_ATOMS)
        assert len(j) == 2
        assert j.atoms == ((0.0, 999.0, 0.4), (1000.0, 999.0, 0.6))

    def test_duplicates_merge(self):
        j = make_joint([(1, 1, 0.5), (1, 1, 0.5)])
        assert j.atoms == ((1.0, 1.0, 1.0),)

    def test_renormalization_arithmetic(self):
        # oracle: raw sum is 0.99, each mass divides by it
        j = make_joint([(0, 0, 0.3), (1, 2, 0.69)], normalize=True)
        masses = [p for _, _, p in j.atoms]
        assert masses == pytest.approx([0.3 / 0.99, 0.69 / 0.99], abs=0.0)
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_atoms_dropped(self):
        j = make_joint([(0, 0, 0.0), (1, 1, 1.0)])
        assert j.atoms == ((1.0, 1.0, 1.0),)

    def test_empty_and_all_zero(self):
        with pytest.raises(EmptyDistribution):
            make_joint([])
        with pytest.raises(EmptyDistribution):
            make_joint([(1, 2, 0.0)])

    def test_not_normalizable_without_flag(self):
        with pytest.raises(NotNormalizable):
            make_joint([(0, 0, 0.3), (1, 2, 0.69)])

    def test_small_deviation_renormalized_silently(self):
        j = make_joint([(0, 0, 0.5), (1, 1, 0.5 + 1e-10)])
        assert math.fsum(p for _, _, p in j.atoms) == pytest.approx(1.0, abs=1e-12)

    def test_negative_mass_names_atom(self):
        with pytest.raises(ValidationError, match="atom 1"):
            make_joint([(0, 0, 0.5), (1, 1, -0.1)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="atom 0"):
            make_joint([(float("inf"), 0, 1.0)])
        with pytest.raises(ValidationError, match="atom 0"):
            make_joint([(0, float("nan"), 1.0)])

    @pytest.mark.parametrize(
        "build, item",
        [
            (make_joint, "atoms"),
            (make_marginal, "points"),
            (FiniteJointDistribution, "atoms"),
            (FiniteMarginal, "points"),
        ],
    )
    @pytest.mark.parametrize("raw", [5, None, np.array(5.0)])
    def test_non_iterable_input_rejected(self, build, item, raw):
        with pytest.raises(ValidationError, match=f"expected an iterable of {item}, got "):
            build(raw)

    def test_bools_read_as_zero_and_one(self):
        assert make_joint([(True, False, True)]).atoms == ((1.0, 0.0, 1.0),)
        assert make_joint(np.array([[True, False, True]])).atoms == ((1.0, 0.0, 1.0),)

    def test_what_float_reads_is_a_number(self):
        rows = [(Decimal("0.5"), Fraction(1, 3), Fraction(1, 2)), (2**70, -1, Decimal("0.5"))]
        want = ((0.5, 1 / 3, 0.5), (2.0**70, -1.0, 0.5))
        assert make_joint(rows).atoms == want and FiniteJointDistribution(rows).atoms == want
        assert PairedSample([Decimal("0.5"), 2**70], [Fraction(1, 3), 1]).pairs() == [(0.5, 1 / 3), (2.0**70, 1.0)]

    def test_rows_may_be_any_iterables(self):
        # the rows are read once each, by the loop that would name a bad one
        assert make_joint([(v for v in row) for row in EX1_ATOMS]) == make_joint(EX1_ATOMS)


class TestMarginals:
    def test_example_marginals(self):
        j = make_joint(EX1_ATOMS)
        assert marginal_x(j).points == ((0.0, 0.4), (1000.0, 0.6))
        assert marginal_y(j).points == ((999.0, 1.0),)

    def test_product_round_trip(self, rng):
        for _ in range(50):
            k1 = int(rng.integers(1, 6))
            k2 = int(rng.integers(1, 6))
            mx = make_marginal(zip(rng.uniform(-5, 5, k1), rng.dirichlet(np.ones(k1))), normalize=True)
            my = make_marginal(zip(rng.uniform(-5, 5, k2), rng.dirichlet(np.ones(k2))), normalize=True)
            j = product_joint(mx, my)
            assert marginal_x(j).values == mx.values
            assert marginal_y(j).values == my.values
            assert marginal_x(j).masses == pytest.approx(mx.masses, rel=1e-12)
            assert marginal_y(j).masses == pytest.approx(my.masses, rel=1e-12)

    def test_cdf_reads_points_by_the_number_rule(self):
        m = make_marginal([(0, 0.5), (1, 0.5)])
        assert m.cdf(True) == 1.0 and m.cdf(np.array([-1, 0.5])).tolist() == [0.0, 0.5]
        for t in (None, "0.5", 1j, [0.5, None]):
            with pytest.raises(ValidationError, match="cdf points must be numbers, got"):
                m.cdf(t)

    def test_marginal_masses_sum_to_one(self, rng):
        for _ in range(25):
            j = random_joint(rng)
            assert math.fsum(marginal_x(j).masses) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(marginal_y(j).masses) == pytest.approx(1.0, abs=1e-12)


class TestProductJoint:
    def test_uniform_product(self):
        m = make_marginal([(0, 0.5), (1, 0.5)])
        j = product_joint(m, m)
        assert j.atoms == (
            (0.0, 0.0, 0.25),
            (0.0, 1.0, 0.25),
            (1.0, 0.0, 0.25),
            (1.0, 1.0, 0.25),
        )

    def test_example_joint_is_a_product(self):
        mx = make_marginal([(0, 0.4), (1000, 0.6)])
        my = make_marginal([(999, 1.0)])
        assert product_joint(mx, my) == make_joint(EX1_ATOMS)

    def test_support_cap(self):
        m = make_marginal([(i, 0.1) for i in range(10)])
        with pytest.raises(SupportTooLarge):
            product_joint(m, m, max_atoms=50)

    @pytest.mark.parametrize(
        "points, size",
        [
            ([(0.0, 0.5 + 0.9e-12), (1.0, 0.5)], 4),  # each total within 1e-12 of 1, the product's not
            ([(0.0, 1e-200), (1.0, 1.0)], 3),  # 1e-200 * 1e-200 underflows to 0: that atom is dropped
        ],
    )
    def test_product_of_valid_marginals_is_a_joint(self, points, size):
        m = make_marginal(points)
        j = product_joint(m, m)
        assert len(j) == size and j.p.all()
        assert abs(math.fsum(j.p) - 1.0) <= 1e-12


class TestApplyTransform:
    def test_relabeling_table(self):
        j = make_joint(EX1_ATOMS)
        phi = {0.0: 0.0, 999.0: 1.0, 1000.0: 1000.0}
        assert apply_transform(j, phi).atoms == ((0.0, 1.0, 0.4), (1000.0, 1.0, 0.6))

    def test_values_that_float_reads_are_numbers(self):
        j = make_joint(EX1_ATOMS)
        phi = {0.0: np.array(0.0), 999.0: Fraction(1, 2), 1000.0: True}
        assert apply_transform(j, phi).atoms == ((0.0, 0.5, 0.4), (1.0, 0.5, 0.6))

    def test_identity_is_identity(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            assert apply_transform(j, lambda t: t) == j

    def test_affine_matches_direct_construction(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            a, b = rng.uniform(-3, 3), rng.uniform(0.5, 2.0)
            direct = FiniteJointDistribution(
                tuple(sorted((a + b * x, a + b * y, p) for x, y, p in j.atoms))
            )
            assert apply_transform(j, lambda t: a + b * t) == direct

    def test_collisions_merge(self):
        j = make_joint([(0, 1, 0.5), (2, 3, 0.5)])
        collapsed = apply_transform(j, lambda t: 0.0)
        assert collapsed.atoms == ((0.0, 0.0, 1.0),)

    def test_missing_table_entry(self):
        j = make_joint(EX1_ATOMS)
        with pytest.raises(UndefinedAtSupport, match="999"):
            apply_transform(j, {0.0: 0.0, 1000.0: 1.0})

    def test_raising_callable(self):
        j = make_joint(EX1_ATOMS)
        with pytest.raises(UndefinedAtSupport):
            apply_transform(j, lambda t: math.sqrt(t - 1e6))

    def test_non_finite_result(self):
        j = make_joint(EX1_ATOMS)
        with pytest.raises(UndefinedAtSupport):
            apply_transform(j, lambda t: float("inf"))

    @pytest.mark.parametrize(
        "phi",
        [
            lambda t: "x",
            lambda t: [t, t],
            {0.0: 0.0, 999.0: "a", 1000.0: 1.0},
            {0.0: "1", 999.0: "2", 1000.0: "3"},
            lambda t: b"3",
            lambda t: [1.5],
            lambda t: np.array([1.5]),
            lambda t: np.array(t + 1j),
        ],
        ids=["string", "list", "table-string", "table-numeric-string", "bytes", "list-of-one", "array", "0-d-complex"],
    )
    def test_value_that_is_not_a_number(self, phi):
        j = make_joint(EX1_ATOMS)
        with pytest.raises(UndefinedAtSupport, match=r"support point .* is not a number"):
            apply_transform(j, phi)


class TestExpectation:
    def test_example_means(self):
        j = make_joint(EX1_ATOMS)
        assert expectation(marginal_x(j)) == 600.0
        assert expectation(marginal_y(j)) == 999.0

    def test_point_mass(self):
        assert expectation(make_marginal([(7.25, 1.0)])) == 7.25

    def test_affine_linearity(self, rng):
        for _ in range(25):
            j = random_joint(rng)
            a, b = rng.uniform(-4, 4), rng.uniform(-3, 3)
            before = expectation(marginal_x(j))
            after = expectation(marginal_x(apply_transform(j, lambda t: a + b * t)))
            assert after == pytest.approx(a + b * before, rel=1e-9, abs=1e-9)


class TestSwap:
    def test_involution(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            assert swap(swap(j)) == j

    def test_swaps_marginals(self):
        j = make_joint(EX1_ATOMS)
        assert marginal_x(swap(j)) == marginal_y(j)
        assert marginal_y(swap(j)) == marginal_x(j)


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
def test_mass_invariants_hold_for_any_input(atoms):
    j = make_joint(atoms, normalize=True)
    assert math.fsum(p for _, _, p in j.atoms) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0 for _, _, p in j.atoms)
    assert len({(x, y) for x, y, _ in j.atoms}) == len(j)
    # construction is idempotent once merged and normalized
    assert make_joint(j.atoms) == j


class TestPairedSample:
    def test_from_pairs(self):
        s = PairedSample.from_pairs([(1.0, 2.0), (3.0, 4.0)])
        assert s.n == 2
        assert s.pairs() == [(1.0, 2.0), (3.0, 4.0)]

    def test_arrays_are_frozen(self):
        s = PairedSample.from_pairs([(1.0, 2.0)])
        with pytest.raises(ValueError):
            s.x[0] = 5.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            PairedSample.from_pairs([])
        with pytest.raises(ValidationError):
            PairedSample(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            PairedSample(np.array([1.0]), np.array([float("nan")]))
        for pairs in ([(1, "a")], [(1, 2), (3,)], [(1, 2, 3)], [1.0, 2.0]):
            with pytest.raises(ValidationError, match=r"pairs must be \(x, y\) tuples"):
                PairedSample.from_pairs(pairs)

    def test_callers_arrays_are_neither_frozen_nor_aliased(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        s = PairedSample(x, y)
        assert x.flags.writeable and y.flags.writeable
        x[0] = y[0] = 9.0
        assert s.pairs() == [(1.0, 3.0), (2.0, 4.0)]

    @pytest.mark.parametrize(
        "x, y",
        [
            (["a"], [1.0]),
            ([1.0], [object()]),
            ([10**400], [1.0]),
            (["1", "2"], [3, 4]),
            ([1, 2], [3, b"4"]),
            (np.array([1 + 2j, 3]), np.array([1.0, 2.0])),
            ([None, 1.0], [1.0, 2.0]),
        ],
    )
    def test_non_numeric_coordinates_rejected(self, x, y):
        with pytest.raises(ValidationError, match="sample coordinates must be numbers"):
            PairedSample(x, y)

    def test_text_is_named_and_bools_read_as_zero_and_one(self):
        with pytest.raises(ValidationError, match="must be numbers, got 'a'"):
            PairedSample([1, "a"], [3, 4])
        with pytest.raises(ValidationError, match=r"tuples of numbers, got 'a'"):
            PairedSample.from_pairs([(1, 2), (3, "a")])
        assert PairedSample([True, False], [1, 2]).pairs() == [(1.0, 1.0), (0.0, 2.0)]


class TestGrouped:
    def test_first_seen_signed_zero_is_kept(self):
        x, y = np.array([1.0, -0.0, 0.0, -0.0]), np.array([0.0, 2.0, 2.0, 2.0])
        gx, gy, counts = _grouped([x, y], np.ones(4))
        assert gx.tolist() == [0.0, 1.0] and np.signbit(gx).tolist() == [True, False]
        assert gy.tolist() == [2.0, 0.0] and counts.tolist() == [3.0, 1.0]
        gx, counts = _grouped([x[::-1]], np.ones(4))
        assert np.signbit(gx).tolist() == [True, False] and counts.tolist() == [3.0, 1.0]


def _fsum_outcome(total):
    """What a sum returns, by its bits (-0.0 apart from 0.0, every nan alike), or what it raises."""
    try:
        return float.hex(total())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _reference_fsum(values: np.ndarray) -> float:
    """``math.fsum``, and past the float range the doubled sum of the halves, as ``_fsum`` promises."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return 2.0 * math.fsum((values / 2.0).tolist())


def _same_sum(values) -> None:
    values = np.array(values, dtype=float)
    assert _fsum_outcome(lambda: _fsum(values)) == _fsum_outcome(lambda: _reference_fsum(values))


_MAX = 1.7976931348623157e308
#: values at the edges: zeros, subnormals, the smallest normal, halfway points of 1's ulp, the largest floats
_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 2.0**-53, 3 * 2.0**-53,
     2.0**-54, 1e16, 2.0**1000, _MAX, -_MAX, 1e308, math.inf, -math.inf, math.nan]
)
_SUMMANDS = st.one_of(
    st.floats(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e-300, max_value=1e-300),
    st.integers(-(2**60), 2**60).map(float),  # integers past 2**53 round: their sums often tie
    _EDGE_VALUES,
)


@st.composite
def _cancelling(draw):
    """A list, its negation in another order, and a few small values: an exact sum far below the terms."""
    values = draw(st.lists(st.floats(allow_nan=False, min_value=-1e300, max_value=1e300), max_size=20))
    small = draw(st.lists(st.floats(min_value=-1e-200, max_value=1e-200), max_size=3))
    return draw(st.permutations(values + [-v for v in values] + small))


class TestFsum:
    """``_fsum`` is ``math.fsum``, bit for bit: the sign of a zero, nan, inf and the ValueError of inf - inf."""

    @pytest.fixture(params=[4, 1 << 14], ids=["block-4", "block-16384"], autouse=True)
    def block(self, request):
        # in blocks of 4, a column of 4 values or more takes the numpy path, and spans blocks
        with mock.patch.object(stochorder.distributions, "_FSUM_BLOCK", request.param):
            yield request.param

    @given(values=st.lists(_SUMMANDS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_property(self, values):
        _same_sum(values)

    @given(values=_cancelling())
    @settings(max_examples=200, deadline=None)
    def test_heavy_cancellation(self, values):
        _same_sum(values)

    @pytest.mark.parametrize("values", [
        [1.0, 2.0**-53],  # a tie: rounds to the even 1.0
        [1.0 + 2.0**-52, 2.0**-53],  # a tie: rounds up, to the even neighbour
        [1.0, 2.0**-53, 2.0**-200],  # just past the tie: rounds up
        [1.0, 2.0**-53, -(2.0**-200)],  # just short of it: rounds down
        [5e-324, 5e-324, -1e-323, 5e-324],  # subnormals only
        [2.2250738585072014e-308, -5e-324],  # across the bottom of the normal range
        [_MAX, _MAX, -_MAX],  # an intermediate sum past the float max: the halves' sum, doubled
        [_MAX, _MAX],  # a total past it: inf
        [_MAX, 1e292],  # rounds to the largest float
        [2.0**1000] * 5,  # sums near the float max go to math.fsum
        [math.inf, 1.0], [-math.inf, -math.inf], [math.inf, -math.inf], [math.nan, 1.0], [math.inf, math.nan],
        [1.0, 1e-100, 1e-200, 1e-300],  # a range no 4 passes clear
    ])
    def test_case(self, values):
        _same_sum(values)

    @pytest.mark.parametrize("values", [[], [0.0], [-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, -0.0],
                                        [1.0, -1.0], [-1.0, 1.0, -0.0], [5e-324, -5e-324]])
    def test_zeros_of_either_sign(self, values):
        _same_sum(values)


class TestFsumAtLength:
    """``_fsum`` at its own block of 2**14 values: long columns, and the memory they take."""

    @pytest.mark.parametrize("n", [0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 << 14])
    def test_lengths_around_a_block(self, n):
        rng = np.random.default_rng(n)
        _same_sum(rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n))
        _same_sum(-np.abs(rng.standard_normal(n)) * 1e-320)  # subnormals, negative
        ones = np.full(n, 2.0**-53)  # exact in a block, but not in a running float sum
        ones[:1] = 1.0
        _same_sum(ones)
        tie = np.zeros(n)  # 1 and half its ulp, in the first and the last block: a tie, to even
        tie[:1], tie[-1:] = 1.0 + 2.0**-52, 2.0**-53
        _same_sum(tie)
        _same_sum(np.full(n, -0.0))

    def test_peak_memory_is_two_blocks(self):
        values = np.random.default_rng(0).random(10**6)
        tracemalloc.start()
        try:
            total = _fsum(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == math.fsum(values.tolist())
        assert peak < 1_000_000


class TestGridDensityPair:
    def test_valid_pair(self):
        grid = np.linspace(0, 1, 11)
        flat = np.ones(11)
        g = GridDensityPair(grid, flat, flat)
        assert len(g) == 11
        assert g.cdf_x[0] == 0.0
        assert g.cdf_x[-1] == pytest.approx(1.0, abs=1e-12)
        assert g.survival_x[-1] == 0.0
        assert g.survival_x[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_from_arrays_checks_and_copies_once(self, normalize):
        grid = np.linspace(0, 2, 21)
        with mock.patch.object(stochorder.distributions, "_grid_arrays", wraps=stochorder.distributions._grid_arrays) as spy:
            g = GridDensityPair.from_arrays(grid, np.full(21, 0.5), np.full(21, 0.5), normalize=normalize)
        assert spy.call_count == 1
        assert np.array_equal(g.fx, np.full(21, 0.5))

    def test_normalize_fixes_scale(self):
        grid = np.linspace(0, 2, 21)
        g = GridDensityPair.from_arrays(grid, np.full(21, 3.0), np.full(21, 0.25), normalize=True)
        assert float(np.sum(0.5 * (g.fx[1:] + g.fx[:-1]) * np.diff(grid))) == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        grid = np.linspace(0, 1, 11)
        flat = np.ones(11)
        with pytest.raises(ValidationError):
            GridDensityPair(grid[:2], flat[:2], flat[:2])  # too short
        with pytest.raises(ValidationError):
            GridDensityPair(grid[::-1], flat, flat)  # decreasing
        bad = flat.copy()
        bad[3] = -0.5
        with pytest.raises(ValidationError):
            GridDensityPair(grid, bad, flat)
        with pytest.raises(ValidationError):
            GridDensityPair(grid, 2.0 * flat, flat)  # integral 2
        # shapes are checked before normalizing
        with pytest.raises(ValidationError, match="densities must match the grid shape"):
            GridDensityPair.from_arrays([0, 1, 2], [1, 1, 1, 1], [1, 1, 1], normalize=True)
        square = np.ones((3, 3))
        with pytest.raises(ValidationError, match="grid must be 1-D"):
            GridDensityPair.from_arrays(square, square, square, normalize=True)

    @pytest.mark.parametrize(
        "grid, fx, fy, message",
        [
            ([0, 1, 2], [1, math.inf, 1], [1, 1, 1], "fx contains non-finite values"),
            ([0, 1, 2], [1, 1, 1], [1, math.nan, 1], "fy contains non-finite values"),
            ([0, math.inf, 2], [1, 1, 1], [1, 1, 1], "grid contains non-finite abscissae"),
        ],
    )
    def test_non_finite_values_rejected_before_normalizing(self, grid, fx, fy, message):
        # normalizing first would divide by a non-finite integral (a RuntimeWarning)
        with pytest.raises(ValidationError, match=message):
            GridDensityPair.from_arrays(grid, fx, fy, normalize=True)

    @pytest.mark.parametrize(
        "grid, fx, fy",
        [
            (["a", "b", "c"], [1, 1, 1], [1, 1, 1]),
            ([0, 1, 2], [1, object(), 1], [1, 1, 1]),
            ([0, 1, 2], ["1", "1", "1"], [1, 1, 1]),
            ([0, 1, 2], [1, None, 1], [1, 1, 1]),
            ([0, 1, 2], [1, 1, 1], np.array([1, 1j, 1])),
        ],
    )
    def test_non_numeric_values_rejected(self, grid, fx, fy):
        for build in (GridDensityPair, GridDensityPair.from_arrays):
            with pytest.raises(ValidationError, match="grid and densities must be numbers"):
                build(grid, fx, fy)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_grid_steps_name_the_cause(self):
        # the grid is checked by comparing neighbours, not by np.diff, which overflows here
        for build in (GridDensityPair, GridDensityPair.from_arrays):
            with pytest.raises(ValidationError, match="strictly increasing"):
                build([0, 1e308, -1e308], [1, 1, 1], [1, 1, 1])
        with pytest.raises(ValidationError, match="strictly increasing"):
            GridDensityPair.from_arrays([0, 1e308, -1e308], [1, 1, 1], [1, 1, 1], normalize=True)
        # strictly increasing, but the widest step overflows to inf
        with pytest.raises(ValidationError, match="fx has a non-finite integral"):
            GridDensityPair([-1.7e308, 1.7e308, 1.75e308], [0, 0, 1], [0, 1, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fx, fy, name", [([1e308] * 3, [1, 1, 1], "fx"), ([0.5] * 3, [1e308] * 3, "fy")])
    def test_overflowing_integral_names_the_density(self, fx, fy, name):
        with pytest.raises(ValidationError, match=f"{name} has a non-finite integral"):
            GridDensityPair.from_arrays([0, 1, 2], fx, fy, normalize=True)
        with pytest.raises(ValidationError, match=f"{name} has a non-finite integral"):
            GridDensityPair([0, 1, 2], fx, fy)

    def test_from_functions_tabulates(self):
        grid = np.linspace(0.0, 16.0, 3201)
        g = GridDensityPair.from_functions(
            grid, lambda t: math.exp(-t), lambda t: 0.5 * math.exp(-0.5 * t)
        )
        # cdf of exp(1) at t=1 is 1 - e^{-1}
        node = int(np.searchsorted(grid, 1.0))
        assert g.cdf_x[node] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-4)

    @pytest.mark.parametrize(
        "grid, fn, message",
        [
            (["a", "b", "c"], lambda t: 1.0, "grid and densities must be numbers"),
            ([0, 1, 2], lambda t: "x", "grid and densities must be numbers"),
            ([0, 1, 2], lambda t: object(), "grid and densities must be numbers"),
            ([0, 1, 2], lambda t: np.array([1.0]), "densities must match the grid shape"),
            (5.0, lambda t: 1.0, "grid must be 1-D"),
        ],
    )
    def test_from_functions_rejects_what_is_not_numbers(self, grid, fn, message):
        with pytest.raises(ValidationError, match=message):
            GridDensityPair.from_functions(grid, fn, fn)

    def test_callers_arrays_are_not_frozen(self):
        grid, f = np.linspace(0, 1, 11), np.ones(11)
        GridDensityPair(grid, f, f)
        assert grid.flags.writeable and f.flags.writeable

    def test_arrays_are_frozen(self):
        grid = np.linspace(0, 1, 11)
        g = GridDensityPair(grid, np.ones(11), np.ones(11))
        with pytest.raises(ValueError):
            g.fx[0] = 2.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: make_joint(np.array([[1, 2, 1]], dtype=complex)), r"atom 0: .*, got array\(\[1\.\+0\.j"),
        (lambda: PairedSample(np.array([1 + 2j, 3]), np.array([1.0, 2.0])), r"numbers, got \(1\+2j\)"),
        (lambda: PairedSample([None, 1.0], [1.0, 2.0]), "sample coordinates must be numbers, got None"),
        (lambda: GridDensityPair.from_arrays([0, 1, 2], [1, None, 1], [1, 1, 1]), "densities must be numbers, got None"),
        (lambda: apply_transform(make_joint([(0, 1, 1)]), {0.0: "1", 1.0: "2"}), r"not a number \(got '[12]'\)"),
        (lambda: apply_transform(make_joint([(0, 1, 1)]), lambda t: b"3"), r"not a number \(got b'3'\)"),
        # repr of an int past Python's 4300-digit limit raises: the type and size stand for it
        (lambda: make_joint([(10**5000, 0, 1)]), r"atom 0: expected an \(x, y, p\) triple, got <tuple of \d+ bytes>"),
        (lambda: make_joint(10**5000), r"expected an iterable of atoms, got <int of \d+ bytes>"),
        (lambda: apply_transform(make_joint([(0, 1, 1)]), lambda t: np.array([10**5000])), r"got <ndarray of \d+ bytes>"),
    ],
    ids=[
        "complex-atoms", "complex-sample", "none-in-sample", "none-in-density", "text-table", "bytes-callable",
        "huge-int-atom", "huge-int-input", "huge-int-array",
    ],
)
def test_the_value_that_is_no_number_is_named(build, named):
    # str, bytes, complex values and None are no numbers, though float() or numpy reads some of them
    with pytest.raises((ValidationError, UndefinedAtSupport), match=named):
        build()
