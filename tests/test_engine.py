"""The columnar exact engine against the per-atom reference oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    EmptyDistribution,
    FiniteJointDistribution,
    FiniteMarginal,
    InputFormatError,
    ValidationError,
    compare_all,
    expectation,
    make_joint,
    make_marginal,
    marginal_x,
    marginal_y,
    product_joint,
    read_joint_json,
)

from conftest import oracle_make_joint, oracle_marginal, oracle_terms, random_marginal

#: Coordinates that collide: signed zeros and ties 1e-12 apart.
EDGE_COORDS = [0.0, -0.0, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1e-12, -1e-12, 2.0]
COORDS = st.one_of(st.sampled_from(EDGE_COORDS), st.floats(-1e3, 1e3, allow_nan=False))
MASSES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5]), st.floats(1e-6, 1.0))


def _flip_zero(v: float, flip: bool) -> float:
    return -v if flip and v == 0.0 else v


@st.composite
def raw_atoms(draw):
    """Atoms with zero masses and repeated (x, y) keys, some repeats with flipped zero signs."""
    base = draw(st.lists(st.tuples(COORDS, COORDS, MASSES), min_size=1, max_size=10))
    repeats = draw(
        st.lists(st.tuples(st.integers(0, len(base) - 1), MASSES, st.booleans()), max_size=8)
    )
    extra = [
        (_flip_zero(base[i][0], flip), _flip_zero(base[i][1], not flip), p)
        for i, p, flip in repeats
    ]
    return base + extra


def _terms(report) -> dict:
    return {
        "p_less": report.probs.p_less,
        "p_equal": report.probs.p_equal,
        "p_greater": report.probs.p_greater,
        "l1_below": report.l1.below_term,
        "l1_above": report.l1.above_term,
        "kstar_below": report.kstar.below_term,
        "kstar_above": report.kstar.above_term,
        "mean_x": report.mean.evidence["mean_x"],
        "mean_y": report.mean.evidence["mean_y"],
    }


@given(raw=raw_atoms())
@settings(max_examples=300, deadline=None)
def test_engine_matches_oracle_bit_for_bit(raw):
    # repr tells -0.0 from 0.0 and prints every float exactly
    try:
        want = oracle_make_joint(raw, normalize=True)
    except EmptyDistribution:
        with pytest.raises(EmptyDistribution):
            make_joint(raw, normalize=True)
        return
    j = make_joint(raw, normalize=True)
    assert repr(j.atoms) == repr(want)
    assert repr(FiniteJointDistribution(want).atoms) == repr(want)
    assert repr(marginal_x(j).points) == repr(oracle_marginal(want, 0))
    assert repr(marginal_y(j).points) == repr(oracle_marginal(want, 1))
    assert repr(_terms(compare_all(j))) == repr(oracle_terms(want))


def _large_raw(n: int = 160_000) -> list:
    return [(float(i % 1000), float(i % 777), 1.0 / n) for i in range(n)]


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1.0, 2.0, "heavy"), r"atom 150000: expected an \(x, y, p\) triple"),
        ((1.0, 2.0, -0.5), r"atom 150000: invalid mass -0\.5"),
        ((1.0, float("nan"), 0.5), r"atom 150000: non-finite support value"),
        ((" 1e0 ", 2, True), r"atom 150000: expected an \(x, y, p\) triple, got \(' 1e0 ', 2, True\)"),
        ((b"1", 2, 1), r"atom 150000: expected an \(x, y, p\) triple, got \(b'1', 2, 1\)"),
        ("123", r"atom 150000: expected an \(x, y, p\) triple, got '123'"),
    ],
)
def test_bad_atom_deep_in_large_input_is_named(bad, message):
    raw = _large_raw()
    raw[150_000] = bad
    with pytest.raises(ValidationError, match=message):
        make_joint(raw)


def test_missing_key_deep_in_large_json_is_named(tmp_path):
    entries = [{"x": x, "y": y, "p": p} for x, y, p in _large_raw()]
    del entries[150_000]["p"]
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"atoms": entries}))
    with pytest.raises(InputFormatError, match="atom 150000: expected an object with x, y and p"):
        read_joint_json(path)


class TestPublicConstructor:
    def test_stores_atoms_sorted(self):
        j = FiniteJointDistribution([(2.0, 0.0, 0.5), (1.0, 3.0, 0.25), (1.0, -3.0, 0.25)])
        assert j.atoms == ((1.0, -3.0, 0.25), (1.0, 3.0, 0.25), (2.0, 0.0, 0.5))
        assert j == make_joint(j.atoms)
        m = FiniteMarginal([(2.0, 0.5), (-1.0, 0.25), (1.0, 0.25)])
        assert m.points == ((-1.0, 0.25), (1.0, 0.25), (2.0, 0.5))
        assert m.values == (-1.0, 1.0, 2.0) and m.masses == (0.25, 0.25, 0.5)
        assert m == make_marginal(m.points) and hash(m) == hash(make_marginal(m.points))
        assert len(m) == 3 and m.cdf(1.5) == 0.5

    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([(0, 0, 0.5), (1, 1, 0.25), (0, 0, 0.25)], r"duplicate atom at \(0\.0, 0\.0\)"),
            ([(0, 0.0, 0.5), (0, -0.0, 0.5)], r"duplicate atom at \(0\.0, -0\.0\)"),
            (
                [(1, 1, 0.5), (0, float("inf"), 0.0), (1, 1, 0.5)],
                r"atom 1: non-finite support value at \(0\.0, inf\)",
            ),
            ([(0, 0, 0.0), (0, 0, 1.0)], r"mass 0\.0 at \(0\.0, 0\.0\) must be positive"),
            ([(0, 0, 0.5), (1, 1, 0.25)], "joint: masses sum to 0.75, not 1"),
            (
                [(0, 0, 0.5), (1, 2, "heavy")],
                r"atom 1: expected an \(x, y, p\) triple, got \(1, 2, 'heavy'\)",
            ),
            ([(1, 2)], r"atom 0: expected an \(x, y, p\) triple, got \(1, 2\)"),
            ([(0, 0, 0.5), (1, 1, float("nan"))], r"atom 1: invalid mass nan at \(1\.0, 1\.0\)"),
            ([(0, 0, 0.5), (1, 1, -0.5)], r"atom 1: invalid mass -0\.5 at \(1\.0, 1\.0\)"),
            ([(0, 0, 0.5), (0, 1, "0.5")], r"atom 1: expected an \(x, y, p\) triple, got \(0, 1, '0\.5'\)"),
            (np.array([[0, 0, 0.5], [1, 2j, 0.5]]), r"atom 0: expected an \(x, y, p\) triple, got array"),
        ],
    )
    def test_reports_the_first_bad_atom(self, atoms, message):
        with pytest.raises(ValidationError, match=message):
            FiniteJointDistribution(atoms)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([(1, "a")], r"point 0: expected a \(value, p\) pair, got \(1, 'a'\)"),
            ([(0, 0.5), (1, 0.25, 0.25)], r"point 1: expected a \(value, p\) pair"),
            ([(0, 0.5), (float("inf"), 0.5)], r"point 1: non-finite value at \(inf\)"),
            ([(0, 0.5), (2, -0.5)], r"point 1: invalid mass -0\.5 at \(2\.0\)"),
            ([(0, 1.0), (2, 0.0)], r"point 1: mass 0\.0 at \(2\.0\) must be positive"),
            ([(0, 0.5), (1, 0.25), (-0.0, 0.25)], r"point 2: duplicate point at \(-0\.0\)"),
            ([(0, 0.5), (1, 0.25)], "marginal: masses sum to 0.75, not 1"),
            (np.array([["1", "1"]]), r"point 0: expected a \(value, p\) pair"),
        ],
    )
    def test_reports_the_first_bad_point(self, points, message):
        with pytest.raises(ValidationError, match=message):
            FiniteMarginal(points)

    def test_no_rows(self):
        with pytest.raises(EmptyDistribution, match="joint has no atoms"):
            FiniteJointDistribution([])
        with pytest.raises(EmptyDistribution, match="marginal has no points"):
            FiniteMarginal(iter([]))

    def test_columns_are_read_only(self):
        j = make_joint([(0.0, 1.0, 0.5), (2.0, 1.0, 0.5)])
        m = make_marginal([(0.0, 0.5), (2.0, 0.5)])
        for column in (j.p, m.v):
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert type(j.atoms[0][0]) is float and type(m.points[0][0]) is float


@st.composite
def strict_rows(draw, width: int):
    """Rows a public constructor accepts: unique keys, positive masses totalling 1."""
    keys = draw(
        st.lists(st.tuples(*[COORDS] * (width - 1)), min_size=1, max_size=10, unique=True)
    )
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(keys), max_size=len(keys)))
    total = math.fsum(weights)
    return [(*key, w / total) for key, w in zip(keys, weights)]


@given(atoms=strict_rows(3), points=strict_rows(2))
@settings(max_examples=200, deadline=None)
def test_public_constructors_agree_with_the_builders(atoms, points):
    assert FiniteJointDistribution(atoms) == make_joint(atoms)
    assert repr(FiniteJointDistribution(atoms).atoms) == repr(make_joint(atoms).atoms)
    assert repr(FiniteMarginal(points).points) == repr(make_marginal(points).points)


class TestColumnReads:
    """``expectation`` and ``product_joint`` read the columns; the bits are
    those of the tuple-based code they replaced."""

    def test_expectation_matches_the_tuple_fsum(self, rng):
        for _ in range(200):
            m = random_marginal(rng, max_support=12)
            assert repr(expectation(m)) == repr(math.fsum(v * p for v, p in m.points))

    def test_product_matches_the_tuple_comprehension(self, rng):
        for _ in range(200):
            mx, my = random_marginal(rng, max_support=12), random_marginal(rng, max_support=12)
            atoms = tuple((x, y, px * py) for x, px in mx.points for y, py in my.points)
            assert repr(product_joint(mx, my).atoms) == repr(atoms)
        mx = make_marginal(zip(rng.uniform(-5, 5, 300), np.full(300, 1 / 300)), normalize=True)
        my = make_marginal(zip(rng.uniform(-5, 5, 200), rng.dirichlet(np.ones(200))))
        atoms = tuple((x, y, px * py) for x, px in mx.points for y, py in my.points)
        assert repr(product_joint(mx, my).atoms) == repr(atoms)
