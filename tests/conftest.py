"""Shared generators and brute-force oracles for the test suite."""

import math

import numpy as np
import pytest

from stochorder import (
    EmptyDistribution,
    FiniteJointDistribution,
    FiniteMarginal,
    GridDensityPair,
    NotNormalizable,
    ValidationError,
    make_joint,
    make_marginal,
    product_joint,
)
from stochorder.distributions import INPUT_MASS_TOL, MASS_TOL
from stochorder.estimators import band_triangle_densities


def random_marginal(rng: np.random.Generator, max_support: int = 6) -> FiniteMarginal:
    k = int(rng.integers(1, max_support + 1))
    values = rng.uniform(-10.0, 10.0, k)
    masses = rng.dirichlet(np.ones(k))
    return make_marginal(zip(values, masses), normalize=True)


def random_product_joint(rng: np.random.Generator, max_support: int = 6) -> FiniteJointDistribution:
    return product_joint(random_marginal(rng, max_support), random_marginal(rng, max_support))


def random_joint(rng: np.random.Generator, max_atoms: int = 8) -> FiniteJointDistribution:
    k = int(rng.integers(1, max_atoms + 1))
    xs = rng.uniform(-10.0, 10.0, k)
    ys = rng.uniform(-10.0, 10.0, k)
    masses = rng.dirichlet(np.ones(k))
    return make_joint(zip(xs, ys, masses), normalize=True)


def direct_l1(j: FiniteJointDistribution) -> float:
    """Brute-force E|X - Y| in a single pass over all atoms."""
    return math.fsum(abs(x - y) * p for x, y, p in j.atoms)


def direct_kstar(j: FiniteJointDistribution) -> float:
    """Brute-force E(|X-Y| / (1 + |X-Y|)) in a single pass over all atoms."""
    return math.fsum(p * abs(x - y) / (1.0 + abs(x - y)) for x, y, p in j.atoms)


# ---------------------------------------------------------------------------
# Reference oracle: the per-atom dict-and-fsum exact path, kept as plain
# functions over (x, y, p) tuples so the columnar engine can be checked
# against it bit for bit.

def oracle_make_joint(raw_atoms, normalize=False):
    """Atoms of ``make_joint(raw_atoms, normalize)``: merged, sorted, rescaled.

    Raises the same exception types as ``make_joint``.
    """
    cleaned = []
    for i, atom in enumerate(raw_atoms):
        try:
            x, y, p = atom
            x, y, p = float(x), float(y), float(p)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"atom {i}: expected an (x, y, p) triple") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"atom {i}: non-finite support value")
        if not math.isfinite(p) or p < 0.0:
            raise ValidationError(f"atom {i}: invalid mass {p!r}")
        cleaned.append((x, y, p))
    merged = {}
    for x, y, p in cleaned:
        if p > 0.0:
            merged.setdefault((x, y), []).append(p)
    if not merged:
        raise EmptyDistribution("no atom carries positive mass")
    group_mass = {key: math.fsum(ps) for key, ps in merged.items()}
    total = math.fsum(group_mass.values())
    if abs(total - 1.0) > INPUT_MASS_TOL and not normalize:
        raise NotNormalizable(f"masses sum to {total!r}")
    scale = total if abs(total - 1.0) > MASS_TOL else 1.0
    return tuple((x, y, group_mass[(x, y)] / scale) for x, y in sorted(group_mass))


def oracle_marginal(atoms, axis):
    """Points of the marginal on coordinate ``axis`` (0 for x, 1 for y)."""
    groups = {}
    for atom in atoms:
        groups.setdefault(atom[axis], []).append(atom[2])
    return tuple((v, math.fsum(ps)) for v, ps in sorted(groups.items()))


def oracle_terms(atoms):
    """The nine exact terms reported by ``compare_all``."""
    return {
        "p_less": math.fsum(p for x, y, p in atoms if x < y),
        "p_equal": math.fsum(p for x, y, p in atoms if x == y),
        "p_greater": math.fsum(p for x, y, p in atoms if x > y),
        "l1_below": math.fsum((y - x) * p for x, y, p in atoms if x < y),
        "l1_above": math.fsum((x - y) * p for x, y, p in atoms if x > y),
        "kstar_below": math.fsum(p * (y - x) / (1.0 + (y - x)) for x, y, p in atoms if x < y),
        "kstar_above": math.fsum(p * (x - y) / (1.0 + (x - y)) for x, y, p in atoms if x > y),
        "mean_x": math.fsum(x * p for x, _, p in atoms),
        "mean_y": math.fsum(y * p for _, y, p in atoms),
    }


def oracle_example4_terms(eps: float) -> dict[str, float]:
    """The exact sided terms and E(Y) - E(X) of the band-and-triangle law.

    D = Y - X has density a (1 - t) at -t for t in [0, eps] (the band) and
    b (1 - u) at u in (1 - eps, 1) (the triangle), with a and b the two
    regions' densities; F is an antiderivative of t (1 - t) / (1 + t).
    """
    a, b = band_triangle_densities(eps)
    c = 1.0 - eps

    def F(t):
        return 2.0 * t - t * t / 2.0 - 2.0 * math.log1p(t)

    terms = {
        "p_less": b * eps * eps / 2.0,
        "p_greater": a * (eps - eps * eps / 2.0),
        "l1_below": b * (1.0 / 6.0 - (c * c / 2.0 - c**3 / 3.0)),
        "l1_above": a * (eps * eps / 2.0 - eps**3 / 3.0),
        "kstar_below": b * (F(1.0) - F(c)),
        "kstar_above": a * F(eps),
    }
    terms["mean_diff"] = terms["l1_below"] - terms["l1_above"]
    return terms


def gaussian_mixture_density(rng: np.random.Generator, grid: np.ndarray) -> np.ndarray:
    """A random smooth density tabulated on the grid (not yet normalized)."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-2.0, 5.0, k)
    sigmas = rng.uniform(0.6, 1.8, k)
    f = np.zeros_like(grid)
    for w, mu, sigma in zip(weights, means, sigmas):
        f += w * np.exp(-0.5 * ((grid - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return f


def random_smooth_grid_pair(rng: np.random.Generator) -> GridDensityPair:
    """Random smooth density pair; half the draws are exponentially tilted
    copies of the base, which are likelihood-ratio ordered by construction."""
    grid = np.linspace(-8.0, 14.0, 1200)
    fx = gaussian_mixture_density(rng, grid)
    if rng.random() < 0.5:
        theta = rng.uniform(0.1, 0.8)
        fy = fx * np.exp(theta * grid)
    else:
        fy = gaussian_mixture_density(rng, grid)
    return GridDensityPair.from_arrays(grid, fx, fy, normalize=True)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
