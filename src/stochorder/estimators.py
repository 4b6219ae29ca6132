"""Sampling and plug-in statistical estimation of the precedence orders.

Every population quantity used by the joint-law orders is a mean of a
per-pair transform, so the plug-in estimate is the sample mean of that
transform and confidence intervals come from a seeded percentile bootstrap
over resampled pairs.  All randomness flows through :class:`SeededStream`;
there is no hidden entropy anywhere in this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import FiniteJointDistribution, PairedSample
from .errors import InvalidEpsilon, SampleTooSmall, ValidationError
from .precedence import (
    decomposition_from_terms,
    verdict_from_decomposition,
    verdict_mean_from_means,
    verdict_sp_from_probs,
)
from .verdicts import ComparisonReport, EventProbs

#: Names of the estimated quantities, in column order.
QUANTITIES = (
    "p_less",
    "p_greater",
    "l1_below",
    "l1_above",
    "kstar_below",
    "kstar_above",
    "mean_diff",
)

#: Distinct-row count up to which the bootstrap uses multinomial weights
#: over distinct pairs instead of per-resample index draws.
_MULTINOMIAL_CUTOFF = 256


@dataclass(frozen=True)
class SeededStream:
    """A reproducible pseudo-random stream identified by a 64-bit seed.

    ``rng()`` returns a *fresh* generator positioned at the start of the
    stream, so the same stream object always produces the same draws.
    ``child(i)`` derives an independent stream deterministically, which is
    the seed-splitting rule for any parallel use.
    """

    seed: int

    def __post_init__(self):
        try:
            seed = operator.index(self.seed)
        except TypeError:
            seed = None
        if seed is None or not 0 <= seed < 2**64:
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, index: int) -> "SeededStream":
        derived = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return SeededStream(int(derived.generate_state(1, np.uint64)[0]))


@dataclass(frozen=True)
class EstimateWithCI:
    """A point estimate with a percentile-bootstrap confidence interval."""

    point: float
    ci_low: float
    ci_high: float
    level: float
    n: int
    method: str = "bootstrap-percentile"

    def __post_init__(self):
        if not self.ci_low <= self.point <= self.ci_high:
            raise ValidationError("confidence interval must bracket the point estimate")

    def to_dict(self) -> dict:
        return {"point": self.point, "low": self.ci_low, "high": self.ci_high}


def sample_joint(j: FiniteJointDistribution, n: int, stream: SeededStream) -> PairedSample:
    """Draw n i.i.d. pairs from a finite joint by inverse cdf on the atom index."""
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    cum = np.cumsum(j.p)
    cum[-1] = 1.0  # guard against rounding in the final cumulative mass
    u = stream.rng().random(n)
    idx = np.searchsorted(cum, u, side="right")
    return PairedSample(j.x[idx], j.y[idx])


def _pair_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pair transforms whose means are the estimated quantities."""
    d = y - x
    below = d > 0.0
    above = d < 0.0
    cols = np.zeros((x.size, len(QUANTITIES)))
    cols[:, 0] = below
    cols[:, 1] = above
    cols[below, 2] = d[below]
    cols[above, 3] = -d[above]
    cols[below, 4] = d[below] / (1.0 + d[below])
    cols[above, 5] = -d[above] / (1.0 - d[above])
    cols[:, 6] = d
    return cols


def _bootstrap_stats(
    x: np.ndarray, y: np.ndarray, cols: np.ndarray, rng: np.random.Generator, n_boot: int
) -> np.ndarray:
    """Bootstrap replicates of the quantity vector, shape (n_boot, 7).

    The statistics depend on the resample only through its empirical
    measure, so resampling rows with replacement is equivalent to drawing
    multinomial counts over the distinct pairs.  With few distinct pairs
    that path is far cheaper; otherwise plain index resampling is used.
    """
    n = x.size
    keys = x + 1j * y  # pack each pair into one sortable key
    uniq, counts = np.unique(keys, return_counts=True)
    if uniq.size <= _MULTINOMIAL_CUTOFF:
        distinct = _pair_columns(uniq.real.copy(), uniq.imag.copy())
        weights = rng.multinomial(n, counts / n, size=n_boot).astype(float)
        return (weights @ distinct) / n
    out = np.empty((n_boot, len(QUANTITIES)))
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        w = np.bincount(idx, minlength=n).astype(float)
        out[b] = (w @ cols) / n
    return out


@dataclass(frozen=True)
class EstimateReport:
    """Plug-in estimates of every precedence-order quantity, with verdicts.

    The verdicts apply the exact decision rules to the point estimates;
    ``quantities`` carries the bootstrap intervals.  Serializes to the same
    JSON shape as :meth:`ComparisonReport.to_dict` extended with a ``ci``
    block and the run metadata.
    """

    n: int
    level: float
    bootstrap: int
    seed: int
    quantities: dict[str, EstimateWithCI]
    comparison: ComparisonReport

    def to_dict(self) -> dict:
        out = self.comparison.to_dict()
        out["ci"] = {name: est.to_dict() for name, est in self.quantities.items()}
        out["n"] = self.n
        out["level"] = self.level
        out["bootstrap"] = self.bootstrap
        out["seed"] = self.seed
        out["method"] = "bootstrap-percentile"
        return out


def estimate_orders(
    sample: PairedSample,
    level: float = 0.95,
    bootstrap: int = 1000,
    stream: SeededStream | None = None,
) -> EstimateReport:
    """Estimate all joint-law order quantities from paired observations.

    Point estimates are the empirical analogues (sample means of per-pair
    transforms); intervals are seeded percentile-bootstrap over resampled
    pairs.  ``mean_diff`` estimates E(Y) - E(X).

    Raises:
        SampleTooSmall: if fewer than 2 pairs are available.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level!r}")
    if bootstrap < 1:
        raise ValidationError(f"bootstrap resample count must be positive, got {bootstrap}")
    if sample.n < 2:
        raise SampleTooSmall("confidence intervals require at least 2 pairs")
    stream = stream if stream is not None else SeededStream(0)

    cols = _pair_columns(sample.x, sample.y)
    points = cols.mean(axis=0)
    stats = _bootstrap_stats(sample.x, sample.y, cols, stream.rng(), bootstrap)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo = np.percentile(stats, alpha, axis=0)
    hi = np.percentile(stats, 100.0 - alpha, axis=0)
    # quantile noise must not push the interval off its own point estimate
    lo = np.minimum(lo, points)
    hi = np.maximum(hi, points)

    quantities = {
        name: EstimateWithCI(float(points[i]), float(lo[i]), float(hi[i]), level, sample.n)
        for i, name in enumerate(QUANTITIES)
    }

    p_less, p_greater = float(points[0]), float(points[1])
    p_equal = float(np.mean(sample.x == sample.y))
    probs = EventProbs(p_less, p_equal, p_greater)
    l1 = decomposition_from_terms(float(points[2]), float(points[3]), "L1")
    kstar = decomposition_from_terms(float(points[4]), float(points[5]), "K*")
    mean_x = float(np.mean(sample.x))
    mean_y = float(np.mean(sample.y))
    comparison = ComparisonReport(
        sp=verdict_sp_from_probs(p_less, p_equal, p_greater),
        mean=verdict_mean_from_means(mean_x, mean_y),
        cp_l1=verdict_from_decomposition(l1),
        cp_kstar=verdict_from_decomposition(kstar),
        l1=l1,
        kstar=kstar,
        probs=probs,
    )
    return EstimateReport(
        n=sample.n,
        level=level,
        bootstrap=bootstrap,
        seed=stream.seed,
        quantities=quantities,
        comparison=comparison,
    )


# ---------------------------------------------------------------------------
# Band-and-triangle density on the unit square


def band_triangle_densities(eps: float) -> tuple[float, float]:
    """Density values of the two regions of the crossing-verdict example.

    The density is (1-eps) / (eps (1-eps/2)) on the band
    {0 <= x - y <= eps} inside the unit square and 2/eps on the triangle
    {y - x > 1 - eps}; zero elsewhere.
    """
    if not (isinstance(eps, float) and math.isfinite(eps)) or not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must lie strictly between 0 and 1, got {eps!r}")
    return (1.0 - eps) / (eps * (1.0 - eps / 2.0)), 2.0 / eps


def _sample_band(eps: float, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the band, by rejection from the strip
    x in (0,1), y in (x-eps, x]."""
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    got = 0
    while got < count:
        m = max(int((count - got) / (1.0 - eps / 2.0) * 1.2) + 16, 16)
        x = rng.random(m)
        y = x - eps * rng.random(m)
        keep = y > 0.0
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(np.count_nonzero(keep))
    x = np.concatenate(xs)[:count]
    y = np.concatenate(ys)[:count]
    return x, y


def _sample_triangle(
    eps: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the triangle, by rejection from its bounding box
    x in (0, eps), y in (1-eps, 1)."""
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    got = 0
    while got < count:
        m = max((count - got) * 2 + 16, 16)
        u = rng.random(m)
        v = rng.random(m)
        keep = (v > u) & (u > 0.0)
        us.append(u[keep])
        vs.append(v[keep])
        got += int(np.count_nonzero(keep))
    u = np.concatenate(us)[:count]
    v = np.concatenate(vs)[:count]
    return eps * u, 1.0 - eps + eps * v


def sample_example4(eps: float, n: int, stream: SeededStream) -> PairedSample:
    """Draw n i.i.d. pairs from the band-and-triangle density.

    A pair lands in the band with the band's probability mass (density
    times band area) and in the triangle otherwise; within each region the
    draw is uniform, produced by rejection sampling (acceptance rates
    1 - eps/2 for the band strip and 1/2 for the triangle box).
    """
    d_band, d_triangle = band_triangle_densities(eps)
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    band_mass = d_band * (eps - 0.5 * eps * eps)          # density x band area
    triangle_mass = d_triangle * (0.5 * eps * eps)        # density x triangle area
    if abs(band_mass + triangle_mass - 1.0) > 1e-9:
        raise ValidationError("region masses do not sum to 1")  # unreachable

    rng = stream.rng()
    in_band = rng.random(n) < band_mass
    n_band = int(np.count_nonzero(in_band))
    x = np.empty(n)
    y = np.empty(n)
    x[in_band], y[in_band] = _sample_band(eps, n_band, rng)
    x[~in_band], y[~in_band] = _sample_triangle(eps, n - n_band, rng)
    return PairedSample(x, y)
