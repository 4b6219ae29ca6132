"""Sampling and plug-in statistical estimation of the precedence orders.

The plug-in estimate reads the count-weighted table of the empirical law of
D = Y - X through :mod:`~stochorder.precedence`.  Intervals are seeded
percentile intervals (Efron & Tibshirani 1993) of B resamples, from the
multinomial bootstrap ("bootstrap-percentile") or, above 256 distinct
differences, a bag of little bootstraps (Kleiner, Talwalkar, Sarkar & Jordan,
JRSS-B 76(4), 2014; "blb-percentile"), as ``_estimates`` describes.  Draws
from a finite joint and the bag's Poisson cells invert a cdf through one
guide table, ``_invert``.  All randomness flows through
:class:`SeededStream`; there is no hidden entropy in this module.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import FiniteJointDistribution, PairedSample, _fsum
from .errors import InvalidEpsilon, SampleTooSmall, ValidationError
from .precedence import SIDED, _report, _table
from .verdicts import ComparisonReport

#: Names of the estimated quantities, in row order: the sided terms, then E(Y) - E(X).
QUANTITIES = (*SIDED, "mean_diff")

#: Distinct-difference count up to which the bootstrap weighs the distinct
#: differences; above it, a bag of little bootstraps weighs subsets of the rows.
_MULTINOMIAL_CUTOFF = 256
#: The bag's subset count s, size exponent (each subset holds ceil(n ** gamma) rows)
#: and the most resamples of a subset whose counts are held at once.
_BLB_SUBSETS, _BLB_GAMMA, _BLB_BLOCK = 10, 0.7, 100
MAX_SAMPLE_SIZE = 10**8  #: largest sample size a sampler draws, checked before allocating
MAX_BOOTSTRAP = 10**5  #: largest bootstrap resample count


def _integer(value, message: str, low: int, high: int) -> int:
    """``value`` as an int in [low, high], through ``operator.index``: numpy
    integers pass, floats do not.  Above ``high``, the message names it."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or not low <= out <= high:
        limit = f" up to {high}" if out is not None and out > high else ""
        raise ValidationError(f"{message}{limit}, got {value!r}")
    return out


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
        seed = _integer(self.seed, "seed must be an unsigned 64-bit integer", 0, 2**64 - 1)
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

    def __post_init__(self):
        if not self.ci_low <= self.point <= self.ci_high:
            raise ValidationError("confidence interval must bracket the point estimate")

    def to_dict(self) -> dict:
        return {"point": self.point, "low": self.ci_low, "high": self.ci_high}


def sample_joint(j: FiniteJointDistribution, n: int, stream: SeededStream) -> PairedSample:
    """Draw n i.i.d. pairs from a finite joint by inverse cdf on the atom index."""
    n = _integer(n, "sample size must be a positive integer", 1, MAX_SAMPLE_SIZE)
    cum = np.cumsum(j.p)
    cum[-1] = 1.0  # guard against rounding in the final cumulative mass
    idx = _invert(cum, stream.rng().random(n))  # the draws are freed here
    return PairedSample._from_columns(j.x[idx], j.y[idx])


def _invert(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for 1-d uniforms u in [0, 1), by a guide table
    (Chen & Asau 1974; Devroye 1986, III.2.4).  The top 10 bits of u pick one of 1024 equal cells
    of [0, 1); a cell that no cdf value splits gives its index, and only draws in split cells are
    searched.  2**14 draws are inverted at a time, so that no temporary grows with u."""
    edges = np.arange(1025) / 1024.0
    first = np.searchsorted(cdf, edges[:-1], side="right")
    guide = np.where(first == np.searchsorted(cdf, edges[1:], side="left"), first, -1)
    out = np.empty(u.size, np.intp)  # an int32 index would cost a gather an intp copy of it
    for i in range(0, u.size, 2**14):
        v, o = u[i : i + 2**14], out[i : i + 2**14]
        np.take(guide, (v * 1024.0).astype(np.intp), out=o)
        split = np.flatnonzero(o < 0)
        o[split] = np.searchsorted(cdf, v[split], side="right")
    return out


def _poisson(rng: np.random.Generator, lam: float, size: tuple) -> np.ndarray:
    """Poisson(lam) draws: uniforms inverted at the cdf over lam -+ (12 sqrt(lam) + 30), whose
    left-out tail is below 1e-30 and whose pmf goes through lgamma, as numpy's own sampler does."""
    if lam == 0.0:
        return np.zeros(size, np.intp)
    low, high = (max(int(lam + side * (12.0 * math.sqrt(lam) + 30.0)), 0) for side in (-1, 1))
    k = np.arange(low, high + 1)
    cdf = np.cumsum(np.exp(k * math.log(lam) - lam - np.array([math.lgamma(i + 1.0) for i in k.tolist()])))
    cdf[-1] = 1.0
    return low + _invert(cdf, rng.random(math.prod(size))).reshape(size)


def _with_mean_diff(stats: np.ndarray) -> np.ndarray:
    """Rows in SIDED order, then E(Y) - E(X) as ``l1_below - l1_above``, which,
    unlike the difference of the means, keeps its precision far from 0."""
    below, above = SIDED.index("l1_below"), SIDED.index("l1_above")
    return np.concatenate([stats, stats[below : below + 1] - stats[above : above + 1]])


def _uniform_counts(rng: np.random.Generator, n: int, b: int, r: int) -> np.ndarray:
    """r rows of multinomial(n, 1/b) counts over b cells, as floats.

    Given their total s, b i.i.d. Poisson(lam) cells (``_poisson``) are
    multinomial(s, 1/b), so n - s uniform cell draws top them up to
    multinomial(n, 1/b).  With lam = max(n - 4 sqrt(n), 0) / b a row passes n
    with probability about 3e-5; such a row is drawn again as multinomial(n, 1/b).
    """
    counts = _poisson(rng, max(n - 4.0 * math.sqrt(n), 0.0) / b, (r, b))
    over = counts.sum(axis=1) > n
    counts[over] = rng.multinomial(n, np.full(b, 1.0 / b), size=int(over.sum()))
    short = n - counts.sum(axis=1)
    cells = rng.integers(0, b, short.sum()) + np.repeat(np.arange(0, r * b, b), short)
    top = np.bincount(cells, minlength=r * b).reshape(r, b)
    top += counts
    del counts  # freed before the float copy: never more than two blocks of counts at once
    return top.astype(float)


def _estimates(d: np.ndarray, rng: np.random.Generator, n_boot: int, level: float):
    """The points of QUANTITIES, their interval ends, and the name of the scheme.

    The sided points are the fsums of the count-weighted table of the empirical law of D, over n.
    A replicate weighs a subset's unit-weight table by multinomial(n, p) counts, over n.  Up to the
    cutoff the one subset is the distinct differences at p = counts / n, drawn n_boot times; above
    it, the bag draws min(n_boot, _BLB_SUBSETS) subsets of b = ceil(n ** _BLB_GAMMA) rows without
    replacement, at p = 1 / b, and splits the n_boot resamples over them as evenly as possible.
    Counts are drawn _BLB_BLOCK resamples at a time; only the replicates' spreads about their
    subset's point, ``table @ p``, are kept, and one percentile of them all is added to the points.
    """
    n = d.size
    values, counts = np.unique(d, return_counts=True)
    if values.size <= _MULTINOMIAL_CUTOFF:
        s, p, method = 1, counts / n, "bootstrap-percentile"
        subset, draw = lambda: values, lambda k: rng.multinomial(n, p, size=k).astype(float)
    else:  # each row a category of count 1; np.unique's arrays, as large as d, are freed
        values, counts, b, s = d, 1.0, math.ceil(n**_BLB_GAMMA), min(n_boot, _BLB_SUBSETS)
        p, method = np.full(b, 1.0 / b), "blb-percentile"
        subset, draw = lambda: d[rng.choice(n, b, replace=False)], lambda k: _uniform_counts(rng, n, b, k)
    points = _with_mean_diff(np.array([_fsum(row) / n for row in _table(values, counts)]))
    spread = np.empty((len(QUANTITIES), n_boot))
    bounds = [n_boot * i // s for i in range(s + 1)]  # subset i weighs resamples bounds[i]:bounds[i + 1]
    for start, stop in zip(bounds, bounds[1:]):
        table = _table(subset(), 1.0)
        point = (table @ p)[:, None]
        for i in range(start, stop, _BLB_BLOCK):
            k = min(_BLB_BLOCK, stop - i)
            spread[:, i : i + k] = _with_mean_diff(table @ draw(k).T / n - point)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = points + np.percentile(spread, [alpha, 100.0 - alpha], axis=1, overwrite_input=True)
    # quantile noise must not push the interval off its own point estimate
    return points, np.minimum(lo, points), np.maximum(hi, points), method


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
    method: str = "bootstrap-percentile"  #: or "blb-percentile", the bag of little bootstraps

    def to_dict(self) -> dict:
        ci = {name: est.to_dict() for name, est in self.quantities.items()}
        run = {"n": self.n, "level": self.level, "bootstrap": self.bootstrap, "seed": self.seed}
        return {**self.comparison.to_dict(), "ci": ci, **run, "method": self.method}


def estimate_orders(
    sample: PairedSample, level: float = 0.95, bootstrap: int = 1000, stream: SeededStream | None = None
) -> EstimateReport:
    """Estimate all joint-law order quantities from paired observations.

    The points are the count-weighted table of the empirical law of
    D = Y - X over n, so each P point is exactly count / n, and the
    verdicts apply ``compare_all``'s rules to them.  Intervals are the
    seeded percentile intervals the module docstring describes, over
    ``bootstrap`` resamples in all.  ``mean_diff`` estimates E(Y) - E(X)
    as ``l1_below - l1_above``.

    Raises:
        SampleTooSmall: if fewer than 2 pairs are available.
        ValidationError: if ``level`` is not a real number in (0, 1), if
            y - x overflows for some pair (the message names the first), or
            if n times the largest |y - x| does.
    """
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ValidationError(f"confidence level must be in (0, 1), got {level!r}")
    bootstrap = _integer(bootstrap, "bootstrap resample count must be a positive integer", 1, MAX_BOOTSTRAP)
    if sample.n < 2:
        raise SampleTooSmall("confidence intervals require at least 2 pairs")
    stream = stream if stream is not None else SeededStream(0)

    n = sample.n
    with np.errstate(over="ignore"):
        d = sample.y - sample.x
    overflow = np.isinf(d)
    if overflow.any():  # the bootstrap would weigh an infinite term by 0
        i = int(np.argmax(overflow))
        x, y = float(sample.x[i]), float(sample.y[i])
        raise ValidationError(f"pair {i}: y - x overflows at ({x!r}, {y!r})")
    largest = float(np.abs(d).max())
    if math.isinf(n * largest):  # a point's or a resample's count-weighted sum could overflow
        raise ValidationError(f"{n} times the largest |y - x|, {largest!r}, overflows")

    points, lo, hi, method = _estimates(d, stream.rng(), bootstrap, float(level))
    terms = dict(zip(SIDED, points.tolist()), p_equal=int(np.count_nonzero(d == 0.0)) / n)
    terms["mean_x"], terms["mean_y"] = _fsum(sample.x / n), _fsum(sample.y / n)  # fsum(x) can overflow
    quantities = dict(zip(QUANTITIES, map(EstimateWithCI, points.tolist(), lo.tolist(), hi.tolist())))
    return EstimateReport(n, float(level), bootstrap, stream.seed, quantities, _report(terms), method)


# ---------------------------------------------------------------------------
# Band-and-triangle density on the unit square


def band_triangle_densities(eps: float) -> tuple[float, float]:
    """Density values of the two regions of the crossing-verdict example.

    The density is (1-eps) / (eps (1-eps/2)) on the band
    {0 <= x - y <= eps} inside the unit square and 2/eps on the triangle
    {y - x > 1 - eps}; zero elsewhere.
    """
    real = isinstance(eps, numbers.Real) and not isinstance(eps, bool)
    if not (real and 0.0 < eps < 1.0 and math.isfinite(eps)):
        raise InvalidEpsilon(f"eps must lie strictly between 0 and 1, got {eps!r}")
    eps = float(eps)
    return (1.0 - eps) / (eps * (1.0 - eps / 2.0)), 2.0 / eps


def sample_example4(eps: float, n: int, stream: SeededStream) -> PairedSample:
    """n i.i.d. pairs of the band-and-triangle density, in closed form.  The first n uniforms put a pair in
    the band with the band's mass, else in the triangle.  In the band, x inverts its cdf (quadratic up to
    eps, then linear), y = x - min(x, eps) v; a triangle pair is (eps min(u, v), 1 - eps + eps max(u, v))."""
    d_band, _ = band_triangle_densities(eps)
    eps = float(eps)
    n = _integer(n, "sample size must be a positive integer", 1, MAX_SAMPLE_SIZE)
    half = 0.5 * eps * eps  # the band's area over x < eps
    band, u, v = stream.rng().random((3, n))
    band = band < d_band * (eps - half)  # density x band area; the triangle has the rest
    x, y = eps * np.minimum(u, v), 1.0 - eps + eps * np.maximum(u, v)  # the triangle's pairs
    u *= eps - half  # the band's area left of x, on [0, eps - half): x is its cdf inverted
    xb = np.sqrt(2.0 * u)
    np.copyto(xb, (u - half) / eps + eps, where=u >= half)
    np.copyto(x, xb, where=band)
    xb -= np.minimum(xb, eps) * v
    np.copyto(y, xb, where=band)
    return PairedSample._from_columns(x, y)
