"""Sampling and plug-in statistical estimation of the precedence orders.

The plug-in estimate reads the count-weighted table of the empirical law of
D = Y - X: the distinct differences of the sample, each weighted by its
count (or, when there are many, each pair at count 1), go through the
per-difference table of :mod:`~stochorder.precedence`, and each point is a
row's fsum over n.  Intervals are seeded percentile intervals (Efron &
Tibshirani 1993): the points plus one percentile of the pooled replicates of
a table's subsets, each weighed at unit weight by multinomial counts and
centred on its subset's point.  Up to 256 distinct differences the one
subset is those differences, with B resamples ("bootstrap-percentile");
above that, a bag of little bootstraps (Kleiner, Talwalkar, Sarkar & Jordan,
JRSS-B 76(4), 2014; "blb-percentile") weighs 10 subsets of rows by
10 * ceil(B / 10) resamples, reported as B.  All randomness flows
through :class:`SeededStream`; there is no hidden entropy in this module.
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
    idx = np.searchsorted(cum, stream.rng().random(n), side="right")  # the draws are freed here
    return PairedSample._from_columns(j.x[idx], j.y[idx])


def _with_mean_diff(stats: np.ndarray) -> np.ndarray:
    """Rows in SIDED order, then E(Y) - E(X) as ``l1_below - l1_above``, which,
    unlike the difference of the means, keeps its precision far from 0."""
    below, above = SIDED.index("l1_below"), SIDED.index("l1_above")
    return np.concatenate([stats, stats[below : below + 1] - stats[above : above + 1]])


def _uniform_counts(rng: np.random.Generator, n: int, b: int, r: int) -> np.ndarray:
    """r rows of multinomial(n, 1/b) counts over b cells, as floats.

    Given their total s, b i.i.d. Poisson(lam) cells are multinomial(s, 1/b),
    so n - s uniform cell draws top them up to multinomial(n, 1/b).  With
    lam = max(n - 4 sqrt(n), 0) / b a row passes n with probability about
    3e-5; such a row is drawn again as multinomial(n, 1/b).
    """
    counts = rng.poisson(max(n - 4.0 * math.sqrt(n), 0.0) / b, (r, b))
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

    The sided points are the fsums of the count-weighted table of the
    empirical law of D, over n.  A replicate weighs a subset's unit-weight
    table by multinomial(n, p) counts, over n.  Up to the cutoff the one
    subset is the distinct differences at p = counts / n, drawn n_boot
    times; above it, the bag draws _BLB_SUBSETS subsets of
    b = ceil(n ** _BLB_GAMMA) rows without replacement, at p = 1 / b, each
    drawn ceil(n_boot / _BLB_SUBSETS) times.  Counts are drawn _BLB_BLOCK
    resamples at a time; only the replicates' spreads about their subset's
    point, ``table @ p``, are kept, and one percentile of them all is added
    to the full-sample points.
    """
    n = d.size
    values, counts = np.unique(d, return_counts=True)
    if values.size <= _MULTINOMIAL_CUTOFF:
        s, r, p, method = 1, n_boot, counts / n, "bootstrap-percentile"
        subset, draw = lambda: values, lambda k: rng.multinomial(n, p, size=k).astype(float)
    else:  # each row a category of count 1; np.unique's arrays, as large as d, are freed
        values, counts, b, s = d, 1.0, math.ceil(n**_BLB_GAMMA), _BLB_SUBSETS
        r, p, method = math.ceil(n_boot / s), np.full(b, 1.0 / b), "blb-percentile"
        subset, draw = lambda: d[rng.choice(n, b, replace=False)], lambda k: _uniform_counts(rng, n, b, k)
    points = _with_mean_diff(np.array([_fsum(row) / n for row in _table(values, counts)]))
    spread = np.empty((len(QUANTITIES), s * r))
    for start in range(0, s * r, r):
        table = _table(subset(), 1.0)
        point = (table @ p)[:, None]
        for i in range(start, start + r, _BLB_BLOCK):
            k = min(_BLB_BLOCK, start + r - i)
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
    sample: PairedSample,
    level: float = 0.95,
    bootstrap: int = 1000,
    stream: SeededStream | None = None,
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
    message = "bootstrap resample count must be a positive integer"
    bootstrap = _integer(bootstrap, message, 1, MAX_BOOTSTRAP)
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


def _rejection(count: int, rng: np.random.Generator, batch, accept) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` uniform (u, v) proposals that ``accept(u, v)`` keeps.

    Proposals are drawn in batches of ``batch(k)`` while k are still missing.
    """
    us: list[np.ndarray] = [np.empty(0)]  # a region may get no draws at all
    vs: list[np.ndarray] = [np.empty(0)]
    got = 0
    while got < count:
        m = batch(count - got)
        u = rng.random(m)
        v = rng.random(m)
        keep = accept(u, v)
        us.append(u[keep])
        vs.append(v[keep])
        got += int(np.count_nonzero(keep))
    return np.concatenate(us)[:count], np.concatenate(vs)[:count]


def sample_example4(eps: float, n: int, stream: SeededStream) -> PairedSample:
    """Draw n i.i.d. pairs from the band-and-triangle density.

    A pair lands in the band with the band's probability mass (density
    times band area) and in the triangle otherwise; within each region the
    draw is uniform, produced by rejection sampling (acceptance rates
    1 - eps/2 for the band strip and 1/2 for the triangle box).
    """
    d_band, _ = band_triangle_densities(eps)
    eps = float(eps)
    n = _integer(n, "sample size must be a positive integer", 1, MAX_SAMPLE_SIZE)
    band_mass = d_band * (eps - 0.5 * eps * eps)  # density x band area; the triangle has the rest

    rng = stream.rng()
    in_band = rng.random(n) < band_mass
    n_band = int(np.count_nonzero(in_band))
    x, y = np.empty(n), np.empty(n)
    # band: rejection from the strip x in (0, 1), y in (x - eps, x]
    u, v = _rejection(
        n_band,
        rng,
        batch=lambda k: int(k / (1.0 - eps / 2.0) * 1.2) + 16,
        accept=lambda u, v: u - eps * v > 0.0,
    )
    x[in_band], y[in_band] = u, u - eps * v
    # triangle: rejection from its bounding box x in (0, eps), y in (1 - eps, 1)
    u, v = _rejection(
        n - n_band, rng, batch=lambda k: 2 * k + 16, accept=lambda u, v: (v > u) & (u > 0.0)
    )
    x[~in_band], y[~in_band] = eps * u, 1.0 - eps + eps * v
    return PairedSample(x, y)
