"""Sampling and plug-in statistical estimation of the precedence orders.

The plug-in estimate reads the count-weighted table of the empirical law of
D = Y - X: the distinct differences of the sample, each weighted by its
count (or, when there are many, each pair at count 1), go through the
per-difference table of :mod:`~stochorder.precedence`, and each point is a
row's fsum over n.  Confidence intervals come from a seeded percentile
bootstrap that weighs the same table, at a scalar unit weight, by resampled
counts.  All randomness flows through :class:`SeededStream`; there is no
hidden entropy anywhere in this module.
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

#: Distinct-difference count up to which the bootstrap uses multinomial
#: weights over distinct differences instead of per-resample index draws.
_MULTINOMIAL_CUTOFF = 256
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


def _estimates(d: np.ndarray, rng: np.random.Generator, n_boot: int) -> tuple[list[float], np.ndarray]:
    """The sided points, the fsums of the count-weighted table of the empirical
    law of D, and their bootstrap replicates: one row each, in SIDED order, over n.

    Each replicate weighs the table at ``w = 1`` by resampled counts.  These
    depend only on the resample's empirical law of D, so with few distinct
    differences multinomial counts over them replace index resampling of the
    rows.  With many, each row is a category of count 1, so one table serves
    the points and the resamples.
    """
    n = d.size
    values, counts = np.unique(d, return_counts=True)
    if values.size <= _MULTINOMIAL_CUTOFF:
        weights = rng.multinomial(n, counts / n, size=n_boot).astype(float)
        table, replicates = _table(values, counts), _table(values, 1.0) @ weights.T
    else:
        del values, counts  # as large as d: freed before the (6, n) table is built
        table = _table(d, 1.0)
        # one resample at a time (an (n_boot, n) count matrix would hold 8 * n_boot * n bytes); idx
        # and w live until the next resample's are drawn, so their pages are reused, not faulted in anew
        replicates = np.empty((len(SIDED), n_boot))
        for b in range(n_boot):
            idx = rng.integers(0, n, n)
            w = np.bincount(idx, minlength=n).astype(float)
            replicates[:, b] = table @ w
    return [_fsum(row) / n for row in table], replicates / n


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
        ci = {name: est.to_dict() for name, est in self.quantities.items()}
        run = {"n": self.n, "level": self.level, "bootstrap": self.bootstrap, "seed": self.seed}
        return {**self.comparison.to_dict(), "ci": ci, **run, "method": "bootstrap-percentile"}


def estimate_orders(
    sample: PairedSample,
    level: float = 0.95,
    bootstrap: int = 1000,
    stream: SeededStream | None = None,
) -> EstimateReport:
    """Estimate all joint-law order quantities from paired observations.

    The points are the count-weighted table of the empirical law of
    D = Y - X over n, so each P point is exactly count / n, and the
    verdicts apply ``compare_all``'s rules to them.  Intervals are seeded
    percentile-bootstrap over resampled pairs.  ``mean_diff`` estimates
    E(Y) - E(X) as ``l1_below - l1_above``.

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

    sided, replicates = _estimates(d, stream.rng(), bootstrap)
    terms = dict(zip(SIDED, sided), p_equal=int(np.count_nonzero(d == 0.0)) / n)
    terms["mean_x"], terms["mean_y"] = _fsum(sample.x / n), _fsum(sample.y / n)  # fsum(x) can overflow
    stats = np.column_stack([sided, replicates])
    # E(Y) - E(X) as l1_below - l1_above: the difference of the two means
    # cancels catastrophically when the pairs sit far from 0
    stats = np.vstack([stats, stats[QUANTITIES.index("l1_below")] - stats[QUANTITIES.index("l1_above")]])
    points, replicates = stats[:, 0], stats[:, 1:]
    alpha = 100.0 * (1.0 - float(level)) / 2.0
    lo, hi = np.percentile(replicates, [alpha, 100.0 - alpha], axis=1)
    # quantile noise must not push the interval off its own point estimate
    lo = np.minimum(lo, points)
    hi = np.maximum(hi, points)

    quantities = {
        name: EstimateWithCI(float(points[i]), float(lo[i]), float(hi[i]))
        for i, name in enumerate(QUANTITIES)
    }
    return EstimateReport(
        n=sample.n,
        level=float(level),
        bootstrap=bootstrap,
        seed=stream.seed,
        quantities=quantities,
        comparison=_report(terms),
    )


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
    x = np.empty(n)
    y = np.empty(n)
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
