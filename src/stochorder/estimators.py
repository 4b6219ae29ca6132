"""Sampling and plug-in statistical estimation of the precedence orders.

The plug-in estimate is the exact engine run on the empirical joint: the
distinct pairs of the sample, each weighted by its frequency, go through
:func:`~stochorder.precedence.compare_all` unchanged.  Confidence intervals
come from a seeded percentile bootstrap that weighs the same per-atom table
of :mod:`~stochorder.precedence`, with unit weights, by resampled counts.
All randomness flows through :class:`SeededStream`; there is no hidden
entropy anywhere in this module.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import FiniteJointDistribution, PairedSample, _grouped
from .errors import InvalidEpsilon, SampleTooSmall, ValidationError
from .precedence import _report, _table, _terms
from .verdicts import ComparisonReport

#: Names of the estimated quantities, in column order: six joint-law terms,
#: then E(Y) - E(X).
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


def _quantities(terms: dict) -> list:
    """The estimated quantities, in QUANTITIES order, from joint-law terms.

    E(Y) - E(X) is taken as l1_below - l1_above, since the difference of the
    two means cancels catastrophically when the pairs sit far from 0.
    """
    return [terms[name] for name in QUANTITIES[:-1]] + [terms["l1_below"] - terms["l1_above"]]


def _bootstrap_terms(
    sample: PairedSample,
    pairs: list[np.ndarray],
    counts: np.ndarray,
    rng: np.random.Generator,
    n_boot: int,
) -> dict[str, np.ndarray]:
    """Bootstrap replicates of the joint-law terms behind QUANTITIES, ``n_boot`` each.

    Each replicate weighs the per-pair transforms (the table at ``w = 1``)
    by resampled counts.  The terms depend on the resample only through its
    empirical measure, so resampling pairs with replacement is equivalent to
    drawing multinomial counts over the distinct ``pairs``.  With few
    distinct pairs that path is far cheaper; otherwise plain index
    resampling over the sample's pairs is used.
    """
    n = sample.n
    names = QUANTITIES[:-1]  # mean_diff is derived from l1_below and l1_above
    if counts.size <= _MULTINOMIAL_CUTOFF:
        table = _table(*pairs, np.ones(counts.size))
        weights = rng.multinomial(n, counts / n, size=n_boot).astype(float)
        return {name: (weights @ table[name]) / n for name in names}
    table = _table(sample.x, sample.y, np.ones(n))
    out = np.empty((len(names), n_boot))
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        w = np.bincount(idx, minlength=n).astype(float)
        out[:, b] = [table[name] @ w for name in names]
    return dict(zip(names, out / n))


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

    Point estimates and verdicts are those of ``compare_all`` on the
    empirical joint (distinct pairs weighted by their frequencies);
    intervals are seeded percentile-bootstrap over resampled pairs.
    ``mean_diff`` estimates E(Y) - E(X).

    Raises:
        SampleTooSmall: if fewer than 2 pairs are available.
        ValidationError: if y - x overflows for some pair (the message
            names the first).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level!r}")
    message = "bootstrap resample count must be a positive integer"
    bootstrap = _integer(bootstrap, message, 1, MAX_BOOTSTRAP)
    if sample.n < 2:
        raise SampleTooSmall("confidence intervals require at least 2 pairs")
    stream = stream if stream is not None else SeededStream(0)

    with np.errstate(over="ignore"):
        overflow = np.isinf(sample.y - sample.x)
    if overflow.any():  # the bootstrap would weigh an infinite term by 0
        i = int(np.argmax(overflow))
        x, y = float(sample.x[i]), float(sample.y[i])
        raise ValidationError(f"pair {i}: y - x overflows at ({x!r}, {y!r})")

    *pairs, counts = _grouped([sample.x, sample.y])
    terms = _terms(FiniteJointDistribution._from_columns(*pairs, counts / sample.n))
    points = np.array(_quantities(terms))
    replicates = _bootstrap_terms(sample, pairs, counts, stream.rng(), bootstrap)
    stats = np.column_stack(_quantities(replicates))
    alpha = 100.0 * (1.0 - level) / 2.0
    lo = np.percentile(stats, alpha, axis=0)
    hi = np.percentile(stats, 100.0 - alpha, axis=0)
    # quantile noise must not push the interval off its own point estimate
    lo = np.minimum(lo, points)
    hi = np.maximum(hi, points)

    quantities = {
        name: EstimateWithCI(float(points[i]), float(lo[i]), float(hi[i]))
        for i, name in enumerate(QUANTITIES)
    }
    return EstimateReport(
        n=sample.n,
        level=level,
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
