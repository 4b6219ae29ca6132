"""Bivariate laws and their marginals.

Three substrates cover everything the comparison engines consume:

* :class:`FiniteJointDistribution` -- an atomic joint pmf, the exact
  substrate on which the precedence orders are computed in closed form.
  It is stored as three read-only float64 columns ``x``, ``y`` and ``p``
  sorted by (x, y); ``atoms`` is a tuple view of them built on first use.
* :class:`GridDensityPair` -- two marginal densities tabulated on a shared
  grid, the substrate for the classical marginal-based partial orders on
  continuous laws.
* :class:`PairedSample` -- observed (x, y) pairs, the estimation substrate.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.

Mass bookkeeping uses ``math.fsum`` throughout, which keeps the total-mass
invariant (sum = 1 within 1e-12) independent of support size.  Building a
joint or a marginal is one grouped reduction: a stable sort, group
boundaries found with ``!=``, and ``fsum`` over each group that holds
duplicates.  Inputs are converted and checked with numpy; only when a check
fails does an atom-by-atom pass run, to name the first bad atom.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDistribution,
    NotNormalizable,
    SupportTooLarge,
    UndefinedAtSupport,
    ValidationError,
)

#: Total-mass invariant maintained internally.
MASS_TOL = 1e-12
#: Raw masses whose total is within this of 1 are silently renormalized;
#: larger deviations require an explicit ``normalize=True``.
INPUT_MASS_TOL = 1e-9
#: Tolerance on the trapezoid integral of a tabulated density.
DENSITY_NORM_TOL = 1e-6
#: Default cap on the number of atoms a product coupling may create.
MAX_PRODUCT_ATOMS = 10_000_000


def _check_total(total: float, what: str) -> None:
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"{what}: masses sum to {total!r}, not 1")


def _fsum(column: np.ndarray) -> float:
    return math.fsum(memoryview(column))  # reads the buffer; builds no list of floats


def _grouped(keys: list[np.ndarray], p: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Merge equal keys: the key columns of each group and its fsum'd mass.

    Groups come out sorted by the keys, the first key primary.  Keys are
    compared with ``==``, so -0.0 joins 0.0; the stable sort keeps each
    group's first-seen key.  Only groups that hold duplicates are summed.
    """
    order = np.lexsort(keys[::-1])
    keys, p = [k[order] for k in keys], p[order]
    starts = np.flatnonzero(np.r_[True, np.logical_or.reduce([k[1:] != k[:-1] for k in keys])])
    ends = np.r_[starts[1:], p.size]
    mass = p[starts]
    shared = np.flatnonzero(ends - starts > 1)
    masses = memoryview(p)
    bounds = zip(starts[shared].tolist(), ends[shared].tolist())
    mass[shared] = [math.fsum(masses[a:b]) for a, b in bounds]
    return [k[starts] for k in keys], mass


@dataclass(frozen=True)
class FiniteMarginal:
    """A univariate pmf: (value, mass) points with strictly increasing values."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(v), float(p)) for v, p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise EmptyDistribution("marginal has no support points")
        for v, p in pts:
            if not math.isfinite(v):
                raise ValidationError(f"support value {v!r} is not finite")
            if not (math.isfinite(p) and p > 0.0):
                raise ValidationError(f"mass {p!r} at value {v!r} must be positive and finite")
        values = [v for v, _ in pts]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("support values must be strictly increasing")
        _check_total(math.fsum(p for _, p in pts), "marginal")

    @classmethod
    def _from_columns(cls, values: np.ndarray, masses: np.ndarray) -> "FiniteMarginal":
        """Wrap merged columns, sorted by value with positive masses, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "points", tuple(zip(values.tolist(), masses.tolist())))
        return m

    def __len__(self) -> int:
        return len(self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.points)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)

    def cdf(self, t):
        """Right-continuous cdf at scalar or array ``t``."""
        values = np.asarray(self.values)
        cum = np.cumsum(np.asarray(self.masses))
        arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(values, arr, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if arr.ndim == 0 else out


def _as_rows(raw, width: int) -> np.ndarray | None:
    """``raw`` as an (n, width) float array, or None where numpy cannot convert it."""
    try:
        rows = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return rows if rows.ndim == 2 and rows.shape[1] == width else None


@dataclass(frozen=True, init=False, eq=False)
class FiniteJointDistribution:
    """Atomic joint pmf of a pair: (x, y, mass) atoms with unique (x, y).

    The law is held as three read-only float64 columns ``x``, ``y`` and
    ``p``, sorted by (x, y).  ``atoms`` is a tuple view of the same law as
    (x, y, p) floats, built on first use.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __init__(self, atoms: Iterable[tuple[float, float, float]]):
        if not isinstance(atoms, (list, tuple, np.ndarray)):
            atoms = list(atoms)
        rows = _as_rows(atoms, 3)
        if rows is None:
            rows = np.array([(float(x), float(y), float(p)) for x, y, p in atoms]).reshape(-1, 3)
        if not rows.size:
            raise EmptyDistribution("joint distribution has no atoms")
        x, y, p = rows.T
        order = np.lexsort((y, x))
        xs, ys = x[order], y[order]
        non_finite = ~(np.isfinite(x) & np.isfinite(y))
        bad_mass = ~(np.isfinite(p) & (p > 0.0))
        duplicate = np.zeros(p.size, dtype=bool)
        duplicate[order[1:][(xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])]] = True
        bad = non_finite | bad_mass | duplicate
        if bad.any():  # report the first bad atom, as an atom-by-atom check would
            i = int(np.argmax(bad))
            xi, yi, pi = rows[i].tolist()
            if non_finite[i]:
                raise ValidationError(f"support point ({xi!r}, {yi!r}) is not finite")
            if bad_mass[i]:
                raise ValidationError(
                    f"mass {pi!r} at ({xi!r}, {yi!r}) must be positive and finite"
                )
            raise ValidationError(f"duplicate atom at ({xi!r}, {yi!r})")
        _check_total(_fsum(p), "joint")
        self._set_columns(xs, ys, p[order])

    @classmethod
    def _from_columns(cls, x, y, p) -> "FiniteJointDistribution":
        """Wrap merged columns, sorted by (x, y) with positive masses, unchecked."""
        j = object.__new__(cls)
        j._set_columns(x, y, p)
        return j

    def _set_columns(self, *columns: np.ndarray) -> None:
        for name, column in zip("xyp", columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def atoms(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(zip(self.x.tolist(), self.y.tolist(), self.p.tolist()))

    def __len__(self) -> int:
        return int(self.p.size)

    def __eq__(self, other):
        return self.atoms == other.atoms if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.atoms)


def _checked_rows(raw, width: int, item: str, shape: str, support: str) -> np.ndarray:
    """Raw (coordinates..., mass) rows as an (n, width) array, checked.

    Coordinates must be finite and masses finite and >= 0.  The conversion
    and the checks run vectorized; only when they fail does the
    row-by-row loop run, to name the first bad row.
    """
    if not isinstance(raw, (list, tuple, np.ndarray)):
        raw = list(raw)
    rows = _as_rows(raw, width)
    if rows is not None and np.isfinite(rows).all() and (rows[:, -1] >= 0.0).all():
        return rows
    cleaned = []
    for i, row in enumerate(raw):
        try:
            row = tuple(map(float, row))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{item} {i}: expected {shape}") from exc
        if len(row) != width:
            raise ValidationError(f"{item} {i}: expected {shape}")
        if not all(map(math.isfinite, row[:-1])):
            raise ValidationError(f"{item} {i}: non-finite {support}")
        if not math.isfinite(row[-1]) or row[-1] < 0.0:
            raise ValidationError(f"{item} {i}: invalid mass {row[-1]!r}")
        cleaned.append(row)
    return np.array(cleaned, dtype=float).reshape(-1, width)


def _merged(rows: np.ndarray, normalize: bool, item: str) -> tuple[list[np.ndarray], np.ndarray]:
    """Drop zero masses, merge duplicate keys, and rescale the masses to total 1.

    A raw total further than INPUT_MASS_TOL from 1 is rejected unless
    ``normalize``; a total within MASS_TOL of 1 is kept bit-exact.
    """
    rows = rows[rows[:, -1] > 0.0]
    if not rows.size:
        raise EmptyDistribution(f"no {item} carries positive mass")
    keys, mass = _grouped(list(rows[:, :-1].T), rows[:, -1])
    total = _fsum(mass)
    if abs(total - 1.0) > INPUT_MASS_TOL and not normalize:
        raise NotNormalizable(
            f"masses sum to {total!r}; pass normalize=True to rescale"
        )
    if abs(total - 1.0) > MASS_TOL:
        mass = mass / total
        if not mass.all():
            raise ValidationError(f"rescaling by {total!r} underflows a mass to 0")
    return keys, mass


def make_joint(
    raw_atoms: Iterable[tuple[float, float, float]],
    normalize: bool = False,
) -> FiniteJointDistribution:
    """Build a joint distribution from raw (x, y, mass) triples.

    Duplicate (x, y) pairs are merged, zero-mass atoms are dropped, and the
    masses are rescaled to total exactly 1.  A raw total further than 1e-9
    from 1 is rejected unless ``normalize=True``.

    Raises:
        ValidationError: on a negative, non-finite or malformed atom (the
            message names the offending atom index).
        EmptyDistribution: if no atom has positive mass.
        NotNormalizable: if the raw total is off by more than 1e-9 and
            normalization was not requested.
    """
    rows = _checked_rows(raw_atoms, 3, "atom", "an (x, y, p) triple", "support value")
    (x, y), p = _merged(rows, normalize, "atom")
    return FiniteJointDistribution._from_columns(x, y, p)


def make_marginal(
    raw_points: Iterable[tuple[float, float]],
    normalize: bool = False,
) -> FiniteMarginal:
    """Build a marginal from raw (value, mass) pairs; same rules as make_joint."""
    rows = _checked_rows(raw_points, 2, "point", "a (value, p) pair", "value")
    (values,), masses = _merged(rows, normalize, "point")
    return FiniteMarginal._from_columns(values, masses)


def marginal_x(j: FiniteJointDistribution) -> FiniteMarginal:
    """X-marginal of a joint: masses aggregated over the y coordinate."""
    (values,), masses = _grouped([j.x], j.p)
    return FiniteMarginal._from_columns(values, masses)


def marginal_y(j: FiniteJointDistribution) -> FiniteMarginal:
    """Y-marginal of a joint: masses aggregated over the x coordinate."""
    (values,), masses = _grouped([j.y], j.p)
    return FiniteMarginal._from_columns(values, masses)


def product_joint(
    mx: FiniteMarginal,
    my: FiniteMarginal,
    max_atoms: int = MAX_PRODUCT_ATOMS,
) -> FiniteJointDistribution:
    """Independent coupling of two marginals: atoms (x, y, px * py)."""
    if len(mx) * len(my) > max_atoms:
        raise SupportTooLarge(
            f"product support {len(mx)} x {len(my)} exceeds cap {max_atoms}"
        )
    atoms = tuple(
        (x, y, px * py) for x, px in mx.points for y, py in my.points
    )
    return FiniteJointDistribution(atoms)


def _transform_value(phi, t: float) -> float:
    if isinstance(phi, Mapping):
        if t not in phi:
            raise UndefinedAtSupport(f"transform table has no entry for support point {t!r}")
        out = phi[t]
    else:
        try:
            out = phi(t)
        except Exception as exc:
            raise UndefinedAtSupport(f"transform failed at support point {t!r}") from exc
    out = float(out)
    if not math.isfinite(out):
        raise UndefinedAtSupport(f"transform is not finite at support point {t!r}")
    return out


def apply_transform(
    j: FiniteJointDistribution,
    phi: Mapping[float, float] | Callable[[float], float],
) -> FiniteJointDistribution:
    """Push a joint through a map applied to both coordinates.

    ``phi`` is either a finite value table or a callable defined on every
    support value of both coordinates.  Atoms that collide after mapping
    are merged.
    """
    support = {v for pair in zip(j.x.tolist(), j.y.tolist()) for v in pair}
    table = {t: _transform_value(phi, t) for t in support}
    mapped = [np.array([table[t] for t in column.tolist()]) for column in (j.x, j.y)]
    (x, y), p = _grouped(mapped, j.p)
    return FiniteJointDistribution(np.column_stack((x, y, p)))


def swap(j: FiniteJointDistribution) -> FiniteJointDistribution:
    """The same joint with the two coordinates exchanged."""
    return FiniteJointDistribution(np.column_stack((j.y, j.x, j.p)))


def expectation(m: FiniteMarginal) -> float:
    """Mean of a finite marginal."""
    return math.fsum(v * p for v, p in m.points)


# ---------------------------------------------------------------------------
# Sampling substrate


@dataclass(frozen=True)
class PairedSample:
    """Observed (x, y) pairs held as two aligned float arrays."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValidationError("sample coordinates must be 1-D arrays of equal length")
        if x.size < 1:
            raise ValidationError("sample must contain at least one pair")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("sample contains non-finite values")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "PairedSample":
        rows = list(pairs)
        if not rows:
            raise ValidationError("sample must contain at least one pair")
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("pairs must be (x, y) tuples")
        return cls(arr[:, 0], arr[:, 1])

    @property
    def n(self) -> int:
        return int(self.x.size)

    def pairs(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.x, self.y)]


# ---------------------------------------------------------------------------
# Gridded-density substrate


def _cumulative_trapezoid(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Forward cumulative trapezoid integral, zero at the first node."""
    segments = 0.5 * (f[1:] + f[:-1]) * np.diff(grid)
    return np.concatenate(([0.0], np.cumsum(segments)))


def _reverse_cumulative_trapezoid(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Backward cumulative trapezoid integral, zero at the last node.

    Accumulating from the right keeps the *relative* accuracy of small tail
    values, which matters for hazard rates and mean residual life.
    """
    segments = 0.5 * (f[1:] + f[:-1]) * np.diff(grid)
    return np.concatenate((np.cumsum(segments[::-1])[::-1], [0.0]))


@dataclass(frozen=True)
class GridDensityPair:
    """Two marginal densities tabulated on one strictly increasing grid.

    The declared integration rule is the trapezoid rule on the given grid;
    both densities must integrate to 1 within 1e-6 under it.  Mass beyond
    the last node is treated as zero (truncation), so cdf values are
    accumulated from the left and survival values from the right.
    """

    grid: np.ndarray
    fx: np.ndarray
    fy: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        fx = np.asarray(self.fx, dtype=float)
        fy = np.asarray(self.fy, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValidationError("grid must be 1-D with at least 3 nodes")
        if fx.shape != grid.shape or fy.shape != grid.shape:
            raise ValidationError("densities must match the grid shape")
        if not np.isfinite(grid).all():
            raise ValidationError("grid contains non-finite abscissae")
        if np.any(np.diff(grid) <= 0.0):
            raise ValidationError("grid abscissae must be strictly increasing")
        for name, f in (("fx", fx), ("fy", fy)):
            if not np.isfinite(f).all():
                raise ValidationError(f"{name} contains non-finite values")
            if np.any(f < 0.0):
                raise ValidationError(f"{name} contains negative density values")
            integral = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(grid)))
            if abs(integral - 1.0) > DENSITY_NORM_TOL:
                raise ValidationError(
                    f"{name} integrates to {integral!r} under the trapezoid rule, not 1"
                )
        for name, arr in (("grid", grid), ("fx", fx), ("fy", fy)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_arrays(cls, grid, fx, fy, normalize: bool = False) -> "GridDensityPair":
        """Build from tabulated values, optionally rescaling each density so
        its trapezoid integral is exactly 1."""
        grid = np.asarray(grid, dtype=float)
        fx = np.asarray(fx, dtype=float)
        fy = np.asarray(fy, dtype=float)
        if normalize:
            dx = np.diff(grid)
            zx = float(np.sum(0.5 * (fx[1:] + fx[:-1]) * dx))
            zy = float(np.sum(0.5 * (fy[1:] + fy[:-1]) * dx))
            if zx <= 0.0 or zy <= 0.0:
                raise ValidationError("cannot normalize a density with nonpositive integral")
            fx = fx / zx
            fy = fy / zy
        return cls(grid, fx, fy)

    @classmethod
    def from_functions(cls, grid, fx_fn, fy_fn, normalize: bool = True) -> "GridDensityPair":
        """Tabulate two density callables on a grid (normalized by default)."""
        grid = np.asarray(grid, dtype=float)
        fx = np.asarray([float(fx_fn(t)) for t in grid])
        fy = np.asarray([float(fy_fn(t)) for t in grid])
        return cls.from_arrays(grid, fx, fy, normalize=normalize)

    def __len__(self) -> int:
        return int(self.grid.size)

    @cached_property
    def cdf_x(self) -> np.ndarray:
        return _cumulative_trapezoid(self.fx, self.grid)

    @cached_property
    def cdf_y(self) -> np.ndarray:
        return _cumulative_trapezoid(self.fy, self.grid)

    @cached_property
    def survival_x(self) -> np.ndarray:
        return _reverse_cumulative_trapezoid(self.fx, self.grid)

    @cached_property
    def survival_y(self) -> np.ndarray:
        return _reverse_cumulative_trapezoid(self.fy, self.grid)

    def swapped(self) -> "GridDensityPair":
        return GridDensityPair(self.grid, self.fy, self.fx)
