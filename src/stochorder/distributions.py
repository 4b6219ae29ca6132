"""Bivariate laws and their marginals.

Three substrates cover everything the comparison engines consume:

* :class:`FiniteJointDistribution` -- an atomic joint pmf, the exact
  substrate on which the precedence orders are computed in closed form.
* :class:`GridDensityPair` -- two marginal densities tabulated on a shared
  grid, the substrate for the classical marginal-based partial orders on
  continuous laws.
* :class:`PairedSample` -- observed (x, y) pairs, the estimation substrate.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.

Finite laws (a joint and a :class:`FiniteMarginal`) share one columnar core:
sorted read-only float64 key columns (``x``, ``y`` or ``v``), a mass column
``p``, and a tuple view (``atoms`` or ``points``) built on first use.  They
share one check path too: rows are converted and checked with numpy, and a
row-by-row pass runs only on failure, to name the first bad row by index
and coordinates.  The builders ``make_joint``/``make_marginal`` then merge
duplicates, drop zero masses and rescale; the public constructors instead
demand positive masses, unique keys and a total within 1e-12 of 1.

One rule, in ``_floats`` and ``_float`` (one value), says what a number is
for every constructor and ``FiniteMarginal.cdf``: what ``float()`` reads,
bools as 0 and 1, but no str, bytes, complex value, None or array past 0-d.

Masses and every exact term are summed by ``_fsum``: ``math.fsum``'s value,
bit for bit, from numpy blocks.  So the total-mass invariant (sum = 1 within
1e-12) holds at any support size.  Building a law is one grouped reduction: a
stable sort, group boundaries found with ``!=`` one key at a time, and
``math.fsum`` over each group that holds duplicates.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Callable, Iterable, Mapping
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDistribution, NotNormalizable, SupportTooLarge, UndefinedAtSupport, ValidationError

#: Total-mass invariant maintained internally.
MASS_TOL = 1e-12
#: Raw masses whose total is within this of 1 are silently renormalized;
#: larger deviations require an explicit ``normalize=True``.
INPUT_MASS_TOL = 1e-9
#: Tolerance on the trapezoid integral of a tabulated density.
DENSITY_NORM_TOL = 1e-6
#: Default cap on the number of atoms a product coupling may create.
MAX_PRODUCT_ATOMS = 10_000_000

_FSUM_BLOCK = 1 << 14  #: values per block of ``_fsum``'s extraction, a power of two
#: Raw rows of each finite law: (width, item, shape, coordinate), as ``_checked_rows`` takes them.
_ATOM = (3, "atom", "an (x, y, p) triple", "support value")
_POINT = (2, "point", "a (value, p) pair", "value")

#: What ``float()`` reads but the number rule rejects (``np.complex64`` is no ``complex``).
_NOT_NUMBERS = (str, bytes, bytearray, memoryview, complex, np.complexfloating, type(None), np.ndarray)


def _shown(value) -> str:
    """``repr(value)``, or its type and size where repr raises (on an int past Python's digit limit)."""
    try:
        return repr(value)
    except Exception:  # a caller's repr may raise anything; the report must still name the value
        return f"<{type(value).__name__} of {value.__sizeof__()} bytes>"


def _float(value) -> float:
    """One value as a float by the number rule; a ValidationError names a value of a rejected type."""
    if isinstance(value, (float, int)):  # the common case, bools included, at one look
        return float(value)
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, _NOT_NUMBERS):
        raise ValidationError(f"got {_shown(value)}")
    return float(value)


def _floats(value, message: str) -> np.ndarray:
    """``value`` as a float ndarray, uncopied if it is one, or ValidationError(message)."""
    try:  # a numeric ndarray costs one look at its dtype; all else is read value by value
        if (array := np.asarray(value)).dtype.kind in "biuf":
            return array.astype(float, copy=False)
        items = np.asarray(value, dtype=object)  # the caller's values, not numpy's text or complex
        return np.fromiter(map(_float, items.flat), float, items.size).reshape(items.shape)
    except ValidationError as exc:  # from _float, naming the first value that is no number
        raise ValidationError(f"{message}, {exc}") from None
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message) from None


def _fsum(column: np.ndarray) -> float:
    """``math.fsum(column)`` bit for bit.  Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31(1), 2008) splits blocks of values into parts whose float sums are exact, and fsum rounds them once."""
    top, i = float(column.size < _FSUM_BLOCK), 0  # on fewer values, math.fsum itself is as fast
    # scratch in its own mapping: a 256 KB heap block, reused by long-lived objects, kept glibc from trimming
    parts, buffers = [], None if top else np.frombuffer(mmap.mmap(-1, 16 * _FSUM_BLOCK)).reshape(2, -1)
    while not top and i < column.size:
        (r, h), i = buffers[:, : column.size - i], i + _FSUM_BLOCK  # the block's rest, and its high part
        r[...] = column[i - _FSUM_BLOCK : i]
        for _ in range(5):
            top = float(np.abs(r, out=h).max())
            if not 0.0 < top * (column.size + 2 * _FSUM_BLOCK) < 2.0**1008:  # cleared, or for math.fsum
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + _FSUM_BLOCK.bit_length())  # > top * (block + 2)
            np.subtract(np.add(r, sigma, out=h), sigma, out=h)  # on a grid of sigma / 2**53: sums exactly
            r -= h
            parts.append(float(h.sum()))
    if top:  # few values, one not finite, sums that could near the float max, or a block left after 4 passes
        try:
            return math.fsum(memoryview(column))  # reads the buffer; builds no list of floats
        except OverflowError:  # a sum past the float range: its halves' sum, doubled, rounds to +-inf
            return 2.0 * math.fsum(memoryview(column / 2.0))
    return math.fsum(parts or [-0.0 if column.size and np.signbit(column).all() else 0.0])  # zeros: signed


def _freeze(obj, names: Iterable[str], arrays: Iterable[np.ndarray]) -> None:
    """Set ``arrays``, made read-only, as the attributes ``names`` of a frozen instance."""
    for name, array in zip(names, arrays):
        array.flags.writeable = False
        object.__setattr__(obj, name, array)


def _grouped(keys: list[np.ndarray], p: np.ndarray) -> list[np.ndarray]:
    """Merge equal keys: the key columns of each group, then its fsum'd mass.

    Groups come out sorted by the keys, the first key primary.  Keys are
    compared with ``==``, so -0.0 joins 0.0; the stable sort keeps each
    group's first-seen key.  The boundaries are found one sorted key at a
    time, and only groups that hold duplicates are summed.
    """
    order = np.lexsort(keys[::-1])
    p = p[order]  # masses first: gathered after the keys, peak RSS rose 98 -> 116 MB
    new = np.r_[True, np.zeros(order.size - 1, dtype=bool)]  # where each group starts
    for k in keys:  # one gathered key column alive at a time
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], order.size]
    firsts = order[starts]  # the row where each group is first seen
    mass = p[starts]
    shared = np.flatnonzero(ends - starts > 1)
    masses = memoryview(p)
    bounds = zip(starts[shared].tolist(), ends[shared].tolist())
    mass[shared] = [math.fsum(masses[a:b]) for a, b in bounds]
    return [k[firsts] for k in keys] + [mass]


def _at(row) -> str:
    """The coordinates of a (coordinates..., mass) row, as messages name them."""
    return "(" + ", ".join(map(repr, row[:-1])) + ")"


def _checked_rows(raw, width: int, item: str, shape: str, support: str) -> np.ndarray:
    """Raw (coordinates..., mass) rows as an (n, width) array of numbers, checked: coordinates
    finite, masses finite and >= 0.  The conversion and the checks run vectorized; only when
    they fail does the row-by-row loop run, to name the first bad row."""
    try:  # a 0-d ndarray is no iterable either
        iter(raw)
        raw = raw if isinstance(raw, (list, tuple, np.ndarray)) else list(raw)
    except TypeError:
        raise ValidationError(f"expected an iterable of {item}s, got {_shown(raw)}") from None
    try:  # what is no number goes to the loop, which names its row
        rows = _floats(raw, item)
    except ValidationError:
        rows = np.empty(0)
    if rows.shape[1:] == (width,) and np.isfinite(rows).all() and (rows[:, -1] >= 0.0).all():
        return rows
    cleaned = []
    for i, row in enumerate(raw):
        try:  # bytes iterate as ints, but they are no row of numbers
            values = () if isinstance(row, (bytes, bytearray, memoryview)) else tuple(map(_float, row))
        except (TypeError, ValueError, OverflowError):
            values = ()
        if len(values) != width:
            raise ValidationError(f"{item} {i}: expected {shape}, got {_shown(row)}")
        if not all(map(math.isfinite, values[:-1])):
            raise ValidationError(f"{item} {i}: non-finite {support} at {_at(values)}")
        if not math.isfinite(values[-1]) or values[-1] < 0.0:
            raise ValidationError(f"{item} {i}: invalid mass {values[-1]!r} at {_at(values)}")
        cleaned.append(values)
    return np.array(cleaned, dtype=float).reshape(-1, width)


def _strict_columns(raw, row_format: tuple, what: str) -> list[np.ndarray]:
    """The columns of a finite law from rows that need no merging: sorted keys, then masses.
    Beyond the checks of ``_checked_rows``, masses must be positive, keys unique and the
    total within MASS_TOL of 1."""
    rows = _checked_rows(raw, *row_format)
    item = row_format[1]
    if not rows.size:
        raise EmptyDistribution(f"{what} has no {item}s")
    *keys, p = _grouped(list(rows[:, :-1].T), rows[:, -1])
    if p.size < len(rows) or not rows[:, -1].all():  # the loop only names the first bad row
        seen = set()
        for i, row in enumerate(rows.tolist()):
            if row[-1] == 0.0:
                raise ValidationError(f"{item} {i}: mass {row[-1]!r} at {_at(row)} must be positive")
            if tuple(row[:-1]) in seen:
                raise ValidationError(f"{item} {i}: duplicate {item} at {_at(row)}")
            seen.add(tuple(row[:-1]))
    total = _fsum(p)
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"{what}: masses sum to {total!r}, not 1")
    return keys + [p]


class _FiniteLaw:
    """Core of a finite law: read-only key columns sorted lexicographically,
    then a mass column ``p``, under the attribute names ``_columns`` lists."""

    @classmethod
    def _from_columns(cls, *columns: np.ndarray):
        """Wrap merged columns, sorted by key with positive masses, unchecked."""
        law = object.__new__(cls)
        _freeze(law, cls._columns, columns)
        return law

    @cached_property
    def _tuples(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*(getattr(self, name).tolist() for name in self._columns)))

    def __len__(self) -> int:
        return int(self.p.size)

    def __eq__(self, other):
        return self._tuples == other._tuples if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuples)


@dataclass(frozen=True, init=False, eq=False)
class FiniteMarginal(_FiniteLaw):
    """A univariate pmf: (value, mass) points with unique values.

    The law is held as two read-only float64 columns, ``v`` sorted
    increasing and ``p``.  ``points`` is a tuple view of the same law as
    (value, p) floats, built on first use.
    """

    v: np.ndarray
    p: np.ndarray
    _columns = "vp"

    def __init__(self, points: Iterable[tuple[float, float]]):
        _freeze(self, self._columns, _strict_columns(points, _POINT, "marginal"))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return self._tuples

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.v.tolist())

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(self.p.tolist())

    def cdf(self, t):
        """Right-continuous cdf at scalar or array ``t``."""
        cum = np.cumsum(self.p)
        arr = _floats(t, "cdf points must be numbers")
        idx = np.searchsorted(self.v, arr, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True, init=False, eq=False)
class FiniteJointDistribution(_FiniteLaw):
    """Atomic joint pmf of a pair: (x, y, mass) atoms with unique (x, y).

    The law is held as three read-only float64 columns ``x``, ``y`` and
    ``p``, sorted by (x, y).  ``atoms`` is a tuple view of the same law as
    (x, y, p) floats, built on first use.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    _columns = "xyp"

    def __init__(self, atoms: Iterable[tuple[float, float, float]]):
        _freeze(self, self._columns, _strict_columns(atoms, _ATOM, "joint"))

    @property
    def atoms(self) -> tuple[tuple[float, float, float], ...]:
        return self._tuples


def _merged(raw, row_format: tuple, normalize: bool) -> list[np.ndarray]:
    """The columns of a finite law from raw rows: sorted keys, then masses.

    Zero masses are dropped, duplicate keys merged and the masses rescaled
    to total 1.  A raw total further than INPUT_MASS_TOL from 1 is rejected
    unless ``normalize``; a total within MASS_TOL of 1 is kept bit-exact.
    """
    # ``checked`` lives until return: freed before the grouping, peak RSS grew ~15 MB at 200k atoms
    checked = _checked_rows(raw, *row_format)
    rows = checked[checked[:, -1] > 0.0]
    if not rows.size:
        raise EmptyDistribution(f"no {row_format[1]} carries positive mass")
    *keys, mass = _grouped(list(rows[:, :-1].T), rows[:, -1])
    total = _fsum(mass)
    if abs(total - 1.0) > INPUT_MASS_TOL and not normalize:
        raise NotNormalizable(f"masses sum to {total!r}; pass normalize=True to rescale")
    if abs(total - 1.0) > MASS_TOL:
        mass = mass / total
        if not mass.all():
            raise ValidationError(f"rescaling by {total!r} underflows a mass to 0")
    return keys + [mass]


def make_joint(
    raw_atoms: Iterable[tuple[float, float, float]], normalize: bool = False
) -> FiniteJointDistribution:
    """Build a joint distribution from raw (x, y, mass) triples.

    Duplicate (x, y) pairs are merged and zero-mass atoms are dropped.  A
    total within 1e-12 of 1 is kept bit-exact; any other total is rescaled
    to 1, within that same 1e-12.  A raw total further than 1e-9 from 1 is
    rejected unless ``normalize=True``.

    Raises:
        ValidationError: on a negative, non-finite or malformed atom, or a value that is no
            number by the module docstring's rule (named by index and coordinates).
        EmptyDistribution: if no atom has positive mass.
        NotNormalizable: if the raw total is off by more than 1e-9 and
            normalization was not requested.
    """
    return FiniteJointDistribution._from_columns(*_merged(raw_atoms, _ATOM, normalize))


def make_marginal(raw_points: Iterable[tuple[float, float]], normalize: bool = False) -> FiniteMarginal:
    """Build a marginal from raw (value, mass) pairs; same rules as make_joint."""
    return FiniteMarginal._from_columns(*_merged(raw_points, _POINT, normalize))


def marginal_x(j: FiniteJointDistribution) -> FiniteMarginal:
    """X-marginal of a joint: masses aggregated over the y coordinate."""
    return FiniteMarginal._from_columns(*_grouped([j.x], j.p))


def marginal_y(j: FiniteJointDistribution) -> FiniteMarginal:
    """Y-marginal of a joint: masses aggregated over the x coordinate."""
    return FiniteMarginal._from_columns(*_grouped([j.y], j.p))


def product_joint(
    mx: FiniteMarginal, my: FiniteMarginal, max_atoms: int = MAX_PRODUCT_ATOMS
) -> FiniteJointDistribution:
    """Independent coupling of two marginals: atoms (x, y, px * py), through
    ``make_joint``, which drops masses that underflow and rescales the total."""
    if len(mx) * len(my) > max_atoms:
        raise SupportTooLarge(f"product support {len(mx)} x {len(my)} exceeds cap {max_atoms}")
    x, px = np.repeat(mx.v, len(my)), np.repeat(mx.p, len(my))
    y, py = np.tile(my.v, len(mx)), np.tile(my.p, len(mx))
    return make_joint(np.column_stack((x, y, px * py)))


def _transform_value(phi, t: float) -> float:
    if isinstance(phi, Mapping) and t not in phi:
        raise UndefinedAtSupport(f"transform table has no entry for support point {t!r}")
    try:
        out = phi[t] if isinstance(phi, Mapping) else phi(t)
    except Exception as exc:
        raise UndefinedAtSupport(f"transform failed at support point {t!r}") from exc
    try:  # the cause, not repr(out), which fails on an int past Python's digit limit
        out = _float(out)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UndefinedAtSupport(f"transform value at support point {t!r} is not a number ({exc})") from exc
    if not math.isfinite(out):
        raise UndefinedAtSupport(f"transform is not finite at support point {t!r}")
    return out


def apply_transform(
    j: FiniteJointDistribution, phi: Mapping[float, float] | Callable[[float], float]
) -> FiniteJointDistribution:
    """Push a joint through a map applied to both coordinates.

    ``phi`` is either a finite value table or a callable defined on every
    support value of both coordinates; its values are numbers by the rule
    of the module docstring.  Atoms that collide after mapping are merged.
    """
    support = {v for pair in zip(j.x.tolist(), j.y.tolist()) for v in pair}
    table = {t: _transform_value(phi, t) for t in support}
    mapped = [np.array([table[t] for t in column.tolist()]) for column in (j.x, j.y)]
    return FiniteJointDistribution._from_columns(*_grouped(mapped, j.p))


def swap(j: FiniteJointDistribution) -> FiniteJointDistribution:
    """The same joint with the two coordinates exchanged."""
    return FiniteJointDistribution._from_columns(*_grouped([j.y, j.x], j.p))


def expectation(m: FiniteMarginal) -> float:
    """Mean of a finite marginal."""
    return _fsum(m.v * m.p)


# ---------------------------------------------------------------------------
# Sampling substrate


@dataclass(frozen=True)
class PairedSample:
    """Observed (x, y) pairs as two aligned float arrays, copied; numbers by the module docstring's rule."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = (np.array(_floats(v, "sample coordinates must be numbers")) for v in (self.x, self.y))
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise ValidationError("sample coordinates must be 1-D arrays of equal length")
        if x.size < 1:
            raise ValidationError("sample must contain at least one pair")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("sample contains non-finite values")
        _freeze(self, "xy", (x, y))

    @classmethod
    def _from_columns(cls, x: np.ndarray, y: np.ndarray) -> "PairedSample":
        """Wrap finite columns of one length that the library has just made: read-only, uncopied."""
        sample = object.__new__(cls)
        _freeze(sample, "xy", (x, y))
        return sample

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "PairedSample":
        message = "pairs must be (x, y) tuples of numbers"
        arr = _floats(list(pairs), message)
        if arr.shape[1:] != (2,):
            raise ValidationError(message if len(arr) else "sample must contain at least one pair")
        return cls(arr[:, 0], arr[:, 1])

    @property
    def n(self) -> int:
        return int(self.x.size)

    def pairs(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.x, self.y)]


# ---------------------------------------------------------------------------
# Gridded-density substrate


def _trapezoids(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The trapezoid-rule integral of ``f`` over each grid interval."""
    return 0.5 * (f[1:] + f[:-1]) * np.diff(grid)


def _cumulative_trapezoid(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Forward cumulative trapezoid integral, zero at the first node."""
    return np.concatenate(([0.0], np.cumsum(_trapezoids(f, grid))))


def _reverse_cumulative_trapezoid(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Backward cumulative trapezoid integral, zero at the last node.

    Accumulating from the right keeps the *relative* accuracy of small tail
    values, which matters for hazard rates and mean residual life.
    """
    return np.concatenate((np.cumsum(_trapezoids(f, grid)[::-1])[::-1], [0.0]))


def _integral(name: str, f: np.ndarray, grid: np.ndarray) -> float:
    """The trapezoid integral of density ``name``, rejected when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming the density
        integral = float(np.sum(_trapezoids(f, grid)))
    if not math.isfinite(integral):
        raise ValidationError(f"{name} has a non-finite integral under the trapezoid rule")
    return integral


def _grid_arrays(grid, fx, fy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid and densities as new finite float arrays of one 1-D shape: >= 3 nodes, increasing."""
    grid, fx, fy = (np.array(_floats(a, "grid and densities must be numbers")) for a in (grid, fx, fy))
    if grid.ndim != 1 or grid.size < 3:
        raise ValidationError("grid must be 1-D with at least 3 nodes")
    if fx.shape != grid.shape or fy.shape != grid.shape:
        raise ValidationError("densities must match the grid shape")
    for name, a, what in (("grid", grid, "abscissae"), ("fx", fx, "values"), ("fy", fy, "values")):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} contains non-finite {what}")
    if np.any(grid[1:] <= grid[:-1]):  # not np.diff, which can overflow
        raise ValidationError("grid abscissae must be strictly increasing")
    return grid, fx, fy


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
    normalize: InitVar[bool] = False  #: rescale each density so that its trapezoid integral is exactly 1

    def __post_init__(self, normalize: bool):
        grid, fx, fy = _grid_arrays(self.grid, self.fx, self.fy)
        if normalize:
            zx, zy = _integral("fx", fx, grid), _integral("fy", fy, grid)
            if zx <= 0.0 or zy <= 0.0:
                raise ValidationError("cannot normalize a density with nonpositive integral")
            fx, fy = fx / zx, fy / zy
        for name, f in (("fx", fx), ("fy", fy)):
            if np.any(f < 0.0):
                raise ValidationError(f"{name} contains negative density values")
            integral = _integral(name, f, grid)
            if abs(integral - 1.0) > DENSITY_NORM_TOL:
                raise ValidationError(f"{name} integrates to {integral!r} under the trapezoid rule, not 1")
        _freeze(self, ("grid", "fx", "fy"), (grid, fx, fy))

    @classmethod
    def from_arrays(cls, grid, fx, fy, normalize: bool = False) -> "GridDensityPair":
        """``GridDensityPair(grid, fx, fy, normalize)``: by default, no density is rescaled."""
        return cls(grid, fx, fy, normalize)

    @classmethod
    def from_functions(cls, grid, fx_fn, fy_fn, normalize: bool = True) -> "GridDensityPair":
        """Tabulate two density callables on a grid (normalized by default)."""
        grid = _floats(grid, "grid and densities must be numbers")
        fx, fy = ([fn(t) for t in grid.ravel()] for fn in (fx_fn, fy_fn))  # a 0-d grid fails by shape
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
