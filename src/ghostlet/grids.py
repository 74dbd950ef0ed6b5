"""Uniform closed-box grids, sampled fields, quadrature, and inner products.

Everything downstream integrates over truncated boxes with the trapezoid rule
(`Grid.weights`). A grid builds its node and weight arrays (`Grid.axis`,
`Grid.weights`, `Grid.points`) once, on first use, and hands out the same
read-only arrays after that. Grids store both endpoints; symmetric frequency
grids meant to straddle ω = 0 must use an even point count so no node lands on
the origin (the |ω|^{-m} weight is then finite at every node and odd
integrands cancel in the symmetric sum). The weighted ω inner product adds an Euler–Maclaurin
correction for the kink the |ω|^{-m} weight puts at the origin (see
`weighted_omega_inner`). The last section chooses every frequency grid:
`DEFAULT_OMEGA_GRID`, the slice path's `spectral_grids` and `smooth_convolve`'s
`convolution_grid`.

Every cubic interpolation goes through one spline, the exact not-a-knot
cubic of `cubic_spline`, which is 0 outside the grid box: `interpolate`, the
Fourier-slice path and the interpolated profiles all use it. `Spline.__call__`
serves shared points (`interpolate`, the profiles) by scipy's BSpline on 1-D
grids and NdBSpline otherwise: at the 69,408 sheared (a, ω) points of a 1-D
slice, BSpline takes 5.6 ms and NdBSpline 42 ms, with bit-identical values
(2-vCPU Xeon). `Spline.each` serves per-entry points (the sheared slices of
`forward_s_fourier`).

A field owns finite, read-only values. The public constructors (the field
classes and `sample`) copy the caller's array and refuse NaN/Inf (a finite sum
clears it, anything else is scanned entry by entry; `_field_values`);
`_Field._adopt` takes an array the program has just allocated (the results of
arithmetic and operators) with the same check and no copy. A profile's values
count as the caller's: its evaluator may return an array it keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np


class DomainError(ValueError):
    """Contract violation: mismatched grids, invalid parameters, empty input."""


class DataError(ValueError):
    """Non-finite values where finite data is required."""


class UnsupportedProfileError(DomainError):
    """A profile lacks the evaluator (real or spectral) an operation needs."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid over a closed box, one entry per axis.

    spacing[k] = (upper[k] - lower[k]) / (counts[k] - 1) > 0.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        counts = tuple(int(v) for v in np.atleast_1d(self.counts))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts)
        if not (len(lower) == len(upper) == len(counts)) or len(lower) == 0:
            raise DomainError("grid axes must agree and be nonempty")
        for lo, hi, n in zip(lower, upper, counts):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid axis bounds [{lo}, {hi}]")
            if n < 2:
                raise DomainError("each axis needs at least 2 points")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.counts))

    @property
    def total_points(self) -> int:
        return int(np.prod(self.counts))

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in zip(self.lower, self.upper)]))

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(np.linspace(lo, hi, n))
                     for lo, hi, n in zip(self.lower, self.upper, self.counts))

    def axis(self, k: int = 0) -> np.ndarray:
        return self._axes[k]

    def axes(self) -> list[np.ndarray]:
        return list(self._axes)

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    @cached_property
    def _points(self) -> np.ndarray:
        dense = np.meshgrid(*self.axes(), indexing="ij")
        return _read_only(np.stack([d.ravel() for d in dense], axis=-1))

    def points(self) -> np.ndarray:
        """All nodes as a (total_points, dim) array, C order."""
        return self._points

    def axis_weights(self, k: int) -> np.ndarray:
        w = np.full(self.counts[k], self.spacing[k])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def _weights(self) -> np.ndarray:
        w = self.axis_weights(0)
        for k in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(k))
        return _read_only(w)

    def weights(self) -> np.ndarray:
        """Trapezoid weights on the full grid (outer product over axes)."""
        return self._weights

    def straddles_zero(self) -> bool:
        """Whether no node of the first axis sits on 0."""
        return not np.any(np.isclose(self.axis(0), 0.0, atol=1e-15 * max(1.0, abs(self.upper[0]))))

    def sub(self, axes: slice) -> "Grid":
        """The grid of the axes `axes` selects: on a parameter grid,
        sub(slice(-1)) is the a grid and sub(slice(-1, None)) the b line."""
        return Grid(self.lower[axes], self.upper[axes], self.counts[axes])

    def product(self, other: "Grid") -> "Grid":
        """The product grid, this grid's axes first."""
        return Grid(self.lower + other.lower, self.upper + other.upper,
                    self.counts + other.counts)

    @staticmethod
    def line(lo: float, hi: float, n: int) -> "Grid":
        return Grid((lo,), (hi,), (n,))

    @staticmethod
    def symmetric(half_width: float | Sequence[float], counts: int | Sequence[int]) -> "Grid":
        hw = np.atleast_1d(half_width).astype(float)
        ns = np.broadcast_to(np.atleast_1d(counts), hw.shape)
        return Grid(tuple(-hw), tuple(hw), tuple(int(n) for n in ns))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _field_values(grid: Grid, values: np.ndarray, copy: bool) -> np.ndarray:
    """`values` as the grid's read-only, finite, C-contiguous complex array (C order fixes
    the summation order of later reductions): a copy, or else the array where it can be.

    A NaN or ±Inf entry makes the sum NaN or ±Inf, so a finite sum proves every entry
    finite; only a sum that is not finite (a bad entry, or finite entries whose sum
    overflows) pays for the entrywise scan."""
    vals = np.asarray(values, dtype=complex)
    if vals.size != grid.total_points:
        raise DomainError(f"value count {vals.size} != grid point count {grid.total_points}")
    vals = vals.reshape(grid.counts)
    vals = vals.copy() if copy else np.ascontiguousarray(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(vals)
    if not np.isfinite(total) and not np.all(np.isfinite(vals)):
        raise DataError("field contains NaN/Inf values")
    return _read_only(vals)


@dataclass(frozen=True)
class _Field:
    """Complex values on a grid. Immutable; arithmetic returns new fields. The
    constructor copies `values`, `_adopt` does not (see the module docstring)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _field_values(self.grid, self.values, copy=True))
        self._check_grid()

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "_Field":
        """The field of `values`, an array no one else writes to, without a copy."""
        fld = object.__new__(cls)
        object.__setattr__(fld, "grid", grid)
        object.__setattr__(fld, "values", _field_values(grid, values, copy=False))
        fld._check_grid()
        return fld

    def _check_grid(self):
        """Raise DomainError if the grid does not suit this kind of field."""

    @cached_property
    def spline(self) -> "Spline":
        """The field's `cubic_spline`, built once (the values are read-only)."""
        return cubic_spline(self.grid, self.values)

    def _wrap(self, values: np.ndarray) -> "_Field":
        return self._adopt(self.grid, values)

    def __add__(self, other):
        self._require_same_grid(other)
        return self._wrap(self.values + other.values)

    def __sub__(self, other):
        self._require_same_grid(other)
        return self._wrap(self.values - other.values)

    def __mul__(self, scalar):
        return self._wrap(self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.values)

    def _require_same_grid(self, other):
        if not isinstance(other, _Field) or other.grid != self.grid:
            raise DomainError("fields live on different grids")


class SampledFunction(_Field):
    """f sampled on an input-space grid (dim m)."""


class ParamDistribution(_Field):
    """γ sampled on a parameter grid over (a₁..a_m, b); dim = m + 1."""

    def _check_grid(self):
        if self.grid.dim < 2:
            raise DomainError("parameter grids need dim >= 2 (a-axes plus b)")


class SpectralFunction(_Field):
    """Values on a frequency grid (ξ axes, ω axis, or (a, ω))."""


def sample(grid: Grid, fn: Callable) -> SampledFunction:
    """Sample a callable of the grid coordinates onto the grid."""
    mesh = grid.mesh()
    vals = np.broadcast_to(np.asarray(fn(*mesh), dtype=complex), grid.counts)
    return SampledFunction(grid, vals)


TRAPEZOID = "trapezoid"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class QuadratureScheme:
    """A quadrature kind by name. The direct S and R integrate by the
    trapezoid rule only (`ridgelet` refuses any other kind); the benchmark's
    tracer reads `kind` from `NetworkOperator.scheme` and `ridgelet`'s
    `scheme`."""

    kind: str = TRAPEZOID

    def __post_init__(self):
        if self.kind not in (TRAPEZOID, MONTE_CARLO):
            raise DomainError(f"unknown quadrature kind {self.kind!r}")


def uniform_points(grid: Grid, n: int, seed) -> np.ndarray:
    """n uniform points in the grid box, (n, dim), drawn one axis after the
    other from `seed`: an int, or a `np.random.Generator`, which the draw
    advances.

    Each axis is drawn into one axis-sized buffer, scaled by `*= hi − lo`
    and shifted by `+= lo` in place (the same operations, so the same
    values, as lo + (hi − lo)·u), and copied into its column of the result.
    At the S curve's 10⁶ 2-D points that peaks at 24 MB, where per-axis
    products and an `np.column_stack` peaked at 32 MB (tracemalloc)."""
    rng = np.random.default_rng(seed)
    pts = np.empty((n, grid.dim))
    u = np.empty(n)
    for d, (lo, hi) in enumerate(zip(grid.lower, grid.upper)):
        rng.random(out=u)
        u *= hi - lo
        u += lo
        pts[:, d] = u
    return pts


def _outside_box(grid: Grid, pts: np.ndarray) -> np.ndarray:
    """True where a point (shape (..., dim)) lies outside the closed grid box,
    NaN coordinates included (NaN fails both bounds). Built one axis at a
    time: on 10⁶ 2-D points that took 4 ms, against 36 ms for one comparison
    of the whole (..., dim) array (2-vCPU Xeon, numpy 2.4.6)."""
    outside = np.zeros(pts.shape[:-1], dtype=bool)
    for d, (lo, hi) in enumerate(zip(grid.lower, grid.upper)):
        col = pts[..., d]
        outside |= ~((col >= lo) & (col <= hi))
    return outside


@dataclass(frozen=True)
class Spline:
    """The exact not-a-knot cubic spline of complex node values on a grid,
    0 outside the grid box (built by `cubic_spline`).

    `coef` holds the B-spline coefficients: one axis per grid axis, then the
    batch axes of the node values, then (Re, Im). `__call__` evaluates every
    batch entry at shared points, `each` entry i at its own points[i].
    """

    grid: Grid
    knots: tuple
    coef: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Values at points of shape (..., dim); the result has shape
        (...) followed by the batch shape. BSpline evaluates 1-D grids,
        NdBSpline the others (see the module docstring)."""
        from scipy.interpolate import BSpline, NdBSpline

        pts = np.asarray(points, dtype=float)
        if self.grid.dim == 1:
            vals = BSpline(self.knots[0], self.coef, 3, extrapolate=False)(pts[..., 0])
        else:
            vals = NdBSpline(self.knots, self.coef, 3)(pts)
        out = np.ascontiguousarray(vals).view(complex)[..., 0]
        out[_outside_box(self.grid, pts)] = 0.0
        return out

    def each(self, points: np.ndarray) -> np.ndarray:
        """Batch entry i at its own points[i] (shape (batch, ..., dim), one
        batch axis), bit-identical to `__call__` on entry i alone: scipy's
        design-matrix rows times the entry's coefficients, summed from 0 in
        column order as scipy's evaluators sum."""
        from scipy.interpolate import BSpline, NdBSpline

        pts = np.asarray(points, dtype=float)
        if self.coef.shape[self.grid.dim:-1] != pts.shape[:1]:
            raise DomainError(f"points {pts.shape} do not match the batch of {self.coef.shape}")
        flat = pts.reshape(-1, self.grid.dim)
        rows = (BSpline.design_matrix(flat[:, 0], self.knots[0], 3, extrapolate=True)
                if self.grid.dim == 1 else NdBSpline.design_matrix(flat, self.knots, 3))
        cols = rows.indices.reshape(flat.shape[0], -1)
        entry = np.repeat(np.arange(pts.shape[0]), flat.shape[0] // pts.shape[0])
        index = cols * pts.shape[0] + entry[:, None]   # coef rows as (coefficient, entry)
        coef = self.coef.reshape(-1, 2)
        acc = np.zeros((flat.shape[0], 2))
        for j, basis in enumerate(rows.data.reshape(cols.shape).T):
            acc += coef.take(index[:, j], axis=0) * basis[:, None]
        out = acc.view(complex)[:, 0].reshape(pts.shape[:-1])
        out[_outside_box(self.grid, pts)] = 0.0
        return out


def cubic_spline(grid: Grid, values: np.ndarray) -> Spline:
    """The exact tensor-product not-a-knot cubic spline of `values`, whose
    leading axes are the grid's and whose trailing axes, if any, are a batch.

    One banded solve per grid axis turns the node values into B-spline
    coefficients (de Boor, A Practical Guide to Splines, ch. XVII), with the
    real and imaginary parts as one trailing batch. The spline reproduces the
    node values to roundoff and cubic polynomials exactly. Not-a-knot needs
    at least 4 nodes on every axis.
    """
    from scipy.interpolate import make_interp_spline

    if min(grid.counts) < 4:
        raise DomainError(f"a not-a-knot cubic spline needs at least 4 nodes per axis, "
                          f"not {grid.counts}")
    values = np.asarray(values)
    coef = np.stack([values.real, values.imag], axis=-1)
    knots = []
    for d, nodes in enumerate(grid.axes()):
        spline = make_interp_spline(nodes, coef, k=3, axis=d)
        knots.append(spline.t)
        coef = np.moveaxis(spline.c, 0, d)
    coef.flags.writeable = False
    return Spline(grid, tuple(knots), coef)


def interpolate(fld: _Field, points: np.ndarray, method: str = "cubic") -> np.ndarray:
    """Evaluate a field at off-grid points of shape (n, dim), or at one point
    of shape (dim,), 0 outside the grid box.

    The one method is cubic: the field's one spline (`_Field.spline`, the
    module's `cubic_spline`: exact not-a-knot, BSpline-evaluated on 1-D grids
    and NdBSpline-evaluated otherwise), built on the field's first call.
    `method` names it for the benchmark's tracer, which binds it; any other
    value is a DomainError.
    """
    if method != "cubic":
        raise DomainError(f"interpolate evaluates the cubic spline, not {method!r}")
    pts = np.asarray(points, dtype=float)
    if pts.shape == (fld.grid.dim,):
        pts = pts[None]
    if pts.ndim != 2 or pts.shape[1] != fld.grid.dim:
        raise DomainError(f"points of shape {pts.shape} are not (n, {fld.grid.dim})")
    return fld.spline(pts)


def l2_inner(u: _Field, v: _Field) -> complex:
    """⟨u, v⟩ = ∫ u · conj(v) over the shared grid (trapezoid)."""
    u._require_same_grid(v)
    return complex(np.sum(u.grid.weights() * u.values * np.conj(v.values)))


def l2_norm(u: _Field) -> float:
    return float(np.sqrt(max(l2_inner(u, u).real, 0.0)))


_KINK_NODES = 4  # nodes per side in the one-sided cubic fits at ω = 0


def _kink_weights(s: np.ndarray) -> np.ndarray:
    """Node weights, in units of h, of the trapezoid's missing terms at ω = 0.

    s holds the 4 nodes left and the 4 nodes right of the origin, in units of
    the spacing h. For a sum over nodes (j + θ)h, j ≥ 0, the Euler–Maclaurin
    formula for a branch singularity (Navot 1961) gives

        ∫ g − T[g] = Σ_{k≥1} h^k B_k(θ)/k! · [g^{(k-1)}(0⁺) − g^{(k-1)}(0⁻)],

    with B_k the Bernoulli polynomials. The one-sided derivatives come from
    cubic fits on each side, so the terms k = 1..4 are kept. On a grid
    symmetric about 0 (θ = 1/2) B₁ and B₃ vanish, only the even part of g
    enters, and the terms are −(h²/12)·c₁ + (7/480)·h⁴·c₃ for the even part
    c₀ + c₁|ω| + c₂ω² + c₃|ω|³.
    """
    k = _KINK_NODES
    left, right = -s[:k][::-1], s[k:]
    t = right[0]
    bern = np.array([t - 0.5, t * t - t + 1.0 / 6.0, t ** 3 - 1.5 * t * t + 0.5 * t,
                     t ** 4 - 2.0 * t ** 3 + t * t - 1.0 / 30.0])
    beta = bern / np.arange(1, k + 1)
    sign = (-1.0) ** np.arange(k)
    w_right = beta @ np.linalg.inv(np.vander(right, k, increasing=True))
    w_left = -(beta * sign) @ np.linalg.inv(np.vander(left, k, increasing=True))
    return np.concatenate([w_left[::-1], w_right])


@lru_cache(maxsize=16)
def _omega_weights(grid: Grid, m: int) -> np.ndarray:
    """(2π)^{m-1}|ω|^{-m} times the kink-corrected trapezoid weights (read-only),
    on a 1-D grid that straddles ω = 0; any other grid is a DomainError."""
    if grid.dim != 1:
        raise DomainError("weighted ω inner product needs a 1-D grid")
    if not grid.straddles_zero():
        raise DomainError("ω grid has a node at 0; use an even point count straddling grid")
    omega = grid.axis(0)
    h = grid.spacing[0]
    w = grid.axis_weights(0)
    k = _KINK_NODES
    i = int(np.searchsorted(omega, 0.0))        # first node right of the origin
    if i >= k and omega.size - i >= k:
        w[i - k:i + k] += h * _kink_weights(omega[i - k:i + k] / h)
    out = (2.0 * np.pi) ** (m - 1) * w * np.abs(omega) ** float(-m)
    out.flags.writeable = False
    return out


def weighted_omega_inner(u: np.ndarray, v: np.ndarray, m: int, omega_grid: Grid) -> complex:
    """(2π)^{m-1} ∫ u(ω) conj(v(ω)) |ω|^{-m} dω for value arrays on the 1-D
    grid `omega_grid`, which must straddle ω = 0.

    The integrand g = u·conj(v)·|ω|^{-m} has a kink at ω = 0 (|ω|·e^{-ω²} for
    a first-derivative spectrum at m = 1), where the plain trapezoid sum
    keeps an O(h²) error (h²/12 for that example). The rule is the trapezoid
    sum plus the branch-singularity Euler–Maclaurin terms through h⁴, with
    the one-sided derivatives at 0 taken from cubic fits on the 4 nodes each
    side (see `_kink_weights`). Its error is O(h⁶) when the even part of g
    near 0 is a series in odd powers of |ω| (as for |ω|^{-m} times an even
    smooth product), O(h⁵) in general, plus the box truncation and the
    trapezoid's spectrally small error on the smooth remainder. Measured on
    ∫|ω|e^{-ω²} = 1 over [−12, 12]: 7.1e-8, 1.1e-9 and 1.7e-11 at 512, 1024
    and 2048 nodes. The rule is linear in g, so Hermitian symmetry holds
    exactly and odd integrands still cancel to roundoff on symmetric grids.
    """
    uv = np.asarray(u, dtype=complex)
    vv = np.asarray(v, dtype=complex)
    if uv.shape != vv.shape or uv.size != omega_grid.total_points:
        raise DomainError("value arrays must match each other and the grid")
    return complex(np.sum(uv.ravel() * np.conj(vv.ravel()) * _omega_weights(omega_grid, m)))


def weighted_omega_norm(u: np.ndarray, m: int, omega_grid: Grid) -> float:
    return float(np.sqrt(max(weighted_omega_inner(u, u, m, omega_grid).real, 0.0)))


# ---------------------------------------------------------------------------
# Spectral discretization: every frequency grid the package samples on

# Default ω box: the stock spectra are below 1e-10 by |ω| = 12; Δω ≈ 0.012 resolves pairings.
DEFAULT_OMEGA_GRID = Grid.line(-12.0, 12.0, 2048)


@dataclass(frozen=True)
class SpectralGrids:
    omega: Grid
    xi: Grid
    fhat: Grid


def _box_count(half: float, extent: float) -> int:
    """Nodes on [−half, half] at 0.8 of the Nyquist spacing π/extent, rounded up to even."""
    return 2 * int(np.ceil(half * extent * 1.25 / np.pi))


def spectral_grids(param_grid: Grid, input_grid: Grid) -> SpectralGrids:
    """The Fourier-slice path's grids: ω conjugate to b, ξ for Ŝ, and f̂'s spline grid."""
    # ω: out to 8 (the stock spectra), at most 0.9 of the b Nyquist frequency (the b-trapezoid
    # aliases beyond it), resolving e^{iωb} over the b box, taken at least ±8 wide
    b_half = max(abs(param_grid.lower[-1]), abs(param_grid.upper[-1]), 8.0)
    half = min(8.0, 0.9 * np.pi / param_grid.spacing[-1])
    omega = Grid.line(-half, half, _box_count(half, b_half))
    # ξ, per axis: out to 2 + a quarter of the x grid's Nyquist frequency, within [10, 16]
    x_half = [max(abs(lo), abs(hi)) for lo, hi in zip(input_grid.lower, input_grid.upper)]
    xi_half = [min(max(2.0 + np.pi / d / 4.0, 10.0), 16.0) for d in input_grid.spacing]
    xi = Grid.symmetric(xi_half, [_box_count(h, x) for h, x in zip(xi_half, x_half)])
    # f̂: out to the x grid's Nyquist frequency at Δξ ≈ 0.4/max|x|, capped at 64 and 16,001
    # nodes (m = 1) or at 24 and 513 nodes per axis (m ≥ 2, so the spline stays small)
    if input_grid.dim == 1:
        half = min(np.pi / input_grid.spacing[0], 64.0)
        n = min(int(np.ceil(2 * half * x_half[0] / 0.4)) + 1, 16001)
        return SpectralGrids(omega, xi, Grid.line(-half, half, n))
    hs = tuple(min(np.pi / d, 24.0) for d in input_grid.spacing)
    counts = [min(int(2 * h * max(x_half) / 0.4) | 1, 513) for h in hs]
    return SpectralGrids(omega, xi, Grid.symmetric(hs, counts))


def convolution_grid(grid: Grid) -> Grid:
    """`smooth_convolve`'s frequency grid: the field's counts to 0.75 of its Nyquist frequency."""
    return Grid.symmetric([np.pi / d * 0.75 for d in grid.spacing], grid.counts)
