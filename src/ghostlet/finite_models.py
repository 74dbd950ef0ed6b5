"""ε-mollified finite models, parameter sampling, finite ridgelet
expansions, and the projected-norm generalization-bound calculator.

A finite model is a weighted point cloud {(a_k, b_k), w_k}. Embedding into
the function space uses a nascent delta δ^ε(v) = φ(v/ε)/ε^{m+1}:

    γ^ε_p(a,b) = (1/p) Σ_k w_k δ^ε(a − a_k, b − b_k)

which converges (in the sampling limit, with corrected weights) to γ ∗ δ^ε.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier import fourier_forward, fourier_inverse
from .grids import (
    DataError,
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    SpectralFunction,
    convolution_grid,
    interpolate,
    l2_inner,
    l2_norm,
    uniform_points,
)
from .profiles import _GAUSS_FLOOR, BasisFamily, Profile1D
from .transforms import NetworkOperator, _neuron_sum
from .nullspace import ExpansionCoefficients, build_atoms, project

GAUSSIAN = "gaussian"
BUMP = "bump"


@dataclass(frozen=True)
class NascentDelta:
    """δ^ε(v) = φ(v/ε)/ε^{dim} with ∫φ = 1.

    The continuum mass is exact for both shapes (the bump divides by its
    integral, `_bump_mass`). A trapezoid grid sum of δ^ε meets it only when
    the spacing h resolves ε: the bump's sum is within 1e-6 of 1 for
    h ≤ ε/40 (−9.6e-5 at h = ε/10), the Gaussian's already at h = ε/10.
    At finite-model's bump default ε = 4·max(h) the 2-D sum on spacings
    0.125 × 0.5 is 1.0022 at a node and 0.9976 at a cell centre (at
    ε = 4·min(h), 0.9575 and 1.0973).

    `mollify` scatters the bump, of any dimension, onto a stencil of
    ∏ᵢ(2⌊ε/hᵢ⌋ + 3) nodes around each point, and sums the Gaussian in
    separable form on 2-D grids only.
    """

    base_shape: str = GAUSSIAN
    epsilon: float = 0.25

    def __post_init__(self):
        if self.base_shape not in (GAUSSIAN, BUMP):
            raise DomainError(f"unknown base shape {self.base_shape!r}")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")

    def base_values(self, offsets: np.ndarray) -> np.ndarray:
        """φ(v) at offsets of shape (..., dim); normalized to unit mass."""
        v = np.asarray(offsets, dtype=float)
        r2 = np.sum(v ** 2, axis=-1)
        dim = v.shape[-1]
        if self.base_shape == GAUSSIAN:
            return np.exp(-r2 / 2.0) / (2.0 * np.pi) ** (dim / 2.0)
        inside = r2 < 1.0
        vals = np.zeros_like(r2)
        vals[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return vals / _bump_mass(dim)

    def values(self, offsets: np.ndarray) -> np.ndarray:
        v = np.asarray(offsets, dtype=float)
        dim = v.shape[-1]
        return self.base_values(v / self.epsilon) / self.epsilon ** dim

    def spectrum(self, freq: Grid) -> np.ndarray:
        """δ̂^ε(ξ) = φ̂(εξ) on the frequency grid's nodes, shaped as `freq.counts`:
        the closed form exp(−ε²|ξ|²/2) for the Gaussian base; for the bump,
        `fourier_forward` of φ on 129 nodes per axis of [−1, 1]^dim onto the
        grid scaled by ε (the trapezoid rule on φ's support)."""
        if self.base_shape == GAUSSIAN:
            xi = freq.points()
            return (np.exp(-(self.epsilon ** 2) * np.sum(xi ** 2, axis=-1) / 2.0)
                    + 0.0j).reshape(freq.counts)
        g = Grid.symmetric([1.0] * freq.dim, [129] * freq.dim)
        phi = SampledFunction._adopt(g, self.base_values(g.points()))
        scaled = Grid(tuple(self.epsilon * lo for lo in freq.lower),
                      tuple(self.epsilon * hi for hi in freq.upper), freq.counts)
        return fourier_forward(phi, scaled).values


# Factors below this are set to 0, and so are entries of T·B below it. T is the
# sparse table of s_k·2^{-e} summed on each point's distinct (a, b) pair, where
# s_k = w_k/(p·ε²) and 2^e brings max|s_k| into [1/2, 1). So every product in
# `mollify`'s GEMM Aᵀ·(T·B) is ≳ 1e-300, a normal double. Without the T·B floor,
# products fall subnormal for small s_k (the roundoff-sized Im parts of real
# weights) and slow the GEMM several-fold. Each dropped term is below
# 1e-150·max_k|s_k| at its node.
_FACTOR_FLOOR = _GAUSS_FLOOR


def _axis_factors(nodes: np.ndarray, centers: np.ndarray, epsilon: float) -> np.ndarray:
    """exp(−u²/2)/√(2π), u = (node − center)/ε, as a fresh (centers, nodes) array, 0 below
    `_FACTOR_FLOOR`; exp's argument is clamped there, so exp never underflows."""
    u = np.subtract.outer(centers, nodes)
    u /= epsilon
    np.square(u, out=u)
    u /= -2.0
    np.maximum(u, np.log(_FACTOR_FLOOR), out=u)
    np.exp(u, out=u)
    u /= np.sqrt(2.0 * np.pi)
    u[u < _FACTOR_FLOOR] = 0.0
    return u


@lru_cache(maxsize=None)
def _bump_mass(dim: int) -> float:
    """∫ exp(−1/(1 − |v|²)) over the unit ball in `dim` dimensions: the sphere
    area S_{dim−1} = 2π^{dim/2}/Γ(dim/2) times the radial integral
    ∫₀¹ r^{dim−1} exp(−1/(1 − r²)) dr by 100-node Gauss–Legendre, which never
    samples r = 1 and agrees with an adaptive quadrature to 3e-16 at dims 1–4;
    computed once per dimension."""
    x, w = np.polynomial.legendre.leggauss(100)
    r = (x + 1.0) / 2.0
    radial = np.sum(w / 2.0 * r ** (dim - 1) * np.exp(-1.0 / (1.0 - r * r)))
    return float(2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0) * radial)


@dataclass(frozen=True)
class FiniteModel:
    """p weighted parameter points; weights carry the γ(a_k,b_k) values (or
    importance-corrected surrogates)."""

    points: np.ndarray          # (p, dim)
    weights: np.ndarray         # (p,) complex

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=complex).ravel()
        if pts.shape[0] != w.shape[0] or pts.shape[0] == 0:
            raise DomainError("points and weights must be nonempty and aligned")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise DataError("finite model contains non-finite entries")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def p(self) -> int:
        return self.points.shape[0]


def mollify(model: FiniteModel, delta: NascentDelta, grid: Grid) -> ParamDistribution:
    """γ^ε_p on the grid: (1/p) Σ_k w_k δ^ε(· − v_k).

    Points closer than 3ε to the box edge leave mass outside the grid; that
    is no error, and `edge_points` counts them. The 2-D Gaussian base is
    separable, so the sum runs on the model's distinct coordinates: the field
    is Aᵀ·(T·B) for axis factors A, B of the distinct a and b values
    (`_axis_factors`) and T the sparse table of s_k = w_k/(p·ε²) summed on
    each (a, b) pair, two real GEMMs (Re s, Im s) floored as `_FACTOR_FLOOR`
    states. A model on grid nodes costs the same for any p. The Gaussian base
    takes 2-D grids only: every parameter grid of a run is 2-D. The bump
    base, of any dimension, scatters each point onto its stencil
    (`_bump_scatter`).
    """
    dim = grid.dim
    if model.points.shape[1] != dim:
        raise DomainError("model dimension does not match the grid")
    if delta.base_shape == BUMP:
        return ParamDistribution._adopt(grid, _bump_scatter(model, delta, grid))
    if dim != 2:
        raise DomainError(f"the Gaussian base mollifies onto 2-D grids only, not {dim}-D")
    from scipy.sparse import csr_matrix

    ua, ia = np.unique(model.points[:, 0], return_inverse=True)
    ub, ib = np.unique(model.points[:, 1], return_inverse=True)
    a_fac = _axis_factors(grid.axis(0), ua, delta.epsilon)
    b_fac = _axis_factors(grid.axis(1), ub, delta.epsilon)
    scale = model.weights / (model.p * delta.epsilon ** dim)
    shift = np.frexp(np.max(np.abs(scale)))[1]
    parts = []
    for part in (scale.real, scale.imag):
        table = csr_matrix((np.ldexp(part, -shift), (ia, ib)), shape=(ua.size, ub.size))
        rows = table @ b_fac
        rows[np.abs(rows) < _FACTOR_FLOOR] = 0.0
        parts.append(np.ldexp(a_fac.T @ rows, shift))
    return ParamDistribution._adopt(grid, parts[0] + 1j * parts[1])


# Stencil entries per block of `_bump_scatter`: 2¹⁸ offsets of a 2-D grid are 4 MB.
_STENCIL_BLOCK = 1 << 18


def _bump_scatter(model: FiniteModel, delta: NascentDelta, grid: Grid) -> np.ndarray:
    """The bump's Σ_k (w_k/p)·δ^ε(node − v_k) on the grid's nodes. The bump
    vanishes beyond ε, so point k reaches only its stencil: along axis i, the
    2⌊ε/hᵢ⌋ + 3 nodes from ⌊(v_ki − loᵢ)/hᵢ⌋ − ⌊ε/hᵢ⌋ − 1 on, where one off
    the grid stands 2ε away and adds 0. `delta.values` runs on the stencils'
    offsets, about `_STENCIL_BLOCK` entries at a time, and `np.add.at` adds
    the terms in point order: the sum of a loop over the points, bit for bit."""
    axes = grid.axes()
    reach = [int(delta.epsilon // h) for h in grid.spacing]
    widths = tuple(2 * n + 3 for n in reach)
    vals = np.zeros(grid.total_points, dtype=complex)
    coef = model.weights / model.p
    block = max(1, _STENCIL_BLOCK // int(np.prod(widths)))
    for start in range(0, model.p, block):
        pts = model.points[start:start + block]
        flat = 0
        offsets = np.empty((len(pts),) + widths + (grid.dim,))
        for i, (ax, h, n) in enumerate(zip(axes, grid.spacing, reach)):
            shape = [len(pts)] + [1] * grid.dim
            shape[i + 1] = widths[i]
            idx = np.floor((pts[:, i, None] - ax[0]) / h).astype(np.intp) - n - 1 \
                + np.arange(widths[i])
            on_grid = (idx >= 0) & (idx < ax.size)
            idx = np.clip(idx, 0, ax.size - 1)
            offsets[..., i] = np.where(on_grid, ax[idx] - pts[:, i, None],
                                       2.0 * delta.epsilon).reshape(shape)
            flat = flat * ax.size + idx.reshape(shape)
        terms = coef[start:start + block].reshape((-1,) + (1,) * grid.dim) \
            * delta.values(offsets)
        np.add.at(vals, flat.ravel(), terms.ravel())
    return vals.reshape(grid.counts)


def edge_points(model: FiniteModel, delta: NascentDelta, grid: Grid) -> int:
    """How many of the model's points lie within 3ε of the grid box's edge,
    where `mollify` leaves part of their mass outside the grid."""
    lo = np.asarray(grid.lower) + 3.0 * delta.epsilon
    hi = np.asarray(grid.upper) - 3.0 * delta.epsilon
    return int(np.count_nonzero(np.any((model.points < lo) | (model.points > hi), axis=1)))


UNIFORM_BOX = "uniform_box"
DENSITY_PROPORTIONAL = "density_proportional"


def sample_parameters(gamma_smooth: ParamDistribution, p: int, seed,
                      scheme: str = DENSITY_PROPORTIONAL) -> FiniteModel:
    """Draw a finite model whose mollified embedding is unbiased for the
    smoothed field, from `seed` (an int, or a Generator that the draw advances).

    UniformBox: points uniform over the box (`uniform_points`), weights γ(point)·volume.
    DensityProportional: grid nodes drawn ∝ |γ|·(trapezoid weight), so every
    point is a node; the raw-γ weighting stated with the sampling assumption
    does not produce the claimed limit, so the weights are the self-normalized
    importance form Z·phase(γ(node)) with Z = ∫|γ|. The expectation of the
    mollified model is then the grid quadrature of γ∗δ^ε; jittering the
    points within their cells would bias it.
    """
    if p <= 0:
        raise DomainError("sample count p must be positive")
    rng = np.random.default_rng(seed)
    grid = gamma_smooth.grid
    if scheme == UNIFORM_BOX:
        pts = uniform_points(grid, p, rng)
        weights = interpolate(gamma_smooth, pts)
        weights *= grid.volume  # in place: the bits of interpolate(...) * volume
        return FiniteModel(points=pts, weights=weights)
    if scheme == DENSITY_PROPORTIONAL:
        density = (np.abs(gamma_smooth.values) * grid.weights()).ravel()
        total = float(np.sum(density))
        if total <= 0.0:
            raise DomainError("cannot sample from an identically-zero field")
        idx = rng.choice(density.size, size=p, p=density / total)
        # γ is read once per distinct drawn node (about 1,150 of p = 10⁴ draws
        # on the `finite-model` field).
        nodes, inverse = np.unique(idx, return_inverse=True)
        node_points = grid.points()[nodes]
        pts = node_points[inverse]
        gvals = interpolate(gamma_smooth, node_points)[inverse]
        mags = np.abs(gvals)
        phase = np.where(mags > 1e-300, gvals / np.maximum(mags, 1e-300), 0.0)
        return FiniteModel(points=pts, weights=total * phase)
    raise DomainError(f"unknown sampling scheme {scheme!r}")


def point_mass_network(model: FiniteModel, sigma: Profile1D,
                       input_grid: Grid) -> SampledFunction:
    """Exact (non-mollified) finite network S[γ_p](x) = (1/p) Σ w_k σ(a_k·x − b_k):
    the oracle the mollified models converge to as ε → 0, and, drawn uniformly
    in the box, appendix-c's Monte Carlo estimate of S[γ]. The weights go in
    once, and each kernel block divides its own rows by p (`_neuron_sum`'s
    `divisor`), so no full-size w/p copy is made."""
    if sigma.real_eval is None:
        raise DomainError(f"{sigma.name!r} has no real-domain evaluator")
    vals = _neuron_sum(model.points[:, :-1], model.points[:, -1], model.weights,
                       input_grid.points(), sigma.real_eval, divisor=model.p)
    return SampledFunction._adopt(input_grid, vals)


def smooth_convolve(gamma: ParamDistribution, delta: NascentDelta) -> ParamDistribution:
    """γ ∗ δ^ε via the spectral engine (multiply by δ̂^ε, transform back)."""
    grid = gamma.grid
    freq = convolution_grid(grid)
    spec = fourier_forward(gamma, freq)
    mult = delta.spectrum(freq)
    smoothed = fourier_inverse(SpectralFunction._adopt(freq, spec.values * mult), grid)
    return ParamDistribution._adopt(grid, smoothed.values)


def finite_ridgelet_coeffs(model: FiniteModel, delta: NascentDelta,
                           basis_e: BasisFamily, basis_rho: BasisFamily,
                           truncation: tuple[int, int], grid: Grid):
    """Finite-model expansion coefficients two ways:

        point formula   c_ij = (1/p) Σ_k w_k (δ^ε ∗ R[e_i;ρ_j])(v_k)
        inner formula   c_ij = ⟨γ^ε_p, R[e_i;ρ_j]⟩

    Unlike `density_expand`, these c are the raw inner products: no √(2π)
    factor and no solve against the atoms' Gram matrix.

    Returns (ExpansionCoefficients from the point formula, max relative
    disagreement between the two, the mollified field).
    """
    I, J = truncation
    atoms = build_atoms(basis_e, basis_rho, grid, truncation)
    gamma_eps = mollify(model, delta, grid)
    c_point = np.zeros((I, J), dtype=complex)
    c_inner = np.zeros((I, J), dtype=complex)
    for i in range(I):
        for j in range(J):
            smooth_atom = smooth_convolve(atoms[i][j], delta)
            at_points = interpolate(smooth_atom, model.points)
            c_point[i, j] = np.sum(model.weights * np.conj(at_points)) / model.p
            c_inner[i, j] = l2_inner(gamma_eps, atoms[i][j])
    scale = float(np.max(np.abs(c_point))) or 1.0
    gap = float(np.max(np.abs(c_point - c_inner))) / scale
    return ExpansionCoefficients(c=c_point, truncation=truncation), gap, gamma_eps


@dataclass(frozen=True)
class LayerSpec:
    """Per-layer constants of the depth-d bound: sup-radius M, volume V, and
    the inclusive/exclusive parameter-distribution norms."""

    M: float
    V: float
    G_inclusive: float
    G_exclusive: float

    def __post_init__(self):
        if min(self.M, self.V) <= 0 or min(self.G_inclusive, self.G_exclusive) < 0:
            raise DomainError("layer constants must be positive (norms nonnegative)")
        if self.G_exclusive > self.G_inclusive + 1e-9 * max(1.0, self.G_inclusive):
            raise DomainError("exclusive norm exceeds inclusive norm (projection grew?)")


INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"


def generalization_bound(layers: list[LayerSpec], B: float, n: int, d: int,
                         norm_choice: str = EXCLUSIVE) -> float:
    """Rademacher-complexity bound for a depth-(d+1) network over |x| ≤ B:

        B·(√(2·d·log 2) + 1)·Π_j M_j √(V_j) G_j / √n

    with G_j the exclusive (projected, ghost-free) or inclusive norm."""
    if n <= 0:
        raise DomainError("sample size n must be positive")
    if d != len(layers) or d <= 0:
        raise DomainError("d must equal the number of layer specs")
    if B <= 0:
        raise DomainError("input radius B must be positive")
    if norm_choice not in (INCLUSIVE, EXCLUSIVE):
        raise DomainError(f"unknown norm choice {norm_choice!r}")
    prod = 1.0
    for layer in layers:
        g = layer.G_exclusive if norm_choice == EXCLUSIVE else layer.G_inclusive
        prod *= layer.M * np.sqrt(layer.V) * g
    return float(B * (np.sqrt(2.0 * d * np.log(2.0)) + 1.0) * prod / np.sqrt(n))


def layer_norms(op: NetworkOperator, gamma: ParamDistribution) -> tuple[float, float]:
    """(inclusive, exclusive) = (‖γ‖, ‖P[γ]‖); regularizing the exclusive
    norm ignores the null components."""
    principal, _ = project(op, gamma)
    return l2_norm(gamma), l2_norm(principal)
