"""The integral representation S, the ridgelet transform R, their
Fourier-slice fast paths, and the adjoint S*.

    S[γ](x)    = ∫ γ(a,b) σ(a·x − b) da db
    R[f;ρ](a,b) = ∫ f(x) conj(ρ(a·x − b)) dx
    S*[f]      = R[f;σ]   (σ normalized in the weighted norm)

Disentangled spectral forms (the fast paths):

    R[f;ρ]♯(a,ω) = f̂(ωa) · conj(ρ♯(ω))
    Ŝ[γ](ξ)      = (2π)^{m−1} ∫ γ♯(ξ/ω, ω) σ♯(ω) |ω|^{−m} dω

Both paths agree on shared grids; the direct path is the trapezoid rule on
the grids' nodes, the spectral path interpolates the sheared spectrum (cubic,
zero outside the box).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import (
    fourier_forward,
    fourier_inverse,
    partial_flat_b,
    partial_sharp_b,
)
from .grids import (
    DEFAULT_OMEGA_GRID,
    DomainError,
    Grid,
    ParamDistribution,
    QuadratureScheme,
    SampledFunction,
    SpectralFunction,
    SpectralGrids,
    TRAPEZOID,
    UnsupportedProfileError,
    cubic_spline,
    spectral_grids,
)
from .parallel import _block_map
from .profiles import Profile1D, weighted_space_norm


@dataclass(frozen=True)
class NetworkOperator:
    """S with a fixed activation, parameter grid, input grid and trapezoid rule.

    σ is taken as given: `make_operator` rescales it to unit weighted norm
    first (this is what makes P = S*∘S a projection), and a caller that wants
    σ unscaled builds the operator directly.
    """

    sigma: Profile1D
    param_grid: Grid
    input_grid: Grid
    scheme = QuadratureScheme()  # a class constant, not a field: S uses the trapezoid rule only

    def __post_init__(self):
        if self.param_grid.dim != self.input_grid.dim + 1:
            raise DomainError("parameter grid dim must be input grid dim + 1")

    @property
    def m(self) -> int:
        return self.input_grid.dim

    @cached_property
    def sigma_norm(self) -> float | None:
        """σ's weighted norm on `DEFAULT_OMEGA_GRID`; None where σ has no
        spectrum or the norm is not finite (tanh, ReLU)."""
        if self.sigma.spectral_eval is None:
            return None
        try:
            return weighted_space_norm(self.sigma.spectral_values(DEFAULT_OMEGA_GRID), self.m,
                                       DEFAULT_OMEGA_GRID)
        except DomainError:  # also SingularPointError, UnsupportedProfileError
            return None

    @property
    def is_normalized(self) -> bool:
        return self.sigma_norm is not None and abs(self.sigma_norm - 1.0) < 1e-6

    @cached_property
    def kernel(self) -> np.ndarray | None:
        """σ(a·x − b) as a (parameter node, input node) matrix, built on first
        use and kept, for operators with at most `_CHUNK` entries; None
        otherwise (`forward_s` then streams the kernel in blocks)."""
        if (self.sigma.real_eval is None
                or self.param_grid.total_points * self.input_grid.total_points > _CHUNK):
            return None
        pts = self.param_grid.points()
        return _kernel_matrix(pts[:, :-1], pts[:, -1], self.input_grid.points(),
                              self.sigma.real_eval)


def make_operator(sigma: Profile1D, param_grid: Grid, input_grid: Grid) -> NetworkOperator:
    """A NetworkOperator with σ rescaled to unit weighted norm where that norm
    is finite (`NetworkOperator.sigma_norm`); tanh and ReLU are kept as given."""
    op = NetworkOperator(sigma, param_grid, input_grid)
    if op.sigma_norm is None:
        return op
    return NetworkOperator(sigma.scaled(1.0 / op.sigma_norm, name=f"{sigma.name}~unit"),
                           param_grid, input_grid)


# An operator whose σ(a·x − b) matrix has at most _CHUNK entries
# (32 MB in float64) keeps it (`NetworkOperator.kernel`), and each later
# forward_s is one GEMM; larger operators stream the kernel in `_BLOCK`
# blocks on every call.
_CHUNK = 1 << 22
# Entries per evaluator call while a kept kernel is built, so the evaluator's
# temporaries stay small next to the kernel itself. The kept kernel is built
# on the calling thread: built in `_BLOCK` blocks on `_block_map`, the
# `direct-finite` workload's peak RSS rose from 115.8 to 134–148 MB, while
# these blocks on one thread keep it at 115.7–116.1 MB (2-vCPU VM).
_KERNEL_BLOCK = 1 << 16
# Kernel entries per block of `_kernel_blocks`, which `_neuron_sum` and
# `ridgelet` stream (2 MB in float64): small enough that the blocks in flight
# stay a few tens of MB, large enough that each block's work outweighs the
# cost of handing it out.
_BLOCK = 1 << 18


def _kernel_sum(coeff: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """coeff @ kernel for complex coeff. A real kernel takes one real GEMM on
    the stacked [Re; Im] coefficient rows."""
    if np.iscomplexobj(kernel):
        return coeff @ kernel
    re, im = np.stack([coeff.real, coeff.imag]) @ kernel
    return re + 1j * im


def _affine(points_a: np.ndarray, points_b: np.ndarray, x_nodes: np.ndarray) -> np.ndarray:
    """a_k·x_j − b_k over (k, j), by broadcasting."""
    arg = points_a[:, :1] * x_nodes[:, 0]
    for d in range(1, points_a.shape[1]):
        arg += points_a[:, d:d + 1] * x_nodes[:, d]
    arg -= points_b[:, None]
    return arg


def _kernel_matrix(points_a: np.ndarray, points_b: np.ndarray, x_nodes: np.ndarray,
                   profile_eval) -> np.ndarray:
    """σ(a_k·x − b_k) over (k, x node), evaluated on the calling thread in row
    blocks of about `_KERNEL_BLOCK` entries (see there)."""
    n = points_a.shape[0]
    rows = max(1, _KERNEL_BLOCK // max(x_nodes.shape[0], 1))
    out = None
    for start in range(0, n, rows):
        part = slice(start, start + rows)
        block = np.asarray(profile_eval(_affine(points_a[part], points_b[part], x_nodes)))
        if out is None:
            out = np.empty((n, x_nodes.shape[0]), dtype=block.dtype)
        out[start:start + rows] = block
    return out


def _kernel_blocks(fn, points_a: np.ndarray, points_b: np.ndarray, x_nodes: np.ndarray,
                   profile_eval):
    """Yield fn(rows, block), in row order, for the row blocks of about
    `_BLOCK` entries of the kernel σ(a_k·x − b_k) over (k, x node); `block`
    holds the kernel's `rows`. The partition is fixed by the array sizes
    alone, and the blocks run on `_block_map`."""
    step = max(1, _BLOCK // max(x_nodes.shape[0], 1))

    def block(start):
        rows = slice(start, start + step)
        return fn(rows, np.asarray(profile_eval(_affine(points_a[rows], points_b[rows],
                                                        x_nodes))))

    return _block_map(block, range(0, points_a.shape[0], step))


def _neuron_sum(points_a: np.ndarray, points_b: np.ndarray, coeff: np.ndarray,
                x_nodes: np.ndarray, profile_eval, divisor=None) -> np.ndarray:
    """Σ_k coeff_k · σ(a_k·x − b_k) evaluated for every x node: the partial
    sums of `_kernel_blocks` added in block order, so the result does not
    depend on the core count.

    With a `divisor` the sum takes coeff / divisor, divided block by block
    (`coeff[rows] / divisor`): the division is elementwise, so each entry is
    the number the full-array division gives, without its full-size copy.
    Multiplying by 1/divisor instead would round twice and change the bits."""
    def block_sum(rows, kernel):
        c = coeff[rows] if divisor is None else coeff[rows] / divisor
        return _kernel_sum(c, kernel)

    out = np.zeros(x_nodes.shape[0], dtype=complex)
    for partial in _kernel_blocks(block_sum, points_a, points_b, x_nodes, profile_eval):
        out += partial
    return out


def forward_s(op: NetworkOperator, gamma: ParamDistribution) -> SampledFunction:
    """Direct-quadrature S[γ] on the operator's input grid (linear in γ)."""
    if gamma.grid != op.param_grid:
        raise DomainError("γ lives on a different grid than the operator")
    if op.sigma.real_eval is None:
        raise UnsupportedProfileError(
            f"activation {op.sigma.name!r} has no real-domain evaluator")
    coeff = (gamma.values * op.param_grid.weights()).ravel()
    if op.kernel is not None:
        return SampledFunction._adopt(op.input_grid, _kernel_sum(coeff, op.kernel))
    pts = op.param_grid.points()
    vals = _neuron_sum(pts[:, :-1], pts[:, -1], coeff, op.input_grid.points(),
                       op.sigma.real_eval)
    return SampledFunction._adopt(op.input_grid, vals)


def ridgelet(f: SampledFunction, rho: Profile1D, param_grid: Grid,
             scheme: QuadratureScheme = QuadratureScheme()) -> ParamDistribution:
    """Direct-quadrature R[f;ρ] on the parameter grid (linear in f,
    conjugate-linear in ρ), by the trapezoid rule, the only `scheme`."""
    if scheme.kind != TRAPEZOID:
        raise DomainError(f"ridgelet integrates by the trapezoid rule, not {scheme.kind!r}")
    if rho.real_eval is None:
        raise UnsupportedProfileError(f"ridgelet profile {rho.name!r} has no real evaluator")
    if param_grid.dim != f.grid.dim + 1:
        raise DomainError("parameter grid dim must be f's dim + 1")
    pts = param_grid.points()
    coeff = (f.values * f.grid.weights()).ravel()
    # The same kernel blocks with roles swapped: each block's rows are
    # parameter nodes, summed over x.
    out = np.concatenate(list(_kernel_blocks(
        lambda rows, kernel: _kernel_sum(coeff, kernel.conj().T),
        pts[:, :-1], pts[:, -1], f.grid.points(), rho.real_eval)))
    return ParamDistribution._adopt(param_grid, out)


def _fhat_evaluator(f: SampledFunction, xi_grid: Grid):
    """ξ ↦ f̂(ξ) on points of shape (..., m): the cubic spline of f̂ on `xi_grid`, 0 beyond."""
    return cubic_spline(xi_grid, fourier_forward(f, xi_grid).values)


def _slice_ridgelet(fhat, rho: Profile1D, param_grid: Grid,
                    omega_grid: Grid) -> ParamDistribution:
    """R[f;ρ] from its spectrum R♯(a,ω) = f̂(ωa)·conj(ρ♯(ω)) on the (a, ω)
    grid, where fhat maps points of shape (..., m) to f̂."""
    sheared = param_grid.sub(slice(-1)).points()[:, None, :] * omega_grid.axis(0)[:, None]
    return _spectrum_to_b(fhat(sheared) * np.conj(rho.spectral_values(omega_grid)),
                          param_grid, omega_grid)


def _spectrum_to_b(spec_vals: np.ndarray, param_grid: Grid,
                   omega_grid: Grid) -> ParamDistribution:
    """The (a, ω) → (a, b) step: inverse-transform the ω axis of values on
    the a grid × ω grid onto the parameter grid's b line."""
    spec_grid = param_grid.sub(slice(-1)).product(omega_grid)
    spec = SpectralFunction._adopt(spec_grid, spec_vals)
    return partial_flat_b(spec, param_grid.sub(slice(-1, None)))


def ridgelet_fourier(f: SampledFunction, rho: Profile1D, param_grid: Grid) -> ParamDistribution:
    """Fourier-slice path: build R♯(a,ω) = f̂(ωa)·conj(ρ♯(ω)) on the (a,ω)
    grid, then inverse-transform the ω axis to b."""
    if rho.spectral_eval is None:
        raise UnsupportedProfileError(f"profile {rho.name!r} has no spectral evaluator")
    if param_grid.dim != f.grid.dim + 1:
        raise DomainError("parameter grid dim must be f's dim + 1")
    grids = spectral_grids(param_grid, f.grid)
    return _slice_ridgelet(_fhat_evaluator(f, grids.fhat), rho, param_grid, grids.omega)


def _sheared_sharp(gamma: ParamDistribution,
                   input_grid: Grid) -> tuple[np.ndarray, SpectralGrids]:
    """The γ side of `forward_s_fourier`: γ♯(ξ/ω, ω) at every (ω, ξ) node of
    `spectral_grids(gamma.grid, input_grid)`, as an (ω, ξ...) array, with the
    grids. γ♯ = `partial_sharp_b` is sheared by one cubic spline over the a
    grid, ω as its batch axis and evaluated by `Spline.each` (zero outside
    the grid; the |ω|→0 rows self-truncate). No activation enters, so one
    sheared γ♯ serves every σ."""
    grids = spectral_grids(gamma.grid, input_grid)
    gam_sharp = partial_sharp_b(gamma, grids.omega)
    spline = cubic_spline(gamma.grid.sub(slice(-1)), gam_sharp.values)
    return spline.each(grids.xi.points() / grids.omega.axis(0)[:, None, None]), grids


def _omega_sum(sheared: np.ndarray, sigma: Profile1D, grids: SpectralGrids) -> SpectralFunction:
    """The σ side of `forward_s_fourier`: Ŝ(ξ) = (2π)^{m−1} Σ_ω w_ω σ♯(ω)
    |ω|^{−m} γ♯(ξ/ω, ω) over the `_sheared_sharp` rows, added in ω order."""
    m = grids.xi.dim
    omega = grids.omega.axis(0)
    weight = sigma.spectral_values(grids.omega) * np.abs(omega) ** (-m) \
        * grids.omega.axis_weights(0)
    acc = np.zeros(sheared.shape[1], dtype=complex)
    for row, w in zip(sheared, weight):
        acc += row * w
    return SpectralFunction._adopt(grids.xi, (2.0 * np.pi) ** (m - 1) * acc)


def forward_s_fourier(op: NetworkOperator, gamma: ParamDistribution) -> SpectralFunction:
    """Fourier-slice path for S: Ŝ[γ](ξ) = (2π)^{m−1} ∫ γ♯(ξ/ω,ω) σ♯(ω)
    |ω|^{−m} dω, as two steps: the sheared γ♯ (`_sheared_sharp`), then its
    weighted ω sum (`_omega_sum`). A caller that applies several activations
    to one γ (`encoding.readout_mutate`) takes the first step once."""
    if op.sigma.spectral_eval is None:
        raise UnsupportedProfileError(f"{op.sigma.name!r} has no spectral evaluator")
    if gamma.grid != op.param_grid:
        raise DomainError("γ lives on a different grid than the operator")
    sheared, grids = _sheared_sharp(gamma, op.input_grid)
    return _omega_sum(sheared, op.sigma, grids)


def forward_s_via_fourier(op: NetworkOperator, gamma: ParamDistribution) -> SampledFunction:
    """Convenience: slice-path S[γ] brought back to the input grid."""
    spec = forward_s_fourier(op, gamma)
    return fourier_inverse(spec, op.input_grid)


def adjoint(op: NetworkOperator, f: SampledFunction) -> ParamDistribution:
    """S*[f] = R[f;σ], for σ with a finite weighted norm. With σ rescaled to
    unit norm (`make_operator`), P = S*∘S is a projection."""
    if f.grid != op.input_grid:
        raise DomainError("f lives on a different grid than the operator")
    if op.sigma_norm is None:
        raise DomainError("the adjoint needs σ with a finite weighted norm")
    return ridgelet(f, op.sigma, op.param_grid)
