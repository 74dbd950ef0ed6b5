"""The integral representation S, the ridgelet transform R, their
Fourier-slice fast paths, and the adjoint machinery.

    S[γ](x)    = ∫ γ(a,b) σ(a·x − b) da db
    R[f;ρ](a,b) = ∫ f(x) conj(ρ(a·x − b)) dx

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
    SobolevOrders,
    _axis_transform,
    bracket,
    fourier_forward,
    fourier_inverse,
    fractional_bracket,
    partial_flat_b,
    partial_sharp_b,
)
from .grids import (
    DomainError,
    Grid,
    ParamDistribution,
    QuadratureScheme,
    SampledFunction,
    SpectralFunction,
    TRAPEZOID,
    UnsupportedProfileError,
    cubic_spline,
)
from .parallel import _block_map
from .profiles import DEFAULT_OMEGA_GRID, Profile1D, pairing, weighted_space_norm

PLAIN_L2 = "plain_l2"
WEIGHTED_SOBOLEV = "weighted_sobolev"


@dataclass(frozen=True)
class AdjointMode:
    kind: str = PLAIN_L2
    orders: SobolevOrders | None = None

    def __post_init__(self):
        if self.kind not in (PLAIN_L2, WEIGHTED_SOBOLEV):
            raise DomainError(f"unknown adjoint mode {self.kind!r}")
        if self.kind == WEIGHTED_SOBOLEV and self.orders is None:
            raise DomainError("WeightedSobolev mode requires Sobolev orders")

    @staticmethod
    def plain() -> "AdjointMode":
        return AdjointMode(PLAIN_L2)

    @staticmethod
    def weighted(orders: SobolevOrders) -> "AdjointMode":
        return AdjointMode(WEIGHTED_SOBOLEV, orders)


@dataclass(frozen=True)
class NetworkOperator:
    """S with a fixed activation, parameter grid, input grid and trapezoid rule.

    When `normalize` is requested at construction the activation is rescaled
    so its weighted norm is 1 (this is what makes P = S*∘S a projection in
    plain-L² mode); the original scale is kept for reporting.
    """

    sigma: Profile1D
    param_grid: Grid
    input_grid: Grid
    norm_constant: float | None = None
    original_scale: float = 1.0
    scheme = QuadratureScheme()  # a class constant, not a field: S uses the trapezoid rule only

    def __post_init__(self):
        if self.param_grid.dim != self.input_grid.dim + 1:
            raise DomainError("parameter grid dim must be input grid dim + 1")

    @property
    def m(self) -> int:
        return self.input_grid.dim

    @property
    def is_normalized(self) -> bool:
        return self.norm_constant is not None and abs(self.norm_constant - 1.0) < 1e-6

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


def make_operator(sigma: Profile1D, param_grid: Grid, input_grid: Grid,
                  normalize: bool = True) -> NetworkOperator:
    """Build a NetworkOperator, normalizing σ in the weighted norm when it is
    finite there (tanh and ReLU are not; they keep norm_constant = None)."""
    norm = None
    if sigma.spectral_eval is not None:
        try:
            norm = weighted_space_norm(sigma.spectral_values(DEFAULT_OMEGA_GRID),
                                       input_grid.dim, DEFAULT_OMEGA_GRID)
        except DomainError:  # also SingularPointError, UnsupportedProfileError
            norm = None
    if normalize and norm is not None:
        sigma = sigma.scaled(1.0 / norm, name=f"{sigma.name}~unit")
        return NetworkOperator(sigma, param_grid, input_grid, norm_constant=1.0,
                               original_scale=norm)
    return NetworkOperator(sigma, param_grid, input_grid, norm_constant=norm)


# An operator whose σ(a·x − b) matrix has at most _CHUNK entries
# (32 MB in float64) keeps it (`NetworkOperator.kernel`), and each later
# forward_s is one GEMM; larger operators stream the kernel in `_BLOCK`
# blocks on every call.
_CHUNK = 1 << 22
# Entries per evaluator call while a kept kernel is built, so the evaluator's
# temporaries stay small next to the kernel itself.
_KERNEL_BLOCK = 1 << 16
# Kernel entries per streamed block of `_neuron_sum` and `ridgelet` (2 MB in
# float64): small enough that the blocks in flight stay a few tens of MB,
# large enough that each block's work outweighs the cost of handing it out.
_BLOCK = 1 << 18


def _kernel_sum(coeff: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """coeff @ kernel for complex coeff. A real kernel takes one real GEMM on
    the stacked [Re; Im] coefficient rows."""
    if np.iscomplexobj(kernel):
        return coeff @ kernel
    re, im = np.stack([coeff.real, coeff.imag]) @ kernel
    return re + 1j * im


def _block_sum(coeff: np.ndarray, stacked: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """coeff @ kernel for one block, by `np.einsum`, which calls no BLAS, so
    a worker thread may run it whether or not BLAS is pinned. A real kernel
    contracts the [Re; Im] rows `stacked` of the coefficients."""
    if np.iscomplexobj(kernel):
        return np.einsum("k,kj->j", coeff, kernel)
    re, im = np.einsum("ck,kj->cj", stacked, kernel)
    return re + 1j * im


def _affine(points_a: np.ndarray, points_b: np.ndarray, x_nodes: np.ndarray) -> np.ndarray:
    """a_k·x_j − b_k over (k, j), by broadcasting (no BLAS call)."""
    arg = points_a[:, :1] * x_nodes[:, 0]
    for d in range(1, points_a.shape[1]):
        arg += points_a[:, d:d + 1] * x_nodes[:, d]
    arg -= points_b[:, None]
    return arg


def _kernel_matrix(points_a: np.ndarray, points_b: np.ndarray, x_nodes: np.ndarray,
                   profile_eval) -> np.ndarray:
    """σ(a_k·x − b_k) over (k, x node), evaluated in row blocks of about
    `_KERNEL_BLOCK` entries."""
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


def _neuron_sum(points_a: np.ndarray, points_b: np.ndarray, coeff: np.ndarray,
                x_nodes: np.ndarray, profile_eval) -> np.ndarray:
    """Σ_k coeff_k · σ(a_k·x − b_k) evaluated for every x node.

    The neurons are cut into blocks of about `_BLOCK` kernel entries, a
    partition fixed by the array sizes alone; the blocks run on `_block_map`
    and their partial sums are added in block order, so the result does not
    depend on the core count. The [Re; Im] coefficient rows are stacked once."""
    n, n_x = points_a.shape[0], x_nodes.shape[0]
    rows = max(1, _BLOCK // max(n_x, 1))
    stacked = np.stack([coeff.real, coeff.imag])

    def block(start):
        part = slice(start, start + rows)
        kernel = np.asarray(profile_eval(_affine(points_a[part], points_b[part], x_nodes)))
        return _block_sum(coeff[part], stacked[:, part], kernel)

    out = np.zeros(n_x, dtype=complex)
    for partial in _block_map(block, range(0, n, rows)):
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
    pa, pb = pts[:, :-1], pts[:, -1]
    x_nodes = f.grid.points()
    coeff = (f.values * f.grid.weights()).ravel()
    # Same kernel sum with roles swapped: output over (a,b) in row blocks,
    # reduction over x within each block.
    rows = max(1, _BLOCK // max(x_nodes.shape[0], 1))
    stacked = np.stack([coeff.real, coeff.imag])

    def block(start):
        part = slice(start, start + rows)
        kernel = np.asarray(rho.real_eval(_affine(pa[part], pb[part], x_nodes)))
        return _block_sum(coeff, stacked, (np.conj(kernel) if np.iscomplexobj(kernel)
                                           else kernel).T)

    out = np.concatenate(list(_block_map(block, range(0, pts.shape[0], rows))))
    return ParamDistribution._adopt(param_grid, out)


def _fhat_evaluator(f: SampledFunction):
    """Return a callable ξ ↦ f̂(ξ) on points of shape (..., m): the cubic
    spline of f̂ on a dense grid out to the input grid's Nyquist frequency,
    zero beyond (band-limited use)."""
    x_extent = max(abs(v) for v in f.grid.lower + f.grid.upper)
    if f.grid.dim == 1:
        half = min(np.pi / f.grid.spacing[0], 64.0)
        n = int(np.ceil(2 * half * x_extent / 0.4)) + 1
        xi_grid = Grid.line(-half, half, min(n, 16001))
    else:
        half = tuple(min(np.pi / d, 24.0) for d in f.grid.spacing)
        xi_grid = Grid.symmetric(half, [min(int(2 * h * x_extent / 0.4) | 1, 513) for h in half])
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
    return _slice_ridgelet(_fhat_evaluator(f), rho, param_grid,
                           _default_op_omega_grid(param_grid))


def _default_op_omega_grid(param_grid: Grid) -> Grid:
    """ω grid conjugate to the b axis: fine enough to resolve phases e^{iωb}
    across the whole b box, wide enough for the stock profile spectra, and
    capped below the b grid's Nyquist frequency (beyond it the b-trapezoid
    aliases low-ω content into the band)."""
    b_half = max(abs(param_grid.lower[-1]), abs(param_grid.upper[-1]))
    b_spacing = param_grid.spacing[-1]
    half = min(8.0, 0.9 * np.pi / b_spacing)
    n = int(np.ceil(2 * half * max(b_half, 8.0) * 1.25 / np.pi))
    n += n % 2  # even count straddles ω = 0
    return Grid.line(-half, half, n)


def forward_s_fourier(op: NetworkOperator, gamma: ParamDistribution) -> SpectralFunction:
    """Fourier-slice path for S: Ŝ[γ](ξ) = (2π)^{m−1} ∫ γ♯(ξ/ω,ω) σ♯(ω)
    |ω|^{−m} dω, with γ♯ sheared by one cubic spline over the a grid, ω as
    its batch axis and evaluated by `Spline.each` (zero outside the grid; the
    |ω|→0 rows self-truncate)."""
    if op.sigma.spectral_eval is None:
        raise UnsupportedProfileError(f"{op.sigma.name!r} has no spectral evaluator")
    if gamma.grid != op.param_grid:
        raise DomainError("γ lives on a different grid than the operator")
    m = op.m
    omega_grid = _default_op_omega_grid(op.param_grid)
    omega = omega_grid.axis(0)
    gam_sharp = partial_sharp_b(gamma, omega_grid)
    weight = op.sigma.spectral_values(omega_grid) * np.abs(omega) ** (-m) \
        * omega_grid.axis_weights(0)
    output_grid = _default_xi_grid(op.input_grid)
    spline = cubic_spline(op.param_grid.sub(slice(-1)), gam_sharp.values)
    sheared = spline.each(output_grid.points() / omega[:, None, None])
    acc = np.zeros(sheared.shape[1], dtype=complex)
    for row, w in zip(sheared, weight):
        acc += row * w
    return SpectralFunction._adopt(output_grid, (2.0 * np.pi) ** (m - 1) * acc)


def _default_xi_grid(input_grid: Grid) -> Grid:
    half = []
    counts = []
    for k in range(input_grid.dim):
        h = 2.0 + np.pi / input_grid.spacing[k] / 4.0
        h = min(max(h, 10.0), 16.0)
        n = int(np.ceil(2 * h * max(abs(input_grid.lower[k]), abs(input_grid.upper[k])) * 1.25 / np.pi))
        n += n % 2
        half.append(h)
        counts.append(n)
    return Grid.symmetric(half, counts)


def forward_s_via_fourier(op: NetworkOperator, gamma: ParamDistribution) -> SampledFunction:
    """Convenience: slice-path S[γ] brought back to the input grid."""
    spec = forward_s_fourier(op, gamma)
    return fourier_inverse(spec, op.input_grid)


def reconstruct(op: NetworkOperator, f: SampledFunction, rho: Profile1D,
                use_fourier: bool = False):
    """S[R[f;ρ]] together with the computed pairing ⟨⟨σ,ρ⟩⟩.

    With an admissible ρ normalized to unit pairing the output approximates f;
    with a non-admissible ρ it degenerates toward zero.
    """
    pair = pairing(op.sigma, rho, op.m)
    if use_fourier:
        gam = ridgelet_fourier(f, rho, op.param_grid)
        out = forward_s_via_fourier(op, gam)
    else:
        gam = ridgelet(f, rho, op.param_grid)
        out = forward_s(op, gam)
    return out, pair


def build_sigma_star(sigma: Profile1D, orders: SobolevOrders, m: int) -> Profile1D:
    """σ*♯(ω) = (2π)^{m−1} |ω|^m ⟨∂_ω⟩^{−t} ⟨ω⟩^{2s} ⟨∂_ω⟩^{−t} σ♯(ω).

    The bracket pipeline runs through the real domain, so σ♯ must decay at
    the ω boundary.
    """
    from .fourier import _boundary_decay
    from .profiles import _interp_profile

    omega_grid = DEFAULT_OMEGA_GRID
    spec = SpectralFunction(omega_grid, sigma.spectral_values(omega_grid))
    if _boundary_decay(spec.values) > 1e-6:
        raise DomainError(
            f"{sigma.name!r} spectrum does not decay at the ω boundary; "
            "the fractional bracket pipeline would alias")
    omega_axis = omega_grid.axis(0)
    inner = np.max(np.abs(spec.values[np.abs(omega_axis) <= 1.5 * omega_grid.spacing[0]]))
    unit_band = np.max(np.abs(spec.values[(np.abs(omega_axis) > 0.9)
                                          & (np.abs(omega_axis) < 1.1)]))
    if inner > 100.0 * max(unit_band, 1e-300):
        raise DomainError(
            f"{sigma.name!r} spectrum blows up at ω = 0 (principal-value type); "
            "the bracket pipeline cannot represent it on a truncated grid")
    stage = fractional_bracket(spec, -orders.t)
    stage = SpectralFunction._adopt(omega_grid,
                                    stage.values * bracket(omega_grid.axis(0)) ** (2 * orders.s))
    stage = fractional_bracket(stage, -orders.t)
    omega = omega_grid.axis(0)
    vals = (2.0 * np.pi) ** (m - 1) * np.abs(omega) ** m * stage.values
    return _interp_profile(f"{sigma.name}*", omega_grid, vals,
                           notes=f"adjoint profile at orders (t={orders.t:g}, s={orders.s:g})")


def adjoint(op: NetworkOperator, f: SampledFunction, mode: AdjointMode) -> ParamDistribution:
    """S*[f].

    Plain-L² mode (σ in the weighted space, normalized): S* = R[·;σ].
    Weighted-Sobolev mode: S* = R[·;σ*] with σ* from build_sigma_star; the
    duality then holds against the sheared-bracket inner product (hd_inner).
    """
    if mode.kind == PLAIN_L2:
        if op.norm_constant is None:
            raise DomainError("plain-L² adjoint needs σ with a finite weighted norm")
        return ridgelet(f, op.sigma, op.param_grid)
    star = build_sigma_star(op.sigma, mode.orders, op.m)
    return ridgelet_fourier(f, star, op.param_grid)


def hd_inner(phi: ParamDistribution, gamma: ParamDistribution, orders: SobolevOrders,
             input_grid: Grid) -> complex:
    """Inner product of the sheared-bracket weighted space (m = 1):

        ⟨φ, γ⟩ = ∫ ⟨∂_ω⟩^t[φ̌♯(ωx,ω)] conj(⟨∂_ω⟩^t[γ̌♯(ωx,ω)]) ⟨ω⟩^{−2s} dx dω

    γ̌♯ is the inverse transform along a composed with the forward transform
    along b, evaluated on the native (y, ω) grid (y reuses the a axis) and
    sheared to (ωx, ω) by one cubic spline over y, ω as its batch axis.
    """
    if phi.grid != gamma.grid:
        raise DomainError("fields live on different grids")
    m = phi.grid.dim - 1
    if m != 1:
        raise DomainError("hd_inner implemented for m = 1")
    omega_grid = _default_op_omega_grid(phi.grid)
    omega = omega_grid.axis(0)
    x_pts = input_grid.points()
    y_grid = phi.grid.sub(slice(-1))

    def sheared(field: ParamDistribution) -> np.ndarray:
        vals = _axis_transform(field.values, 0, y_grid, y_grid, +1.0) / (2.0 * np.pi)
        vals = _axis_transform(vals, 1, field.grid.sub(slice(-1, None)), omega_grid, -1.0)
        out = cubic_spline(y_grid, vals).each(omega[:, None, None] * x_pts).T
        if orders.t != 0.0:
            for j in range(len(x_pts)):
                out[j, :] = fractional_bracket(SpectralFunction(omega_grid, out[j, :]),
                                               orders.t).values
        return out

    pv = sheared(phi)
    gv = sheared(gamma)
    wx = input_grid.axis_weights(0)
    ww = omega_grid.axis_weights(0)
    weight = np.outer(wx, ww) * bracket(omega)[None, :] ** (-2 * orders.s)
    return complex(np.sum(pv * np.conj(gv) * weight))
