"""Activation and ridgelet profile library.

The workhorse families:

  * tanh with its analytic spectrum −iπ/sinh(πω/2) (singular at ω = 0, only
    ever evaluated on grids that straddle the origin),
  * the Dawson reference ρ₀ with ρ₀♯(ω) = sign(ω)·exp(−ω²/2) and its
    derivatives ρ_k = c_k ρ₀^{(k)},
  * Gaussian derivatives (the smooth activations used by the projector
    machinery),
  * ReLU (real evaluator only; spectral pairings reject it),
  * Hermite functions as the orthonormal system of L²(ℝ),
  * Gram–Schmidt in the |ω|^{-m}-weighted spectral inner product,
  * the admissibility pairing ⟨⟨σ,ρ⟩⟩ and the one rule that calls it zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import dawsn

from .grids import (
    DEFAULT_OMEGA_GRID,
    DomainError,
    Grid,
    SampledFunction,
    UnsupportedProfileError,
    _omega_weights,
    cubic_spline,
    weighted_omega_inner,
    weighted_omega_norm,
)

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_NONE = "none"


# Gaussians below this are set to 0, so none is subnormal (that slows later products
# several-fold). A dropped term is below 1e-150 times its polynomial factor: Hermite-11
# at |x| ≈ 26 is about 1e-136 of its peak. exp's argument is clamped at ln(floor) − 1
# (exp(ln(floor)) rounds above the floor), so exp never takes its underflow path.
_GAUSS_FLOOR = 1e-150


def _gauss(x, width: float = 1.0) -> np.ndarray:
    """exp(−x²/(2·width²)), 0 below `_GAUSS_FLOOR`, the plain formula bit for bit above."""
    x = np.asarray(x, dtype=float)
    u = np.square(x, out=np.empty(x.shape))
    u /= -2.0 * width ** 2
    np.maximum(u, np.log(_GAUSS_FLOOR) - 1.0, out=u)
    np.exp(u, out=u)
    u[u < _GAUSS_FLOOR] = 0.0
    return u


class SingularPointError(DomainError):
    """Spectral evaluator hit a point where it is only a principal value."""


@dataclass(frozen=True)
class Profile1D:
    """A 1-D profile usable as activation σ or ridgelet function ρ.

    Carries a real-domain evaluator and/or an analytic/interpolated spectral
    evaluator ω ↦ profile♯(ω). At least one must be present.

    The real-domain evaluators of real profiles (tanh, ReLU, Gaussian,
    gauss_d<k>) return float arrays, so kernel sums over them stay real.
    """

    name: str
    real_eval: Callable[[np.ndarray], np.ndarray] | None = None
    spectral_eval: Callable[[np.ndarray], np.ndarray] | None = None
    parity: str = PARITY_NONE

    def __post_init__(self):
        if self.real_eval is None and self.spectral_eval is None:
            raise DomainError(f"profile {self.name!r} needs at least one evaluator")
        if self.parity not in (PARITY_EVEN, PARITY_ODD, PARITY_NONE):
            raise DomainError(f"unknown parity {self.parity!r}")

    def spectral_values(self, grid: Grid) -> np.ndarray:
        if self.spectral_eval is None:
            raise UnsupportedProfileError(f"profile {self.name!r} has no spectral evaluator")
        return np.asarray(self.spectral_eval(grid.axis(0)), dtype=complex)

    def scaled(self, c: complex, name: str | None = None) -> "Profile1D":
        c = complex(c)
        k = c.real if c.imag == 0.0 else c  # a real scale keeps a real evaluator real
        re = None if self.real_eval is None else (lambda b, f=self.real_eval: k * np.asarray(f(b)))
        sp = None if self.spectral_eval is None else (
            lambda w, f=self.spectral_eval: c * np.asarray(f(w)))
        return Profile1D(name or f"{c:g}*{self.name}", re, sp, self.parity)


# ---------------------------------------------------------------------------
# Dawson function and the ρ_k ridgelet family


@lru_cache(maxsize=None)
def _dawson_derivative_polys(kmax: int) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """F^{(k)} = P_k·F + Q_k with P₀ = 1, Q₀ = 0 and
    P_{k+1} = P_k' − 2x·P_k,  Q_{k+1} = P_k + Q_k'.

    Cached; the coefficients (lowest degree first) come back as tuples, so no
    caller can change the cached values."""
    P, Q = np.array([1.0]), np.array([0.0])
    out = [((1.0,), (0.0,))]
    for _ in range(kmax):
        dP = npoly.polyder(P) if len(P) > 1 else np.array([0.0])
        dQ = npoly.polyder(Q) if len(Q) > 1 else np.array([0.0])
        P, Q = npoly.polysub(dP, npoly.polymul(np.array([0.0, 2.0]), P)), npoly.polyadd(P, dQ)
        out.append((tuple(P.tolist()), tuple(Q.tolist())))
    return tuple(out)


def _horner(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Σ_j coeffs[j]·x^j by in-place Horner (the same operations, in the same
    order, as `numpy.polynomial.polynomial.polyval`)."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


# Elements per pass of `dawson_derivative` and `_gaussian_derivative_real`
# (128 kB in float64), so their passes run in cache rather than streaming the
# whole array each time.
_EVAL_BLOCK = 1 << 14


def dawson_derivative(x, k: int, scale: float = 1.0):
    """k-th derivative of the Dawson function at x/scale via the polynomial
    recurrence, P_k·F + Q_k, evaluated elementwise in cache-sized blocks.
    Each block is divided by `scale` on its own, so a scaled argument costs
    no array of x's size beside the result (the same bits as passing x/scale)."""
    P, Q = _dawson_derivative_polys(k)[k]
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.ravel(), out.reshape(-1)
    for start in range(0, flat_x.size, _EVAL_BLOCK):
        xb = flat_x[start:start + _EVAL_BLOCK]
        if scale != 1.0:
            xb = xb / scale
        ob = flat_out[start:start + _EVAL_BLOCK]
        ob[...] = _horner(xb, P)
        ob *= dawsn(xb)
        if k:  # Q₀ = 0: adding it would turn F(−0) = −0 into +0
            ob += _horner(xb, Q)
    return out


# Real-domain constant of the reference profile: the inverse transform of
# sign(ω)e^{-ω²/2} is (i/π)·√2·F(b/√2).
_RHO0_CONST = 1j * np.sqrt(2.0) / np.pi


def dawson_profile(name: str, k: int, c: complex = 1.0, scale: float = 1.0) -> Profile1D:
    """c·ρ₀^{(k)} at Gaussian scale s: spectrum c·(iω)^k sign(ω) e^{−(sω)²/2},
    real domain c·s^{−(k+1)} ρ₀^{(k)}(b/s), which is one scalar
    c·(i√2/π)·2^{−k/2}·s^{−(k+1)} times F^{(k)}(b/(s√2)). When that scalar is
    real (c purely imaginary, as for every c_k against tanh) the real evaluator
    returns float arrays. The spectrum is multiplied by c only when c ≠ 1."""
    const = complex(c) * _RHO0_CONST * 2.0 ** (-k / 2.0) * scale ** (-(k + 1))
    if const.imag == 0.0:
        const = const.real

    def real(b):
        vals = dawson_derivative(b, k, scale=scale * np.sqrt(2.0))
        if isinstance(const, float):
            vals *= const
            return vals
        return const * vals

    def spec(w):
        w = np.asarray(w, dtype=float)
        vals = (1j * w) ** k * np.sign(w) * _gauss(scale * w)
        return vals if c == 1.0 else c * vals

    return Profile1D(name, real, spec, PARITY_EVEN if k % 2 == 1 else PARITY_ODD)


def rho0_profile() -> Profile1D:
    """ρ₀♯(ω) = sign(ω)e^{−ω²/2}, the Hilbert transform of the unit Gaussian; its
    weighted norm diverges at m = 1, so it carries no c_k."""
    return dawson_profile("rho0", 0)


def _rho_k_unnormalized(k: int, scale: float = 1.0) -> Profile1D:
    """ρ₀^{(k)} at Gaussian scale s, the seed of the ρ_k family."""
    return dawson_profile(f"rho0_d{k}" if scale == 1.0 else f"rho0_d{k}@s={scale:g}", k,
                          scale=scale)


def tanh_profile() -> Profile1D:
    def spec(w):
        w = np.asarray(w, dtype=float)
        if np.any(w == 0.0):
            raise SingularPointError(
                "tanh spectrum is a principal value at ω = 0; use a straddling grid")
        return -1j * np.pi / np.sinh(np.pi * w / 2.0)

    return Profile1D(name="tanh", real_eval=lambda b: np.tanh(np.asarray(b, dtype=float)),
                     spectral_eval=spec, parity=PARITY_ODD)


def relu_profile() -> Profile1D:
    """Real evaluator only: the spectrum is a distribution, so pairings refuse it."""
    return Profile1D(name="relu", real_eval=lambda b: np.maximum(np.asarray(b, dtype=float), 0.0))


def gaussian_profile(width: float = 1.0, center: float = 0.0) -> Profile1D:
    def spec(w):
        w = np.asarray(w, dtype=float)
        return width * np.sqrt(2.0 * np.pi) * np.exp(-(width * w) ** 2 / 2.0 - 1j * w * center)

    return Profile1D(name=f"gaussian(w={width:g},c={center:g})",
                     real_eval=lambda b: _gauss(np.asarray(b, dtype=float) - center, width),
                     spectral_eval=spec,
                     parity=PARITY_EVEN if center == 0.0 else PARITY_NONE)


def _gaussian_derivative_real(b, k: int) -> np.ndarray:
    """(−1)^k·He_k(b)·e^{−b²/2} in cache-sized blocks, bit-identical to
    `(−1)**k * hermite_e.hermeval(b, e_k) * _gauss(b)`: each block makes that
    expression's passes one for one (hermeval's Clenshaw steps from scalar c0,
    c1; its last step; the sign, × 1.0 skipped as exact; `_gauss`)."""
    b = np.asarray(b, dtype=float)
    out = np.empty(b.shape)
    flat_b, flat_out = b.ravel(), out.reshape(-1)
    for start in range(0, flat_b.size, _EVAL_BLOCK):
        x = flat_b[start:start + _EVAL_BLOCK]
        ob = flat_out[start:start + _EVAL_BLOCK]
        c0, c1 = (1.0, 0.0) if k == 0 else (0.0, 1.0)
        for mult in range(k - 1, 0, -1):   # hermeval: c[−i] − c1·(nd − 1), tmp + c1·x
            c0, c1 = 0.0 - c1 * mult, c0 + c1 * x
        np.multiply(c1, x, out=ob)
        ob += c0
        if k % 2:
            ob *= -1.0
        ob *= _gauss(x)
    return out


def gaussian_derivative_profile(k: int = 1) -> Profile1D:
    """k-th derivative of the unit Gaussian: d^k/db^k e^{-b²/2} =
    (−1)^k He_k(b) e^{-b²/2}, spectrum (iω)^k √(2π) e^{-ω²/2}; 0 ≤ k ≤ `GAUSS_D_MAX_ORDER`."""
    if not 0 <= k <= GAUSS_D_MAX_ORDER:
        raise DomainError(f"gauss_d order {k} is outside 0..{GAUSS_D_MAX_ORDER}")

    def spec(w, k=k):
        w = np.asarray(w, dtype=float)
        return (1j * w) ** k * np.sqrt(2.0 * np.pi) * _gauss(w)

    return Profile1D(name=f"gauss_d{k}", real_eval=lambda b: _gaussian_derivative_real(b, k),
                     spectral_eval=spec, parity=PARITY_ODD if k % 2 == 1 else PARITY_EVEN)


def pairing(sigma: Profile1D, rho: Profile1D, m: int) -> complex:
    """⟨⟨σ, ρ⟩⟩ = (2π)^{m-1} ∫ σ♯(ω) conj(ρ♯(ω)) |ω|^{-m} dω on `DEFAULT_OMEGA_GRID`."""
    su = sigma.spectral_values(DEFAULT_OMEGA_GRID)
    ru = rho.spectral_values(DEFAULT_OMEGA_GRID)
    return weighted_omega_inner(su, ru, m, DEFAULT_OMEGA_GRID)


ANALYTIC_SPECTRA = "analytic_spectra"


@dataclass(frozen=True)
class AdmissibilityReport:
    pairing: complex
    method: str
    parity_forced_zero: bool
    error_estimate: float

    @property
    def numerically_zero(self) -> bool:
        """The one rule for a zero pairing: |p| ≤ max(1e-8, 10·error_estimate)."""
        return abs(self.pairing) <= max(1e-8, 10.0 * self.error_estimate)


def admissibility(sigma: Profile1D, rho: Profile1D, m: int) -> AdmissibilityReport:
    """Evaluate ⟨⟨σ,ρ⟩⟩ on `DEFAULT_OMEGA_GRID` and report how sure the zero is.

    parity_forced_zero is set when the declared parities make the integrand
    odd (the symmetric trapezoid sum then cancels to roundoff).
    """
    if sigma.spectral_eval is None or rho.spectral_eval is None:
        raise UnsupportedProfileError(
            f"admissibility needs spectra for both {sigma.name!r} and {rho.name!r}")
    su = sigma.spectral_values(DEFAULT_OMEGA_GRID)
    ru = rho.spectral_values(DEFAULT_OMEGA_GRID)
    pair = weighted_omega_inner(su, ru, m, DEFAULT_OMEGA_GRID)
    total_variation = weighted_omega_inner(np.abs(su), np.abs(ru), m, DEFAULT_OMEGA_GRID).real
    ends = np.abs(DEFAULT_OMEGA_GRID.axis(0)[[0, -1]]) ** float(-m)
    boundary = float(np.sum(np.abs(su * ru)[[0, -1]] * ends)) * DEFAULT_OMEGA_GRID.spacing[0]
    err = 1e-13 * total_variation + boundary
    # integrand parity: σ♯·conj(ρ♯)·even-weight; equal parities give an even
    # integrand, mixed parities an odd one that cancels on the symmetric grid.
    parities = {sigma.parity, rho.parity}
    forced = (PARITY_NONE not in parities) and (sigma.parity != rho.parity)
    return AdmissibilityReport(pairing=pair, method=ANALYTIC_SPECTRA,
                               parity_forced_zero=forced, error_estimate=err)


def weighted_space_norm(spec: np.ndarray, m: int, omega_grid: Grid) -> float | None:
    """The weighted norm of spectral samples when they lie in the weighted
    space, else None (tanh and ReLU are not in it).

    A divergent norm grows without bound under grid refinement; the
    |ω|^{-m} mass near the origin is the telltale: a spectrum counts as a
    member when its mass on |ω| < 0.25 is below half of its squared norm.
    """
    norm = weighted_omega_norm(spec, m, omega_grid)
    omega = omega_grid.axis(0)
    near_mass = np.sum((np.abs(spec) ** 2 * np.abs(omega) ** (-m)
                        * omega_grid.axis_weights(0))[np.abs(omega) < 0.25])
    if np.isfinite(norm) and norm > 0 and near_mass < 0.5 * norm ** 2:
        return norm
    return None


RHO_MAX_ORDER = 8  # the series accuracy budget of ρ₀'s derivatives
# The last gauss_d<k> whose |ω|^k e^{−ω²/2} at |ω| = 12 (`DEFAULT_OMEGA_GRID`'s edge) is
# below 1e-10 of its peak: 7.4e-11 at k = 45, 1.3e-10 at 46 (it rises until √k = 12).
GAUSS_D_MAX_ORDER = 45


def make_rho_family(max_k: int, sigma: Profile1D | None = None) -> list[Profile1D]:
    """ρ₀ … ρ_{max_k} with ρ_k = c_k ρ₀^{(k)}, at m = 1.

    c_k makes ⟨⟨σ, ρ_k⟩⟩ = 1 when that pairing is nonzero (admissible k),
    otherwise (`AdmissibilityReport.numerically_zero`) c_k normalizes the
    weighted norm to 1. ρ₀ is the unscaled reference profile. σ defaults to
    tanh as in the reconstruction study.
    """
    if max_k > RHO_MAX_ORDER:
        raise DomainError(f"derivative order capped at {RHO_MAX_ORDER} (series accuracy budget)")
    sigma = sigma or tanh_profile()
    m, omega_grid = 1, DEFAULT_OMEGA_GRID
    family = [rho0_profile()]
    for k in range(1, max_k + 1):
        raw = _rho_k_unnormalized(k)
        report = admissibility(sigma, raw, m)
        if report.numerically_zero:
            c_k = 1j / weighted_omega_norm(raw.spectral_values(omega_grid), m, omega_grid)
        else:
            c_k = 1.0 / np.conj(report.pairing)
        family.append(dawson_profile(f"rho{k}", k, c_k))
    return family


# ---------------------------------------------------------------------------
# Orthonormal systems


GRAM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BasisFamily:
    """Ordered orthonormal system, either {e_i} in L²(ℝ^m) or {ρ_j} in the
    weighted spectral space. Its builders check max |G − I| ≤ `GRAM_TOLERANCE`."""

    members: tuple
    gram_residual: float
    fourier_evaluators: tuple = ()

    def __len__(self):
        return len(self.members)


def hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions e_n(x), via the stable normalized
    recurrence."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.pi ** (-0.25) * _gauss(x)
    for k in range(n):
        h_next = x * np.sqrt(2.0 / (k + 1)) * h - np.sqrt(k / (k + 1.0)) * h_prev
        h_prev, h = h, h_next
    return h


def hermite_fourier(n: int, xi: np.ndarray) -> np.ndarray:
    """ê_n(ξ) = √(2π) (−i)^n e_n(ξ) in this package's transform convention."""
    return np.sqrt(2.0 * np.pi) * (-1j) ** n * hermite_function(n, xi)


def hermite_capacity(grid: Grid) -> int:
    """The most Hermite functions `hermite_basis` builds on a 1-D grid: n of
    them need a half-width of at least √(2n + 1) + 2 and a spacing Δx with
    π/Δx ≥ √(2n + 1) + 2.5. ê_n ∝ e_n, so both rules leave a margin past
    the turning point √(2n + 1). At the spacing limit the Gram residual is at
    most 3.2e-8 (n = 1) over grid offsets; a margin of 2 left 1.8e-6 there,
    above `GRAM_TOLERANCE`."""
    def most(reach):
        return int((reach * reach - 1.0) // 2.0) if reach >= 1.0 else 0

    half = min(abs(grid.lower[0]), abs(grid.upper[0]))
    return min(most(half - 2.0), most(np.pi / grid.spacing[0] - 2.5))


def hermite_basis(count: int, grid: Grid) -> BasisFamily:
    """First `count` Hermite functions sampled on a 1-D grid."""
    if grid.dim != 1:
        raise DomainError("hermite_basis builds 1-D systems")
    x = grid.axis(0)
    capacity = hermite_capacity(grid)
    if count > capacity:
        raise DomainError(
            f"grid [{grid.lower[0]:g}, {grid.upper[0]:g}] with spacing {grid.spacing[0]:g} "
            f"holds {capacity} Hermite functions, not {count}")
    members = []
    for n in range(count):
        members.append(SampledFunction._adopt(grid, hermite_function(n, x) + 0.0j))
    w = grid.axis_weights(0)
    vals = np.stack([mbr.values for mbr in members])
    gram = (vals * w) @ np.conj(vals.T)
    resid = float(np.max(np.abs(gram - np.eye(count))))
    if resid > GRAM_TOLERANCE:
        raise DomainError(f"Hermite Gram residual {resid:.2e} exceeds {GRAM_TOLERANCE:g}")
    return BasisFamily(
        members=tuple(members), gram_residual=resid,
        fourier_evaluators=tuple((lambda xi, n=n: hermite_fourier(n, xi))
                                 for n in range(count)),
    )


def _interp_profile(name: str, omega_grid: Grid, spec_vals: np.ndarray) -> Profile1D:
    """Wrap spectral samples into a Profile1D via the grids' cubic spline
    (0 outside the ω box)."""
    spline = cubic_spline(omega_grid, spec_vals)
    return Profile1D(name=name, spectral_eval=lambda w: spline(np.asarray(w)[..., None]))


def orthonormalize_l2m(vectors: Sequence[np.ndarray], m: int,
                       omega_grid: Grid) -> tuple[list[np.ndarray], list[int]]:
    """Modified Gram–Schmidt with a second orthogonalization pass under the
    |ω|^{-m}-weighted spectral product.

    Each vector is scaled to unit norm first. One whose residual norm then
    collapses (< 1e-10) depends on its predecessors: it is left out of the
    basis and its index is returned in the second list.
    """
    basis: list[np.ndarray] = []
    dependent: list[int] = []
    for idx, v in enumerate(vectors):
        v = v / weighted_omega_norm(v, m, omega_grid)
        for _ in range(2):
            for u in basis:
                v = v - weighted_omega_inner(v, u, m, omega_grid) * u
        resid = weighted_omega_norm(v, m, omega_grid)
        if resid < 1e-10:
            dependent.append(idx)
            continue
        basis.append(v / resid)
    return basis, dependent


def gram_residual_l2m(vectors: Sequence[np.ndarray], m: int, omega_grid: Grid) -> float:
    """max |G − I| for the weighted Gram matrix G_ij = ⟨v_i, v_j⟩, as one
    product (V·w) @ Vᴴ with the weights of `weighted_omega_inner`."""
    V = np.stack(vectors)
    gram = (V * _omega_weights(omega_grid, m)) @ np.conj(V).T
    return float(np.max(np.abs(gram - np.eye(len(V)))))


def gram_schmidt_l2m(candidates: Sequence[Profile1D], m: int) -> BasisFamily:
    """Orthonormalize profiles under the |ω|^{-m}-weighted spectral product
    (`orthonormalize_l2m`) on `DEFAULT_OMEGA_GRID`. A candidate that is
    numerically dependent on its predecessors is reported by index.
    """
    omega_grid = DEFAULT_OMEGA_GRID
    if not candidates:
        raise DomainError("gram_schmidt_l2m needs at least one candidate")
    vectors = [cand.spectral_values(omega_grid) for cand in candidates]
    for idx, (cand, v) in enumerate(zip(candidates, vectors)):
        scale = weighted_omega_norm(v, m, omega_grid)
        if not np.isfinite(scale) or scale == 0.0:
            raise DomainError(f"candidate {idx} ({cand.name!r}) has no finite weighted norm")
    basis_vals, dependent = orthonormalize_l2m(vectors, m, omega_grid)
    if dependent:
        idx = dependent[0]
        raise DomainError(
            f"candidate {idx} ({candidates[idx].name!r}) is numerically dependent on its "
            "predecessors")
    resid = gram_residual_l2m(basis_vals, m, omega_grid)
    if resid > GRAM_TOLERANCE:
        raise DomainError(f"Gram residual {resid:.2e} exceeds {GRAM_TOLERANCE:g}")
    members = tuple(
        _interp_profile(f"gs_{i}({cand.name})", omega_grid, v)
        for i, (cand, v) in enumerate(zip(candidates, basis_vals)))
    return BasisFamily(members=members, gram_residual=resid)
