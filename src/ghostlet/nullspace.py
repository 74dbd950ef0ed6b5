"""Ghost construction, projection onto the orthocomplement of the null
space, the structure decomposition, the ridgelet series expansion, and the
lazy-learning minimizer.

A pair (σ, ρ) is admissible when ⟨⟨σ,ρ⟩⟩ is neither 0 nor ∞
(`profiles.admissibility` decides the zero); ridgelet transforms with
non-admissible ρ generate ghosts (null elements of S). With a
unit-norm activation, P = S*∘S projects onto the orthocomplement and I − P
onto the ghosts.

Normalization used throughout analysis/synthesis (recorded constants): with
{e_i} orthonormal in L² and ρ' of unit weighted norm, the fields R[e_i;ρ'_i]
are orthonormal in L²(da db) in the continuum, so

    coefficient  c = √(2π)·⟨γ, R[e;ρ]⟩_{L²},
    synthesis    γ = (1/√(2π)) Σ c·R[e;ρ],
    Parseval     Σ|c|² = 2π‖γ‖².

On a truncated parameter grid the atoms are not orthonormal (the a-box cuts
the high-order Hermite atoms; on the test grid the Gram diagonal is off by
up to 7.7% and λ_min(G) = 0.706). The ridgelet series therefore solves
against the discrete Gram matrix G of the truncated atom table:

    c = √(2π)·G⁻¹⟨γ, atoms⟩,   G_kl = ⟨atom_l, atom_k⟩,

which makes synthesis the L² projection onto the span and its exact inverse
there. The Parseval identity becomes the bound c^H G c = 2π‖Π γ‖² ≤ 2π‖γ‖²
(Π the projection onto the span), and Σ|c|² ≤ 2π‖γ‖²/λ_min(G).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import partial_sharp_b
from .grids import (
    DEFAULT_OMEGA_GRID,
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    UnsupportedProfileError,
    l2_norm,
    spectral_grids,
    weighted_omega_inner,
    weighted_omega_norm,
)
from .profiles import (
    BasisFamily,
    Profile1D,
    _interp_profile,
    admissibility,
)
from .transforms import (
    NetworkOperator,
    _slice_ridgelet,
    _spectrum_to_b,
    forward_s_via_fourier,
    ridgelet_fourier,
)

_SUPPORT_TOL = 1e-10  # recipe (i): |σ♯| at most this share of its peak is no support


@dataclass(frozen=True)
class DisjointSupport:
    """Recipe (i): ρ₀♯ supported where σ♯ has (numerically) no support."""


@dataclass(frozen=True)
class NormalizedDifference:
    """Recipe (ii): ρ − ρ' after normalizing both pairings to 1."""
    rho_a: Profile1D = None
    rho_b: Profile1D = None


@dataclass(frozen=True)
class LinearCombination:
    """Recipe (iii): αρ₀ + βρ₀' of two non-admissible profiles."""
    rho_a: Profile1D = None
    rho_b: Profile1D = None
    alpha: complex = 1.0
    beta: complex = 1.0


def make_nonadmissible(sigma: Profile1D, recipe) -> Profile1D:
    """Construct a profile with ⟨⟨σ, out⟩⟩ ≈ 0 (m = 1) by one of the three recipes."""
    m, omega_grid = 1, DEFAULT_OMEGA_GRID
    omega = omega_grid.axis(0)

    if isinstance(recipe, DisjointSupport):
        spec = np.abs(sigma.spectral_values(omega_grid))
        peak = float(np.max(spec))
        usable = (np.abs(spec) <= _SUPPORT_TOL * peak) & (np.abs(omega) > 0.5)
        if not np.any(usable):
            raise DomainError(
                f"{sigma.name!r} spectrum has no numerically free band on this grid")
        lo = float(np.min(np.abs(omega[usable])))
        hi = float(np.max(np.abs(omega)))
        center = 0.5 * (lo + hi)
        width = max((hi - lo) / 8.0, 2.0 * omega_grid.spacing[0])
        vals = (np.exp(-((omega - center) ** 2) / (2 * width ** 2))
                + np.exp(-((omega + center) ** 2) / (2 * width ** 2))) + 0.0j
        vals /= weighted_omega_norm(vals, m, omega_grid)
        return _interp_profile(f"disjoint({sigma.name})", omega_grid, vals)

    if isinstance(recipe, NormalizedDifference):
        ra = admissibility(sigma, recipe.rho_a, m)
        rb = admissibility(sigma, recipe.rho_b, m)
        if ra.numerically_zero or rb.numerically_zero:
            raise DomainError("recipe (ii) needs two admissible inputs with nonzero pairings")
        va = recipe.rho_a.spectral_values(omega_grid) / np.conj(ra.pairing)
        vb = recipe.rho_b.spectral_values(omega_grid) / np.conj(rb.pairing)
        vals = va - vb
        nrm = weighted_omega_norm(vals, m, omega_grid)
        if nrm > 0:
            vals = vals / nrm
        return _interp_profile(f"diff({recipe.rho_a.name},{recipe.rho_b.name})",
                               omega_grid, vals)

    if isinstance(recipe, LinearCombination):
        va = recipe.rho_a.spectral_values(omega_grid)
        vb = recipe.rho_b.spectral_values(omega_grid)
        vals = recipe.alpha * va + recipe.beta * vb
        nrm = weighted_omega_norm(vals, m, omega_grid)
        if nrm > 1e-14:
            vals = vals / nrm
        return _interp_profile(f"lincomb({recipe.rho_a.name},{recipe.rho_b.name})",
                               omega_grid, vals)

    raise DomainError(f"unknown recipe {type(recipe).__name__}")


def _require_plain_normalized(op: NetworkOperator):
    """P = S*∘S is a projection only for a unit-norm σ, and it runs on the
    Fourier-slice path, which needs σ's spectrum."""
    if not op.is_normalized:
        raise DomainError("plain-L² projection requires a unit-norm activation")
    if op.sigma.spectral_eval is None:
        raise UnsupportedProfileError(
            f"projection needs the spectrum of {op.sigma.name!r}, which has no spectral evaluator")


def project(op: NetworkOperator, gamma: ParamDistribution):
    """(P[γ], γ − P[γ]) with P = S*∘S on the Fourier-slice path; the ghost
    part is annihilated by S."""
    _require_plain_normalized(op)
    principal = ridgelet_fourier(forward_s_via_fourier(op, gamma), op.sigma, op.param_grid)
    return principal, gamma - principal


def lazy_solution(op: NetworkOperator, f: SampledFunction,
                  gamma_init: ParamDistribution) -> ParamDistribution:
    """γ_lazy = S*[f] + (γ_init − P[γ_init]): solves S[γ] = f while staying
    closest to the initialization (the ghost part of γ_init is kept)."""
    _, ghost_init = project(op, gamma_init)
    return ridgelet_fourier(f, op.sigma, op.param_grid) + ghost_init


def ridgelet_atom(basis_e: BasisFamily, i: int, rho: Profile1D,
                  param_grid: Grid) -> ParamDistribution:
    """R[e_i;ρ] built from the basis' analytic Fourier evaluator (fast path
    when available, falls back to the sampled-function slice path)."""
    if basis_e.fourier_evaluators:
        ehat = basis_e.fourier_evaluators[i]
        omega_grid = spectral_grids(param_grid, basis_e.members[i].grid).omega
        return _slice_ridgelet(lambda xi: ehat(xi[..., 0]), rho, param_grid, omega_grid)
    return ridgelet_fourier(basis_e.members[i], rho, param_grid)


@dataclass(frozen=True)
class StructureDecomposition:
    principal: ParamDistribution
    ghost: ParamDistribution
    coefficients: tuple
    ghost_ridgelets: tuple
    residual_norm: float

    def parseval_gap(self) -> float:
        """|Σ c'² − 2π‖ghost‖²| / (2π‖ghost‖²)."""
        total = 2.0 * np.pi * l2_norm(self.ghost) ** 2
        if total == 0.0:
            return 0.0
        return abs(sum(abs(c) ** 2 for c in self.coefficients) - total) / total


def structure_decompose(op: NetworkOperator, gamma: ParamDistribution,
                        basis_e: BasisFamily, max_terms: int) -> StructureDecomposition:
    """γ = S*[f] + (1/√(2π)) Σ c'_i R[e_i;ρ'_i] with f = S[γ].

    The per-index ghost profiles come from projecting the sheared spectrum of
    the ghost part onto ê_i:

        T_i(ω) = |ω|^m ∫ ghost♯(u, ω) conj(ê_i(ωu)) du,
        ρ'_i♯ = conj(T_i)/N_i,   c'_i = √(2π)(2π)^{-m} N_i,  N_i = ‖conj(T_i)‖.

    Each extracted ρ'_i has unit weighted norm and pairs to zero with σ.
    """
    if max_terms > len(basis_e):
        raise DomainError(f"max_terms {max_terms} exceeds basis size {len(basis_e)}")
    if not basis_e.fourier_evaluators:
        raise DomainError("structure_decompose needs a basis with Fourier evaluators")
    m = op.m
    if m != 1:
        raise DomainError("structure extraction implemented for m = 1")
    principal, ghost = project(op, gamma)
    omega_grid = spectral_grids(op.param_grid, op.input_grid).omega
    omega = omega_grid.axis(0)
    gs = partial_sharp_b(ghost, omega_grid)          # (Na, Nω)
    u_nodes = op.param_grid.axis(0)
    wu = op.param_grid.axis_weights(0)
    ghost_scale = l2_norm(ghost)
    # the exact extraction is σ-orthogonal (S annihilates the ghost part);
    # deflating the residual σ-component removes projection noise so every
    # emitted profile pairs to zero with the activation
    sig_vals = op.sigma.spectral_values(omega_grid)
    sig_vals = sig_vals / weighted_omega_norm(sig_vals, m, omega_grid)
    coeffs = []
    rhos = []
    synth_spec = np.zeros_like(gs.values)
    for i in range(max_terms):
        ehat = basis_e.fourier_evaluators[i](np.outer(u_nodes, omega))   # ê_i(ωu)
        t_vals = np.abs(omega) ** m * np.sum(gs.values * np.conj(ehat) * wu[:, None], axis=0)
        rho_tilde = np.conj(t_vals)
        rho_tilde = rho_tilde - weighted_omega_inner(rho_tilde, sig_vals, m,
                                                     omega_grid) * sig_vals
        n_i = weighted_omega_norm(rho_tilde, m, omega_grid)
        if not np.isfinite(n_i) or n_i <= 1e-12 * max(ghost_scale, 1e-30):
            coeffs.append(0.0 + 0.0j)
            rhos.append(None)
            continue
        rho_vals = rho_tilde / n_i
        c_i = np.sqrt(2.0 * np.pi) * (2.0 * np.pi) ** (-m) * n_i
        coeffs.append(complex(c_i))
        rhos.append(_interp_profile(f"ghost_rho_{i}", omega_grid, rho_vals))
        synth_spec += (c_i / np.sqrt(2.0 * np.pi)) * ehat * np.conj(rho_vals)[None, :]
    synth = _spectrum_to_b(synth_spec, op.param_grid, omega_grid)
    residual = l2_norm(ghost - synth)
    return StructureDecomposition(principal=principal, ghost=ghost,
                                  coefficients=tuple(coeffs),
                                  ghost_ridgelets=tuple(rhos),
                                  residual_norm=residual)


@dataclass(frozen=True)
class ExpansionCoefficients:
    c: np.ndarray                 # (I, J) complex
    truncation: tuple[int, int]

    def partial_parseval(self) -> np.ndarray:
        """Cumulative Σ|c_ij|² over growing rectangles (nondecreasing). For
        Gram-solved c the exact bound is c^H G c ≤ 2π‖γ‖², not Σ|c|² ≤ 2π‖γ‖²:
        Σ|c|² may reach 2π‖γ‖²/λ_min(G) (see the module docstring)."""
        mags = np.abs(self.c) ** 2
        return np.cumsum(np.cumsum(mags, axis=0), axis=1)

    @property
    def total(self) -> float:
        """Σ|c_ij|², bounded by 2π‖γ‖²/λ_min(G), not by 2π‖γ‖²."""
        return float(np.sum(np.abs(self.c) ** 2))


def _atom_matrix(atoms: list, truncation: tuple[int, int]) -> np.ndarray:
    """The truncated (I, J) atom table as one (I·J, N) matrix, row i·J + j."""
    I, J = truncation
    return np.stack([atoms[i][j].values.ravel() for i in range(I) for j in range(J)])


def density_expand(gamma: ParamDistribution, basis_e: BasisFamily,
                   basis_rho: BasisFamily, truncation: tuple[int, int],
                   atoms: list | None = None) -> ExpansionCoefficients:
    """c = √(2π)·G⁻¹⟨γ, R[e_i;ρ_j]⟩ against the discrete Gram matrix G of the
    truncated atom table (see the module docstring), so that
    `density_synthesize` returns the L² projection of γ onto the span.

    Partial Parseval sums of |c|² are monotone; the totals obey
    c^H G c ≤ 2π‖γ‖² exactly and Σ|c|² ≤ 2π‖γ‖²/λ_min(G).
    """
    I, J = truncation
    if I > len(basis_e) or J > len(basis_rho):
        raise DomainError("truncation exceeds the basis sizes")
    if atoms is None:
        atoms = build_atoms(basis_e, basis_rho, gamma.grid, truncation)
    A = _atom_matrix(atoms, truncation)
    wA = A * gamma.grid.weights().ravel()
    gram = np.conj(A) @ wA.T                        # G_kl = ⟨atom_l, atom_k⟩
    rhs = np.conj(wA) @ gamma.values.ravel()        # ⟨γ, atom_k⟩
    c = np.sqrt(2.0 * np.pi) * np.linalg.solve(gram, rhs)
    return ExpansionCoefficients(c=c.reshape(I, J), truncation=(I, J))


def density_synthesize(coeffs: ExpansionCoefficients, basis_e: BasisFamily,
                       basis_rho: BasisFamily, param_grid: Grid,
                       atoms: list | None = None) -> ParamDistribution:
    """(1/√(2π)) Σ c_ij R[e_i;ρ_j]; with Gram-solved coefficients from
    `density_expand` this inverts the expansion exactly on the span."""
    if atoms is None:
        atoms = build_atoms(basis_e, basis_rho, param_grid, coeffs.truncation)
    vals = coeffs.c.ravel() @ _atom_matrix(atoms, coeffs.truncation) / np.sqrt(2.0 * np.pi)
    return ParamDistribution._adopt(param_grid, vals)


def build_atoms(basis_e: BasisFamily, basis_rho: BasisFamily, param_grid: Grid,
                truncation: tuple[int, int]) -> list:
    """Precompute the R[e_i;ρ_j] table shared by expansion and synthesis."""
    I, J = truncation
    return [[ridgelet_atom(basis_e, i, basis_rho.members[j], param_grid)
             for j in range(J)] for i in range(I)]
