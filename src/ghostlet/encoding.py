"""Function-series encoding into ghosts and readout via mutated activations
and modulation maps.

A ghost codebook is an orthonormal family {ρ_i} in the weighted spectral
space whose member 0 pairs to 1 with the activation and whose members i ≥ 1
pair to 0. A series F = (f₀, f₁, …) is stored as γ_F = Σ R[f_i;ρ_i]: the
plain network S sees only f₀ (all other terms are ghosts), the mutated
network with activation ρ_i reads out f_i, and a modulation map relocates a
ghost slot into the visible slot before applying S.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DEFAULT_OMEGA_GRID,
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    l2_inner,
    weighted_omega_inner,
)
from .profiles import (
    BasisFamily,
    Profile1D,
    _interp_profile,
    _rho_k_unnormalized,
    gram_residual_l2m,
    orthonormalize_l2m,
    pairing,
    weighted_space_norm,
)
from .transforms import NetworkOperator, forward_s_via_fourier, ridgelet_fourier


@dataclass(frozen=True)
class GhostCodebook:
    """sigma plus an orthonormal family whose slot 0 is the visible channel.

    Invariants (checked at construction, m = 1): |⟨⟨σ,ρ₀⟩⟩ − 1| ≤ 1e-6,
    |⟨⟨σ,ρ_i⟩⟩| ≤ 1e-6 for i ≥ 1, Gram matrix ≈ identity.
    """

    sigma: Profile1D
    rho_family: BasisFamily

    def __len__(self):
        return len(self.rho_family)

    @property
    def members(self):
        return self.rho_family.members


def make_ghost_codebook(sigma: Profile1D, n_ghosts: int = 3) -> GhostCodebook:
    """Build a codebook with 1 + n_ghosts slots from Dawson-derivative seeds.

    If σ has a finite weighted norm, slot 0 must be σ/‖σ‖ itself (the unit
    pairing with a unit-norm profile is the Cauchy–Schwarz equality case), so
    the family Gram–Schmidts [σ] + seeds. Otherwise (tanh-like σ, where the
    pairing is a dual pairing) the seeds are rotated against the vector of
    pairings and the stored activation is rescaled so slot 0 pairs to exactly
    1.
    """
    m, omega_grid, tol = 1, DEFAULT_OMEGA_GRID, 1e-6
    candidates = [_rho_k_unnormalized(k) for k in range(1, n_ghosts + 3)]
    sig_vals = sigma.spectral_values(omega_grid)
    sig_norm = weighted_space_norm(sig_vals, m, omega_grid)
    if sig_norm is not None:
        sigma_unit = sigma if abs(sig_norm - 1.0) < 1e-9 else sigma.scaled(
            1.0 / sig_norm, name=f"{sigma.name}~unit")
        vecs, _ = orthonormalize_l2m([sigma_unit.spectral_values(omega_grid)]
                                     + [c.spectral_values(omega_grid) for c in candidates],
                                     m, omega_grid)
        if len(vecs) < 1 + n_ghosts:
            raise DomainError("not enough independent candidates for the requested ghost count")
        members = [sigma_unit] + [
            _interp_profile(f"codebook_{i}", omega_grid, v)
            for i, v in enumerate(vecs[1:1 + n_ghosts], start=1)]
        stored_sigma = sigma_unit
    else:
        basis, _ = orthonormalize_l2m([c.spectral_values(omega_grid) for c in candidates],
                                      m, omega_grid)
        if len(basis) < n_ghosts + 2:
            raise DomainError("not enough independent candidates for the requested ghost count")
        p = np.array([weighted_omega_inner(sig_vals, u, m, omega_grid) for u in basis])
        p_norm = float(np.linalg.norm(p))
        if p_norm < 1e-10:
            raise DomainError("sigma pairs to zero with every candidate; no visible slot")
        # slot 0 along the pairing vector (⟨⟨σ, Σα_i u_i⟩⟩ = Σ conj(α_i) p_i,
        # so α = p/|p| gives pairing |p|); Householder the rest orthogonal to it
        u0 = sum(pi * ui for pi, ui in zip(p, basis)) / p_norm
        # u0 lies in the span of the basis, so one seed becomes dependent and
        # is skipped.
        rest = orthonormalize_l2m([u0] + basis, m, omega_grid)[0][1:]
        members = [_interp_profile("codebook_0", omega_grid, u0)]
        members += [_interp_profile(f"codebook_{i}", omega_grid, v)
                    for i, v in enumerate(rest[:n_ghosts], start=1)]
        stored_sigma = sigma.scaled(1.0 / p_norm, name=f"{sigma.name}/|p|")

    resid = gram_residual_l2m([mbr.spectral_values(omega_grid) for mbr in members], m,
                              omega_grid)
    pairs = [pairing(stored_sigma, mbr, m) for mbr in members]
    if abs(pairs[0] - 1.0) > tol:
        raise DomainError(f"slot-0 pairing {pairs[0]:.3e} deviates from 1 beyond {tol:g}")
    for i, pv in enumerate(pairs[1:], start=1):
        if abs(pv) > tol:
            raise DomainError(f"ghost slot {i} pairing {abs(pv):.3e} exceeds {tol:g}")
    family = BasisFamily(members=tuple(members), gram_residual=resid)
    return GhostCodebook(sigma=stored_sigma, rho_family=family)


def encode_series(codebook: GhostCodebook, functions: list[SampledFunction],
                  param_grid: Grid) -> ParamDistribution:
    """γ_F = Σ_i R[f_i; ρ_i]; the plain network recovers f₀, the rest hide."""
    if len(functions) > len(codebook):
        raise DomainError(
            f"series of {len(functions)} functions exceeds codebook capacity {len(codebook)}")
    acc = None
    for f_i, rho_i in zip(functions, codebook.members):
        term = ridgelet_fourier(f_i, rho_i, param_grid)
        acc = term if acc is None else acc + term
    if acc is None:
        raise DomainError("encode_series needs at least one function")
    return acc


def readout_mutate(codebook: GhostCodebook, gamma: ParamDistribution, i: int,
                   input_grid: Grid) -> SampledFunction:
    """Read slot i by running S with activation ρ_i (spectral path): for an
    encoded series the cross terms vanish by orthonormality."""
    if not 0 <= i < len(codebook):
        raise DomainError(f"read index {i} outside codebook of size {len(codebook)}")
    mutated = NetworkOperator(sigma=codebook.members[i], param_grid=gamma.grid,
                              input_grid=input_grid)
    return forward_s_via_fourier(mutated, gamma)


@dataclass(frozen=True)
class ModulationMap:
    """One (i → 0, p → q) slice of the update-map expansion
    A = Σ c^{ijpq} R_j ∘ U_pq ∘ S_i: read ghost slot i, relabel the basis
    content e_p ↦ e_q, write into the visible slot."""

    read_index: int
    write_profile: Profile1D
    basis_e: BasisFamily
    coefficients: np.ndarray | None = None   # optional (p, q) slice c^{i0pq}

    def slice_terms(self):
        n = len(self.basis_e)
        if self.coefficients is None:
            return [(p, p, 1.0 + 0.0j) for p in range(n)]
        c = np.asarray(self.coefficients)
        return [(p, q, complex(c[p, q])) for p in range(c.shape[0])
                for q in range(c.shape[1]) if c[p, q] != 0.0]


def modulate(mod: ModulationMap, gamma: ParamDistribution, codebook: GhostCodebook,
             input_grid: Grid) -> ParamDistribution:
    """A[γ] for the configured slice: γ ↦ R[Σ c_pq ⟨S_i[γ], e_p⟩ e_q ; ρ₀]."""
    n = len(mod.basis_e)
    for p, q, _ in mod.slice_terms():
        if not (0 <= p < n and 0 <= q < n):
            raise DomainError(f"basis index ({p},{q}) out of range for size {n}")
    g = readout_mutate(codebook, gamma, mod.read_index, input_grid)
    projected = np.zeros(input_grid.counts, dtype=complex)
    for p, q, c in mod.slice_terms():
        if c == 0.0:
            continue
        coef = l2_inner(g, mod.basis_e.members[p])
        projected = projected + c * coef * mod.basis_e.members[q].values
    relabeled = SampledFunction._adopt(input_grid, projected)
    return ridgelet_fourier(relabeled, mod.write_profile, gamma.grid)
