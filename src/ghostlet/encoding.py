"""Function-series encoding into ghosts and readout via mutated activations
and modulation.

A ghost codebook is an orthonormal family {ρ_i} in the weighted spectral
space whose member 0 pairs to 1 with the activation and whose members i ≥ 1
pair to zero. A series F = (f₀, f₁, …) is stored as γ_F = Σ R[f_i;ρ_i]: the
plain network S sees only f₀ (all other terms are ghosts), the mutated
network with activation ρ_i reads out f_i, and `modulate` moves a ghost
slot into the visible slot before S is applied. The mutated networks differ
only in the activation, so `readout_mutate` reads any number of slots of one
γ from one sheared γ♯ (`forward_s_fourier`'s first step).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    _checked_family,
    _rho_k_unnormalized,
    admissibility,
    orthonormalize_l2m,
    weighted_space_norm,
)
from .fourier import fourier_inverse
from .transforms import NetworkOperator, _omega_sum, _sheared_sharp, ridgelet_fourier


@dataclass(frozen=True)
class GhostCodebook:
    """The stored activation σ plus an orthonormal family whose slot 0 is the
    visible channel.

    Invariants (checked at construction by `admissibility`, m = 1):
    |⟨⟨σ,ρ₀⟩⟩ − 1| ≤ 1e-6, ⟨⟨σ,ρ_i⟩⟩ `AdmissibilityReport.numerically_zero`
    for i ≥ 1, Gram residual ≤ `GRAM_TOLERANCE`.
    """

    sigma: Profile1D
    members: tuple

    def __len__(self):
        return len(self.members)


def make_ghost_codebook(sigma: Profile1D, n_ghosts: int) -> GhostCodebook:
    """Build a codebook with 1 + n_ghosts slots from Dawson-derivative seeds;
    the caller chooses n_ghosts (`encode-series` takes 2).

    The seeds ρ₀^{(k)}, 1 ≤ k ≤ n_ghosts + 2, are orthonormalized, with σ's
    own spectrum first when σ lies in the weighted space
    (`weighted_space_norm`). Slot 0 is the unit vector along σ's pairings p
    with that basis (⟨⟨σ, Σα_i u_i⟩⟩ = Σ conj(α_i) p_i, so α = p/|p| pairs to
    |p|); for a σ in the space it is σ/‖σ‖ to roundoff, the Cauchy–Schwarz
    equality case. The ghost slots are the basis orthonormalized after slot 0,
    which lies in its span, so one basis vector becomes dependent and is
    skipped. The stored activation is σ/|p|, so slot 0 pairs to exactly 1
    (for tanh the pairing is a dual pairing). The family's Gram residual is
    checked as `gram_schmidt_l2m` checks it (`_checked_family`), and each
    slot's pairing with the stored activation by `admissibility`.
    """
    m, omega_grid = 1, DEFAULT_OMEGA_GRID
    sig_vals = sigma.spectral_values(omega_grid)
    lead = [] if weighted_space_norm(sig_vals, m, omega_grid) is None else [sig_vals]
    seeds = [_rho_k_unnormalized(k).spectral_values(omega_grid) for k in range(1, n_ghosts + 3)]
    basis, _ = orthonormalize_l2m(lead + seeds, m, omega_grid)
    p = np.array([weighted_omega_inner(sig_vals, u, m, omega_grid) for u in basis])
    p_norm = float(np.linalg.norm(p))
    if p_norm < 1e-10:
        raise DomainError("sigma pairs to zero with every candidate; no visible slot")
    u0 = sum(pi * ui for pi, ui in zip(p, basis)) / p_norm
    ghosts = orthonormalize_l2m([u0] + basis, m, omega_grid)[0][1:1 + n_ghosts]
    if len(ghosts) < n_ghosts:
        raise DomainError("not enough independent candidates for the requested ghost count")
    members = _checked_family([f"codebook_{i}" for i in range(1 + n_ghosts)], [u0] + ghosts,
                              m, omega_grid).members
    stored_sigma = sigma.scaled(1.0 / p_norm, name=f"{sigma.name}/|p|")
    reports = [admissibility(stored_sigma, mbr, m) for mbr in members]
    if abs(reports[0].pairing - 1.0) > 1e-6:
        raise DomainError(f"slot-0 pairing {reports[0].pairing:.3e} deviates from 1 beyond 1e-6")
    for i, report in enumerate(reports[1:], start=1):
        if not report.numerically_zero:
            raise DomainError(f"ghost slot {i} pairs to {abs(report.pairing):.3e}, not to zero")
    return GhostCodebook(sigma=stored_sigma, members=members)


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


def readout_mutate(codebook: GhostCodebook, gamma: ParamDistribution, slots: Sequence[int],
                   input_grid: Grid) -> list[SampledFunction]:
    """Read each slot i of `slots` by running S with activation ρ_i on the
    spectral path, `forward_s_via_fourier` of the mutated operator, bit for
    bit: for an encoded series the cross terms vanish by orthonormality. The
    sheared γ♯ does not depend on the activation, so it is built once for
    all slots (`_sheared_sharp`), and each slot adds only its ω sum
    (`_omega_sum`) and the inverse transform."""
    ops = []
    for i in slots:
        if not 0 <= i < len(codebook):
            raise DomainError(f"read index {i} outside codebook of size {len(codebook)}")
        ops.append(NetworkOperator(sigma=codebook.members[i], param_grid=gamma.grid,
                                   input_grid=input_grid))
    sheared, grids = _sheared_sharp(gamma, input_grid)
    return [fourier_inverse(_omega_sum(sheared, op.sigma, grids), input_grid) for op in ops]


def modulate(codebook: GhostCodebook, gamma: ParamDistribution, i: int,
             basis_e: BasisFamily, input_grid: Grid) -> ParamDistribution:
    """The identity slice of the update-map expansion
    A = Σ c^{ijpq} R_j ∘ U_pq ∘ S_i that moves ghost slot i into the visible
    slot: γ ↦ R[Σ_p ⟨S_i[γ], e_p⟩ e_p ; ρ₀], with S_i the readout of slot i
    (`readout_mutate`) and ρ₀ the codebook's slot 0."""
    g, = readout_mutate(codebook, gamma, [i], input_grid)
    projected = np.zeros(input_grid.counts, dtype=complex)
    for e_p in basis_e.members:
        projected = projected + l2_inner(g, e_p) * e_p.values
    relabeled = SampledFunction._adopt(input_grid, projected)
    return ridgelet_fourier(relabeled, codebook.members[0], gamma.grid)
