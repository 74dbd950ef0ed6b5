"""Continuous Fourier transforms on grids, and the fractional bracket
multiplier ⟨∂_ω⟩^t (`fractional_bracket`).

Conventions (all transforms are weighted discrete sums with true phases, not
bare cyclic FFTs, so identities hold in the continuous normalization):

    m-dim forward   f̂(ξ) = ∫ f(x) e^{-i x·ξ} dx
    m-dim inverse   f(x) = (2π)^{-m} ∫ f̂(ξ) e^{+i x·ξ} dξ
    1-dim sharp     φ♯(ω) = ∫ φ(b) e^{-i b ω} db  (the m = 1 forward transform)
    Plancherel      ‖f̂‖² = (2π)^m ‖f‖²

The japanese bracket is ⟨y⟩ = (1 + |y|²)^{1/2}.

Each axis is one product with the weighted kernel e^{±i·dst⊗src}·w_src. `_axis_kernel`
builds it once per (source 1-D grid, destination 1-D grid, sign), read-only, and keeps
at most 8 kernels of at most 2²⁰ entries each; a larger one is built on every call.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import (
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    SpectralFunction,
)
from .parallel import _block_map


# Kernels above 2²⁰ entries (16 MB of complex128) are built per call, so the 8 cached
# ones hold at most 128 MB. The Fourier-slice path uses 4, the largest 1258 × 161.
_KERNEL_CACHE_ENTRIES = 1 << 20
# A transform of more kernel entries × batch columns than this runs as
# `_TRANSFORM_BLOCKS` column blocks, which 1, 2 or 4 cores share evenly. On a
# 2-core AMD EPYC VM with BLAS on one thread, 4 blocks took a 257 × 288 kernel
# times 241 columns (1.8e7 entries) from 1.29 to 0.97 ms, and 3 blocks took a
# 129 × 161 kernel times 161 columns (3.3e6) from 0.25 to 0.37 ms. Those times
# were measured with a fresh pool per `_block_map` call. With the pool that
# `_block_map` now keeps for the process (2-vCPU Xeon, medians of 400 to 1000
# alternating calls, two or three runs): `partial_flat_b` of the slice
# testbed's 241 × 288 spectrum onto 257 b nodes took 2.90–3.26 ms split and
# 3.74–3.95 ms unsplit, and the 129 × 161 kernel times 161 columns took
# 0.70–0.75 ms split and 0.60–0.64 ms unsplit. The split changes a result's
# last bits (4.9e-16 of its peak), and moving the threshold moves the traced
# `fourier` share of the benchmark, so it stays where it is.
_TRANSFORM_SPLIT = 1 << 23
_TRANSFORM_BLOCKS = 4


@lru_cache(maxsize=8)
def _axis_kernel(src: Grid, dst: Grid, sign: float) -> np.ndarray:
    """The read-only kernel e^{sign·i·dst⊗src}·w_src between two 1-D grids."""
    kernel = np.exp(sign * 1j * np.outer(dst.axis(0), src.axis(0))) * src.axis_weights(0)
    kernel.flags.writeable = False
    return kernel


def _axis_transform(values: np.ndarray, axis: int, src: Grid, dst: Grid,
                    sign: float) -> np.ndarray:
    """kernel @ values along `axis`, the other axes flattened into a batch of
    columns. A transform of more than `_TRANSFORM_SPLIT` kernel entries ×
    columns runs as `_TRANSFORM_BLOCKS` column blocks on `_block_map`, a split
    fixed by the array sizes alone, so the result does not depend on the core
    count."""
    big = src.counts[0] * dst.counts[0] > _KERNEL_CACHE_ENTRIES
    kernel = (_axis_kernel.__wrapped__ if big else _axis_kernel)(src, dst, sign)
    moved = np.moveaxis(values, axis, 0)
    cols = moved.reshape(moved.shape[0], -1)
    if kernel.size * cols.shape[1] > _TRANSFORM_SPLIT:
        width = -(-cols.shape[1] // _TRANSFORM_BLOCKS)
        blocks = _block_map(lambda start: kernel @ cols[:, start:start + width],
                            range(0, cols.shape[1], width))
        out = np.concatenate(list(blocks), axis=1)
    else:
        out = kernel @ cols
    return np.moveaxis(out.reshape(kernel.shape[0], *moved.shape[1:]), 0, axis)


def _boundary_decay(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for ax in range(values.ndim):
        sl = [slice(None)] * values.ndim
        for end in (0, -1):
            sl[ax] = end
            edge = max(edge, float(np.max(np.abs(values[tuple(sl)]))))
    return edge / peak


def fourier_forward(u: SampledFunction, output_grid: Grid) -> SpectralFunction:
    """m-dim continuous transform of a sampled function onto a frequency grid."""
    if output_grid.dim != u.grid.dim:
        raise DomainError("frequency grid dimension must match the input grid")
    vals = u.values
    for ax in range(u.grid.dim):
        vals = _axis_transform(vals, ax, u.grid.sub(slice(ax, ax + 1)),
                               output_grid.sub(slice(ax, ax + 1)), -1.0)
    return SpectralFunction._adopt(output_grid, vals)


def fourier_inverse(u: SpectralFunction, output_grid: Grid) -> SampledFunction:
    if output_grid.dim != u.grid.dim:
        raise DomainError("output grid dimension must match the spectrum grid")
    vals = u.values
    for ax in range(u.grid.dim):
        vals = _axis_transform(vals, ax, u.grid.sub(slice(ax, ax + 1)),
                               output_grid.sub(slice(ax, ax + 1)), +1.0)
    return SampledFunction._adopt(output_grid, vals / (2.0 * np.pi) ** u.grid.dim)


def partial_sharp_b(gamma: ParamDistribution, omega_grid: Grid) -> SpectralFunction:
    """1-D transform along the trailing b axis for each fixed a row:
    γ♯(a, ω) = ∫ γ(a, b) e^{-iωb} db."""
    if omega_grid.dim != 1:
        raise DomainError("omega_grid must be 1-D")
    vals = _axis_transform(gamma.values, gamma.grid.dim - 1, gamma.grid.sub(slice(-1, None)),
                           omega_grid, -1.0)
    return SpectralFunction._adopt(gamma.grid.sub(slice(-1)).product(omega_grid), vals)


def partial_flat_b(gamma_sharp: SpectralFunction, b_grid: Grid) -> ParamDistribution:
    """Inverse of partial_sharp_b: back to (a, b) from (a, ω)."""
    if b_grid.dim != 1:
        raise DomainError("b_grid must be 1-D")
    dim = gamma_sharp.grid.dim
    vals = _axis_transform(gamma_sharp.values, dim - 1, gamma_sharp.grid.sub(slice(-1, None)),
                           b_grid, +1.0)
    return ParamDistribution._adopt(gamma_sharp.grid.sub(slice(-1)).product(b_grid),
                                   vals / (2.0 * np.pi))


def fractional_bracket(phi_sharp: SpectralFunction, order: float) -> SpectralFunction:
    """⟨∂_ω⟩^t as a Fourier multiplier: ⟨∂_ω⟩^t[φ♯] = (⟨·⟩^t φ)♯.

    Pipeline: inverse transform to the b domain (a line as wide as the ω box,
    with as many nodes), multiply by ⟨b⟩^t, forward transform back to the same
    ω grid. Precondition: φ♯ decays at the ω boundary,
    `_boundary_decay(phi_sharp.values) <= 1e-6`; above that the pipeline may
    alias, and the result is not checked.

    No program path calls it. It is kept for the layer trace: the benchmark's
    `bench/layertrace.py` lists it among the traced fourier primitives.
    """
    if phi_sharp.grid.dim != 1:
        raise DomainError("fractional_bracket acts on 1-D spectra")
    grid = phi_sharp.grid
    half = max(abs(grid.lower[0]), abs(grid.upper[0]))
    b_grid = Grid.line(-half, half, grid.counts[0])
    phi = fourier_inverse(phi_sharp, b_grid)
    bracket = np.sqrt(1.0 + np.abs(b_grid.axis(0)) ** 2)  # ⟨b⟩
    weighted = SampledFunction._adopt(b_grid, phi.values * bracket ** order)
    return fourier_forward(weighted, grid)
