"""Shared fixtures: the m = 1 operator testbed, orthonormal systems, and
random band-limited input generators.

Grid choices (see also the module docstrings): the parameter box must be wide
enough in a that the ridgelet fields' O(a^{-(2k+1)}) energy tails (k = number
of vanishing moments of the activation) fall below the acceptance tolerances,
and fine enough in b that the operator ω grid stays below the b Nyquist.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from ghostlet import (
    Grid,
    SampledFunction,
    gaussian_derivative_profile,
    gram_schmidt_l2m,
    hermite_basis,
    l2_norm,
    make_nonadmissible,
    make_operator,
    make_rho_family,
)
from ghostlet.nullspace import build_atoms
from ghostlet.profiles import _rho_k_unnormalized

INPUT_GRID = Grid.line(-8.0, 8.0, 161)
PARAM_GRID = Grid((-12.0, -48.0), (12.0, 48.0), (241, 257))


@pytest.fixture(scope="session")
def input_grid():
    return INPUT_GRID


@pytest.fixture(scope="session")
def param_grid():
    return PARAM_GRID


@pytest.fixture(scope="session")
def op3():
    """Normalized third-Gaussian-derivative operator (the projector testbed)."""
    return make_operator(gaussian_derivative_profile(3), PARAM_GRID, INPUT_GRID)


@pytest.fixture(scope="session")
def op1():
    """Normalized first-Gaussian-derivative operator."""
    return make_operator(gaussian_derivative_profile(1), PARAM_GRID, INPUT_GRID)


@pytest.fixture(scope="session")
def rho_family5(op3):
    return make_rho_family(5, sigma=op3.sigma)


@pytest.fixture(scope="session")
def ghost_profile(op3, rho_family5):
    """Non-admissible, unit-norm, smooth near ω = 0 (k = 3,5 combination)."""
    return make_nonadmissible(op3.sigma, rho_family5[3], rho_family5[5])


@pytest.fixture(scope="session")
def hermite12(input_grid):
    return hermite_basis(12, input_grid)


@pytest.fixture(scope="session")
def rho_basis6():
    return gram_schmidt_l2m([_rho_k_unnormalized(k) for k in range(1, 7)], m=1)


@pytest.fixture(scope="session")
def atoms126(hermite12, rho_basis6):
    return build_atoms(hermite12, rho_basis6, PARAM_GRID, (12, 6))


def bump_mix(seed, grid=INPUT_GRID, n=3, width_min=1.3, center_max=2.0):
    """Random normalized mixture of wide Gaussian bumps (band-limited)."""
    rng = np.random.default_rng(seed)
    x = grid.axis(0)
    vals = np.zeros_like(x, dtype=complex)
    for _ in range(n):
        c = rng.uniform(-center_max, center_max)
        w = rng.uniform(width_min, width_min + 0.7)
        vals += (rng.normal() + 1j * rng.normal()) * np.exp(-((x - c) ** 2) / (2 * w ** 2))
    f = SampledFunction(grid, vals)
    return f * (1.0 / l2_norm(f))


def rel_l2(u, v):
    return l2_norm(u - v) / l2_norm(v)


def blas_threads_env(threads: str) -> dict:
    """The environment of a fresh Python process that imports this checkout's
    ghostlet, with OpenBLAS started on `threads` threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
