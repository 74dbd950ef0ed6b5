import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghostlet import (
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    SpectralFunction,
    fourier_forward,
    fourier_inverse,
    fractional_bracket,
    l2_inner,
    l2_norm,
    partial_sharp_b,
    sample,
)
from ghostlet.fourier import (
    _KERNEL_CACHE_ENTRIES,
    _axis_kernel,
    _boundary_decay,
)
XG = Grid.line(-12.0, 12.0, 1024)
WG = Grid.line(-12.0, 12.0, 1024)


def test_zero_maps_to_zero():
    z = sample(XG, lambda x: 0.0 * x)
    assert l2_norm(fourier_forward(z, WG)) == 0.0


def test_gaussian_self_transform():
    u = sample(XG, lambda x: np.exp(-x ** 2 / 2))
    uh = fourier_forward(u, WG)
    target = np.sqrt(2 * np.pi) * np.exp(-WG.axis(0) ** 2 / 2)
    assert np.max(np.abs(uh.values - target)) < 1e-12


def test_plancherel_m1():
    rng = np.random.default_rng(0)
    x = XG.axis(0)
    vals = sum(rng.normal() * np.exp(-((x - c) ** 2) / 2) for c in (-1.0, 0.5, 2.0))
    u = SampledFunction(XG, vals + 0j)
    uh = fourier_forward(u, WG)
    assert l2_norm(uh) ** 2 / l2_norm(u) ** 2 == pytest.approx(2 * np.pi, rel=1e-6)


def test_plancherel_m2():
    g = Grid.symmetric([8.0, 8.0], [129, 129])
    fg = Grid.symmetric([10.0, 10.0], [129, 129])
    u = sample(g, lambda x, y: np.exp(-(x ** 2 + y ** 2) / 2) * (1 + 0.5j))
    uh = fourier_forward(u, fg)
    assert l2_norm(uh) ** 2 / l2_norm(u) ** 2 == pytest.approx((2 * np.pi) ** 2, rel=1e-6)


def test_round_trip_identity():
    rng = np.random.default_rng(5)
    x = XG.axis(0)
    vals = sum(rng.normal() * np.exp(-((x - c) ** 2) / (2 * w ** 2)) * np.cos(k * x)
               for c, w, k in ((-0.5, 1.2, 1.0), (1.0, 1.5, 2.0), (0.0, 2.0, 0.5)))
    u = SampledFunction(XG, vals + 0j)
    back = fourier_inverse(fourier_forward(u, WG), XG)
    assert l2_norm(back - u) / l2_norm(u) < 1e-8


def test_linearity_machine_precision():
    u = sample(XG, lambda x: np.exp(-x ** 2 / 2))
    v = sample(XG, lambda x: x * np.exp(-x ** 2 / 3))
    lhs = fourier_forward(2.0 * u + (1 - 2j) * v, WG)
    rhs = 2.0 * fourier_forward(u, WG) + (1 - 2j) * fourier_forward(v, WG)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1.0)


def test_dimension_mismatch_rejected():
    u = sample(XG, lambda x: np.exp(-x ** 2))
    with pytest.raises(DomainError):
        fourier_forward(u, Grid.symmetric([4.0, 4.0], [17, 17]))


def test_partial_sharp_b_zero():
    pg = Grid((-2.0, -6.0), (2.0, 6.0), (17, 65))
    z = ParamDistribution(pg, np.zeros(pg.counts))
    assert l2_norm(partial_sharp_b(z, WG)) == 0.0


def test_partial_sharp_b_separable_factorization():
    pg = Grid((-4.0, -12.0), (4.0, 12.0), (33, 513))
    g = ParamDistribution(pg, sample(
        pg, lambda a, b: np.exp(-(a - 0.5) ** 2) * np.exp(-(b ** 2) / 2)).values)
    gs = partial_sharp_b(g, WG)
    a = pg.axis(0)
    h = SampledFunction(Grid.line(-12.0, 12.0, 513),
                        np.exp(-(Grid.line(-12.0, 12.0, 513).axis(0) ** 2) / 2) + 0j)
    h_sharp = fourier_forward(h, WG).values
    expected = np.exp(-(a - 0.5) ** 2)[:, None] * h_sharp[None, :]
    assert np.max(np.abs(gs.values - expected)) < 1e-8


def test_partial_sharp_b_gaussian_pair_oracle():
    # per-row dense-quadrature oracle for γ(a,b) = e^{-a²/2} e^{-b²/2}
    pg = Grid((-4.0, -12.0), (4.0, 12.0), (33, 513))
    g = ParamDistribution(pg, sample(
        pg, lambda a, b: np.exp(-(a ** 2) / 2) * np.exp(-(b ** 2) / 2)).values)
    gs = partial_sharp_b(g, WG)
    a = pg.axis(0)
    omega = WG.axis(0)
    expected = np.exp(-(a ** 2) / 2)[:, None] * (np.sqrt(2 * np.pi)
                                                 * np.exp(-(omega ** 2) / 2))[None, :]
    assert np.max(np.abs(gs.values - expected)) < 1e-10


def test_fractional_bracket_order_zero_identity():
    u = sample(XG, lambda x: np.exp(-x ** 2 / 2))
    spec = fourier_forward(u, WG)
    out = fractional_bracket(SpectralFunction(WG, spec.values), 0.0)
    assert np.max(np.abs(out.values - spec.values)) < 1e-10


def test_fractional_bracket_inverse_pair():
    u = sample(XG, lambda x: np.exp(-x ** 2 / 2))
    spec = SpectralFunction(WG, fourier_forward(u, WG).values)
    out = fractional_bracket(fractional_bracket(spec, 1.3), -1.3)
    assert np.max(np.abs(out.values - spec.values)) < 1e-6


def test_fractional_bracket_order_two_oracle():
    # ⟨∂⟩²[ĝ] must equal the dense-quadrature transform of (1+b²)·g
    g_sharp = SpectralFunction(WG, np.sqrt(2 * np.pi) * np.exp(-WG.axis(0) ** 2 / 2) + 0j)
    got = fractional_bracket(g_sharp, 2.0)
    fine = Grid.line(-12.0, 12.0, 4096)
    oracle = fourier_forward(
        sample(fine, lambda b: (1 + b ** 2) * np.exp(-b ** 2 / 2)), WG)
    assert np.max(np.abs(got.values - oracle.values)) < 1e-8


def test_fractional_bracket_self_adjoint():
    phi = SpectralFunction(WG, np.sqrt(2 * np.pi) * np.exp(-WG.axis(0) ** 2 / 2) + 0j)
    psi = SpectralFunction(WG, WG.axis(0) * np.exp(-WG.axis(0) ** 2 / 3) + 0j)
    lhs = l2_inner(phi, fractional_bracket(psi, 1.5))
    rhs = l2_inner(fractional_bracket(phi, 1.5), psi)
    assert abs(lhs - rhs) < 1e-6


def test_fractional_bracket_warns_on_nondecaying_input():
    """A spectrum that does not decay at the ω boundary fails the stated
    precondition of `fractional_bracket`, checked by `_boundary_decay`."""
    phi_sharp = SpectralFunction(WG, np.ones(1024, dtype=complex))
    assert _boundary_decay(phi_sharp.values) > 1e-6
    assert np.all(np.isfinite(fractional_bracket(phi_sharp, 1.0).values))


def _plain_kernel(src, dst, sign):
    """The uncached kernel formula the Fourier transforms use."""
    return np.exp(sign * 1j * np.outer(dst.axis(0), src.axis(0))) * src.axis_weights(0)


def test_axis_kernel_is_the_plain_formula_and_read_only():
    src, dst = Grid.line(-3.0, 5.0, 37), Grid.line(-7.0, 7.0, 44)
    for sign in (-1.0, 1.0):
        kernel = _axis_kernel(src, dst, sign)
        assert np.array_equal(kernel, _plain_kernel(src, dst, sign))
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0, 0] = 0.0


def test_cached_transforms_match_the_plain_kernels_bit_for_bit():
    """A 2-D forward and inverse transform equal the per-axis products with
    kernels built by the plain formula on every call."""
    xg, fg = Grid.symmetric([3.0, 4.0], [25, 31]), Grid.symmetric([5.0, 6.0], [28, 36])
    u = sample(xg, lambda x, y: np.exp(-(x ** 2 + (y - 0.5) ** 2) / 2) * (1 + 0.3j * x))
    want = u.values
    for ax in range(2):
        line = slice(ax, ax + 1)
        kernel = _plain_kernel(xg.sub(line), fg.sub(line), -1.0)
        want = np.moveaxis(np.tensordot(kernel, np.moveaxis(want, ax, 0), axes=(1, 0)), 0, ax)
    spec = fourier_forward(u, fg)
    assert np.array_equal(spec.values, want)
    back = want
    for ax in range(2):
        line = slice(ax, ax + 1)
        kernel = _plain_kernel(fg.sub(line), xg.sub(line), +1.0)
        back = np.moveaxis(np.tensordot(kernel, np.moveaxis(back, ax, 0), axes=(1, 0)), 0, ax)
    assert np.array_equal(fourier_inverse(spec, xg).values, back / (2.0 * np.pi) ** 2)


def test_transforms_on_the_same_grids_build_one_kernel():
    _axis_kernel.cache_clear()
    bg, og = Grid.line(-4.0, 4.0, 33), Grid.line(-6.0, 6.0, 40)
    u = sample(bg, lambda b: np.exp(-b ** 2 / 2))
    v = sample(bg, lambda b: b * np.exp(-b ** 2))
    fourier_forward(u, og)
    fourier_forward(v, og)
    pg = Grid((-1.0, -4.0), (1.0, 4.0), (5, 33))
    gamma = ParamDistribution(pg, sample(pg, lambda a, b: np.exp(-(a * b) ** 2)).values)
    partial_sharp_b(gamma, og)
    info = _axis_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    kernel = _axis_kernel(bg, og, -1.0)
    assert _axis_kernel(bg, og, -1.0) is kernel
    assert _axis_kernel(bg, og, +1.0) is not kernel
    assert _axis_kernel(bg, Grid.line(-6.0, 6.0, 42), -1.0) is not kernel
    assert _axis_kernel.cache_info().currsize == 3


def test_kernel_above_the_cap_is_not_retained():
    _axis_kernel.cache_clear()
    src, dst = Grid.line(-4.0, 4.0, 1025), Grid.line(-8.0, 8.0, 1025)
    assert src.counts[0] * dst.counts[0] > _KERNEL_CACHE_ENTRIES
    u = sample(src, lambda x: np.exp(-x ** 2 / 2))
    got = fourier_forward(u, dst).values
    assert _axis_kernel.cache_info().currsize == 0
    assert np.array_equal(got, np.tensordot(_plain_kernel(src, dst, -1.0), u.values,
                                            axes=(1, 0)))


def test_blocked_axis_transform_matches_one_tensordot():
    """The Fourier-slice testbed's (241, 288) → 257 step runs as column blocks
    when BLAS is pinned to one thread; it agrees with one tensordot of the whole
    batch to 1e-13 relative."""
    from ghostlet.fourier import _TRANSFORM_SPLIT, _axis_kernel, _axis_transform

    rng = np.random.default_rng(12)
    values = rng.standard_normal((241, 288)) + 1j * rng.standard_normal((241, 288))
    omega, b_line = Grid.line(-12.0, 12.0, 288), Grid.line(-16.0, 16.0, 257)
    assert 257 * 288 * 241 > _TRANSFORM_SPLIT
    got = _axis_transform(values, 1, omega, b_line, 1.0)
    want = np.tensordot(values, _axis_kernel(omega, b_line, 1.0), axes=(1, 1))
    assert got.shape == (241, 257)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
