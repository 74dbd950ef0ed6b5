import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghostlet import (
    DomainError,
    Grid,
    NetworkOperator,
    ParamDistribution,
    SampledFunction,
    adjoint,
    admissibility,
    forward_s,
    forward_s_fourier,
    forward_s_via_fourier,
    fourier_forward,
    gaussian_derivative_profile,
    l2_inner,
    l2_norm,
    make_operator,
    make_rho_family,
    relu_profile,
    ridgelet,
    ridgelet_fourier,
    sample,
    tanh_profile,
)
from ghostlet.grids import (
    DEFAULT_OMEGA_GRID,
    UnsupportedProfileError,
    spectral_grids,
    weighted_omega_norm,
)
from ghostlet.profiles import Profile1D, dawson_profile

from conftest import bump_mix, rel_l2


def test_operator_normalization(op3):
    assert op3.is_normalized
    assert op3.sigma_norm == pytest.approx(1.0, rel=1e-6)
    # make_operator divides gauss_d3 by its weighted norm, √(4π)
    x = np.array([-2.5, -1.0, 0.5, 2.0])
    scale = gaussian_derivative_profile(3).real_eval(x) / op3.sigma.real_eval(x)
    assert_allclose(scale, np.sqrt(4 * np.pi), rtol=1e-6)
    vals = op3.sigma.spectral_values(DEFAULT_OMEGA_GRID)
    assert weighted_omega_norm(vals, 1, DEFAULT_OMEGA_GRID) == pytest.approx(1.0, rel=1e-9)


def test_tanh_operator_has_no_weighted_norm(param_grid, input_grid):
    op = make_operator(tanh_profile(), param_grid, input_grid)
    assert op.sigma_norm is None


def test_forward_s_zero(op3):
    z = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
    assert l2_norm(forward_s(op3, z)) == 0.0


def test_forward_s_linearity(op3, hermite12, ghost_profile):
    from ghostlet.nullspace import ridgelet_atom

    g1 = ridgelet_fourier(bump_mix(11), op3.sigma, op3.param_grid)
    g2 = ridgelet_atom(hermite12, 2, ghost_profile, op3.param_grid)
    lhs = forward_s(op3, 1.5 * g1 + (0.5 - 1j) * g2)
    rhs = 1.5 * forward_s(op3, g1) + (0.5 - 1j) * forward_s(op3, g2)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1.0)


def test_forward_s_bump_approaches_single_neuron(op3):
    """γ → normalized bump at (a₀, b₀) makes S[γ] → σ(a₀·x − b₀).

    S[bump] − σ(a₀x − b₀) is the O(w²) smoothing bias of the bump, so the
    error falls about 4× per halving of w (8.2% of max|σ| at w = 0.1, 0.54%
    at w = 0.025). The test's own parameter grid resolves the narrowest bump
    (Δ = w_min); on the operator's Δb = 0.375 a w = 0.1 bump keeps only 75%
    of its mass.
    """
    a0, b0 = 1.5, 2.0
    local = Grid((a0 - 1.5, b0 - 1.5), (a0 + 1.5, b0 + 1.5), (121, 121))
    op = NetworkOperator(op3.sigma, local, op3.input_grid)
    x = op.input_grid.axis(0)
    oracle = np.asarray(op.sigma.real_eval(a0 * x - b0))
    errs = []
    for w in (0.4, 0.2, 0.1, 0.05, 0.025):
        g = ParamDistribution(local, sample(
            local, lambda a, b: np.exp(-((a - a0) ** 2 + (b - b0) ** 2) / (2 * w ** 2))
            / (2 * np.pi * w ** 2)).values)
        out = forward_s(op, g)
        errs.append(float(np.max(np.abs(out.values - oracle))))
    assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
    assert errs[-1] < 0.02 * np.max(np.abs(oracle))
    assert errs[-2] / errs[-1] == pytest.approx(4.0, rel=0.1)


def test_forward_s_kept_kernel_matches_streamed(monkeypatch):
    """An operator small enough to keep its σ(a·x − b) matrix gives the same
    S[γ] as one that streams it in chunks, and both match the plain complex
    sum Σ_k w_k γ_k σ(a_k·x − b_k)."""
    import ghostlet.transforms as transforms

    pg = Grid((-6.0, -12.0), (6.0, 12.0), (61, 65))
    ig = Grid.line(-4.0, 4.0, 81)
    sigma = gaussian_derivative_profile(3)
    rng = np.random.default_rng(11)
    gamma = ParamDistribution(pg, rng.standard_normal(pg.counts)
                              + 1j * rng.standard_normal(pg.counts))
    kept = make_operator(sigma, pg, ig)
    assert kept.kernel is not None and not np.iscomplexobj(kept.kernel)
    cached = forward_s(kept, gamma).values
    monkeypatch.setattr(transforms, "_CHUNK", 20_000)  # 4 x nodes per chunk
    streaming = make_operator(sigma, pg, ig)
    assert streaming.kernel is None
    streamed = forward_s(streaming, gamma).values
    pts = pg.points()
    kernel = np.asarray(kept.sigma.real_eval(pts[:, :1] @ ig.points().T - pts[:, 1:]),
                        dtype=complex)
    reference = ((gamma.values * pg.weights()).ravel()) @ kernel
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(cached - streamed)) <= 1e-13 * scale
    assert np.max(np.abs(cached - reference)) <= 1e-13 * scale


def test_ridgelet_matches_complex_sum():
    """R[f;ρ] for a real and a complex ρ against the plain complex sum
    Σ_x w_x f(x) conj(ρ(a·x − b))."""
    pg = Grid((-3.0, -6.0), (3.0, 6.0), (31, 33))
    ig = Grid.line(-4.0, 4.0, 41)
    f = sample(ig, lambda x: np.exp(-x ** 2) * (1.0 + 0.5j * x))
    pts = pg.points()
    arg = pts[:, :1] @ ig.points().T - pts[:, 1:]
    for rho in (gaussian_derivative_profile(2), make_rho_family(2, sigma=tanh_profile())[2]):
        got = ridgelet(f, rho, pg).values.ravel()
        reference = np.conj(np.asarray(rho.real_eval(arg), dtype=complex)) \
            @ (f.values * ig.weights())
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference)), rho.name


def test_forward_s_requires_matching_grid(op3):
    other = Grid((-2.0, -2.0), (2.0, 2.0), (9, 9))
    with pytest.raises(DomainError):
        forward_s(op3, ParamDistribution(other, np.zeros((9, 9))))


def test_ridgelet_zero(op3):
    z = SampledFunction(op3.input_grid, np.zeros(op3.input_grid.counts))
    assert l2_norm(ridgelet(z, op3.sigma, op3.param_grid)) == 0.0


def test_ridgelet_spectrum_is_signed_and_spread():
    """For compactly supported f the spectrum changes sign and is not
    compactly supported in the box."""
    xg = Grid.line(-1.0, 1.0, 201)
    pg = Grid((-6.0, -6.0), (6.0, 6.0), (73, 73))
    f = sample(xg, lambda x: np.sin(2 * np.pi * x))
    rho2 = make_rho_family(2, sigma=tanh_profile())[2]
    spec = ridgelet(f, rho2, pg).values.real
    assert spec.min() < -0.05 * spec.max()
    edge = np.abs(np.concatenate([spec[0, :], spec[-1, :], spec[:, 0], spec[:, -1]]))
    assert edge.max() > 1e-4  # not compactly supported inside the box


def test_ridgelet_paths_agree(op3):
    f = bump_mix(21)
    direct = ridgelet(f, op3.sigma, op3.param_grid)
    fast = ridgelet_fourier(f, op3.sigma, op3.param_grid)
    assert rel_l2(fast, direct) < 5e-3


def test_forward_paths_agree(op3):
    gam = ridgelet_fourier(bump_mix(22), op3.sigma, op3.param_grid)
    direct = forward_s(op3, gam)
    fast = forward_s_via_fourier(op3, gam)
    assert rel_l2(fast, direct) < 5e-3


def test_ridgelet_norm_identity(op3):
    # ‖R[f;ρ]‖² = (2π)^m ‖f‖² ‖ρ‖²_{L²ₘ} / (2π) (exact at m = 1)
    f = bump_mix(23)
    r = ridgelet_fourier(f, op3.sigma, op3.param_grid)
    expect = l2_norm(f) ** 2 * 1.0  # ‖σ‖_{L²ₘ} = 1
    assert l2_norm(r) ** 2 == pytest.approx(expect, rel=1e-3)


def test_ridgelet_boundedness(op3, ghost_profile):
    f = bump_mix(24)
    r = ridgelet_fourier(f, ghost_profile, op3.param_grid)
    bound = (2 * np.pi) ** 0 * l2_norm(f) ** 2 * 1.0  # unit-norm profile
    assert l2_norm(r) ** 2 <= bound * (1 + 1e-6)


def _reconstruct(op, f, rho):
    """S[R[f;ρ]] on the direct paths, and ⟨⟨σ,ρ⟩⟩."""
    pair = admissibility(op.sigma, rho, op.m).pairing
    return forward_s(op, ridgelet(f, rho, op.param_grid)), pair


def test_reconstruct_admissible(op3):
    f = bump_mix(25)
    out, pair = _reconstruct(op3, f, op3.sigma)
    assert pair == pytest.approx(1.0, abs=1e-9)
    assert rel_l2(out, f) < 1e-2


def _reconstruct_by_slices(op, f, rho):
    """S[R[f;ρ]] on the Fourier-slice path, and ⟨⟨σ,ρ⟩⟩."""
    out = forward_s_via_fourier(op, ridgelet_fourier(f, rho, op.param_grid))
    return out, admissibility(op.sigma, rho, op.m).pairing


def test_reconstruct_nonadmissible_degenerates(op3, ghost_profile):
    f = bump_mix(26)
    out, pair = _reconstruct_by_slices(op3, f, ghost_profile)
    assert abs(pair) < 1e-8
    assert l2_norm(out) < 0.05 * l2_norm(f)


def test_reconstruct_zero_input(op3, ghost_profile):
    z = SampledFunction(op3.input_grid, np.zeros(op3.input_grid.counts))
    out, _ = _reconstruct_by_slices(op3, z, ghost_profile)
    assert l2_norm(out) == 0.0


def test_reconstruct_scaling_sesquilinear(op3):
    f = bump_mix(27)
    alpha = 0.7 - 1.1j
    out1, pair1 = _reconstruct_by_slices(op3, f, op3.sigma)
    out2, pair2 = _reconstruct_by_slices(op3, f, op3.sigma.scaled(alpha, name="alpha*sigma"))
    assert pair2 == pytest.approx(np.conj(alpha) * pair1, rel=1e-9)
    assert rel_l2(out2, np.conj(alpha) * out1) < 1e-9


def test_reconstruct_rejects_relu_pairing(op3):
    f = bump_mix(28)
    with pytest.raises(UnsupportedProfileError):
        _reconstruct(op3, f, relu_profile())


def test_adjoint_zero(op3):
    z = SampledFunction(op3.input_grid, np.zeros(op3.input_grid.counts))
    assert l2_norm(adjoint(op3, z)) == 0.0


def test_adjoint_plancherel_and_reconstruction(op3):
    f = bump_mix(29)
    sf = adjoint(op3, f)
    assert l2_norm(sf) / l2_norm(f) == pytest.approx(1.0, abs=1e-2)
    assert rel_l2(forward_s(op3, sf), f) < 1e-2


def test_adjoint_duality_exact_on_grid(op3):
    f = bump_mix(30)
    gam = ridgelet_fourier(bump_mix(31), op3.sigma, op3.param_grid)
    lhs = l2_inner(f, forward_s(op3, gam))
    rhs = l2_inner(adjoint(op3, f), gam)
    assert abs(lhs - rhs) / abs(lhs) < 1e-3


def test_adjoint_needs_a_finite_weighted_norm(param_grid, input_grid):
    op = make_operator(tanh_profile(), param_grid, input_grid)
    with pytest.raises(DomainError, match="finite weighted norm"):
        adjoint(op, bump_mix(39))


def test_adjoint_refuses_f_off_the_input_grid(op3):
    """As `forward_s` refuses a γ off the parameter grid."""
    f = bump_mix(40, grid=Grid.line(-8.0, 8.0, 81))
    with pytest.raises(DomainError, match="different grid"):
        adjoint(op3, f)


def test_separation_of_variables(op3):
    """Plugging the separable spectrum γ♯(a/ω,ω) = f̂(a)conj(ρ♯(ω)) into the
    spectral S returns ⟨⟨σ,ρ⟩⟩·f̂ (the one-line reconstruction)."""
    f = bump_mix(32)
    rho = op3.sigma
    gam = ridgelet_fourier(f, rho, op3.param_grid)
    shat = forward_s_fourier(op3, gam)
    fhat = fourier_forward(f, shat.grid)
    pair = admissibility(op3.sigma, rho, 1).pairing
    assert l2_norm(shat - pair * fhat) / l2_norm(fhat) < 1e-3


def _forward_s_fourier_per_omega_loop(op, gamma):
    """Reference for m = 1: one scipy CubicSpline of γ♯(·, ω) per ω node,
    evaluated at ξ/ω inside the a box and summed with the weights of the
    ω trapezoid."""
    from scipy.interpolate import CubicSpline

    from ghostlet import partial_sharp_b

    grids = spectral_grids(op.param_grid, op.input_grid)
    omega_grid = grids.omega
    omega = omega_grid.axis(0)
    gam_sharp = partial_sharp_b(gamma, omega_grid)
    weight = op.sigma.spectral_values(omega_grid) * np.abs(omega) ** -1.0 \
        * omega_grid.axis_weights(0)
    a_nodes = op.param_grid.axis(0)
    xi = grids.xi.axis(0)
    acc = np.zeros(len(xi), dtype=complex)
    for i, om in enumerate(omega):
        spline = CubicSpline(a_nodes, gam_sharp.values[:, i])
        pos = xi / om
        inside = (pos >= a_nodes[0]) & (pos <= a_nodes[-1])
        row = np.zeros(len(xi), dtype=complex)
        row[inside] = spline(pos[inside])
        acc += row * weight[i]
    return acc


def test_forward_s_fourier_m1_matches_per_omega_spline_loop(op3, hermite12, ghost_profile):
    from ghostlet.nullspace import ridgelet_atom

    gam = ridgelet_fourier(bump_mix(35), op3.sigma, op3.param_grid) \
        + 0.6 * ridgelet_atom(hermite12, 3, ghost_profile, op3.param_grid)
    got = forward_s_fourier(op3, gam).values
    want = _forward_s_fourier_per_omega_loop(op3, gam)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_slice_path_m2_matches_direct():
    """m = 2: the Fourier-slice R and S agree with direct quadrature."""
    input_grid = Grid((-4.0, -4.0), (4.0, 4.0), (33, 33))
    param_grid = Grid((-4.0, -4.0, -16.0), (4.0, 4.0, 16.0), (33, 33, 65))
    op = make_operator(gaussian_derivative_profile(4), param_grid, input_grid)
    f = sample(input_grid, lambda x, y: np.exp(-(x - 0.5) ** 2 / 1.28 - (y + 0.3) ** 2 / 2.0))
    r_direct = ridgelet(f, op.sigma, param_grid)
    r_slice = ridgelet_fourier(f, op.sigma, param_grid)
    assert rel_l2(r_slice, r_direct) < 1e-3
    s_direct = forward_s(op, r_direct)
    assert rel_l2(forward_s_via_fourier(op, r_direct), s_direct) < 2e-2


@pytest.mark.parametrize("param_grid, input_grid, omega, xi, fhat", [
    # the compact testbed (conftest's PARAM_GRID, INPUT_GRID)
    (Grid((-12.0, -48.0), (12.0, 48.0), (241, 257)), Grid.line(-8.0, 8.0, 161),
     ((288,), (0.9 * np.pi / 0.375,)), ((64,), (10.0,)), ((1258,), (10 * np.pi,))),
    # the finite-model defaults
    (Grid((-10.0, -32.0), (10.0, 32.0), (161, 129)), Grid.line(-6.0, 6.0, 121),
     ((144,), (0.9 * np.pi / 0.5,)), ((48,), (10.0,)), ((944,), (10 * np.pi,))),
    # the m = 2 grids of test_slice_path_m2_matches_direct
    (Grid((-4.0, -4.0, -16.0), (4.0, 4.0, 16.0), (33, 33, 65)),
     Grid((-4.0, -4.0), (4.0, 4.0), (33, 33)),
     ((72,), (0.9 * np.pi / 0.5,)), ((32, 32), (10.0, 10.0)),
     ((251, 251), (4 * np.pi, 4 * np.pi))),
    # fine and wide enough for every cap: ω at 8, ξ at 16, f̂ at 64 and 16,001 nodes
    (Grid((-12.0, -48.0), (12.0, 48.0), (241, 513)), Grid.line(-64.0, 64.0, 4097),
     ((306,), (8.0,)), ((816,), (16.0,)), ((16001,), (64.0,))),
])
def test_spectral_grids_are_pinned(param_grid, input_grid, omega, xi, fhat):
    """The slice path's ω, ξ and f̂ grids (node counts, half-widths): a
    change to the sampling rules shows here first."""
    grids = spectral_grids(param_grid, input_grid)
    for grid, (counts, half) in zip((grids.omega, grids.xi, grids.fhat), (omega, xi, fhat)):
        assert grid.counts == counts
        assert grid.upper == pytest.approx(half)
        assert grid.lower == tuple(-h for h in grid.upper)
    assert all(n % 2 == 0 for n in grids.omega.counts + grids.xi.counts)
    assert grids.omega.straddles_zero()


def test_forward_s_fourier_needs_spectrum(param_grid, input_grid):
    op = NetworkOperator(relu_profile(), param_grid, input_grid)
    gam = ParamDistribution(param_grid, np.zeros(param_grid.counts))
    with pytest.raises(UnsupportedProfileError):
        forward_s_fourier(op, gam)


def test_ridgelet_integrates_by_the_trapezoid_rule_only(op3):
    from ghostlet.grids import MONTE_CARLO, QuadratureScheme

    with pytest.raises(DomainError):
        ridgelet(bump_mix(38), op3.sigma, op3.param_grid, QuadratureScheme(MONTE_CARLO))


@pytest.mark.parametrize("m", [1, 2])
def test_blocked_kernel_sums_match_complex_sum(monkeypatch, m):
    """_neuron_sum and ridgelet, cut into many blocks, match the plain complex
    sums Σ_k c_k σ(a_k·x − b_k) and Σ_x w_x f(x) conj(ρ(a·x − b)), for a real
    and a complex evaluator."""
    import ghostlet.transforms as transforms

    monkeypatch.setattr(transforms, "_BLOCK", 500)
    rng = np.random.default_rng(5 + m)
    ig = Grid.line(-4.0, 4.0, 41) if m == 1 else Grid((-3.0, -3.0), (3.0, 3.0), (9, 11))
    pg = Grid((-3.0,) * m + (-6.0,), (3.0,) * m + (6.0,),
              (31, 33) if m == 1 else (7, 7, 9))
    pts, x_nodes = pg.points(), ig.points()
    coeff = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    f = sample(ig, lambda *xs: np.exp(-sum(x ** 2 for x in xs)) * (1.0 + 0.5j * xs[0]))
    for prof in (gaussian_derivative_profile(2),
                 dawson_profile("rho2", 2, 0.3 + 0.2j)):
        kernel = np.asarray(prof.real_eval(pts[:, :-1] @ x_nodes.T - pts[:, -1:]),
                            dtype=complex)
        got = transforms._neuron_sum(pts[:, :-1], pts[:, -1], coeff, x_nodes, prof.real_eval)
        reference = coeff @ kernel
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference)), prof.name
        got = ridgelet(f, prof, pg).values.ravel()
        reference = np.conj(kernel) @ (f.values * ig.weights()).ravel()
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference)), prof.name


def test_block_results_do_not_depend_on_core_count(monkeypatch):
    """The blocks are fixed by array sizes and partial sums are added in block
    order, so 1 reported core (inline) and 4 (pool) give the same bits; with 4
    cores every block runs on a worker thread where BLAS is pinned, and on the
    calling thread where it is not. `BLAS_PINNED` is set here, so the pool is
    exercised on any BLAS build. The blocked axis transform is the
    Fourier-slice testbed's (241, 288) → 257 step."""
    import os
    import sys
    import threading

    import ghostlet.parallel as parallel
    import ghostlet.transforms as transforms
    from ghostlet.experiments import _mc_ridgelet_field
    from ghostlet.fourier import _axis_transform

    monkeypatch.setattr(transforms, "_BLOCK", 2_000)
    pg = Grid((-3.0, -6.0), (3.0, 6.0), (31, 33))
    ig = Grid.line(-4.0, 4.0, 41)
    pts = pg.points()
    rng = np.random.default_rng(9)
    coeff = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    f = sample(ig, lambda x: np.exp(-x ** 2) * (1.0 + 0.5j * x))
    sigma = gaussian_derivative_profile(3)
    rho = make_rho_family(2, sigma=tanh_profile())[2]
    spectrum = rng.standard_normal((241, 288)) + 1j * rng.standard_normal((241, 288))
    omega, b_line = Grid.line(-12.0, 12.0, 288), Grid.line(-16.0, 16.0, 257)
    threads = set()

    def tracked(prof):
        def evaluate(b):
            threads.add(threading.get_ident())
            return prof.real_eval(b)
        return evaluate

    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for pinned, cores in ((True, 1), (True, 4), (False, 4)):
            monkeypatch.setattr(parallel, "BLAS_PINNED", pinned)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
            threads.clear()
            runs[pinned, cores] = (
                transforms._neuron_sum(pts[:, :1], pts[:, 1], coeff, ig.points(),
                                       tracked(sigma)),
                ridgelet(f, rho, pg).values,
                _mc_ridgelet_field(lambda xs: np.sin(2.0 * np.pi * xs), rho, pg,
                                   Grid.line(-1.0, 1.0, 5), 40, np.random.default_rng(3)),
                _axis_transform(spectrum, 1, omega, b_line, 1.0),
            )
            main_only = threads == {threading.get_ident()}
            assert main_only == (not pinned or cores == 1), (pinned, cores)
    finally:
        sys.setswitchinterval(interval)
    for run in ((True, 4), (False, 4)):
        for one, other in zip(runs[True, 1], runs[run]):
            assert one.dtype == other.dtype
            np.testing.assert_array_equal(one, other)


def test_make_operator_propagates_evaluator_bugs(param_grid, input_grid):
    """Only a DomainError means "σ not normalizable"; any other error in a
    spectral evaluator is a bug and reaches the caller."""
    def broken(w):
        raise TypeError("bug in a spectral evaluator")

    sigma = Profile1D("broken", real_eval=np.tanh, spectral_eval=broken)
    with pytest.raises(TypeError, match="bug in a spectral evaluator"):
        make_operator(sigma, param_grid, input_grid)
    for sigma in (tanh_profile(), relu_profile()):
        assert make_operator(sigma, param_grid, input_grid).sigma_norm is None, sigma.name
