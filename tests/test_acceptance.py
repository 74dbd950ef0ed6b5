"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
Appendix-style reconstruction criterion asserts the stated thresholds for all
four ridgelet profiles; see the report's box_gain diagnostics for the
truncation analysis of the (a,b) ∈ [−6,6]² box.
"""
import time

import numpy as np
import pytest

from ghostlet import (
    Grid,
    LayerSpec,
    NascentDelta,
    ParamDistribution,
    SampledFunction,
    adjoint,
    admissibility,
    density_expand,
    encode_series,
    forward_s,
    forward_s_via_fourier,
    gaussian_derivative_profile,
    generalization_bound,
    gram_schmidt_l2m,
    hermite_basis,
    l2_inner,
    l2_norm,
    layer_norms,
    lazy_solution,
    make_ghost_codebook,
    make_operator,
    make_rho_family,
    mollify,
    project,
    readout_mutate,
    ridgelet,
    ridgelet_fourier,
    sample,
    sample_parameters,
    smooth_convolve,
    structure_decompose,
    weighted_omega_inner,
)
from ghostlet.experiments import ExperimentConfig, run_subcommand
from ghostlet.finite_models import EXCLUSIVE, INCLUSIVE, finite_ridgelet_coeffs
from ghostlet.grids import DEFAULT_OMEGA_GRID, spectral_grids, weighted_omega_norm
from ghostlet.nullspace import build_atoms, ridgelet_atom
from ghostlet.profiles import _rho_k_unnormalized

from conftest import bump_mix, rel_l2


def check(num, desc, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} — {detail}")
    return ok, f"criterion {num}: {desc} — {detail}"


@pytest.fixture(scope="module")
def appendix_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("appendix_c")
    cfg = ExperimentConfig(experiment="appendix-c", seed=20210604, output_dir=str(out))
    start = time.time()
    report = run_subcommand(cfg)
    report.metrics["_wall_seconds"] = time.time() - start
    return report


def test_criterion_01_appendix_reconstruction(appendix_report):
    m = appendix_report.metrics
    per_k = m["_wall_seconds"] / 4.0
    results = []
    for k in (2, 4):
        err = m[f"recon_rel_error_rho{k}"]
        results.append(check(
            1, f"rho{k} reconstruction rel L2 error <= 0.1", err <= 0.1,
            f"error = {err:.4f}, box gain at 2π = {m[f'box_gain_rho{k}']:.3f}"))
    for k in (1, 3):
        ratio = m[f"residual_energy_ratio_rho{k}"]
        results.append(check(
            1, f"rho{k} residual energy ratio <= 0.05", ratio <= 0.05,
            f"ratio = {ratio:.4f}"))
    results.append(check(
        1, "runtime <= 2 min per k", per_k <= 120.0, f"{per_k:.1f}s per k"))
    failed = [msg for ok, msg in results if not ok]
    assert not failed, "; ".join(failed)


def test_criterion_02_admissibility_table(appendix_report):
    sigma = __import__("ghostlet").tanh_profile()
    fam = make_rho_family(4, sigma=sigma)
    grid = DEFAULT_OMEGA_GRID
    sig_abs = np.abs(sigma.spectral_values(grid))
    results = []
    for k in (1, 3):
        val = abs(admissibility(sigma, fam[k], 1).pairing)
        results.append(check(2, f"|<<tanh, rho{k}>>| <= 1e-8", val <= 1e-8,
                             f"value = {val:.2e}"))
    for k in (2, 4):
        val = abs(admissibility(sigma, fam[k], 1).pairing)
        scale = weighted_omega_inner(sig_abs, np.abs(fam[k].spectral_values(grid)),
                                     1, grid).real
        results.append(check(2, f"|<<tanh, rho{k}>>| >= 0.1·scale", val >= 0.1 * scale,
                             f"value = {val:.4f}, quadrature scale = {scale:.4f}"))
    failed = [msg for ok, msg in results if not ok]
    assert not failed, "; ".join(failed)


def test_criterion_03_reconstruction_formula(op1):
    assert admissibility(op1.sigma, op1.sigma, op1.m).pairing == pytest.approx(1.0, abs=1e-8)
    worst = 0.0
    for seed in range(10):
        f = bump_mix(300 + seed)
        out = forward_s(op1, ridgelet(f, op1.sigma, op1.param_grid))
        worst = max(worst, rel_l2(out, f))
    ok, msg = check(3, "S[R[f;rho]] = f within 2e-2 for 10 random band-limited f",
                    worst <= 2e-2, f"worst rel error = {worst:.4f}")
    assert ok, msg


def test_criterion_04_fourier_slice_equivalence(op3, hermite12, ghost_profile):
    from ghostlet import forward_s_fourier, fourier_inverse

    worst_r = worst_s = 0.0
    for seed in range(20):
        f = bump_mix(400 + seed, width_min=1.1)
        r_direct = ridgelet(f, op3.sigma, op3.param_grid)
        r_fast = ridgelet_fourier(f, op3.sigma, op3.param_grid)
        worst_r = max(worst_r, rel_l2(r_fast, r_direct))
        gam = r_fast + 0.5 * ridgelet_atom(hermite12, seed % 6, ghost_profile,
                                           op3.param_grid)
        s_direct = forward_s(op3, gam)
        s_fast = forward_s_via_fourier(op3, gam)
        worst_s = max(worst_s, l2_norm(s_fast - s_direct) / max(l2_norm(s_direct), 1e-12))
    ok, msg = check(4, "direct and Fourier paths of R and S agree within 5e-3",
                    max(worst_r, worst_s) <= 5e-3,
                    f"worst R = {worst_r:.2e}, worst S = {worst_s:.2e}")
    assert ok, msg


def test_criterion_05_adjoint_plancherel(op3):
    worst_iso = worst_rec = worst_dual = 0.0
    for seed in range(10):
        f = bump_mix(500 + seed)
        sf = adjoint(op3, f)
        worst_iso = max(worst_iso, abs(l2_norm(sf) / l2_norm(f) - 1.0))
        worst_rec = max(worst_rec, rel_l2(forward_s(op3, sf), f))
        gam = ridgelet_fourier(bump_mix(550 + seed), op3.sigma, op3.param_grid)
        lhs = l2_inner(f, forward_s(op3, gam))
        rhs = l2_inner(sf, gam)
        worst_dual = max(worst_dual, abs(lhs - rhs) / abs(lhs))
    ok, msg = check(
        5, "||S*f||/||f|| = 1±1e-2, S[S*f] = f±1e-2, duality ±1e-3",
        worst_iso <= 1e-2 and worst_rec <= 1e-2 and worst_dual <= 1e-3,
        f"isometry {worst_iso:.2e}, reconstruction {worst_rec:.2e}, duality {worst_dual:.2e}")
    assert ok, msg


def test_criterion_06_projection_geometry(op3, hermite12, ghost_profile):
    worst_idem = worst_ann = worst_pyth = 0.0
    for seed in range(4):
        gam = ridgelet_fourier(bump_mix(600 + seed), op3.sigma, op3.param_grid) \
            + 0.7 * ridgelet_atom(hermite12, seed % 5, ghost_profile, op3.param_grid)
        p1, g1 = project(op3, gam)
        p2, _ = project(op3, p1)
        worst_idem = max(worst_idem, l2_norm(p2 - p1) / l2_norm(gam))
        worst_ann = max(worst_ann, l2_norm(forward_s_via_fourier(op3, g1))
                        / l2_norm(forward_s_via_fourier(op3, gam)))
        worst_pyth = max(worst_pyth, abs(l2_norm(gam) ** 2 - l2_norm(p1) ** 2
                                         - l2_norm(g1) ** 2) / l2_norm(gam) ** 2)
    ok, msg = check(
        6, "P idempotent 1e-3; ghost annihilation 1e-2; Pythagoras 1e-2",
        worst_idem <= 1e-3 and worst_ann <= 1e-2 and worst_pyth <= 1e-2,
        f"idempotence {worst_idem:.2e}, annihilation {worst_ann:.2e}, "
        f"Pythagoras {worst_pyth:.2e}")
    assert ok, msg


def test_criterion_07_structure_parseval(op3, hermite12, ghost_profile):
    rng = np.random.default_rng(7)
    gam = ridgelet_fourier(bump_mix(700), op3.sigma, op3.param_grid)
    for i in (0, 1, 2, 4):
        gam = gam + complex(rng.normal(), rng.normal()) \
            * ridgelet_atom(hermite12, i, ghost_profile, op3.param_grid)
    deco = structure_decompose(op3, gam, hermite12, max_terms=6)
    gap = deco.parseval_gap()
    og = spectral_grids(op3.param_grid, op3.input_grid).omega
    worst_pairing = 0.0
    worst_norm = 0.0
    for rho in deco.ghost_ridgelets:
        if rho is None:
            continue
        worst_pairing = max(worst_pairing, abs(admissibility(op3.sigma, rho, 1).pairing))
        worst_norm = max(worst_norm,
                         abs(weighted_omega_norm(rho.spectral_values(og), 1, og) - 1.0))
    ok, msg = check(
        7, "Σ|c'|² = 2π||ghost||² ± 2e-2; ghost profiles unit-norm, zero pairing",
        gap <= 2e-2 and worst_pairing <= 1e-6 and worst_norm <= 1e-6,
        f"Parseval gap {gap:.2e}, worst pairing {worst_pairing:.2e}, "
        f"worst norm deviation {worst_norm:.2e}")
    assert ok, msg


def test_criterion_08_density_expansion(op3, hermite12, rho_basis6, atoms126):
    # Gaussian-envelope bump with a cos(2b) carrier: a plain positive bump
    # keeps constant weighted mass density near ω = 0, unreachable by any
    # finite family whose members vanish there (see the decisions record).
    gam = ParamDistribution(op3.param_grid, sample(
        op3.param_grid, lambda a, b: np.exp(-(a ** 2) / 2.0 - (b ** 2) / (2 * 1.2 ** 2))
        * np.cos(2.0 * b)).values)
    coeffs = density_expand(gam, hermite12, rho_basis6, (12, 6), atoms=atoms126)
    partial = coeffs.partial_parseval()
    total = 2.0 * np.pi * l2_norm(gam) ** 2
    monotone = bool(np.all(np.diff(partial, axis=0) >= -1e-12)
                    and np.all(np.diff(partial, axis=1) >= -1e-12))
    bounded = bool(partial[-1, -1] <= total * (1.0 + 1e-6))
    fraction = partial[-1, -1] / total
    ok, msg = check(
        8, "partial Parseval sums Σ|c|² monotone, bounded by 2π||γ||² (for this "
           "Gaussian γ; in general only c^H G c is), ≥95% at (12,6)",
        monotone and bounded and fraction >= 0.95,
        f"monotone={monotone}, bounded={bounded}, captured fraction = {fraction:.4f}")
    assert ok, msg


def test_criterion_09_ghost_encoding(op3, hermite12):
    codebook = make_ghost_codebook(op3.sigma, n_ghosts=2)
    rng = np.random.default_rng(9)
    funcs = []
    for _ in range(3):
        coeff = rng.normal(size=9) + 1j * rng.normal(size=9)
        vals = sum(c * member.values for c, member in zip(coeff, hermite12.members))
        f = SampledFunction(op3.input_grid, vals)
        funcs.append(f * (1.0 / l2_norm(f)))
    gamma = encode_series(codebook, funcs, op3.param_grid)
    err0 = rel_l2(forward_s_via_fourier(op3, gamma), funcs[0])
    err_reads = [rel_l2(readout_mutate(codebook, gamma, i, op3.input_grid), funcs[i])
                 for i in (1, 2)]
    # modulated readout of slot 1 through the identity slice
    from ghostlet import modulate
    moded = forward_s_via_fourier(op3, modulate(codebook, gamma, 1, hermite12,
                                                op3.input_grid))
    err_mod = rel_l2(moded, funcs[1])
    ok, msg = check(
        9, "3-series: plain S gives f0 (5e-2); mutated/modulated readouts (0.1)",
        err0 <= 5e-2 and max(err_reads) <= 0.1 and err_mod <= 0.1,
        f"f0 {err0:.3f}, readouts {err_reads[0]:.3f}/{err_reads[1]:.3f}, "
        f"modulated {err_mod:.3f}")
    assert ok, msg


def test_criterion_10_finite_model_convergence():
    xg = Grid.line(-6.0, 6.0, 121)
    pg = Grid((-10.0, -32.0), (10.0, 32.0), (161, 257))
    op = make_operator(gaussian_derivative_profile(3), pg, xg)
    f = bump_mix(1000, grid=xg, center_max=1.5)
    gamma = ridgelet_fourier(f, op.sigma, pg)
    delta = NascentDelta("gaussian", 4.0 * min(pg.spacing))
    target = forward_s(op, smooth_convolve(gamma, delta))
    medians = {}
    for p in (100, 10_000):
        errs = []
        for s in range(10):
            model = sample_parameters(gamma, p, seed=7919 * s + p)
            errs.append(l2_norm(forward_s(op, mollify(model, delta, pg)) - target))
        medians[p] = float(np.median(errs))
    ratio = medians[10_000] / medians[100]
    basis = hermite_basis(4, xg)
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    model = sample_parameters(gamma, 64, seed=17)
    _, gap, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (3, 2), pg)
    ok, msg = check(
        10, "median error at p=1e4 <= 1/3 of p=1e2; coefficient formulas agree 1e-3",
        ratio <= 1.0 / 3.0 and gap <= 1e-3,
        f"ratio = {ratio:.3f} ({medians[100]:.4f} → {medians[10_000]:.4f}), "
        f"formula gap = {gap:.2e}")
    assert ok, msg


def test_criterion_11_lazy_solution(op3, hermite12, ghost_profile):
    f = bump_mix(1100)
    init = ridgelet_fourier(bump_mix(1101), op3.sigma, op3.param_grid) \
        + 0.5 * ridgelet_atom(hermite12, 1, ghost_profile, op3.param_grid)
    lazy = lazy_solution(op3, f, init)
    fit = rel_l2(forward_s_via_fourier(op3, lazy), f)
    base = l2_norm(lazy - init)
    rng = np.random.default_rng(11)
    wins = 0
    for _ in range(20):
        g = complex(rng.normal(), rng.normal()) \
            * ridgelet_atom(hermite12, int(rng.integers(0, 8)), ghost_profile,
                            op3.param_grid)
        if base <= l2_norm(lazy + g - init) + 1e-12:
            wins += 1
    ok, msg = check(
        11, "γ_lazy beats 20 ghost perturbations; S[γ_lazy] = f ± 2e-2",
        wins == 20 and fit <= 2e-2,
        f"wins = {wins}/20, forward fit = {fit:.4f}")
    assert ok, msg


def test_criterion_12_bound_calculator(op3, hermite12, ghost_profile):
    principal = ridgelet_fourier(bump_mix(1200), op3.sigma, op3.param_grid)
    ghost = ridgelet_atom(hermite12, 1, ghost_profile, op3.param_grid)
    gamma = np.sqrt(0.1) * (1.0 / l2_norm(principal)) * principal \
        + np.sqrt(0.9) * (1.0 / l2_norm(ghost)) * ghost
    inclusive, exclusive = layer_norms(op3, gamma)
    per_layer = exclusive / inclusive
    layer = LayerSpec(M=10.0, V=op3.param_grid.volume,
                      G_inclusive=inclusive, G_exclusive=exclusive)
    ratios = []
    always_leq = True
    for d in (1, 2, 3):
        inc = generalization_bound([layer] * d, B=1.0, n=256, d=d, norm_choice=INCLUSIVE)
        exc = generalization_bound([layer] * d, B=1.0, n=256, d=d, norm_choice=EXCLUSIVE)
        always_leq = always_leq and exc <= inc
        ratios.append(exc / inc)
    compounding = abs(ratios[2] - per_layer ** 3) <= 1e-9
    ok, msg = check(
        12, "exclusive <= inclusive; 90%-ghost layer ratio <= 0.45, compounds with depth",
        always_leq and per_layer <= 0.45 and compounding,
        f"per-layer ratio = {per_layer:.3f}, depth-3 ratio = {ratios[2]:.4f}")
    assert ok, msg
