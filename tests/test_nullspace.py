import numpy as np
import pytest

from ghostlet import (
    DomainError,
    Grid,
    NetworkOperator,
    ParamDistribution,
    SampledFunction,
    admissibility,
    density_expand,
    density_synthesize,
    forward_s,
    forward_s_via_fourier,
    gaussian_derivative_profile,
    l2_inner,
    l2_norm,
    lazy_solution,
    make_nonadmissible,
    make_operator,
    make_rho_family,
    project,
    ridgelet_fourier,
    sample,
    structure_decompose,
    tanh_profile,
)
from ghostlet.grids import (
    DEFAULT_OMEGA_GRID,
    UnsupportedProfileError,
    spectral_grids,
    weighted_omega_norm,
)
from ghostlet.nullspace import _atom_matrix, ridgelet_atom
from ghostlet.profiles import BasisFamily, relu_profile
from ghostlet.transforms import _kernel_matrix

from conftest import bump_mix, rel_l2


class TestAdmissibility:
    def test_tanh_dawson_table(self):
        fam = make_rho_family(4, sigma=tanh_profile())
        sig = tanh_profile()
        for k in (1, 3):
            rep = admissibility(sig, fam[k], 1)
            assert rep.parity_forced_zero
            assert abs(rep.pairing) <= 1e-8
            assert abs(rep.pairing) <= max(1e-8, rep.error_estimate)
        for k in (2, 4):
            rep = admissibility(sig, fam[k], 1)
            assert not rep.parity_forced_zero
            assert abs(rep.pairing) == pytest.approx(1.0, abs=1e-8)

    def test_zero_profile_pairs_to_zero(self):
        fam = make_rho_family(2, sigma=tanh_profile())
        zero = fam[2].scaled(0.0, name="zero")
        assert admissibility(tanh_profile(), zero, 1).pairing == 0.0

    def test_relu_rejected(self):
        with pytest.raises(UnsupportedProfileError):
            admissibility(tanh_profile(), relu_profile(), 1)


class TestRecipes:
    def test_linear_combination_of_nonadmissible(self, op3, rho_family5):
        out = make_nonadmissible(op3.sigma, rho_family5[1], rho_family5[3])
        assert abs(admissibility(op3.sigma, out, 1).pairing) <= 1e-8
        vals = out.spectral_values(DEFAULT_OMEGA_GRID)
        assert weighted_omega_norm(vals, 1, DEFAULT_OMEGA_GRID) == pytest.approx(1.0, abs=1e-12)

    def test_linear_combination_zero_coefficients(self, op3, rho_family5):
        """Zero coefficients leave no weighted norm to normalize: refused."""
        with pytest.raises(DomainError, match="no finite nonzero weighted norm"):
            make_nonadmissible(op3.sigma, rho_family5[1].scaled(0.0, name="zero1"),
                               rho_family5[3].scaled(0.0, name="zero3"))

    def test_cancelling_pair_is_refused(self, op3, rho_family5):
        with pytest.raises(DomainError, match="no finite nonzero weighted norm"):
            make_nonadmissible(op3.sigma, rho_family5[3], rho_family5[3].scaled(-1.0, name="-rho3"))

    def test_admissible_pair_is_refused(self, op3):
        """ρ₂ + ρ₄ pairs to 2 with gauss_d3: no ghost profile, so no profile."""
        fam = make_rho_family(4, sigma=op3.sigma)
        with pytest.raises(DomainError, match="not to zero"):
            make_nonadmissible(op3.sigma, fam[2], fam[4])

    def test_recipe_outputs_generate_ghosts(self, op3, rho_family5):
        f = bump_mix(50)
        rho0 = make_nonadmissible(op3.sigma, rho_family5[1], rho_family5[3])
        gam = ridgelet_fourier(f, rho0, op3.param_grid)
        assert l2_norm(forward_s_via_fourier(op3, gam)) <= 0.05 * l2_norm(f)


class TestProjection:
    def test_pure_principal_has_no_ghost(self, op3):
        gam = ridgelet_fourier(bump_mix(60), op3.sigma, op3.param_grid)
        principal, ghost = project(op3, gam)
        assert l2_norm(ghost) <= 1e-2 * l2_norm(gam)

    def test_pure_ghost_has_no_principal(self, op3, hermite12, ghost_profile):
        gam = ridgelet_atom(hermite12, 1, ghost_profile, op3.param_grid)
        principal, ghost = project(op3, gam)
        assert l2_norm(principal) <= 1e-2 * l2_norm(gam)
        assert rel_l2(ghost, gam) <= 1e-2

    def test_mixed_split(self, op3, hermite12, ghost_profile):
        gp = ridgelet_fourier(bump_mix(61), op3.sigma, op3.param_grid)
        gg = ridgelet_atom(hermite12, 2, ghost_profile, op3.param_grid)
        principal, ghost = project(op3, gp + gg)
        assert rel_l2(principal, gp) <= 1e-2
        assert rel_l2(ghost, gg) <= 1e-2

    def test_idempotence_annihilation_orthogonality(self, op3, hermite12, ghost_profile):
        for seed in (62, 63, 64):
            gam = ridgelet_fourier(bump_mix(seed), op3.sigma, op3.param_grid) \
                + 0.7 * ridgelet_atom(hermite12, seed % 5, ghost_profile, op3.param_grid)
            p1, g1 = project(op3, gam)
            p2, _ = project(op3, p1)
            assert l2_norm(p2 - p1) <= 1e-3 * l2_norm(gam)
            assert l2_norm(forward_s_via_fourier(op3, g1)) \
                <= 1e-2 * l2_norm(forward_s_via_fourier(op3, gam))
            assert abs(l2_inner(p1, g1)) <= 1e-3 * l2_norm(gam) ** 2
            assert l2_norm(p1 + g1 - gam) <= 1e-12 * l2_norm(gam)  # exact resum

    def test_matches_the_exact_grid_projector(self, op3, hermite12, ghost_profile):
        """P = S*∘S against P_grid γ = K G⁻¹ Kᵀ(wγ), the w-orthogonal projection
        onto the row space of S's kernel K[k, j] = σ(a_k·x_j − b_k), with
        G = Kᵀ diag(w) K and w the parameter grid's trapezoid weights. On
        criterion 6's inputs they agree to 3.9e-4 of ‖γ‖ (ghost share 0.329 for
        both). G's eigenvalues run from 1.7e-5 to 10, and P_grid is idempotent
        to 8e-15."""
        pts = op3.param_grid.points()
        root_w = np.sqrt(op3.param_grid.weights().ravel())
        kernel = _kernel_matrix(pts[:, :-1], pts[:, -1], op3.input_grid.points(),
                                op3.sigma.real_eval)
        kernel *= root_w[:, None]  # W^{1/2} K in place: K alone is 80 MB
        gram = kernel.T @ kernel

        def grid_project(gamma):
            coeff = np.linalg.solve(gram, kernel.T @ (root_w * gamma.values.ravel()))
            return ParamDistribution(op3.param_grid,
                                     (kernel @ coeff / root_w).reshape(op3.param_grid.counts))

        for seed in range(4):
            gam = ridgelet_fourier(bump_mix(600 + seed), op3.sigma, op3.param_grid) \
                + 0.7 * ridgelet_atom(hermite12, seed % 5, ghost_profile, op3.param_grid)
            exact = grid_project(gam)
            assert l2_norm(project(op3, gam)[0] - exact) <= 1e-3 * l2_norm(gam)
            assert l2_norm(grid_project(exact) - exact) <= 1e-10 * l2_norm(gam)

    def test_requires_normalized_operator(self, param_grid, input_grid):
        op = NetworkOperator(gaussian_derivative_profile(3), param_grid, input_grid)
        gam = ParamDistribution(param_grid, np.zeros(param_grid.counts))
        with pytest.raises(DomainError):
            project(op, gam)

    def test_relu_operator_is_refused(self, param_grid, input_grid):
        # ReLU has no spectrum, so no weighted norm, and no operator can give
        # it the unit norm the projection needs
        op = make_operator(relu_profile(), param_grid, input_grid)
        assert op.sigma_norm is None
        gam = ParamDistribution(param_grid, np.zeros(param_grid.counts))
        f = SampledFunction(input_grid, np.zeros(input_grid.counts))
        with pytest.raises(DomainError, match="unit-norm activation"):
            project(op, gam)
        with pytest.raises(DomainError, match="unit-norm activation"):
            lazy_solution(op, f, gam)


class TestStructure:
    def test_pure_principal_gives_zero_coefficients(self, op3, hermite12):
        gam = ridgelet_fourier(bump_mix(70), op3.sigma, op3.param_grid)
        deco = structure_decompose(op3, gam, hermite12, max_terms=4)
        assert all(abs(c) <= 2e-2 for c in deco.coefficients)

    def test_planted_ghost_recovery(self, op3, hermite12, ghost_profile):
        c_true = 0.45
        gam = c_true * ridgelet_atom(hermite12, 1, ghost_profile, op3.param_grid)
        deco = structure_decompose(op3, gam, hermite12, max_terms=4)
        assert abs(deco.coefficients[1]) == pytest.approx(
            np.sqrt(2 * np.pi) * c_true, rel=1e-2)
        assert abs(admissibility(op3.sigma, deco.ghost_ridgelets[1], 1).pairing) <= 1e-6

    def test_parseval_and_unit_norms(self, op3, hermite12, ghost_profile):
        rng = np.random.default_rng(71)
        gam = ridgelet_fourier(bump_mix(71), op3.sigma, op3.param_grid)
        for i in (0, 1, 3):
            gam = gam + complex(rng.normal(), rng.normal()) \
                * ridgelet_atom(hermite12, i, ghost_profile, op3.param_grid)
        deco = structure_decompose(op3, gam, hermite12, max_terms=6)
        assert deco.parseval_gap() <= 2e-2
        og = spectral_grids(op3.param_grid, op3.input_grid).omega
        for rho in deco.ghost_ridgelets:
            if rho is None:
                continue
            assert weighted_omega_norm(rho.spectral_values(og), 1, og) \
                == pytest.approx(1.0, abs=1e-6)
            assert abs(admissibility(op3.sigma, rho, 1).pairing) <= 1e-6

    def test_structure_roundtrip(self, op3, hermite12, ghost_profile):
        gam = ridgelet_fourier(bump_mix(72), op3.sigma, op3.param_grid) \
            + 0.5 * ridgelet_atom(hermite12, 2, ghost_profile, op3.param_grid)
        deco = structure_decompose(op3, gam, hermite12, max_terms=12)
        assert l2_norm(deco.principal + deco.ghost - gam) <= 1e-10 * l2_norm(gam)
        assert deco.residual_norm <= 5e-2 * l2_norm(deco.ghost)

    def test_max_terms_validated(self, op3, hermite12):
        gam = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        with pytest.raises(DomainError):
            structure_decompose(op3, gam, hermite12, max_terms=13)

    def test_basis_without_fourier_evaluators_is_refused(self, op3, hermite12, ghost_profile):
        # ridgelet_atom builds R[e_i;ρ] from ê_i alone, as structure_decompose does
        bare = BasisFamily(hermite12.members)
        gam = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        with pytest.raises(DomainError, match="Fourier evaluators"):
            ridgelet_atom(bare, 1, ghost_profile, op3.param_grid)
        with pytest.raises(DomainError, match="Fourier evaluators"):
            structure_decompose(op3, gam, bare, max_terms=3)

    def test_zero_gamma_gives_empty_coefficients(self, op3, hermite12):
        gam = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        deco = structure_decompose(op3, gam, hermite12, max_terms=3)
        assert all(c == 0.0 for c in deco.coefficients)
        assert all(r is None for r in deco.ghost_ridgelets)


class TestDensityExpansion:
    def test_planted_atom_dominant(self, op3, hermite12, rho_basis6, atoms126):
        gam = atoms126[1][1]
        coeffs = density_expand(gam, hermite12, rho_basis6, (12, 6), atoms=atoms126)
        c11 = abs(coeffs.c[1, 1])
        assert c11 == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)
        others = np.abs(coeffs.c).copy()
        others[1, 1] = 0.0
        assert others.max() <= 1e-3 * c11

    def test_zero_gamma(self, op3, hermite12, rho_basis6, atoms126):
        z = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        coeffs = density_expand(z, hermite12, rho_basis6, (4, 3), atoms=atoms126)
        assert np.all(coeffs.c == 0.0)

    def test_parseval_monotone_and_bounded(self, op3, hermite12, rho_basis6, atoms126):
        gam = ParamDistribution(op3.param_grid, sample(
            op3.param_grid, lambda a, b: np.exp(-(a ** 2) / 2 - (b ** 2) / (2 * 1.2 ** 2))
            * np.cos(2.0 * b)).values)
        coeffs = density_expand(gam, hermite12, rho_basis6, (12, 6), atoms=atoms126)
        partial = coeffs.partial_parseval()
        assert np.all(np.diff(partial, axis=0) >= -1e-12)
        assert np.all(np.diff(partial, axis=1) >= -1e-12)
        total = 2 * np.pi * l2_norm(gam) ** 2
        assert partial[-1, -1] <= total * (1 + 1e-6), (
            "Σ|c|² ≤ 2π‖γ‖² holds for this Gaussian γ, not in general: the exact "
            "bound is c^H G c ≤ 2π‖γ‖² (test_parseval_bound_is_on_the_gram_form)")

    def test_parseval_bound_is_on_the_gram_form(self, op3, hermite12, rho_basis6, atoms126):
        # γ along the λ_min eigenvector v of the atom Gram G has c = √(2π)·v:
        # c^H G c meets 2π‖γ‖² exactly, Σ|c|² = 2π‖γ‖²/λ_min exceeds it
        atoms = _atom_matrix(atoms126, (12, 6))
        gram = np.conj(atoms) @ (atoms * op3.param_grid.weights().ravel()).T
        lam, vecs = np.linalg.eigh(gram)
        gam = ParamDistribution(op3.param_grid,
                                (vecs[:, 0] @ atoms).reshape(op3.param_grid.counts))
        coeffs = density_expand(gam, hermite12, rho_basis6, (12, 6), atoms=atoms126)
        c = coeffs.c.ravel()
        total = 2 * np.pi * l2_norm(gam) ** 2
        assert np.vdot(c, gram @ c).real == pytest.approx(total, rel=1e-10)
        assert lam[0] < 0.9
        assert coeffs.total > total
        assert coeffs.total == pytest.approx(total / lam[0], rel=1e-8)

    def test_synthesis_residual_shrinks(self, op3, hermite12, rho_basis6, atoms126):
        gam = atoms126[0][0] + 0.5 * atoms126[2][1] + 0.25 * atoms126[5][3]
        errs = []
        for trunc in ((2, 2), (6, 4), (12, 6)):
            coeffs = density_expand(gam, hermite12, rho_basis6, trunc, atoms=atoms126)
            synth = density_synthesize(coeffs, hermite12, rho_basis6, op3.param_grid,
                                       atoms=atoms126)
            errs.append(rel_l2(synth, gam))
        # once the span holds γ the residuals are roundoff, so both links get
        # the same slack
        assert errs[2] <= errs[1] + 1e-9
        assert errs[1] <= errs[0] + 1e-9
        assert errs[2] < 1e-6

    def test_truncation_validated(self, op3, hermite12, rho_basis6):
        z = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        with pytest.raises(DomainError):
            density_expand(z, hermite12, rho_basis6, (13, 6))


class TestLazy:
    def test_zero_init_gives_minimum_norm(self, op3):
        f = bump_mix(80)
        zero = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        lazy = lazy_solution(op3, f, zero)
        sf = ridgelet_fourier(f, op3.sigma, op3.param_grid)
        assert rel_l2(lazy, sf) <= 1e-2

    def test_pure_ghost_init(self, op3, hermite12, ghost_profile):
        f = bump_mix(81)
        ghost = ridgelet_atom(hermite12, 1, ghost_profile, op3.param_grid)
        lazy = lazy_solution(op3, f, ghost)
        sf = ridgelet_fourier(f, op3.sigma, op3.param_grid)
        assert rel_l2(lazy, sf + ghost) <= 1e-2
        assert abs(l2_norm(lazy - ghost) - l2_norm(sf)) <= 1e-3 * l2_norm(sf)

    def test_refuses_f_off_the_input_grid(self, op3):
        f = bump_mix(85, grid=Grid.line(-8.0, 8.0, 81))
        zero = ParamDistribution(op3.param_grid, np.zeros(op3.param_grid.counts))
        with pytest.raises(DomainError, match="different grid"):
            lazy_solution(op3, f, zero)

    def test_beats_random_ghost_perturbations(self, op3, hermite12, ghost_profile):
        f = bump_mix(82)
        init = ridgelet_fourier(bump_mix(83), op3.sigma, op3.param_grid) \
            + 0.4 * ridgelet_atom(hermite12, 0, ghost_profile, op3.param_grid)
        lazy = lazy_solution(op3, f, init)
        assert rel_l2(forward_s_via_fourier(op3, lazy), f) <= 2e-2
        base = l2_norm(lazy - init)
        rng = np.random.default_rng(84)
        for _ in range(20):
            g = complex(rng.normal(), rng.normal()) \
                * ridgelet_atom(hermite12, int(rng.integers(0, 6)), ghost_profile,
                                op3.param_grid)
            assert base <= l2_norm(lazy + g - init) + 1e-9


def test_hermite_atom_spectra_have_no_subnormal_entry(monkeypatch, tmp_path):
    """The (a, ω) spectrum that `_slice_ridgelet` hands to `partial_flat_b`
    for Hermite atoms 1–3 of the `decompose` testbed holds no subnormal
    double (they slow the inverse transform's GEMM several-fold)."""
    from ghostlet import transforms
    from ghostlet.experiments import ExperimentConfig, _compact_testbed, _ghost_testbed

    op = _compact_testbed(ExperimentConfig(experiment="decompose", output_dir=str(tmp_path)))
    basis, ghost_profile = _ghost_testbed(op)
    spectra = []
    flat_b = transforms.partial_flat_b
    monkeypatch.setattr(transforms, "partial_flat_b",
                        lambda spec, b_grid: spectra.append(spec.values) or flat_b(spec, b_grid))
    for i in (1, 2, 3):
        ridgelet_atom(basis, i, ghost_profile, op.param_grid)
    assert len(spectra) == 3
    for spec in spectra:
        parts = np.concatenate([spec.real.ravel(), spec.imag.ravel()])
        assert not np.any((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny))
