import numpy as np
import pytest

from ghostlet import (
    DomainError,
    SampledFunction,
    admissibility,
    encode_series,
    encoding,
    forward_s_via_fourier,
    gaussian_derivative_profile,
    hermite_basis,
    l2_norm,
    make_ghost_codebook,
    modulate,
    readout_mutate,
    ridgelet_fourier,
    tanh_profile,
)
from ghostlet.grids import DEFAULT_OMEGA_GRID
from ghostlet.nullspace import ridgelet_atom
from ghostlet.profiles import gram_residual_l2m, orthonormalize_l2m

from conftest import bump_mix, rel_l2


@pytest.fixture(scope="module")
def codebook(op3):
    return make_ghost_codebook(op3.sigma, n_ghosts=3)


@pytest.fixture(scope="module")
def series(op3, codebook):
    funcs = [bump_mix(90), bump_mix(91), bump_mix(92)]
    gamma = encode_series(codebook, funcs, op3.param_grid)
    return funcs, gamma


@pytest.mark.parametrize("n_ghosts", [2, 3])
@pytest.mark.parametrize("sigma", [tanh_profile()]
                         + [gaussian_derivative_profile(k) for k in range(7)],
                         ids=lambda sigma: sigma.name)
def test_codebook_invariants(sigma, n_ghosts):
    """Slot 0 pairs to 1 with the stored activation and every ghost slot to
    zero by the one zero rule, for an odd and an even σ alike."""
    codebook = make_ghost_codebook(sigma, n_ghosts=n_ghosts)
    assert len(codebook) == 1 + n_ghosts
    assert abs(admissibility(codebook.sigma, codebook.members[0], 1).pairing - 1.0) <= 1e-6
    for member in codebook.members[1:]:
        assert admissibility(codebook.sigma, member, 1).numerically_zero
    vectors = [mbr.spectral_values(DEFAULT_OMEGA_GRID) for mbr in codebook.members]
    assert gram_residual_l2m(vectors, 1, DEFAULT_OMEGA_GRID) <= 1e-6


def test_codebook_refuses_a_ghost_slot_above_the_zero_rule(op3, monkeypatch):
    """A ghost slot that leaks 1e-7 of slot 0 keeps the Gram residual within
    `GRAM_TOLERANCE` but pairs to about 1e-7 with σ, which is not
    `numerically_zero`: the codebook is refused."""
    calls = []

    def leaky(vectors, m, omega_grid):
        basis, dependent = orthonormalize_l2m(vectors, m, omega_grid)
        calls.append(len(vectors))
        if len(calls) == 2:  # the ghost pass, whose basis[0] is slot 0
            basis[1] = basis[1] + 1e-7 * basis[0]
        return basis, dependent

    monkeypatch.setattr(encoding, "orthonormalize_l2m", leaky)
    with pytest.raises(DomainError, match="ghost slot 1 pairs to 1"):
        make_ghost_codebook(op3.sigma, n_ghosts=2)
    assert len(calls) == 2


def test_unit_norm_sigma_is_slot_zero(op3, codebook):
    """For σ of unit weighted norm (op3's gauss_d3, made unit by
    `make_operator`) slot 0, the unit vector along σ's pairings, is σ itself:
    the pairing 1 with a unit vector is the Cauchy–Schwarz equality case."""
    assert op3.is_normalized
    np.testing.assert_allclose(codebook.members[0].spectral_values(DEFAULT_OMEGA_GRID),
                               op3.sigma.spectral_values(DEFAULT_OMEGA_GRID), rtol=0, atol=1e-12)


def test_codebook_for_tanh_rescales_activation():
    """tanh lies outside the weighted space; the stored activation is tanh/|p|,
    a positive multiple of tanh that pairs to 1 with slot 0."""
    tanh = tanh_profile()
    cb = make_ghost_codebook(tanh, n_ghosts=2)
    b = np.linspace(-4.0, 4.0, 8)
    scale = cb.sigma.real_eval(b) / np.tanh(b)
    np.testing.assert_allclose(scale, scale[0], rtol=1e-15)
    assert cb.sigma.name == "tanh/|p|" and scale[0] > 0.0
    assert abs(scale[0] * admissibility(tanh, cb.members[0], 1).pairing - 1.0) <= 1e-12


def test_single_function_series(op3, codebook):
    f0 = bump_mix(93)
    gamma = encode_series(codebook, [f0], op3.param_grid)
    out = forward_s_via_fourier(op3, gamma)
    assert rel_l2(out, f0) <= 5e-2


def test_plain_s_recovers_first_slot(op3, codebook, series):
    funcs, gamma = series
    out = forward_s_via_fourier(op3, gamma)
    assert rel_l2(out, funcs[0]) <= 5e-2


def test_zero_functions_encode_to_zero(op3, codebook):
    z = SampledFunction(op3.input_grid, np.zeros(op3.input_grid.counts))
    gamma = encode_series(codebook, [z, z], op3.param_grid)
    assert l2_norm(gamma) == 0.0


def test_capacity_error(op3, codebook):
    fs = [bump_mix(s) for s in range(5)]
    with pytest.raises(DomainError):
        encode_series(codebook, fs, op3.param_grid)


def test_readout_each_slot(op3, codebook, series):
    funcs, gamma = series
    assert rel_l2(readout_mutate(codebook, gamma, 0, op3.input_grid), funcs[0]) <= 5e-2
    assert rel_l2(readout_mutate(codebook, gamma, 1, op3.input_grid), funcs[1]) <= 0.1
    assert rel_l2(readout_mutate(codebook, gamma, 2, op3.input_grid), funcs[2]) <= 0.1


def test_readout_empty_slot(op3, codebook, series):
    funcs, gamma = series
    out = readout_mutate(codebook, gamma, 3, op3.input_grid)
    assert l2_norm(out) <= 0.05 * max(l2_norm(f) for f in funcs)


def test_readout_index_validated(op3, codebook, series):
    _, gamma = series
    with pytest.raises(DomainError):
        readout_mutate(codebook, gamma, 4, op3.input_grid)


def test_encode_linearity(op3, codebook):
    f1, f2 = bump_mix(94), bump_mix(95)
    z = SampledFunction(op3.input_grid, np.zeros(op3.input_grid.counts))
    g1 = encode_series(codebook, [z, f1], op3.param_grid)
    g2 = encode_series(codebook, [z, f2], op3.param_grid)
    g12 = encode_series(codebook, [z, f1 + 2.0 * f2], op3.param_grid)
    assert l2_norm(g12 - g1 - 2.0 * g2) <= 1e-10 * l2_norm(g12)


def test_capacity_independence(op3, codebook):
    """Adding a third function changes the readout of slot 1 only at the
    cross-talk level."""
    funcs = [bump_mix(96), bump_mix(97), bump_mix(98)]
    g2 = encode_series(codebook, funcs[:2], op3.param_grid)
    g3 = encode_series(codebook, funcs, op3.param_grid)
    r2 = readout_mutate(codebook, g2, 1, op3.input_grid)
    r3 = readout_mutate(codebook, g3, 1, op3.input_grid)
    assert l2_norm(r3 - r2) <= 2e-2 * l2_norm(r2)


def test_modulate_identity_slice(op3, codebook):
    basis = hermite_basis(6, op3.input_grid)
    gamma = ridgelet_atom(basis, 2, codebook.members[1], op3.param_grid)
    out = modulate(codebook, gamma, 1, basis, op3.input_grid)
    s_out = forward_s_via_fourier(op3, out)
    e2 = SampledFunction(op3.input_grid, basis.members[2].values)
    assert rel_l2(s_out, e2) <= 0.1


def test_modulate_principal_gives_zero(op3, codebook):
    basis = hermite_basis(6, op3.input_grid)
    gamma = ridgelet_fourier(bump_mix(99), op3.sigma, op3.param_grid)
    out = modulate(codebook, gamma, 1, basis, op3.input_grid)
    assert l2_norm(forward_s_via_fourier(op3, out)) <= 1e-3


def test_modulate_agrees_with_relabeled_readout(op3, codebook):
    """The two read-out scenarios coincide: modulating slot i into the visible
    slot and then applying S matches the mutated readout re-expanded in the
    basis."""
    basis = hermite_basis(8, op3.input_grid)
    funcs = [bump_mix(190), bump_mix(191)]
    gamma = encode_series(codebook, funcs, op3.param_grid)
    via_modulation = forward_s_via_fourier(op3, modulate(codebook, gamma, 1, basis,
                                                         op3.input_grid))
    direct = readout_mutate(codebook, gamma, 1, op3.input_grid)
    # project the direct readout on the basis span (the modulation path only
    # sees that span)
    from ghostlet import l2_inner
    proj = np.zeros(op3.input_grid.counts, dtype=complex)
    for member in basis.members:
        proj = proj + l2_inner(direct, member) * member.values
    projected = SampledFunction(op3.input_grid, proj)
    assert rel_l2(via_modulation, projected) <= 0.1
