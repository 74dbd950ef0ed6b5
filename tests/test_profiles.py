import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import hermite_e
from hypothesis import strategies as st
from scipy.special import dawsn

from ghostlet import (
    DomainError,
    Grid,
    SpectralFunction,
    fourier_inverse,
    gaussian_derivative_profile,
    gaussian_profile,
    gram_schmidt_l2m,
    hermite_basis,
    l2_inner,
    make_rho_family,
    pairing,
    relu_profile,
    rho0_profile,
    tanh_profile,
    weighted_omega_inner,
)
from ghostlet.grids import DEFAULT_OMEGA_GRID, UnsupportedProfileError, weighted_omega_norm
from ghostlet.profiles import (
    SingularPointError,
    _GAUSS_FLOOR,
    _gauss,
    _rho_k_unnormalized,
    hermite_function,
)


def maclaurin_dawson(x, terms=40):
    """Independent oracle: F(x) = Σ (−1)ⁿ 2ⁿ x^{2n+1} / (2n+1)!! in extended
    precision."""
    from mpmath import mp, mpf

    mp.dps = 40
    x = mpf(x)
    total = mp.mpf(0)
    double_fact = mp.mpf(1)
    for n in range(terms):
        double_fact = double_fact * (2 * n + 1) if n > 0 else mp.mpf(1)
        total += (-1) ** n * mpf(2) ** n * x ** (2 * n + 1) / double_fact
    return float(total)


def test_dawson_at_zero_and_odd():
    assert dawsn(0.0) == 0.0
    xs = np.linspace(0.1, 6.0, 23)
    assert np.max(np.abs(dawsn(-xs) + dawsn(xs))) < 1e-15


def test_dawson_one_frozen_oracle():
    # Maclaurin oracle in 40-digit arithmetic gives 0.5380795069127684...
    assert abs(dawsn(1.0) - 0.538079506912768) < 1e-12
    assert abs(dawsn(1.0) - maclaurin_dawson(1.0)) < 1e-12


def test_dawson_maclaurin_window():
    for x in np.linspace(-0.5, 0.5, 21):
        assert abs(dawsn(x) - maclaurin_dawson(x)) < 1e-12


def asymptotic_dawson(x, terms=10):
    """Independent large-x oracle: F(x) ~ Σ (2n−1)!!/(2^{n+1} x^{2n+1}),
    leading terms 1/(2x) + 1/(4x³) + …; ten terms reach 1e-12 at |x| ≥ 8."""
    total = 0.0
    dfact = 1.0
    for n in range(terms):
        if n > 0:
            dfact *= 2 * n - 1
        total += dfact / (2.0 ** (n + 1) * x ** (2 * n + 1))
    return total


def test_dawson_asymptotic_oracle():
    for x in (8.0, 10.0, -9.0, 12.0):
        assert abs(dawsn(x) - asymptotic_dawson(x)) < 1e-10


def numerical_parity(values: np.ndarray) -> str:
    """Classify even/odd from samples on a symmetric grid (1e-10 tolerance)."""
    rev = values[::-1]
    scale = np.max(np.abs(values))
    if scale == 0.0 or np.max(np.abs(values - rev)) <= 1e-10 * scale:
        return "even"
    if np.max(np.abs(values + rev)) <= 1e-10 * scale:
        return "odd"
    return "none"


def test_rho_family_parities():
    fam = make_rho_family(4)
    grid = DEFAULT_OMEGA_GRID
    assert fam[0].parity == "odd"
    assert fam[1].parity == "even"
    assert fam[2].parity == "odd"
    assert fam[3].parity == "even"
    for k in range(5):
        assert numerical_parity(fam[k].spectral_values(grid)) == fam[k].parity


def test_rho_family_pairings_with_tanh():
    fam = make_rho_family(4)
    sig = tanh_profile()
    assert pairing(sig, fam[2], 1) == pytest.approx(1.0, abs=1e-9)
    assert pairing(sig, fam[4], 1) == pytest.approx(1.0, abs=1e-9)
    assert abs(pairing(sig, fam[1], 1)) < 1e-10
    assert abs(pairing(sig, fam[3], 1)) < 1e-10


def test_rho_family_respects_series_budget():
    with pytest.raises(DomainError):
        make_rho_family(9)


def test_rho_spectral_decay_at_boundary():
    grid = Grid.line(-12.0, 12.0, 2048)
    for k in range(0, 9):
        raw = _rho_k_unnormalized(k)
        vals = raw.spectral_values(grid)
        assert abs(vals[0]) < 1e-10 and abs(vals[-1]) < 1e-10


def round_trip_error(profile) -> float:
    """Max deviation of real_eval from the inverse transform of spectral_eval
    on b ∈ [−10, 10]. Profiles with slowly decaying real tails (the Dawson
    family decays like 1/b) are compared through the spectral→real direction,
    which only needs the spectrum to be integrable on the grid."""
    omega_grid = Grid.line(-12.0, 12.0, 8192)
    b_grid = Grid.line(-10.0, 10.0, 801)
    spec = SpectralFunction(omega_grid, profile.spectral_values(omega_grid))
    return float(np.max(np.abs(fourier_inverse(spec, b_grid).values
                               - profile.real_eval(b_grid.axis(0)))))


def test_profile_round_trips():
    assert round_trip_error(gaussian_profile()) < 1e-10
    assert round_trip_error(tanh_profile()) < 1e-5
    assert round_trip_error(rho0_profile()) < 1e-5
    fam = make_rho_family(4)
    for k in (1, 2, 3, 4):
        assert round_trip_error(fam[k]) < 1e-5


def test_tanh_profile_values():
    sig = tanh_profile()
    assert sig.real_eval(np.array([0.0]))[0] == 0.0
    w = np.linspace(0.25, 6.0, 24)
    sv = sig.spectral_eval(w)
    assert np.max(np.abs(sig.spectral_eval(-w) + sv)) < 1e-12  # odd
    assert abs(abs(sig.spectral_eval(np.array([2.0]))[0]) - np.pi / np.sinh(np.pi)) < 1e-5


def test_stock_real_evaluators_are_real():
    """Real profiles evaluate to float arrays (kernel sums over them stay
    real); a real scale keeps them real, and a complex one makes them complex."""
    b = np.linspace(-3.0, 3.0, 13)
    stock = [tanh_profile(), relu_profile(), gaussian_profile(),
             *(gaussian_derivative_profile(k) for k in (1, 2, 3))]
    for prof in stock:
        assert np.asarray(prof.real_eval(b)).dtype == np.float64, prof.name
        assert np.asarray(prof.scaled(0.5).real_eval(b)).dtype == np.float64, prof.name
        assert np.iscomplexobj(prof.scaled(1j).real_eval(b)), prof.name


def test_tanh_rho_family_evaluators_are_real():
    """Against tanh every c_k is purely imaginary, so c_k·(i√2/π)·2^{−k/2} is
    one real scalar and ρ_k evaluates to float arrays, equal to
    c_k · raw.real_eval to roundoff. Against a σ whose c_k is not purely
    imaginary the evaluator stays complex."""
    b = np.linspace(-9.0, 9.0, 721)
    w = np.array([1.3])
    family = make_rho_family(8, sigma=tanh_profile())
    for k in range(1, 9):
        raw = _rho_k_unnormalized(k)
        c_k = family[k].spectral_eval(w)[0] / raw.spectral_eval(w)[0]
        got = family[k].real_eval(b)
        assert got.dtype == np.float64, k
        np.testing.assert_allclose(got, c_k * raw.real_eval(b), rtol=1e-15, atol=0.0)
    shifted = make_rho_family(2, sigma=gaussian_profile(center=0.5))[2]
    c_2 = shifted.spectral_eval(w)[0] / _rho_k_unnormalized(2).spectral_eval(w)[0]
    assert c_2.real != 0.0
    assert np.iscomplexobj(shifted.real_eval(b))


def test_dawson_derivative_polys_cached_and_immutable():
    """The P_k/Q_k recurrence is built once per order and handed out as
    tuples, and the evaluation matches numpy's polyval bit for bit."""
    from numpy.polynomial import polynomial as npoly

    from ghostlet.profiles import _dawson_derivative_polys, dawson_derivative

    polys = _dawson_derivative_polys(6)
    assert _dawson_derivative_polys(6) is polys
    assert isinstance(polys, tuple)
    assert all(isinstance(c, tuple) for pq in polys for c in pq)
    assert polys[2] == ((-2.0, 0.0, 4.0), (0.0, -2.0))  # F'' = (4x² − 2)F − 2x
    x = np.linspace(-7.0, 7.0, 40_005).reshape(-1, 5)  # several blocks
    for k in range(7):
        P, Q = polys[k]
        ref = npoly.polyval(x, np.array(P)) * dawsn(x) + npoly.polyval(x, np.array(Q))
        np.testing.assert_array_equal(dawson_derivative(x, k), ref)


@pytest.mark.parametrize("k", range(9))
def test_dawson_derivative_scale_is_the_divided_argument_bit_for_bit(k):
    """`scale` divides x block by block: the same bits as dividing first,
    across several blocks, on a 0-d input and on a non-contiguous view."""
    from ghostlet.profiles import dawson_derivative

    rng = np.random.default_rng(k)
    wide = rng.uniform(-30.0, 30.0, 40_005)
    view = rng.uniform(-9.0, 9.0, (300, 201))[::3, 1::2]
    for x in (wide, np.array(-0.0), np.array(2.5), view):
        for s in (np.sqrt(2.0), 0.5 * np.sqrt(2.0), 1.7):
            got = dawson_derivative(x, k, scale=s)
            assert got.tobytes() == dawson_derivative(x / s, k).tobytes(), (k, s)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rho_k_real_evaluators_keep_the_divided_argument_form(k):
    """ρ_k's evaluator passes b/(s√2) to `dawson_derivative` as a scale; it
    gives the bits of const·F^{(k)}(b/(s√2)) with the argument divided first,
    for a real scalar (c purely imaginary, as against tanh) and a complex one."""
    from ghostlet.profiles import _RHO0_CONST, dawson_derivative, dawson_profile

    b = np.random.default_rng(k).uniform(-40.0, 40.0, (145, 301))
    for scale in (1.0, 0.5, 1.7):
        for c in (0.37j, 0.3 + 0.2j):
            const = complex(c) * _RHO0_CONST * 2.0 ** (-k / 2.0) * scale ** (-(k + 1))
            if const.imag == 0.0:
                const = const.real
            want = const * dawson_derivative(b / (scale * np.sqrt(2.0)), k)
            got = dawson_profile("rho", k, c, scale).real_eval(b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (scale, c)


# The Dawson-family evaluators as they were before one builder made them all:
# ρ₀ with its own lambdas, the seeds ρ₀^{(k)} from their own spectrum, and
# ρ_k = c_k·ρ₀^{(k)} from the seed's spectrum times c_k. They are the
# reference that `dawson_profile` must reproduce bit for bit.
def _reference_rho0_real(b):
    from ghostlet.profiles import _RHO0_CONST

    return _RHO0_CONST * dawsn(np.asarray(b, dtype=float) / np.sqrt(2.0))


def _reference_rho0_spec(w):
    return np.sign(w) * _gauss(w) + 0.0j


def _reference_real(k, scale, c):
    from ghostlet.profiles import _RHO0_CONST, dawson_derivative

    const = complex(c) * _RHO0_CONST * 2.0 ** (-k / 2.0) * scale ** (-(k + 1))
    if const.imag == 0.0:
        const = const.real

    def real(b):
        vals = dawson_derivative(b, k, scale=scale * np.sqrt(2.0))
        if isinstance(const, float):
            vals *= const
            return vals
        return const * vals

    return real


def _reference_seed_spec(k, scale, w):
    w = np.asarray(w, dtype=float)
    return (1j * w) ** k * np.sign(w) * _gauss(scale * w)


def _reference_zero(sigma, raw, omega_grid=DEFAULT_OMEGA_GRID):
    """The second zero-pairing rule, |p| ≤ 1e-8·max(1, ⟨|σ♯|, |ρ♯|⟩)."""
    su, ru = sigma.spectral_values(omega_grid), raw.spectral_values(omega_grid)
    tv = weighted_omega_inner(np.abs(su), np.abs(ru), 1, omega_grid).real
    return abs(weighted_omega_inner(su, ru, 1, omega_grid)) <= 1e-8 * max(1.0, tv)


def _unit_sigmas():
    """tanh, the Gaussian, a shifted Gaussian and gauss_d1..gauss_d4 made unit
    by `make_operator`."""
    from ghostlet import make_operator

    grid_a, grid_x = Grid((-1.0, -1.0), (1.0, 1.0), (3, 3)), Grid.line(-1.0, 1.0, 3)
    return [tanh_profile(), gaussian_profile(), gaussian_profile(center=0.5)] + [
        make_operator(gaussian_derivative_profile(k), grid_a, grid_x).sigma for k in (1, 2, 3, 4)]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


B_SIGNED_ZEROS = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-0.0, 0.0]])


def test_dawson_builder_reproduces_rho0_and_the_seeds_bit_for_bit():
    """ρ₀ is the builder at k = 0, c = 1; each seed ρ₀^{(k)} (k = 1..8, at
    three scales) is the builder at c = 1. Real evaluators on a b grid with
    ±0, spectra on `DEFAULT_OMEGA_GRID`, signed zeros included. The seeds'
    spectra also hold on |ω| ≤ 200, where the floored Gaussian leaves signed
    zeros that a multiply by c = 1 would flip; ρ₀'s old `+ 0.0j` made those
    +0, so ρ₀ is compared on the default grid only."""
    w = DEFAULT_OMEGA_GRID.axis(0)
    w_wide = np.concatenate([w, X_WIDE])
    rho0 = rho0_profile()
    assert (rho0.name, rho0.parity) == ("rho0", "odd")
    assert _same_bits(rho0.real_eval(B_SIGNED_ZEROS), _reference_rho0_real(B_SIGNED_ZEROS))
    assert _same_bits(rho0.spectral_eval(w), _reference_rho0_spec(w))
    for k in range(1, 9):
        for scale in (1.0, 0.5, 1.7):
            seed = _rho_k_unnormalized(k, scale)
            assert seed.parity == ("even" if k % 2 else "odd")
            assert _same_bits(seed.real_eval(B_SIGNED_ZEROS),
                              _reference_real(k, scale, 1.0)(B_SIGNED_ZEROS)), (k, scale)
            assert _same_bits(seed.spectral_eval(w_wide),
                              _reference_seed_spec(k, scale, w_wide)), (k, scale)


@pytest.mark.parametrize("index", range(7))
def test_rho_family_members_are_the_builder_at_c_k_bit_for_bit(index):
    """ρ_k = c_k·ρ₀^{(k)} for k = 1..8 against each of seven activations: c_k
    from the old rule (pairing 1 when it is nonzero, else unit weighted norm),
    and evaluators equal to the seed's spectrum times c_k and to the real
    evaluator at c_k, bit for bit."""
    sigma = _unit_sigmas()[index]
    w = DEFAULT_OMEGA_GRID.axis(0)
    family = make_rho_family(8, sigma=sigma)
    assert _same_bits(family[0].spectral_eval(w), _reference_rho0_spec(w))
    for k in range(1, 9):
        raw = _rho_k_unnormalized(k)
        raw_vals = raw.spectral_values(DEFAULT_OMEGA_GRID)
        if _reference_zero(sigma, raw):
            c_k = 1j / weighted_omega_norm(raw_vals, 1, DEFAULT_OMEGA_GRID)
        else:
            c_k = 1.0 / np.conj(pairing(sigma, raw, 1))
        member = family[k]
        assert (member.name, member.parity) == (f"rho{k}", raw.parity)
        assert _same_bits(member.spectral_eval(w), c_k * _reference_seed_spec(k, 1.0, w)), k
        assert _same_bits(member.real_eval(B_SIGNED_ZEROS),
                          _reference_real(k, 1.0, c_k)(B_SIGNED_ZEROS)), k


def test_numerically_zero_is_the_old_rule_on_the_dawson_family():
    """`AdmissibilityReport.numerically_zero`, now the only zero-pairing rule,
    agrees with the retired 1e-8·max(1, ⟨|σ♯|, |ρ♯|⟩) rule on all 56 pairs of
    seven activations and the seeds k = 1..8, with a wide gap between the
    zero pairings and the others."""
    from ghostlet import admissibility

    zeros, nonzeros = [], []
    for sigma in _unit_sigmas():
        for k in range(1, 9):
            raw = _rho_k_unnormalized(k)
            report = admissibility(sigma, raw, 1)
            assert report.numerically_zero == _reference_zero(sigma, raw), (sigma.name, k)
            (zeros if report.numerically_zero else nonzeros).append(abs(report.pairing))
    assert len(zeros) + len(nonzeros) == 56 and zeros and nonzeros
    assert max(zeros) <= 1e-12 and min(nonzeros) >= 0.5


def test_tanh_spectrum_singular_at_zero():
    with pytest.raises(SingularPointError):
        tanh_profile().spectral_eval(np.array([0.0]))


def test_relu_has_no_spectral_path():
    relu = relu_profile()
    with pytest.raises(UnsupportedProfileError):
        relu.spectral_values(DEFAULT_OMEGA_GRID)


def test_hermite_basis_orthonormal():
    grid = Grid.line(-10.0, 10.0, 801)
    basis = hermite_basis(3, grid)
    e0, e1 = basis.members[0], basis.members[1]
    assert l2_inner(e0, e0).real == pytest.approx(1.0, abs=1e-6)
    assert abs(l2_inner(e0, e1)) < 1e-6
    # closed-form Hermite-0 oracle
    x = grid.axis(0)
    assert np.max(np.abs(e0.values - np.pi ** -0.25 * np.exp(-x ** 2 / 2))) < 1e-10


def test_hermite_basis_requires_wide_grid():
    with pytest.raises(DomainError):
        hermite_basis(12, Grid.line(-4.0, 4.0, 101))


def test_hermite_basis_requires_fine_grid():
    """n Hermite functions need π/Δx ≥ √(2n + 1) + 2.5 besides the half-width:
    [−8, 8, 21] (Δx = 0.8) holds none, the default [−8, 8, 161] is held to 17
    by its half-width, and at the spacing limit the basis builds, for every
    offset of the nodes."""
    from ghostlet.profiles import hermite_capacity

    assert hermite_capacity(Grid.line(-8.0, 8.0, 21)) == 0
    assert hermite_capacity(Grid.line(-8.0, 8.0, 161)) == 17
    with pytest.raises(DomainError, match="spacing 0.8"):
        hermite_basis(3, Grid.line(-8.0, 8.0, 21))
    for n in (1, 2, 3, 8):
        dx = np.pi / (np.sqrt(2 * n + 1) + 2.5) * (1.0 - 1e-12)
        for shift in (0.0, 0.25, 0.5):
            nodes = int(32.0 / dx)
            lo = -16.0 + shift * dx
            grid = Grid.line(lo, lo + dx * nodes, nodes + 1)
            assert hermite_capacity(grid) == n, (n, shift)
            hermite_basis(n, grid)


def test_hermite_fourier_identity():
    # ê_n(ξ) = √(2π)(−i)^n e_n(ξ), cross-checked against the engine
    from ghostlet import fourier_forward, sample
    from ghostlet.profiles import hermite_fourier

    xg = Grid.line(-12.0, 12.0, 1024)
    for n in (0, 1, 4):
        u = sample(xg, lambda x, n=n: hermite_function(n, x))
        got = fourier_forward(u, xg).values
        expect = hermite_fourier(n, xg.axis(0))
        assert np.max(np.abs(got - expect)) < 1e-8


def test_gram_schmidt_single_candidate_normalizes():
    fam = gram_schmidt_l2m([_rho_k_unnormalized(2)], m=1)
    v = fam.members[0].spectral_values(DEFAULT_OMEGA_GRID)
    assert weighted_omega_norm(v, 1, DEFAULT_OMEGA_GRID) == pytest.approx(1.0, abs=1e-8)


def test_gram_schmidt_identity_gram():
    fam = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    assert fam.gram_residual < 1e-6
    assert len(fam) == 3


def test_gram_schmidt_dependent_candidate_named():
    cands = [_rho_k_unnormalized(1), _rho_k_unnormalized(2), _rho_k_unnormalized(1)]
    with pytest.raises(DomainError, match="candidate 2"):
        gram_schmidt_l2m(cands, m=1)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_dawson_matches_scipy_everywhere(x):
    """The k = 0 derivative evaluator is scipy's Dawson function, bit for bit."""
    from ghostlet.profiles import dawson_derivative

    assert dawson_derivative(x, 0) == dawsn(x)


def test_interp_profile_keeps_array_shape():
    from ghostlet.profiles import _interp_profile

    grid = DEFAULT_OMEGA_GRID
    om = grid.axis(0)
    prof = _interp_profile("g", grid, np.exp(-om ** 2 / 2.0) * (1.0 + 0.5j * om))
    w = np.outer(np.linspace(-2.0, 2.0, 7), np.linspace(-9.0, 9.0, 5))
    got = prof.spectral_eval(w)
    assert got.shape == w.shape
    assert np.max(np.abs(got - np.exp(-w ** 2 / 2.0) * (1.0 + 0.5j * w))) < 1e-6
    assert np.array_equal(prof.spectral_eval(np.array([[-12.5, 13.0]])), np.zeros((1, 2)))


TINY = np.finfo(float).tiny
X_WIDE = np.linspace(-200.0, 200.0, 40001)


def _subnormal_count(values):
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    return sum(int(np.sum((p != 0.0) & (np.abs(p) < TINY))) for p in parts)


def _plain_gauss(x):
    with np.errstate(under="ignore"):
        return np.exp(-(x ** 2) / 2.0)


def _assert_floored(got, plain, below):
    """No subnormal output, exactly 0 where the plain formula's Gaussian is
    below the floor, and the plain formula bit for bit elsewhere."""
    assert _subnormal_count(got) == 0
    assert np.all(got[below] == 0.0)
    assert np.array_equal(got[~below], plain[~below])


def test_gauss_floors_the_plain_formula():
    plain = _plain_gauss(X_WIDE)
    assert _subnormal_count(plain) > 0
    _assert_floored(_gauss(X_WIDE), plain, plain < _GAUSS_FLOOR)
    wide = gaussian_profile(width=0.7, center=0.3).real_eval(X_WIDE)
    with np.errstate(under="ignore"):
        plain = np.exp(-((X_WIDE - 0.3) ** 2) / (2.0 * 0.7 ** 2))
    _assert_floored(wide, plain, plain < _GAUSS_FLOOR)


def test_hermite_functions_floor_the_plain_recurrence():
    below = _plain_gauss(X_WIDE) < _GAUSS_FLOOR
    h_prev, h = np.zeros_like(X_WIDE), np.pi ** (-0.25) * _plain_gauss(X_WIDE)
    for n in range(12):
        _assert_floored(hermite_function(n, X_WIDE), h, below)
        with np.errstate(under="ignore"):
            h_next = X_WIDE * np.sqrt(2.0 / (n + 1)) * h - np.sqrt(n / (n + 1.0)) * h_prev
        h_prev, h = h, h_next


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gaussian_derivative_evaluators_floor_the_plain_formula(k):
    prof = gaussian_derivative_profile(k)
    gauss = _plain_gauss(X_WIDE)
    below = gauss < _GAUSS_FLOOR
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    with np.errstate(under="ignore"):
        real = (-1.0) ** k * hermite_e.hermeval(X_WIDE, coeffs) * gauss
        spec = (1j * X_WIDE) ** k * np.sqrt(2.0 * np.pi) * gauss
    assert _subnormal_count(real) > 0
    _assert_floored(prof.real_eval(X_WIDE), real, below)
    _assert_floored(prof.spectral_eval(X_WIDE), spec, below)


@pytest.mark.parametrize("k, scale", [(1, 1.0), (2, 0.5), (3, 1.7)])
def test_rho_spectra_floor_the_plain_formula(k, scale):
    gauss = _plain_gauss(scale * X_WIDE)
    below = gauss < _GAUSS_FLOOR
    with np.errstate(under="ignore"):
        spec = (1j * X_WIDE) ** k * np.sign(X_WIDE) * gauss
    _assert_floored(_rho_k_unnormalized(k, scale).spectral_eval(X_WIDE), spec, below)
    _assert_floored(rho0_profile().spectral_eval(X_WIDE), np.sign(X_WIDE) * _plain_gauss(X_WIDE)
                    + 0.0j, _plain_gauss(X_WIDE) < _GAUSS_FLOOR)


@pytest.mark.parametrize("k", range(9))
def test_gaussian_derivative_real_evaluator_is_the_plain_expression_bit_for_bit(k):
    """The blocked, in-place evaluator returns (−1)^k·hermeval(b, e_k)·_gauss(b)
    bit for bit (signed zeros included): on [−200, 200] across several
    blocks, at ±0.0, on a 0-d input and on a non-contiguous view."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0

    def plain(b):
        b = np.asarray(b, dtype=float)
        return np.asarray((-1.0) ** k * hermite_e.hermeval(b, coeffs) * _gauss(b))

    real = gaussian_derivative_profile(k).real_eval
    rng = np.random.default_rng(k)
    wide = np.concatenate([X_WIDE, rng.uniform(-200.0, 200.0, 3000), [0.0, -0.0, 1e-300]])
    view = rng.uniform(-40.0, 40.0, (300, 201))[::3, 1::2]
    for b in (wide, np.array([0.0, -0.0]), np.array(-0.0), np.array(1.7), view):
        got, want = real(b), plain(b)
        assert got.shape == want.shape == np.shape(b)
        assert got.tobytes() == want.tobytes()
