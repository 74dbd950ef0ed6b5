import numpy as np
import pytest

from ghostlet import (
    DataError,
    DomainError,
    FiniteModel,
    Grid,
    LayerSpec,
    NascentDelta,
    ParamDistribution,
    edge_points,
    finite_ridgelet_coeffs,
    forward_s,
    gaussian_derivative_profile,
    generalization_bound,
    gram_schmidt_l2m,
    hermite_basis,
    l2_inner,
    l2_norm,
    layer_norms,
    make_operator,
    mollify,
    point_mass_network,
    ridgelet_fourier,
    sample,
    sample_parameters,
    smooth_convolve,
)
from ghostlet.finite_models import (
    _FACTOR_FLOOR,
    DENSITY_PROPORTIONAL,
    EXCLUSIVE,
    INCLUSIVE,
    UNIFORM_BOX,
    _axis_factors,
)
from ghostlet.grids import convolution_grid
from ghostlet.nullspace import ridgelet_atom
from ghostlet.profiles import Profile1D, _rho_k_unnormalized

from conftest import bump_mix

XG = Grid.line(-6.0, 6.0, 121)
PG = Grid((-10.0, -32.0), (10.0, 32.0), (161, 257))


@pytest.fixture(scope="module")
def opf():
    return make_operator(gaussian_derivative_profile(3), PG, XG)


@pytest.fixture(scope="module")
def gamma_smooth_pair(opf):
    f = bump_mix(140, grid=XG, center_max=1.5)
    gamma = ridgelet_fourier(f, opf.sigma, PG)
    delta = NascentDelta("gaussian", 4.0 * min(PG.spacing))
    return gamma, delta, smooth_convolve(gamma, delta)


def test_nascent_delta_unit_mass():
    # The trapezoid sum resolves the bump to 1e-6 only for h <= ε/40 (its
    # error is -9.6e-5 at h = ε/10, 1.4e-6 at ε/20, 3.2e-9 at ε/40), so the
    # grid has h = ε/40 for both shapes.
    for shape in ("gaussian", "bump"):
        delta = NascentDelta(shape, 0.5)
        g = Grid.symmetric([3.0, 3.0], [481, 481])
        vals = delta.values(g.points()).reshape(g.counts)
        mass = float(np.sum(vals * g.weights()))
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_nascent_delta_scaling_law():
    delta = NascentDelta("gaussian", 0.3)
    pts = np.array([[0.2, -0.1], [0.5, 0.4]])
    expect = delta.base_values(pts / 0.3) / 0.3 ** 2
    assert np.allclose(delta.values(pts), expect, rtol=1e-12)


def test_nascent_delta_validation():
    with pytest.raises(DomainError):
        NascentDelta("triangle", 0.5)
    with pytest.raises(DomainError):
        NascentDelta("gaussian", -1.0)


def test_nascent_delta_weak_convergence():
    """(D2): pairing against fixed smooth probes converges as ε halves."""
    g = Grid.symmetric([4.0, 4.0], [161, 161])
    probes = [lambda a, b: np.exp(-(a ** 2 + b ** 2) / 2),
              lambda a, b: np.cos(a) * np.exp(-(b ** 2) / 3),
              lambda a, b: a * np.exp(-(a ** 2 + b ** 2) / 2)]
    for probe in probes:
        target = probe(0.0, 0.0)
        gaps = []
        for eps in (0.8, 0.4, 0.2):
            delta = NascentDelta("gaussian", eps)
            mesh = np.stack(np.meshgrid(g.axis(0), g.axis(1), indexing="ij"), axis=-1)
            vals = delta.values(mesh) * probe(mesh[..., 0], mesh[..., 1])
            gaps.append(abs(float(np.sum(vals * g.weights())) - target))
        assert gaps[2] < gaps[0] + 1e-12


def test_smoothing_converges_to_identity(gamma_smooth_pair):
    """(D3): ‖γ∗δ^ε − γ‖ decreases monotonically as ε halves."""
    gamma, delta, _ = gamma_smooth_pair
    errs = [l2_norm(smooth_convolve(gamma, NascentDelta("gaussian", e)) - gamma)
            for e in (0.8, 0.4, 0.2)]
    assert errs[0] > errs[1] > errs[2]


def _mass(fld) -> complex:
    """∫ field over its grid box by the trapezoid rule (`Grid.weights`)."""
    return complex(np.sum(fld.grid.weights() * fld.values))


def test_mollify_single_point_unit_mass():
    delta = NascentDelta("gaussian", 0.4)
    model = FiniteModel(points=np.array([[0.5, 1.0]]), weights=np.array([1.0 + 0j]))
    emb = mollify(model, delta, PG)
    assert _mass(emb) == pytest.approx(1.0, abs=1e-4)


def test_mollify_zero_weights():
    delta = NascentDelta("gaussian", 0.4)
    model = FiniteModel(points=np.array([[0.0, 0.0], [1.0, 1.0]]),
                        weights=np.array([0.0, 0.0]))
    assert l2_norm(mollify(model, delta, PG)) == 0.0


@pytest.mark.parametrize("bad", ["point", "weight"])
def test_finite_model_rejects_non_finite_entries(bad):
    """NaN/Inf in a point or a weight is bad data (DataError), as in a field."""
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    weights = np.array([1.0, 1.0 + 0j])
    if bad == "point":
        points[1, 0] = np.nan
    else:
        weights[0] = np.inf
    with pytest.raises(DataError):
        FiniteModel(points=points, weights=weights)


def test_mollify_mass_identity(gamma_smooth_pair):
    gamma, delta, _ = gamma_smooth_pair
    model = sample_parameters(gamma, 500, seed=1)
    emb = mollify(model, delta, PG)
    expect = np.sum(model.weights) / model.p
    assert _mass(emb) == pytest.approx(expect, abs=1e-4 * max(1.0, abs(expect)))


def test_mollify_margin_warning():
    delta = NascentDelta("gaussian", 0.5)
    model = FiniteModel(points=np.array([[9.9, 0.0]]), weights=np.array([1.0]))
    assert edge_points(model, delta, PG) == 1
    assert edge_points(FiniteModel(points=np.array([[8.4, 0.0]]), weights=np.array([1.0])),
                       delta, PG) == 0


def _brute_mollify(model, delta, grid):
    """The reference sum Σ_k (w_k/p)·δ^ε(node − v_k), all points at once."""
    nodes = grid.points()
    vals = delta.values(nodes[None, :, :] - model.points[:, None, :])
    return ((model.weights / model.p) @ vals).reshape(grid.counts)


# ε = 0.25 on a b-range of ±10 reaches offsets of about 70ε, so the separable path
# meets factors below the floor and exp arguments beyond its underflow point.
MG = Grid((-4.0, -10.0), (4.0, 10.0), (33, 81))
# Every 4th a node and 8th b node of MG, box edges included: p ≥ 100 draws from
# these 99 nodes repeat nodes, as density sampling does.
MG_COARSE = MG.points().reshape(33, 81, 2)[::4, ::8].reshape(-1, 2)


def _random_model(rng, p, lo=(-3.0, -8.0), hi=(3.0, 8.0), imag_scale=0.0, nodes=None):
    """p points uniform in [lo, hi], or drawn with repeats from the `nodes` there."""
    if nodes is None:
        points = rng.uniform(lo, hi, (p, 2))
    else:
        inside = nodes[np.all((nodes >= lo) & (nodes <= hi), axis=1)]
        points = inside[rng.integers(len(inside), size=p)]
    re = rng.standard_normal(p)
    return FiniteModel(points=points, weights=re + 1j * imag_scale * rng.standard_normal(p))


def _node_model(rng, p, nodes, lo=MG.lower, hi=MG.upper, imag_scale=0.0):
    """A model on grid nodes that repeats nodes and holds some on the box edge."""
    model = _random_model(rng, p, lo, hi, imag_scale, nodes)
    assert len(np.unique(model.points, axis=0)) < p
    assert np.any((model.points == MG.lower) | (model.points == MG.upper))
    return model


@pytest.mark.parametrize("kind", ["real", "near_real", "complex", "near_real_on_nodes"])
def test_mollify_matches_brute_force_sum(kind):
    """The real separable path equals the point-by-point sum to 1e-12 in max
    norm, for real weights, weights whose Im parts are 1e-13 of their Re
    parts (what density sampling of a real field gives) and complex ones, and
    for a density-sampling-like model on grid nodes, whose repeated nodes the
    separable path sums into one table entry."""
    imag_scale = {"real": 0.0, "complex": 1.0}.get(kind, 1e-13)
    rng = np.random.default_rng(21)
    on_nodes = kind.endswith("on_nodes")
    model = (_node_model(rng, 300, MG_COARSE, imag_scale=imag_scale) if on_nodes
             else _random_model(rng, 300, imag_scale=imag_scale))
    delta = NascentDelta("gaussian", 0.25)
    got = mollify(model, delta, MG)
    ref = _brute_mollify(model, delta, MG)
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    if kind.startswith("near_real"):
        assert np.max(np.abs(got.values.imag - ref.imag)) <= 1e-12 * np.max(np.abs(ref.imag))
    assert (edge_points(model, delta, MG) > 0) == on_nodes


def test_mollify_matches_brute_force_near_the_edge():
    """Points within 3ε of the box edge, drawn uniformly or from the grid
    nodes with repeats and edge nodes: same sum, and the warning is set."""
    rng = np.random.default_rng(22)
    delta = NascentDelta("gaussian", 0.5)
    lo, hi = (2.6, 8.6), (4.0, 10.0)
    for model in (_random_model(rng, 40, lo, hi, imag_scale=1.0),
                  _node_model(rng, 40, MG.points(), lo, hi, imag_scale=1.0)):
        got = mollify(model, delta, MG)
        ref = _brute_mollify(model, delta, MG)
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert edge_points(model, delta, MG) == model.p == 40


def test_mollify_is_relative_to_the_weight_scale():
    """Weights scaled by 1e-200 give 1e-200 times the field: the floor is
    relative to max|w|, so tiny weights are not zeroed. Also on grid nodes."""
    rng = np.random.default_rng(23)
    delta = NascentDelta("gaussian", 0.25)
    for model in (_random_model(rng, 200, imag_scale=1.0),
                  _node_model(rng, 200, MG_COARSE, imag_scale=1.0)):
        tiny = FiniteModel(points=model.points, weights=1e-200 * model.weights)
        unit = mollify(model, delta, MG).values
        got = mollify(tiny, delta, MG).values
        assert np.max(np.abs(got - 1e-200 * unit)) <= 1e-13 * 1e-200 * np.max(np.abs(unit))
        ref = _brute_mollify(model, delta, MG)
        assert np.max(np.abs(unit - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_axis_factors_floor_the_plain_formula():
    """The factor routine is the plain formula exp(−u²/2)/√(2π), bit for
    bit, where that is at least the floor, and 0 where it is below; no
    entry is subnormal."""
    nodes = np.linspace(-32.0, 32.0, 129)
    centers = np.random.default_rng(24).uniform(-20.0, 20.0, 500)
    got = _axis_factors(nodes, centers, 0.5)
    u = (nodes[None, :] - centers[:, None]) / 0.5
    with np.errstate(under="ignore"):
        plain = np.exp(-(u ** 2) / 2.0) / np.sqrt(2.0 * np.pi)
    below = plain < _FACTOR_FLOOR
    assert np.any(below) and np.any((plain > 0.0) & (plain < np.finfo(float).tiny))
    assert got.shape == (500, 129) and got.flags.c_contiguous
    assert np.all(got[below] == 0.0)
    assert np.array_equal(got[~below], plain[~below])
    assert not np.any((got != 0.0) & (np.abs(got) < np.finfo(float).tiny))


@pytest.mark.parametrize("shape, grid", [
    ("bump", Grid((-3.0, -4.0), (3.0, 4.0), (49, 65))),
    ("gaussian", Grid((-2.0, -2.0, -3.0), (2.0, 2.0, 3.0), (13, 13, 17))),
])
def test_mollify_point_loop_matches_brute_force_sum(shape, grid):
    """The per-point loop (the bump base, and every dim ≠ 2) equals the
    reference sum, at p = 20."""
    rng = np.random.default_rng(25)
    lo, hi = np.asarray(grid.lower) + 1.0, np.asarray(grid.upper) - 1.0
    model = FiniteModel(points=rng.uniform(lo, hi, (20, grid.dim)),
                        weights=rng.standard_normal(20) + 1j * rng.standard_normal(20))
    delta = NascentDelta(shape, 0.6)
    got = mollify(model, delta, grid)
    ref = _brute_mollify(model, delta, grid)
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bump_mass_is_computed_once_per_dimension(monkeypatch):
    """A bump `mollify` computes the bump's mass once, not once per point,
    and the field is the one the uncached mass gives, bit for bit."""
    import ghostlet.finite_models as finite_models

    grid = Grid((-3.0, -4.0), (3.0, 4.0), (49, 65))
    rng = np.random.default_rng(26)
    model = FiniteModel(points=rng.uniform((-2.0, -3.0), (2.0, 3.0), (30, 2)),
                        weights=rng.standard_normal(30) + 1j * rng.standard_normal(30))
    delta = NascentDelta("bump", 0.6)
    finite_models._bump_mass.cache_clear()
    cached = mollify(model, delta, grid).values
    info = finite_models._bump_mass.cache_info()
    assert (info.misses, info.hits) == (1, model.p - 1)
    monkeypatch.setattr(finite_models, "_bump_mass", finite_models._bump_mass.__wrapped__)
    np.testing.assert_array_equal(mollify(model, delta, grid).values, cached)


def _bump_spectrum_by_direct_sum(delta, freq):
    """δ̂^ε(ξ) of the bump as one dense sum Σ_v w_v φ(v) e^{−iεξ·v} over the
    129-per-axis trapezoid nodes v of [−1, 1]^dim, a few ξ at a time."""
    g = Grid.symmetric([1.0] * freq.dim, [129] * freq.dim)
    nodes = g.points()
    terms = g.weights().ravel() * delta.base_values(nodes)
    xi = delta.epsilon * freq.points()
    return np.concatenate([np.exp(-1j * xi[i:i + 64] @ nodes.T) @ terms
                           for i in range(0, len(xi), 64)]).reshape(freq.counts)


@pytest.mark.parametrize("freq, epsilon", [
    (convolution_grid(Grid((-10.0, -32.0), (10.0, 32.0), (21, 17))), 0.5),
    (Grid.symmetric([20.0], [50]), 0.1),
    (Grid.symmetric([20.0], [50]), 2.0),
], ids=["2d", "1d-narrow", "1d-wide"])
def test_bump_spectrum_matches_the_direct_sum(freq, epsilon):
    """The bump's spectrum is `fourier_forward` of φ onto the ε-scaled grid:
    the dense quadrature sum, to within roundoff."""
    delta = NascentDelta("bump", epsilon)
    ref = _bump_spectrum_by_direct_sum(delta, freq)
    assert np.max(np.abs(delta.spectrum(freq) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gaussian_spectrum_is_the_closed_form():
    freq = convolution_grid(PG)
    delta = NascentDelta("gaussian", 0.3)
    xi = freq.points()
    expected = np.exp(-(0.3 ** 2) * np.sum(xi ** 2, axis=-1) / 2.0) + 0.0j
    np.testing.assert_array_equal(delta.spectrum(freq), expected.reshape(freq.counts))


def test_mollified_network_converges_to_point_masses(opf, gamma_smooth_pair):
    """ε-halving: S[γ^ε_p] forms a Cauchy sequence toward the exact
    point-mass network oracle."""
    gamma, _, _ = gamma_smooth_pair
    model = sample_parameters(gamma, 200, seed=3)
    oracle = point_mass_network(model, opf.sigma, XG)
    errs = []
    for eps in (0.5, 0.25, 0.125):
        emb = mollify(model, NascentDelta("gaussian", eps), PG)
        errs.append(l2_norm(forward_s(opf, emb) - oracle))
    assert errs[0] > errs[1] > errs[2]


def test_point_mass_network_is_blocked_kernel_sum(monkeypatch):
    """point_mass_network goes through the blocked kernel sum (no evaluator
    call sees more than one block of σ(a·x − b) entries) and matches the
    plain complex sum (1/p) Σ w_k σ(a_k·x − b_k)."""
    import ghostlet.transforms as transforms

    monkeypatch.setattr(transforms, "_BLOCK", 4_000)
    rng = np.random.default_rng(17)
    p = 2_000
    model = FiniteModel(points=np.column_stack([rng.uniform(-10, 10, p),
                                                rng.uniform(-32, 32, p)]),
                        weights=rng.standard_normal(p) + 1j * rng.standard_normal(p))
    sigma = gaussian_derivative_profile(3)
    sizes = []

    def evaluate(b):
        sizes.append(np.size(b))
        return sigma.real_eval(b)

    got = point_mass_network(model, Profile1D(sigma.name, real_eval=evaluate), XG)
    assert max(sizes) <= 4_000 and len(sizes) > 1
    kernel = np.asarray(sigma.real_eval(model.points[:, :1] @ XG.points().T
                                        - model.points[:, 1:]), dtype=complex)
    reference = (model.weights / p) @ kernel
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(got.values - reference)) <= 1e-13 * scale


def test_sampling_requires_positive_p(gamma_smooth_pair):
    gamma, _, _ = gamma_smooth_pair
    with pytest.raises(DomainError):
        sample_parameters(gamma, 0, seed=0)


def test_density_sampling_histogram(gamma_smooth_pair):
    gamma, _, smooth = gamma_smooth_pair
    model = sample_parameters(smooth, 20000, seed=5, scheme=DENSITY_PROPORTIONAL)
    H, _, _ = np.histogram2d(model.points[:, 0], model.points[:, 1], bins=[20, 20],
                             range=[[-10, 10], [-32, 32]])
    H = H / H.sum()
    dens = np.abs(smooth.values) * PG.weights()
    edges_a = np.linspace(-10, 10, 21)
    edges_b = np.linspace(-32, 32, 21)
    ia = np.clip(np.searchsorted(edges_a, PG.axis(0), side="right") - 1, 0, 19)
    ib = np.clip(np.searchsorted(edges_b, PG.axis(1), side="right") - 1, 0, 19)
    D = np.zeros((20, 20))
    np.add.at(D, (ia[:, None].repeat(len(ib), 1), ib[None, :].repeat(len(ia), 0)), dens)
    D = D / D.sum()
    assert 0.5 * np.abs(H - D).sum() <= 0.1


def test_uniform_and_density_schemes_agree_in_expectation(opf):
    """On a constant field both estimators target the same smoothed model.

    The schemes are compared weakly, through pairings with broad smooth
    probes: the mollified fields themselves carry i.i.d. noise with relative
    standard error √(vol/(4πε²N)) = 0.113 per scheme at N = 8·4000, which no
    field-level tolerance of 0.05 can absorb. The relative standard error of
    each probe pairing is at most 0.007 per scheme (0.010 for the
    difference of two independent schemes), so the 0.05 tolerance is 5σ.
    """
    const = sample(PG, lambda a, b: np.ones_like(a + b), cls=ParamDistribution)
    delta = NascentDelta("gaussian", 4.0 * min(PG.spacing))
    outs = {}
    for scheme in (UNIFORM_BOX, DENSITY_PROPORTIONAL):
        acc = None
        for s in range(8):
            model = sample_parameters(const, 4000, seed=100 + s, scheme=scheme)
            emb = mollify(model, delta, PG)
            acc = emb if acc is None else acc + emb
        outs[scheme] = (1.0 / 8.0) * acc
    probes = [lambda a, b: np.ones_like(a + b),
              lambda a, b: (a / 10.0) ** 2 + 0.0 * b,
              lambda a, b: (b / 32.0) ** 2 + 0.0 * a,
              lambda a, b: np.exp(-(a / 5.0) ** 2 - (b / 16.0) ** 2)]
    for probe in probes:
        phi = sample(PG, probe)
        gap = l2_inner(outs[UNIFORM_BOX] - outs[DENSITY_PROPORTIONAL], phi)
        assert abs(gap) <= 0.05 * abs(l2_inner(const, phi))


def test_finite_coeffs_single_point_at_node(opf):
    basis = hermite_basis(3, XG)
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2)], m=1)
    delta = NascentDelta("gaussian", 4.0 * min(PG.spacing))
    node = np.array([[PG.axis(0)[80], PG.axis(1)[128]]])
    model = FiniteModel(points=node, weights=np.array([0.7 - 0.2j]))
    coeffs, gap, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (2, 2), PG)
    assert gap <= 1e-3


def test_finite_coeffs_two_formulas_agree(opf, gamma_smooth_pair):
    gamma, delta, _ = gamma_smooth_pair
    basis = hermite_basis(4, XG)
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    model = sample_parameters(gamma, 64, seed=7)
    _, gap, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (3, 2), PG)
    assert gap <= 1e-3


def test_finite_coeffs_planted_dominance(opf):
    basis = hermite_basis(4, XG)
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    delta = NascentDelta("gaussian", 4.0 * min(PG.spacing))
    gamma = ridgelet_atom(basis, 1, rho_basis.members[1], PG)
    doms = []
    for p in (200, 5000):
        model = sample_parameters(gamma, p, seed=11)
        coeffs, _, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (3, 3), PG)
        mags = np.abs(coeffs.c)
        doms.append(mags[1, 1] / (mags.sum() - mags[1, 1]))
    assert doms[1] > doms[0]
    assert doms[1] > 2.0


def test_ghosts_exist_for_finite_models(opf, gamma_smooth_pair):
    """A finite model sampled from a pure ghost still represents ≈ 0 in the
    real domain (the Eq.-16 sum carries zero pairing factors)."""
    basis = hermite_basis(4, XG)
    fam = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (3, 5)], m=1)
    ghost_field = ridgelet_atom(basis, 1, fam.members[0], PG)
    delta = NascentDelta("gaussian", 4.0 * min(PG.spacing))
    errs = []
    for p in (200, 20000):
        model = sample_parameters(ghost_field, p, seed=13)
        emb = mollify(model, delta, PG)
        errs.append(l2_norm(forward_s(opf, emb)))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.05 * l2_norm(ghost_field)


def test_generalization_bound_arithmetic():
    layer = LayerSpec(M=1.0, V=1.0, G_inclusive=1.0, G_exclusive=1.0)
    val = generalization_bound([layer], B=1.0, n=1, d=1)
    assert val == pytest.approx(np.sqrt(2 * np.log(2)) + 1.0, rel=1e-12)


def test_generalization_bound_norm_choice():
    layer = LayerSpec(M=2.0, V=3.0, G_inclusive=1.0, G_exclusive=1.0)
    inc = generalization_bound([layer], 1.0, 16, 1, INCLUSIVE)
    exc = generalization_bound([layer], 1.0, 16, 1, EXCLUSIVE)
    assert inc == exc


def test_generalization_bound_product_law():
    layers = [LayerSpec(M=1.0, V=1.0, G_inclusive=1.0, G_exclusive=0.1)] * 3
    inc = generalization_bound(layers, 1.0, 64, 3, INCLUSIVE)
    exc = generalization_bound(layers, 1.0, 64, 3, EXCLUSIVE)
    assert exc / inc == pytest.approx(1e-3, rel=1e-9)


def test_generalization_bound_monotonicity():
    base = [LayerSpec(M=1.0, V=2.0, G_inclusive=1.5, G_exclusive=1.0)]
    ref = generalization_bound(base, 1.0, 100, 1)
    assert generalization_bound([LayerSpec(2.0, 2.0, 1.5, 1.0)], 1.0, 100, 1) > ref
    assert generalization_bound(base, 2.0, 100, 1) > ref
    assert generalization_bound(base, 1.0, 400, 1) < ref


def test_generalization_bound_validation():
    layer = LayerSpec(M=1.0, V=1.0, G_inclusive=1.0, G_exclusive=1.0)
    with pytest.raises(DomainError):
        generalization_bound([layer], 1.0, 0, 1)
    with pytest.raises(DomainError):
        generalization_bound([layer], 1.0, 10, 2)
    with pytest.raises(DomainError):
        LayerSpec(M=1.0, V=1.0, G_inclusive=1.0, G_exclusive=2.0)


def test_layer_norms(opf, gamma_smooth_pair):
    gamma, _, _ = gamma_smooth_pair
    basis = hermite_basis(4, XG)
    fam = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (3, 5)], m=1)
    ghost = ridgelet_atom(basis, 1, fam.members[0], PG)

    inc, exc = layer_norms(opf, ghost)
    assert exc <= 2e-2 * inc                      # pure ghost

    inc, exc = layer_norms(opf, gamma)            # γ = range of S*
    assert exc == pytest.approx(inc, rel=2e-2)

    mix = gamma + 0.8 * ghost                     # Pythagoras
    inc, exc = layer_norms(opf, mix)
    assert exc ** 2 + (0.8 * l2_norm(ghost)) ** 2 == pytest.approx(inc ** 2, rel=1e-2)


def _mc_forward_curve(field, sigma, x, n_samples, rng):
    """The appendix-c Monte Carlo S curve as it was written before it became
    a uniformly drawn finite model (kept here as the reference)."""
    from ghostlet.grids import interpolate
    from ghostlet.transforms import _neuron_sum

    pts = np.column_stack([
        field.grid.lower[0] + (field.grid.upper[0] - field.grid.lower[0]) * rng.random(n_samples),
        field.grid.lower[1] + (field.grid.upper[1] - field.grid.lower[1]) * rng.random(n_samples),
    ])
    gvals = interpolate(field, pts) * (field.grid.volume / n_samples)
    return _neuron_sum(pts[:, :1], pts[:, 1], gvals, x[:, None], sigma.real_eval)


def test_uniform_finite_model_is_the_appendix_c_curve():
    """point_mass_network of a UNIFORM_BOX draw is the old Monte Carlo curve
    to roundoff (γ·V/p against γ·(V/p)), and advances the generator alike."""
    from ghostlet import tanh_profile

    grid = Grid((-6.0, -6.0), (6.0, 6.0), (25, 25))
    a, b = grid.mesh()
    field = ParamDistribution(grid, np.exp(-(a / 3.0) ** 2 - (b / 2.0) ** 2) * np.sin(a - b))
    x_grid = Grid.line(-1.0, 1.0, 41)
    sigma = tanh_profile()
    rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
    model = sample_parameters(field, 20_000, rng_new, UNIFORM_BOX)
    got = point_mass_network(model, sigma, x_grid).values
    want = _mc_forward_curve(field, sigma, x_grid.axis(0), 20_000, rng_old)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("cores", [1, 4])
def test_point_mass_network_divides_each_block_as_the_whole_array(monkeypatch, cores):
    """Each kernel block divides its own weight rows by p: the bits of the
    sum over the full-array division w/p, for complex weights with signed
    zeros and negative parts, p not a multiple of the block's rows, inline
    and on four workers."""
    import os

    import ghostlet.transforms as transforms
    from ghostlet import parallel, tanh_profile

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(parallel, "BLAS_PINNED", True)
    x_grid = Grid.line(-1.0, 1.0, 201)
    p = 5_001
    assert p % (transforms._BLOCK // x_grid.total_points) != 0
    rng = np.random.default_rng(23)
    re, im = rng.standard_normal(p), rng.standard_normal(p)
    re[::7], im[3::11] = -0.0, -0.0
    re[1::13], im[5::17] = 0.0, 0.0
    model = FiniteModel(points=rng.uniform(-6.0, 6.0, (p, 2)), weights=re + 1j * im)
    sigma = tanh_profile()
    got = point_mass_network(model, sigma, x_grid).values
    want = transforms._neuron_sum(model.points[:, :-1], model.points[:, -1],
                                  model.weights / model.p, x_grid.points(), sigma.real_eval)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uniform_s_curve_keeps_one_copy_of_points_and_weights(monkeypatch):
    """Drawing the appendix-c S curve (`sample_parameters` with UNIFORM_BOX,
    then `point_mass_network`) at p = 2·10⁵ allocates, above the model's
    live points and weights, at most one axis of draws (p floats) and one
    kernel block's argument and values: 4.2 MB on one core. Per-axis
    products with a `column_stack`, a second complex array for γ·volume and
    a full-size w/p copy put it at 7.4 MB."""
    import os
    import tracemalloc

    import ghostlet.transforms as transforms
    from ghostlet import tanh_profile

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (25, 25))
    a, b = grid.mesh()
    field = ParamDistribution(grid, np.exp(-(a / 3.0) ** 2 - (b / 2.0) ** 2) * np.sin(a - b))
    field.spline   # built before the measurement
    x_grid = Grid.line(-1.0, 1.0, 201)
    sigma = tanh_profile()
    p = 200_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = sample_parameters(field, p, np.random.default_rng(3), UNIFORM_BOX)
        point_mass_network(model, sigma, x_grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    live = model.points.nbytes + model.weights.nbytes
    block = 2 * transforms._BLOCK * 8   # σ's float64 argument and values
    assert peak - live <= p * 8 + block, (peak - live) / 1e6
