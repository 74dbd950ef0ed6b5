import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ghostlet import (
    DataError,
    DomainError,
    Grid,
    ParamDistribution,
    SampledFunction,
    l2_inner,
    l2_norm,
    sample,
    weighted_omega_inner,
)
from ghostlet.grids import cubic_spline, interpolate, uniform_points
from ghostlet.profiles import hermite_function


def test_grid_invariants():
    g = Grid.line(0.0, 1.0, 11)
    assert g.dim == 1
    assert_allclose(g.spacing[0], 0.1)
    assert g.total_points == 11
    with pytest.raises(DomainError):
        Grid.line(1.0, 0.0, 11)          # lower >= upper
    with pytest.raises(DomainError):
        Grid.line(0.0, 1.0, 1)           # needs 2+ points per axis


def _trapezoid(fld) -> complex:
    """∫ field over its grid box by the trapezoid rule: the sum over `Grid.weights`."""
    return complex(np.sum(fld.grid.weights() * fld.values))


def test_integrate_constant_is_exact():
    g = Grid.line(0.0, 1.0, 64)
    assert_allclose(_trapezoid(sample(g, lambda x: np.ones_like(x))).real, 1.0, atol=1e-14)


def test_integrate_zero():
    g = Grid.line(-3.0, 5.0, 33)
    assert _trapezoid(sample(g, lambda x: 0.0 * x)) == 0.0


def test_integrate_x_squared_vs_antiderivative_oracle():
    # closed form: x^3/3 on [0,1] -> 1/3
    g = Grid.line(0.0, 1.0, 101)
    assert_allclose(_trapezoid(sample(g, lambda x: x ** 2)).real, 1.0 / 3.0, atol=1e-4)


def test_uniform_points_draw_one_axis_after_the_other():
    """With a Generator, uniform_points is the column draw the appendix-c
    Monte Carlo curve used (kept here as the reference), bit for bit, and
    leaves the generator in the same state; an int seed starts a fresh one."""
    g = Grid((-6.0, -5.0), (6.0, 7.0), (9, 11))
    rng_new, rng_old = np.random.default_rng(17), np.random.default_rng(17)
    got = uniform_points(g, 1000, rng_new)
    want = np.column_stack([
        g.lower[0] + (g.upper[0] - g.lower[0]) * rng_old.random(1000),
        g.lower[1] + (g.upper[1] - g.lower[1]) * rng_old.random(1000),
    ])
    np.testing.assert_array_equal(got, want)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    np.testing.assert_array_equal(uniform_points(g, 1000, 17), want)


def test_interpolate_rejects_points_of_the_wrong_shape():
    """n points on a 1-D grid are (n, 1): a flat (n,) array used to read as
    one point of dimension n, and only its first entry was evaluated."""
    g = Grid.line(-1.0, 1.0, 21)
    f = sample(g, lambda x: x ** 2)
    x = np.array([0.1, 0.5, 0.9])
    assert_allclose(interpolate(f, x[:, None]), x ** 2, atol=1e-14)
    with pytest.raises(DomainError):
        interpolate(f, x)
    assert_allclose(interpolate(f, np.array([0.5])), [0.25], atol=1e-14)
    fld = ParamDistribution(Grid((-1.0, -1.0), (1.0, 1.0), (9, 9)), np.ones((9, 9)))
    assert_allclose(interpolate(fld, np.array([0.1, 0.2])), [1.0], atol=1e-14)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(DomainError):
            interpolate(fld, bad)


def test_interpolate_evaluates_the_cubic_spline_only():
    """`method` names the one interpolation; scipy's linear and nearest
    interpolators are no longer reachable through it."""
    f = sample(Grid.line(-1.0, 1.0, 21), lambda x: x ** 3)
    x = np.array([[0.15], [0.55]])
    assert_allclose(interpolate(f, x, method="cubic"), x[:, 0] ** 3, atol=1e-14)
    for method in ("linear", "nearest"):
        with pytest.raises(DomainError, match=method):
            interpolate(f, x, method=method)


def test_integrate_refinement_is_second_order():
    exact = 2.0 * np.sin(2.0)  # ∫_{-2}^{2} cos x dx
    errs = []
    for n in (33, 65, 129):
        g = Grid.line(-2.0, 2.0, n)
        errs.append(abs(_trapezoid(sample(g, np.cos)).real - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_nan_rejected():
    g = Grid.line(0.0, 1.0, 4)
    with pytest.raises(DataError):
        SampledFunction(g, np.array([0.0, np.nan, 1.0, 2.0]))
    g2 = Grid((0.0, 0.0), (1.0, 1.0), (3, 4))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        vals = np.ones(12, dtype=complex)
        vals[4] = bad
        with pytest.raises(DataError):
            ParamDistribution(g2, vals)
        with pytest.raises(DataError):
            sample(g2, lambda a, b: np.where((a == 0.5) & (b == 0.0), bad, 1.0 + 0j))


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "inf", "minus-inf", "inf-pair"])
def test_field_values_refuse_every_non_finite_entry(bad):
    """A NaN or ±Inf entry makes the sum non-finite, so the sum check sends it
    to the entrywise scan; an Inf/−Inf pair sums to NaN and is refused too."""
    vals = np.ones(6, dtype=complex)
    vals[1:1 + len(bad)] = bad
    with pytest.raises(DataError):
        SampledFunction(Grid.line(0.0, 1.0, 6), vals)


def test_field_values_accept_finite_entries_whose_sum_overflows():
    """[1e308, 1e308] sums to Inf, yet every entry is finite: the entrywise
    scan accepts it, with no overflow warning (the suite errors on warnings)."""
    u = SampledFunction(Grid.line(0.0, 1.0, 2), np.array([1e308, 1e308]))
    np.testing.assert_array_equal(u.values, [1e308, 1e308])


@pytest.mark.parametrize("grid", [Grid.line(-1.0, 2.0, 7), Grid((-1.0, 0.0), (1.0, 3.0), (5, 4)),
                                  Grid((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2, 3, 4))],
                         ids=["1d", "2d", "3d"])
def test_grid_arrays_are_built_once_read_only_and_exact(grid):
    """`axis`, `weights` and `points` hand out one read-only array each per
    grid, equal to the arrays built afresh from the grid's description."""
    fresh_axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(grid.lower, grid.upper, grid.counts)]
    fresh_weights = grid.axis_weights(0)
    for k in range(1, grid.dim):
        fresh_weights = np.multiply.outer(fresh_weights, grid.axis_weights(k))
    fresh_points = np.stack([d.ravel() for d in np.meshgrid(*fresh_axes, indexing="ij")], axis=-1)
    got = [*(grid.axis(k) for k in range(grid.dim)), grid.weights(), grid.points()]
    want = [*fresh_axes, fresh_weights, fresh_points]
    for arr, ref in zip(got, want):
        np.testing.assert_array_equal(arr, ref)
        assert arr.dtype == ref.dtype and arr.shape == ref.shape
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    assert grid.axis(0) is grid.axis(0) and grid.weights() is grid.weights()
    assert grid.points() is grid.points()
    twin = Grid(grid.lower, grid.upper, grid.counts)
    assert twin == grid and hash(twin) == hash(grid) and twin.points() is not grid.points()


def test_field_copies_the_callers_array():
    """The constructor and `sample` copy: later writes to the source array do
    not reach the field."""
    g = Grid.line(0.0, 1.0, 4)
    src = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    u = SampledFunction(g, src)
    kept = src.copy()
    v = sample(g, lambda x: kept)
    src[:] = -1.0
    kept[:] = -1.0
    assert_allclose(u.values, [1.0, 2.0, 3.0, 4.0])
    assert_allclose(v.values, [1.0, 2.0, 3.0, 4.0])
    assert src.flags.writeable and kept.flags.writeable


def test_adopted_array_is_not_copied():
    g = Grid.line(0.0, 1.0, 4)
    fresh = np.arange(4.0) + 0j
    u = SampledFunction._adopt(g, fresh)
    assert np.shares_memory(u.values, fresh)
    assert not u.values.flags.writeable
    with pytest.raises(DataError):
        SampledFunction._adopt(g, np.array([0.0, np.inf, 1.0, 2.0]))


def _assert_owned(fld):
    assert not fld.values.flags.writeable
    assert fld.values.flags.c_contiguous
    with pytest.raises(ValueError):
        fld.values[(0,) * fld.grid.dim] = 0.0


def test_values_are_read_only_everywhere():
    """Constructed fields, arithmetic results and operator results hold
    read-only, C-contiguous values."""
    from ghostlet import fourier_forward, partial_flat_b, partial_sharp_b

    g = Grid.line(-4.0, 4.0, 33)
    u = sample(g, lambda x: np.exp(-x ** 2))
    pg = Grid((-2.0, -4.0), (2.0, 4.0), (5, 33))
    gamma = ParamDistribution(pg, sample(pg, lambda a, b: np.exp(-a ** 2 - b ** 2)).values)
    gamma_sharp = partial_sharp_b(gamma, Grid.line(-3.0, 3.0, 16))
    for fld in (u, SampledFunction(g, u.values), gamma, u + u, u - u, 2.0 * u, u * 3, -u,
                gamma + gamma, fourier_forward(u, g), gamma_sharp,
                partial_flat_b(gamma_sharp, pg.sub(slice(-1, None)))):
        _assert_owned(fld)


def test_overflowing_arithmetic_rejected():
    """Arithmetic results go through the same finiteness scan as user input."""
    u = SampledFunction(Grid.line(0.0, 1.0, 3), np.array([1e308, 1.0, 0.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(DataError):
            u * 10
        with pytest.raises(DataError):
            u + u


def test_grid_mismatch_rejected():
    u = sample(Grid.line(0, 1, 8), lambda x: x)
    v = sample(Grid.line(0, 1, 9), lambda x: x)
    with pytest.raises(DomainError):
        l2_inner(u, v)


def test_trapezoid_linearity_machine_precision():
    g = Grid.line(-2.0, 3.0, 57)
    u = sample(g, lambda x: np.exp(-x ** 2) * (1 + 0.3j))
    v = sample(g, lambda x: np.sin(x))
    lhs = _trapezoid(2.5 * u + (-1.0 + 0.5j) * v)
    rhs = 2.5 * _trapezoid(u) + (-1.0 + 0.5j) * _trapezoid(v)
    assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_l2_inner_zero_and_hermitian():
    g = Grid.line(-4.0, 4.0, 65)
    z = sample(g, lambda x: 0.0 * x)
    assert l2_inner(z, z) == 0.0
    rng = np.random.default_rng(7)
    u = SampledFunction(g, rng.normal(size=65) + 1j * rng.normal(size=65))
    v = SampledFunction(g, rng.normal(size=65) + 1j * rng.normal(size=65))
    assert l2_inner(u, v) == pytest.approx(np.conj(l2_inner(v, u)), abs=1e-12)


def test_hermite_orthogonality_oracle():
    g = Grid.line(-12.0, 12.0, 1024)
    e0 = SampledFunction(g, hermite_function(0, g.axis(0)) + 0j)
    e1 = SampledFunction(g, hermite_function(1, g.axis(0)) + 0j)
    assert abs(l2_inner(e0, e1)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_l2_norm_triangle_inequality(seed):
    g = Grid.line(-3.0, 3.0, 41)
    rng = np.random.default_rng(seed)
    u = SampledFunction(g, rng.normal(size=41) + 1j * rng.normal(size=41))
    v = SampledFunction(g, rng.normal(size=41) + 1j * rng.normal(size=41))
    assert l2_norm(u + v) <= l2_norm(u) + l2_norm(v) + 1e-12


def test_weighted_inner_zero_and_symmetry():
    g = Grid.line(-12.0, 12.0, 1024)
    z = np.zeros(1024, dtype=complex)
    rng = np.random.default_rng(3)
    u = rng.normal(size=1024) * np.exp(-g.axis(0) ** 2 / 2)
    v = rng.normal(size=1024) * np.exp(-g.axis(0) ** 2 / 2)
    assert weighted_omega_inner(u, z, 1, g) == 0.0
    assert weighted_omega_inner(u, v, 1, g) == pytest.approx(
        np.conj(weighted_omega_inner(v, u, 1, g)), abs=1e-12)


def test_weighted_inner_gaussian_derivative_oracle():
    # ∫ ω² e^{-ω²} / |ω| dω = ∫ |ω| e^{-ω²} dω = 1 (closed form)
    g = Grid.line(-12.0, 12.0, 2048)
    u = g.axis(0) * np.exp(-g.axis(0) ** 2 / 2.0)
    assert weighted_omega_inner(u, u, 1, g).real == pytest.approx(1.0, abs=1e-6)


def test_weighted_inner_kink_rule_order():
    # the |ω| kink at 0 costs the plain trapezoid O(h²); the corrected rule
    # must fall at least 16× per halving of h on grids symmetric about 0,
    # and stay accurate when the origin sits off the cell centre
    errs = []
    for n in (512, 1024, 2048):
        g = Grid.line(-12.0, 12.0, n)
        u = g.axis(0) * np.exp(-g.axis(0) ** 2 / 2.0)
        errs.append(abs(weighted_omega_inner(u, u, 1, g).real - 1.0))
    assert errs[0] / errs[1] >= 16.0
    assert errs[1] / errs[2] >= 16.0
    g = Grid.line(-12.0, 13.3, 800)    # first node right of 0 at 0.03·h
    u = g.axis(0) * np.exp(-g.axis(0) ** 2 / 2.0)
    assert weighted_omega_inner(u, u, 1, g).real == pytest.approx(1.0, abs=1e-6)


def test_weighted_inner_parity_cancellation():
    g = Grid.line(-12.0, 12.0, 2048)
    omega = g.axis(0)
    even = np.exp(-omega ** 2 / 2.0)
    odd = omega * np.exp(-omega ** 2 / 2.0)
    val = weighted_omega_inner(even, odd, 1, g)
    assert abs(val.real) < 1e-10


def test_weighted_inner_rejects_node_at_zero():
    g = Grid.line(-1.0, 1.0, 21)  # odd count -> node at 0
    with pytest.raises(DomainError):
        weighted_omega_inner(np.ones(21), np.ones(21), 1, g)


def test_param_distribution_needs_two_axes():
    with pytest.raises(DomainError):
        ParamDistribution(Grid.line(0, 1, 4), np.zeros(4))


def test_interpolate_reproduces_node_values():
    """The cubic interpolant passes through the field's own nodes bit for
    bit: a node sits at t = 0 or t = 1 of its cell, where every weight but
    its value's is 0."""
    g = Grid((-10.0, -32.0), (10.0, 32.0), (161, 129))
    rng = np.random.default_rng(5)
    a, b = g.mesh()
    vals = np.exp(-(a / 4.0) ** 2 - (b / 9.0) ** 2) * (np.cos(a) + 1j * np.sin(b / 3.0)) \
        + 0.01 * (rng.standard_normal(g.counts) + 1j * rng.standard_normal(g.counts))
    fld = ParamDistribution(g, vals)
    assert np.array_equal(interpolate(fld, g.points()), fld.values.ravel())


def test_interpolate_bicubic_exact_and_zero_outside():
    """Not-a-knot cubic splines reproduce cubics in each variable; outside
    the box the value is 0."""
    g = Grid((-2.0, -3.0), (2.0, 3.0), (17, 25))

    def poly(a, b):
        return (1.0 + 2.0 * a - 0.5 * a ** 2 + 0.25 * a ** 3) * (0.5 - b + 0.2 * b ** 2 - 0.1 * b ** 3) \
            + 1j * (a ** 3 * b ** 3 - a * b ** 2)

    a, b = g.mesh()
    fld = ParamDistribution(g, poly(a, b))
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(-2.0, 2.0, 500), rng.uniform(-3.0, 3.0, 500)])
    pts = np.vstack([pts, [[-2.0, -3.0], [2.0, 3.0], [2.0, -3.0], [0.0, 3.0]]])
    scale = np.max(np.abs(fld.values))
    assert np.max(np.abs(interpolate(fld, pts) - poly(pts[:, 0], pts[:, 1]))) <= 1e-12 * scale
    outside = np.array([[-2.0 - 1e-9, 0.0], [0.0, 3.0 + 1e-9], [5.0, 5.0], [-7.0, 1.0]])
    assert np.array_equal(interpolate(fld, outside), np.zeros(4, dtype=complex))


def test_interpolate_builds_one_spline_per_field(monkeypatch):
    """Repeated cubic calls on one field build its spline once and return
    bit-identical values; a field made by arithmetic gets its own spline.
    The spline's table is read-only, like the field's values."""
    import ghostlet.grids as grids

    builds = []

    def counting(grid, values):
        builds.append(grid)
        return cubic_spline(grid, values)

    monkeypatch.setattr(grids, "cubic_spline", counting)
    g = Grid((-2.0, -3.0), (2.0, 3.0), (17, 25))
    a, b = g.mesh()
    fld = ParamDistribution(g, np.exp(-a ** 2 - b ** 2 / 4.0) * (1.0 + 0.5j * a))
    pts = np.random.default_rng(7).uniform([-2.0, -3.0], [2.0, 3.0], (300, 2))
    first = interpolate(fld, pts)
    second = interpolate(fld, pts)
    assert len(builds) == 1 and np.array_equal(first, second)
    assert not fld.spline.table.flags.writeable
    doubled = fld * 2.0
    assert np.array_equal(interpolate(doubled, pts), interpolate(doubled, pts))
    assert len(builds) == 2 and doubled.spline is not fld.spline
    assert_allclose(interpolate(doubled, pts), 2.0 * first, rtol=1e-13, atol=1e-15)


def test_cubic_spline_matches_scipy_cubic_spline_on_complex_1d_data():
    """On a 1-D grid the spline is scipy's complex not-a-knot CubicSpline
    (kept here as the reference): the same node values, the same values
    between nodes, and 0 outside the box."""
    from scipy.interpolate import CubicSpline

    g = Grid.line(-6.0, 5.0, 97)
    x = g.axis(0)
    rng = np.random.default_rng(7)
    vals = np.exp(-x ** 2 / 8.0) * (np.cos(2.0 * x) + 1j * np.sin(x)) \
        + 0.01 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    spline = cubic_spline(g, vals)
    reference = CubicSpline(x, vals)
    scale = np.max(np.abs(vals))
    assert np.max(np.abs(spline(x[:, None]) - vals)) <= 1e-13 * scale
    off = np.sort(rng.uniform(-6.0, 5.0, 400))
    assert np.max(np.abs(spline(off[:, None]) - reference(off))) <= 1e-13 * scale
    outside = np.array([-6.0 - 1e-9, 5.0 + 1e-9, -40.0, 12.0])
    assert np.array_equal(spline(outside[:, None]), np.zeros(4, dtype=complex))


def _scipy_not_a_knot(grid, values, points):
    """Reference: scipy's not-a-knot cubic B-spline of the same values
    (make_interp_spline along each grid axis, BSpline or NdBSpline to
    evaluate), 0 outside the closed box."""
    from scipy.interpolate import BSpline, NdBSpline, make_interp_spline

    coef = np.stack([values.real, values.imag], axis=-1)
    knots = []
    for d, nodes in enumerate(grid.axes()):
        spline = make_interp_spline(nodes, coef, k=3, axis=d)
        knots.append(spline.t)
        coef = np.moveaxis(spline.c, 0, d)
    if grid.dim == 1:
        vals = BSpline(knots[0], coef, 3, extrapolate=False)(points[:, 0])
    else:
        vals = NdBSpline(tuple(knots), coef, 3)(points)
    out = np.ascontiguousarray(vals).view(complex)[..., 0]
    out[~np.all((points >= grid.lower) & (points <= grid.upper), axis=-1)] = 0.0
    return out


@pytest.mark.parametrize("case", ["1-D", "1-D batch", "2-D"])
def test_cubic_spline_matches_scipy_not_a_knot_spline(case):
    """The spline agrees with scipy's not-a-knot spline (kept here as the
    reference) to 1e-13 of max|values| at random points, at nodes, on both
    box edges, at ±0.0 (a node) and one rounding step outside, where both
    are 0; at the nodes it returns the values bit for bit."""
    rng = np.random.default_rng(23)
    g, batch = {"1-D": (Grid.line(-6.0, 6.0, 97), ()),
                "1-D batch": (Grid.line(-5.0, 5.0, 41), (6,)),
                "2-D": (Grid((-4.0, -3.0), (4.0, 3.0), (33, 25)), ())}[case]
    mesh = [m.reshape(m.shape + (1,) * len(batch)) for m in g.mesh()]
    phase = 1.0 + np.arange(np.prod(batch, dtype=int)).reshape(batch)   # one per entry
    vals = np.exp(-sum((m / 3.0) ** 2 for m in mesh)) * np.exp(1j * phase * sum(mesh)) \
        + 0.01 * (rng.standard_normal(g.counts + batch) + 1j * rng.standard_normal(g.counts + batch))
    spline = cubic_spline(g, vals)
    lo, hi = np.array(g.lower), np.array(g.upper)
    nodes = g.points()
    pts = np.vstack([rng.uniform(lo, hi, (400, g.dim)), nodes[rng.integers(0, len(nodes), 40)],
                     lo, hi, np.where(np.arange(g.dim) % 2 == 0, lo, hi),
                     np.zeros(g.dim), np.full(g.dim, -0.0),
                     np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    got = spline(pts)
    want = _scipy_not_a_knot(g, vals, pts)
    assert got.shape == want.shape == (len(pts),) + batch
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(vals))
    assert np.all(got[-2:] == 0.0) and np.all(want[-2:] == 0.0)
    assert np.array_equal(spline(nodes), vals.reshape((len(nodes),) + batch))


@pytest.mark.parametrize("rows", [1, 5, 6, 64, 65, 1254])
def test_tridiagonal_solve_matches_dense_solve(rows):
    """The doubling-scan solve of tridiag(1, 4, 1), with its first-row
    correction, agrees with a dense solve on a batch of right-hand sides:
    below and above the scan's 64-row reach, and at the 1,254 rows of the
    f̂ spline's solve."""
    from ghostlet.grids import _solve_141

    tri = 4.0 * np.eye(rows) + np.eye(rows, k=1) + np.eye(rows, k=-1)
    rhs = np.random.default_rng(rows).standard_normal((rows, 3))
    want = np.linalg.solve(tri, rhs)
    got = _solve_141(rhs.copy())
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("counts", [(2,), (3,), (3, 9), (9, 2)])
def test_cubic_spline_needs_four_nodes_per_axis(counts):
    """The not-a-knot cubic takes at least 4 nodes on every axis: fewer is a
    DomainError naming the counts, where scipy's make_interp_spline raised
    "The number of derivatives at boundaries does not match"; 4 nodes
    reproduce a cubic exactly."""
    g = Grid((-1.0,) * len(counts), (1.0,) * len(counts), counts)
    with pytest.raises(DomainError, match="at least 4 nodes"):
        cubic_spline(g, np.zeros(counts))
    line = Grid.line(-1.0, 2.0, 4)
    x = line.axis(0)
    spline = cubic_spline(line, x ** 3 - x)
    off = np.linspace(-1.0, 2.0, 13)
    assert_allclose(spline(off[:, None]).real, off ** 3 - off, atol=1e-13)


def _each_by_entry_loop(grid, values, points):
    """Reference for `Spline.each`: the spline of batch entry i alone,
    evaluated by `__call__` at points[i]."""
    return np.stack([cubic_spline(grid, values[..., i])(p) for i, p in enumerate(points)])


@pytest.mark.parametrize("dim", [1, 2])
def test_spline_each_matches_per_entry_loop_bit_for_bit(dim):
    """Per-entry evaluation equals the per-entry loop bit for bit (signed
    zeros included), at random points inside and outside the box, on both box
    edges and exactly on knots (the grid nodes)."""
    g = Grid.line(-6.0, 6.0, 41) if dim == 1 else Grid((-4.0, -3.0), (4.0, 3.0), (33, 25))
    rng = np.random.default_rng(11)
    batch = 7
    vals = rng.standard_normal(g.counts + (batch,)) + 1j * rng.standard_normal(g.counts + (batch,))
    spline = cubic_spline(g, vals)
    lo, hi = np.array(g.lower), np.array(g.upper)
    pts = rng.uniform(lo - 1.0, hi + 1.0, (batch, 300, dim))
    nodes = g.points()
    pts[:, :40] = nodes[rng.integers(0, len(nodes), (batch, 40))]   # on knots
    pts[:, 40] = lo
    pts[:, 41] = hi
    pts[:, 42] = np.where(np.arange(dim) % 2 == 0, lo, hi)
    pts[:, 43] = lo - 1e-12                                          # just outside
    pts[:, 44] = 0.0
    pts[:, 45] = -0.0
    got = spline.each(pts)
    want = _each_by_entry_loop(g, vals, pts)
    assert got.shape == want.shape == (batch, 300)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[:, 43] == 0.0) and np.all(got[:, 40] != 0.0)
    with pytest.raises(DomainError):
        spline.each(pts[:-1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_outside_box_matches_the_whole_array_comparison(dim):
    """The per-axis out-of-box mask equals the one comparison of the whole
    (..., dim) array it replaced, with NaN outside: on both edges, a
    rounding step beyond them, at ±inf, at NaN in either coordinate, and
    with a leading batch axis."""
    from ghostlet.grids import _outside_box

    g = Grid((-4.0, -3.0, 0.5)[:dim], (4.0, 3.0, 2.0)[:dim], (9, 7, 5)[:dim])
    lo, hi = np.array(g.lower), np.array(g.upper)
    specials = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), (lo + hi) / 2,
                np.full(dim, np.inf), np.full(dim, -np.inf), np.full(dim, np.nan)]
    rng = np.random.default_rng(3)
    pts = np.vstack(specials + [rng.uniform(lo - 1.0, hi + 1.0, (60, dim))])
    cols = rng.integers(0, dim, len(pts))
    edited = pts.copy()
    edited[np.arange(len(pts)), cols] = rng.choice([np.nan, np.inf, -np.inf], len(pts))
    pts = np.stack([pts, edited])                                # batch axis in front
    old = ~np.all((pts >= g.lower) & (pts <= g.upper), axis=-1)
    got = _outside_box(g, pts)
    assert got.shape == pts.shape[:-1]
    np.testing.assert_array_equal(got, old)
    assert not got[0, :2].any() and got[0, 2:4].all() and not got[0, 4]
    assert got[0, 5:8].all() and got[1].all()
