import numpy as np
import pytest

from ghostlet import (
    Grid,
    ParamDistribution,
    admissibility,
    forward_s,
    forward_s_via_fourier,
    gaussian_derivative_profile,
    l2_norm,
    lazy_solution,
    make_operator,
    make_rho_family,
    ridgelet,
    ridgelet_atom,
    ridgelet_fourier,
    sample,
    tanh_profile,
)
from ghostlet.experiments import (
    ExperimentConfig,
    _ghost_testbed,
    _mc_ridgelet_field,
    run_subcommand,
)
from ghostlet.profiles import dawson_profile
from ghostlet.transforms import NetworkOperator, _kernel_sum


def _serial_field(f_eval, rho, param_grid, x_lo, x_hi, n, rng):
    """The shared-sample Monte Carlo field as a plain serial loop: one sorted
    sample of n uniforms from `rng.spawn(1)[0]`, scaled to [x_lo, x_hi], and
    each a-row the kernel sum of f(x)·measure/n against conj(ρ(a·x − b))."""
    a, b = param_grid.axis(0), param_grid.axis(1)
    measure = x_hi - x_lo
    xs = np.sort(x_lo + measure * rng.spawn(1)[0].random(n))
    coeff = f_eval(xs) * measure / n
    return np.array([_kernel_sum(coeff, np.conj(rho.real_eval(ai * xs - b[:, None])).T)
                     for ai in a])


@pytest.mark.parametrize("rho, bit_generator", [
    (make_rho_family(2, sigma=tanh_profile())[2], np.random.PCG64),
    (dawson_profile("rho2", 2, 0.3 + 0.2j), np.random.PCG64),
    (dawson_profile("rho2", 2, 0.3 + 0.2j), np.random.MT19937),
], ids=["tanh", "complex", "complex-mt19937"])
def test_mc_ridgelet_field_matches_serial_loop(monkeypatch, rho, bit_generator):
    """The block-parallel field equals the serial loop over one shared
    sample bit for bit, for a real and a complex ρ and any bit generator,
    and leaves the generator's own stream where it was, so the S curve drawn
    next from it gets the same points. Against the per-node mean
    (measure/n)·Σ f(x)·conj(ρ) only the summation order differs, so they
    agree to roundoff. A real ρ gives a field with zero imaginary part."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (9, 11))
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    new_rng = lambda: np.random.Generator(bit_generator(42))
    rng_par = new_rng()
    got = _mc_ridgelet_field(f_eval, rho, grid, Grid.line(-1.0, 1.0, 5), 50, rng_par)
    want = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50, new_rng())
    assert got.shape == (9, 11)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(rng_par.bit_generator.state, new_rng().bit_generator.state)
    if not np.iscomplexobj(rho.real_eval(np.zeros(1))):
        assert np.all(got.imag == 0.0)
    xs = np.sort(-1.0 + 2.0 * new_rng().spawn(1)[0].random(50))
    args = grid.axis(0)[:, None, None] * xs - grid.axis(1)[:, None]
    means = 2.0 * np.mean(f_eval(xs) * np.conj(rho.real_eval(args)), axis=-1)
    assert np.max(np.abs(got - means)) <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("k", [1, 3])
def test_sampled_ghost_field_stays_a_ghost(k):
    """tanh's ρ₁ and ρ₃ pair to zero with it, and their Monte Carlo fields
    (the study's seeds `seed + 1000·k` for seeds 0–2, its default grids and
    4000 samples) stay in the null space of the grid S: ‖S[field]‖ ≤
    1e-12·‖f‖, while each field stays within 5e-2 of the trapezoid field
    `ridgelet` computes (relative, weighted L²). Per-node draws left
    8.5e-4–3.8e-3·‖f‖.

    The zero is exact for a reason: with one sample shared by every node,
    the field is R of one empirical measure. ρ₁ and ρ₃ are even, so the field
    takes the same value at (a, b) and (−a, −b); the symmetric grid pairs
    those nodes with equal weights, and there the odd σ(a·x − b) cancels."""
    param_grid = Grid((-6.0, -6.0), (6.0, 6.0), (145, 145))
    x_grid = Grid.line(-1.0, 1.0, 201)
    sigma = tanh_profile()
    rho = make_rho_family(k, sigma=sigma)[k]
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    f = sample(x_grid, f_eval)
    op = NetworkOperator(sigma, param_grid, x_grid)
    exact = ridgelet(f, rho, param_grid)
    for seed in range(3):
        field = ParamDistribution(param_grid, _mc_ridgelet_field(
            f_eval, rho, param_grid, x_grid, 4000, np.random.default_rng(seed + 1000 * k)))
        assert l2_norm(forward_s(op, field)) <= 1e-12 * l2_norm(f), seed
        assert l2_norm(field - exact) <= 5e-2 * l2_norm(exact), seed


def _counted_field(monkeypatch, cores, rng):
    """The field on a 9 × 11 grid with `cores` usable cores (BLAS taken as
    pinned, so more than one core means worker threads), and the threads
    that ran ρ's evaluator, one entry per call."""
    import dataclasses
    import os
    import threading

    from ghostlet import parallel

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(parallel, "BLAS_PINNED", True)
    rho = make_rho_family(2, sigma=tanh_profile())[2]
    calls = []

    def counting(b):
        calls.append(threading.get_ident())
        return rho.real_eval(b)

    counted = dataclasses.replace(rho, real_eval=counting)
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (9, 11))
    field = _mc_ridgelet_field(lambda xs: np.sin(2.0 * np.pi * xs), counted, grid,
                               Grid.line(-1.0, 1.0, 5), 50, rng)
    return field, calls


def test_mc_ridgelet_field_same_bits_inline_and_on_four_workers(monkeypatch):
    """The sample is drawn once on the calling thread, so the field does not
    depend on which thread computes which row (one core computes every row
    on the calling thread, four cores none), and neither run moves the
    generator's own stream."""
    import threading

    inline_rng, pooled_rng = np.random.default_rng(7), np.random.default_rng(7)
    inline, inline_calls = _counted_field(monkeypatch, 1, inline_rng)
    pooled, pooled_calls = _counted_field(monkeypatch, 4, pooled_rng)
    np.testing.assert_array_equal(inline, pooled)
    start = np.random.default_rng(7).bit_generator.state
    assert inline_rng.bit_generator.state == start == pooled_rng.bit_generator.state
    assert set(inline_calls) == {threading.get_ident()}
    assert threading.get_ident() not in pooled_calls


def test_mc_ridgelet_field_evaluates_rho_once_per_a_node(monkeypatch):
    """ρ's evaluator takes a whole a-row (all b-nodes and the sample) per call."""
    _, calls = _counted_field(monkeypatch, 4, np.random.default_rng(0))
    assert len(calls) == 9


def _row_buffer_threads(monkeypatch):
    """The thread of each array `experiments` itself makes with np.empty
    from here on (the field's row buffers; ρ's evaluator makes its row-sized
    output where it runs, and is not counted)."""
    import sys
    import threading

    made = []
    empty = np.empty

    def counting(shape, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "ghostlet.experiments":
            made.append(threading.get_ident())
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", counting)
    return made


@pytest.mark.parametrize("cores", [1, 4])
def test_mc_ridgelet_field_makes_its_row_buffers_on_the_calling_thread(monkeypatch, cores):
    """The rows' a·x − b buffers are made on the calling thread, one per
    thread the rows run on, and the rows still run on the pool when there
    is one. Buffers made on the pool's threads stayed in those threads'
    malloc arenas, where the S curve drawn next could not reuse them."""
    import threading

    made = _row_buffer_threads(monkeypatch)
    _, calls = _counted_field(monkeypatch, cores, np.random.default_rng(0))
    assert made == [threading.get_ident()] * cores
    assert (threading.get_ident() in calls) == (cores == 1)


def test_mc_ridgelet_field_rows_never_share_a_buffer(monkeypatch):
    """Stress: 33 rows on eight workers (more than the cores) with a short
    switch interval. A buffer handed to two rows at once would mix their
    arguments and break the serial loop's bits; eight buffers serve every
    row, so none is made off the calling thread."""
    import os
    import sys
    import threading

    from ghostlet import parallel

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(parallel, "BLAS_PINNED", True)
    made = _row_buffer_threads(monkeypatch)
    rho = make_rho_family(2, sigma=tanh_profile())[2]
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (33, 11))
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _mc_ridgelet_field(f_eval, rho, grid, Grid.line(-1.0, 1.0, 5), 50,
                                 np.random.default_rng(5))
    finally:
        sys.setswitchinterval(interval)
    want = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50, np.random.default_rng(5))
    np.testing.assert_array_equal(got, want)
    assert made == [threading.get_ident()] * 8


@pytest.mark.parametrize("n_trials", [20, 1])
def test_lazy_builds_each_ghost_atom_once(monkeypatch, tmp_path, n_trials):
    """`lazy` builds R[e₁;ρ] for γ_init and the trial atoms R[e₂;ρ] and
    R[e₃;ρ] once each, before its trial loop, whatever the trial count."""
    from ghostlet import experiments

    built = []

    def counting(basis, i, rho, grid):
        built.append(i)
        return ridgelet_atom(basis, i, rho, grid)

    monkeypatch.setattr(experiments, "ridgelet_atom", counting)
    cfg = ExperimentConfig(experiment="lazy", output_dir=str(tmp_path),
                           params={"n_trials": n_trials})
    metrics = run_subcommand(cfg).metrics
    assert sorted(built) == [1, 2, 3]
    assert metrics["trials"] == n_trials


def _field_loop_trials(gamma_lazy, gamma_init, atoms, rng, n_trials):
    """`lazy`'s trials as fields, the loop it ran before the atoms' Gram: each
    rival γ_lazy + g built on the grid and its distance to γ_init taken by
    `l2_norm`. Returns ‖γ_lazy − γ_init‖ and each trial's win."""
    base_dist = l2_norm(gamma_lazy - gamma_init)
    won = []
    for _ in range(n_trials):
        coeffs = rng.normal(size=2)
        g = coeffs[0] * atoms[0] + coeffs[1] * atoms[1]
        rival = gamma_lazy + g
        won.append(base_dist <= l2_norm(rival - gamma_init) + 1e-12)
    return base_dist, won


@pytest.fixture(scope="module")
def lazy_fields():
    """`lazy`'s γ_init, γ_lazy and trial atoms at its defaults."""
    from ghostlet.experiments import _bump, _compact_testbed

    op = _compact_testbed(ExperimentConfig(experiment="lazy", output_dir="unused"))
    basis, ghost_profile = _ghost_testbed(op)
    gamma_init = ridgelet_fourier(_bump(op.input_grid, -0.4, 1.5), op.sigma, op.param_grid) \
        + 0.7 * ridgelet_atom(basis, 1, ghost_profile, op.param_grid)
    gamma_lazy = lazy_solution(op, _bump(op.input_grid, 0.5, 1.3), gamma_init)
    atoms = [ridgelet_atom(basis, i, ghost_profile, op.param_grid) for i in (2, 3)]
    return gamma_init, gamma_lazy, atoms


@pytest.mark.parametrize("seed", range(10))
def test_lazy_trials_match_the_field_loop(lazy_fields, seed):
    """The Gram form of the trials gives the field loop's distance bit for bit
    and its win count at 1, 20 and 200 trials (each count a prefix of one
    stream of draws)."""
    from ghostlet.experiments import _ghost_trial_wins

    gamma_init, gamma_lazy, atoms = lazy_fields
    base, won = _field_loop_trials(gamma_lazy, gamma_init, atoms,
                                   np.random.default_rng(seed), 200)
    for n_trials in (1, 20, 200):
        got = _ghost_trial_wins(gamma_lazy - gamma_init, atoms, np.random.default_rng(seed),
                                n_trials)
        assert got == (base, sum(won[:n_trials]))


@pytest.mark.parametrize("seed", range(10))
def test_lazy_trials_match_the_field_loop_off_the_minimizer(lazy_fields, seed):
    """Moved off the minimizer along both atoms, γ_lazy + 0.3·atom₀ − 0.5·atom₁
    loses some trials: there the cross terms ⟨Δ, atom_i⟩ decide, and the
    Gram form still counts the field loop's wins."""
    from ghostlet.experiments import _ghost_trial_wins

    gamma_init, gamma_lazy, atoms = lazy_fields
    moved = gamma_lazy + 0.3 * atoms[0] - 0.5 * atoms[1]
    base, won = _field_loop_trials(moved, gamma_init, atoms, np.random.default_rng(seed), 40)
    assert 0 < sum(won) < 40
    got = _ghost_trial_wins(moved - gamma_init, atoms, np.random.default_rng(seed), 40)
    assert got == (base, sum(won))


def test_finite_model_error_keeps_falling_past_p_1000(tmp_path):
    """`finite-model` at its defaults, p = 10³ and 10⁴: density sampling draws
    grid nodes, so the mollified model is unbiased for the grid quadrature of
    γ∗δ^ε and the median error over 10 seeds falls about √10×. Jittered
    points stalled it: 1.24× over the same step."""
    cfg = ExperimentConfig(experiment="finite-model", output_dir=str(tmp_path),
                           params={"p_values": [1000, 10_000]})
    metrics = run_subcommand(cfg).metrics
    assert metrics["error_ratio_last_over_first"] <= 0.5, metrics


@pytest.mark.parametrize("param, corner", [
    (None, (12.0, 48.0)),                                    # the default box
    ([[-6.0, -40.0], [10.0, 24.0], [129, 129]], (10.0, 40.0)),
], ids=["default", "asymmetric"])
def test_measured_bound_uses_the_box_sup_radius(tmp_path, param, corner):
    """`bound` with measure=true reports M = max |(a, b)| over the parameter
    box: the norm of its farthest corner, |a| and |b| each at their largest."""
    import csv

    grids = {} if param is None else {"param": param}
    cfg = ExperimentConfig(experiment="bound", output_dir=str(tmp_path),
                           params={"measure": True}, grids=grids)
    run_subcommand(cfg)
    with open(tmp_path / "layers.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert float(row["M"]) == pytest.approx(np.hypot(*corner), rel=1e-15)


@pytest.mark.parametrize("k", range(1, 7))
def test_ghost_testbed_plants_a_ghost_for_every_gauss_d(input_grid, param_grid, k):
    """The testbed's profile pairs to zero with gauss_d<k> and S annihilates
    its atom R[e₁;ρ], for odd and even k. The sum ρ₁ + ρ₃ that it always took
    pairs to 0.987, 0.745 and 0.461 with gauss_d2, gauss_d4 and gauss_d6, so
    `decompose`, `lazy` and `bound --measure` planted no ghost there."""
    op = make_operator(gaussian_derivative_profile(k), param_grid, input_grid)
    basis, ghost = _ghost_testbed(op)
    assert admissibility(op.sigma, ghost, 1).numerically_zero
    atom = ridgelet_atom(basis, 1, ghost, op.param_grid)
    assert l2_norm(forward_s_via_fourier(op, atom)) <= 1e-12 * l2_norm(atom)
