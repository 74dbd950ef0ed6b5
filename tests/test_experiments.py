import numpy as np
import pytest

from ghostlet import Grid, gaussian_profile, make_rho_family, ridgelet_atom, tanh_profile
from ghostlet.experiments import ExperimentConfig, _mc_ridgelet_field, run_subcommand


def _serial_field(f_eval, rho, param_grid, x_lo, x_hi, n_per_node, rng, ordered=True):
    """The per-node Monte Carlo estimator as a plain serial loop: fresh draws
    per a-node, row i from `rng.spawn(len(a))[i]`, each (a, b) node's draws
    sorted when `ordered` and in draw order otherwise."""
    a, b = param_grid.axis(0), param_grid.axis(1)
    rows = []
    for ai, stream in zip(a, rng.spawn(len(a))):
        u = stream.random((len(b), n_per_node))
        if ordered:
            u = np.sort(u, axis=1)
        xs = x_lo + (x_hi - x_lo) * u
        vals = f_eval(xs) * np.conj(rho.real_eval(ai * xs - b[:, None]))
        rows.append((x_hi - x_lo) * np.mean(vals, axis=1))
    return np.array(rows)


@pytest.mark.parametrize("sigma, bit_generator", [
    (tanh_profile(), np.random.PCG64),
    (gaussian_profile(center=0.5), np.random.PCG64),
    (gaussian_profile(center=0.5), np.random.MT19937),
], ids=["tanh", "gaussian-shifted", "gaussian-shifted-mt19937"])
def test_mc_ridgelet_field_matches_serial_loop(monkeypatch, sigma, bit_generator):
    """The block-parallel field equals the serial loop over sorted draws bit
    for bit, for a real and a complex ρ, and leaves the generator's own
    stream where it was. Any bit generator serves, since no row jumps
    through a stream: MT19937 was refused while rows drew at PCG64 offsets.
    Against the draw-order loop only the summation order of each node's mean
    differs, so the fields agree to roundoff."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    rho = make_rho_family(2, sigma=sigma)[2]
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (9, 11))
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    new_rng = lambda: np.random.Generator(bit_generator(42))
    rng_par = new_rng()
    got = _mc_ridgelet_field(f_eval, rho, grid, -1.0, 1.0, 50, rng_par)
    want = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50, new_rng())
    assert got.shape == (9, 11)
    assert np.iscomplexobj(got) == np.iscomplexobj(rho.real_eval(np.zeros(1)))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(rng_par.bit_generator.state, new_rng().bit_generator.state)
    draw_order = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50, new_rng(), ordered=False)
    assert np.max(np.abs(got - draw_order)) <= 1e-14 * np.max(np.abs(got))


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
    rho = make_rho_family(2)[2]
    calls = []

    def counting(b):
        calls.append(threading.get_ident())
        return rho.real_eval(b)

    counted = dataclasses.replace(rho, real_eval=counting)
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (9, 11))
    field = _mc_ridgelet_field(lambda xs: np.sin(2.0 * np.pi * xs), counted, grid,
                               -1.0, 1.0, 50, rng)
    return field, calls


def test_mc_ridgelet_field_same_bits_inline_and_on_four_workers(monkeypatch):
    """Each row draws from its own child stream, so the field does not
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
    """ρ's evaluator takes a whole a-row (all b-nodes and draws) per call."""
    _, calls = _counted_field(monkeypatch, 4, np.random.default_rng(0))
    assert len(calls) == 9


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
