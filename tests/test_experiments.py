import numpy as np
import pytest

from ghostlet import Grid, gaussian_profile, make_rho_family, tanh_profile
from ghostlet.experiments import ExperimentConfig, _mc_ridgelet_field, run_subcommand


def _serial_field(f_eval, rho, param_grid, x_lo, x_hi, n_per_node, rng, ordered=True):
    """The per-node Monte Carlo estimator as a plain serial loop: fresh draws
    per a-node, in node order, each (a, b) node's draws sorted when
    `ordered` and in draw order otherwise."""
    a, b = param_grid.axis(0), param_grid.axis(1)
    rows = []
    for ai in a:
        u = rng.random((len(b), n_per_node))
        if ordered:
            u = np.sort(u, axis=1)
        xs = x_lo + (x_hi - x_lo) * u
        vals = f_eval(xs) * np.conj(rho.real_eval(ai * xs - b[:, None]))
        rows.append((x_hi - x_lo) * np.mean(vals, axis=1))
    return np.array(rows)


@pytest.mark.parametrize("sigma", [tanh_profile(), gaussian_profile(center=0.5)],
                         ids=["tanh", "gaussian-shifted"])
def test_mc_ridgelet_field_matches_serial_loop(monkeypatch, sigma):
    """The block-parallel field equals the serial loop over sorted draws bit
    for bit, and the generator ends in the same state, for a real and a
    complex ρ. Against the draw-order loop only the summation order of each
    node's mean differs, so the fields agree to roundoff."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    rho = make_rho_family(2, sigma=sigma)[2]
    grid = Grid((-6.0, -6.0), (6.0, 6.0), (9, 11))
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    rng_par, rng_ser = np.random.default_rng(42), np.random.default_rng(42)
    got = _mc_ridgelet_field(f_eval, rho, grid, -1.0, 1.0, 50, rng_par)
    want = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50, rng_ser)
    assert got.shape == (9, 11)
    assert np.iscomplexobj(got) == np.iscomplexobj(rho.real_eval(np.zeros(1)))
    np.testing.assert_array_equal(got, want)
    assert rng_par.bit_generator.state == rng_ser.bit_generator.state
    draw_order = _serial_field(f_eval, rho, grid, -1.0, 1.0, 50,
                               np.random.default_rng(42), ordered=False)
    assert np.max(np.abs(got - draw_order)) <= 1e-14 * np.max(np.abs(got))


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
