import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghostlet.cli import build_parser, main
from ghostlet.experiments import EXPERIMENTS, ExperimentConfig, UsageError, run_subcommand
from ghostlet.reporting import write_pgm

from conftest import blas_threads_env

BOUND_CONFIG = {
    "experiment": "bound",
    "params": {
        "layers": [
            {"M": 1.0, "V": 4.0, "G_inclusive": 2.0, "G_exclusive": 0.5},
            {"M": 2.0, "V": 1.0, "G_inclusive": 1.0, "G_exclusive": 0.9},
        ],
        "B": 1.5,
        "n": 256,
    },
}

# trapezoid quadrature on small grids keeps the CLI round-trip tests quick
SMALL_APPENDIX = {
    "experiment": "admissibility",
    "profiles": {"rho_max_k": 4},
}

# density sampling and the separable mollify on an 81×65 parameter grid
SMALL_FINITE_MODEL = {
    "experiment": "finite-model",
    "grids": {"param": [[-10.0, -32.0], [10.0, 32.0], [81, 65]]},
    "params": {"p_values": [100, 2000], "n_seeds": 3},
}

# the bump nascent delta, which mollify scatters onto stencils, on a 41×129 parameter
# grid: spacing 0.5 on both axes, so the default ε = 4·max spacing = 2
SMALL_BUMP_FINITE_MODEL = {
    "experiment": "finite-model",
    "grids": {"input": [-6.0, 6.0, 61],
              "param": [[-10.0, -32.0], [10.0, 32.0], [41, 129]]},
    "params": {"delta_shape": "bump", "p_values": [100, 1000], "n_seeds": 2},
}

# the Appendix-C Monte Carlo study on a 25² parameter grid, one k
SMALL_MONTE_CARLO = {
    "experiment": "appendix-c",
    "grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [25, 25]]},
    "quadrature": {"r_samples": 200, "s_samples": 20_000},
    "params": {"ks": [2]},
}


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "bound", "bogus": 1})
    assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "nope.json",
    lambda tmp: tmp,
    lambda tmp: _write_bytes(tmp / "latin1.json", '{"seed": "Köln"}'.encode("latin-1")),
], ids=["missing", "directory", "not-utf8"])
def test_missing_config_file_is_usage_error(tmp_path, capsys, make):
    """A config path that cannot be read as UTF-8 text exits 2 and names the
    path: a directory ended in an IsADirectoryError traceback and a Latin-1
    file in a UnicodeDecodeError one, both exit 1."""
    path = make(tmp_path)
    assert main(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mismatched_experiment_name_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "lazy"})
    assert main(["bound", "--config", str(cfg)]) == 2


def test_empty_config_for_bound_is_usage_error(tmp_path):
    # the bound experiment needs layer specs
    assert main(["bound", "--out", str(tmp_path / "o")]) == 2


def test_bound_run_succeeds(tmp_path, capsys):
    cfg = _write_config(tmp_path, BOUND_CONFIG)
    out = tmp_path / "out"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "bound"
    assert report["metrics"]["bound_exclusive"] <= report["metrics"]["bound_inclusive"]
    # every artifact exists and the config is echoed as given
    for artifact in report["artifacts"]:
        assert Path(artifact).exists()
    assert report["config_echo"]["params"]["n"] == 256
    assert report["config_echo"]["output_dir"] == str(out)
    captured = capsys.readouterr()
    assert "bound_exclusive" in captured.out


def test_tolerance_failure_exits_3(tmp_path):
    payload = dict(BOUND_CONFIG)
    payload["tolerances"] = {"bound_inclusive": 1e-9}
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out3"
    assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 3
    # artifacts are still written before the tolerance gate fires
    assert (out / "report.json").exists()


def test_tolerance_naming_no_metric_is_usage_error(tmp_path, capsys):
    """A misspelled tolerance used to turn its gate off silently (exit 0).
    Metric names are known only after the run, so its artifacts are left."""
    payload = {**BOUND_CONFIG, "tolerances": {"bound_inclusve": 1e-9}}
    cfg = _write_config(tmp_path, payload)
    assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "bound_inclusve" in capsys.readouterr().err


def _assert_same_outputs(out_a, out_b):
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        raw_a = (out_a / name).read_bytes()
        raw_b = (out_b / name).read_bytes()
        if name == "report.json":
            rep_a = json.loads(raw_a)
            rep_b = json.loads(raw_b)
            rep_a["config_echo"].pop("output_dir")
            rep_b["config_echo"].pop("output_dir")
            rep_a["artifacts"] = [Path(p).name for p in rep_a["artifacts"]]
            rep_b["artifacts"] = [Path(p).name for p in rep_b["artifacts"]]
            assert rep_a == rep_b
        else:
            assert raw_a == raw_b, name


def test_reruns_are_byte_identical(tmp_path):
    for payload in (SMALL_APPENDIX, SMALL_FINITE_MODEL):
        name = payload["experiment"]
        cfg = _write_config(tmp_path, payload)
        out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
        for out in (out_a, out_b):
            assert main([name, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        _assert_same_outputs(out_a, out_b)


def test_monte_carlo_reruns_are_byte_identical(tmp_path):
    """appendix-c draws its Monte Carlo sample from a child stream of a
    generator the seed fixes and sums fixed blocks in order, so its
    artifacts rerun byte for byte."""
    cfg = _write_config(tmp_path, SMALL_MONTE_CARLO)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["appendix-c", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
    assert (out_a / "reconstruction_rho2.csv").exists()
    _assert_same_outputs(out_a, out_b)


def test_each_k_draws_from_its_own_stream(tmp_path):
    """Each k's field and curve draw only from the generator seeded
    seed + 1000·k, so ρ₂'s spectrum and reconstruction are the same bytes
    whether ρ₁ is computed before it or not."""
    outs = {}
    for ks in ([2], [1, 2]):
        outs[len(ks)] = out = tmp_path / str(len(ks))
        cfg = _write_config(tmp_path, {**SMALL_MONTE_CARLO, "params": {"ks": ks}})
        assert main(["appendix-c", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    for name in ("spectrum_rho2.csv", "reconstruction_rho2.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


# Every subcommand; the three of the Monte Carlo study at its small size.
# spectrum draws no S curve, so it takes no s_samples.
ALL_SUBCOMMANDS = {
    "appendix-c": SMALL_MONTE_CARLO,
    "spectrum": {**SMALL_MONTE_CARLO, "quadrature": {"r_samples": 200}},
    "reconstruct": SMALL_MONTE_CARLO,
    "admissibility": {},
    "decompose": {},
    "encode-series": {},
    "finite-model": {},
    "lazy": {},
    "bound": {"params": {"measure": True}},
}

_RUN_ALL = """
import json, sys
from pathlib import Path
from ghostlet.cli import main
root = Path(sys.argv[1])
for name, payload in json.loads(sys.argv[2]).items():
    cfg = root / f"{name}.json"
    cfg.write_text(json.dumps({**payload, "experiment": name}))
    if main([name, "--config", str(cfg), "--seed", "3", "--out", str(root / name)]) != 0:
        sys.exit(f"{name} failed")
"""


def test_every_experiment_is_a_subcommand():
    """ALL_SUBCOMMANDS covers the registry, and the CLI offers exactly it."""
    assert set(ALL_SUBCOMMANDS) == set(EXPERIMENTS)
    subparsers = next(a for a in build_parser()._actions if a.dest == "experiment")
    assert tuple(subparsers.choices) == EXPERIMENTS


@pytest.mark.parametrize("name, files, spectra, curves", [
    ("appendix-c", ["admissibility.json", "reconstruction_rho2.csv", "report.json",
                    "spectrum_rho2.csv", "spectrum_rho2.pgm"], True, True),
    ("spectrum", ["admissibility.json", "report.json", "spectrum_rho2.csv",
                  "spectrum_rho2.pgm"], True, False),
    ("reconstruct", ["admissibility.json", "reconstruction_rho2.csv", "report.json"],
     False, True),
])
def test_study_subcommands_write_their_share(tmp_path, name, files, spectra, curves):
    """appendix-c, spectrum and reconstruct run one study: spectrum writes no
    curves and reconstruct no spectra, and each reports what it wrote."""
    cfg = ExperimentConfig.from_dict({**ALL_SUBCOMMANDS[name], "experiment": name,
                                      "output_dir": str(tmp_path)})
    report = run_subcommand(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert sorted(Path(a).name for a in report.artifacts) == files
    assert report.experiment == name
    for key in ("pgm_lo", "pgm_hi", "max_imag"):
        assert (f"spectrum_rho2_{key}" in report.metrics) == spectra
    assert ("recon_rel_error_rho2" in report.metrics) == curves
    assert "pairing_abs_rho2" in report.metrics


def test_artifacts_do_not_depend_on_blas_thread_count(tmp_path):
    """The nine subcommands at seed 3 write the same bytes with OpenBLAS on
    one thread and on two: importing ghostlet pins BLAS to one thread, so
    no reduction's order depends on OPENBLAS_NUM_THREADS. Unpinned, eight
    artifacts of decompose, encode-series, finite-model and lazy differed."""
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, str(root),
                               json.dumps(ALL_SUBCOMMANDS)], env=blas_threads_env(threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    for name in ALL_SUBCOMMANDS:
        _assert_same_outputs(tmp_path / "1" / name, tmp_path / "2" / name)


# A subcommand's run, then the top-level scipy submodules it loaded, public ones
# only (`import scipy` alone loads scipy.version and private helpers).
_RUN_ONE_AND_LIST_SCIPY = """
import json, sys
from ghostlet.cli import main
if main(sys.argv[1:]) != 0:
    sys.exit("run failed")
tops = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
print(json.dumps(sorted(t for t in tops if not t.startswith("_") and t != "version")))
"""

# The scipy each subcommand needs: dawsn for the Monte Carlo study's ρ_k, the
# sparse scatter of `mollify` for finite-model, nothing else.
_SCIPY_NEEDED = {"appendix-c": ["special"], "spectrum": ["special"],
                 "reconstruct": ["special"], "finite-model": ["sparse"]}


@pytest.mark.parametrize("name", list(ALL_SUBCOMMANDS))
def test_each_subcommand_loads_only_the_scipy_it_calls(tmp_path, name):
    """A fresh interpreter that runs one subcommand loads scipy.special only
    for the Monte Carlo study, scipy.sparse only for finite-model, and
    scipy.interpolate never: the splines are numpy's, and `dawsn` loads at
    its first call. scipy.interpolate, which the spline used to load, cost
    26 MB resident and 0.20 s per process; scipy.special 21 MB and 0.17 s."""
    cfg = _write_config(tmp_path, {**ALL_SUBCOMMANDS[name], "experiment": name})
    proc = subprocess.run([sys.executable, "-c", _RUN_ONE_AND_LIST_SCIPY, name, "--config",
                           str(cfg), "--seed", "3", "--out", str(tmp_path / "out")],
                          env=blas_threads_env("1"), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "interpolate" not in loaded
    assert loaded == _SCIPY_NEEDED.get(name, [])


@pytest.mark.parametrize("change", [
    {"params": {"ks": [5]}},
    {"params": {"ks": [-1]}},
    {"params": {"ks": [0]}},
    {"params": {"ks": [2.0]}},
    {"params": {"ks": [True]}},
    {"params": {"ks": 2}},
    {"profiles": {"rho_max_k": 2}, "params": {"ks": [3]}},
    {"quadrature": {"r_samples": 0}},
    {"quadrature": {"r_samples": 200.7}},
    {"quadrature": {"s_samples": -5}},
    {"profiles": {"rho_max_k": 0}, "params": {}},
    {"profiles": {"rho_max_k": -2}, "params": {}},
    {"profiles": {"rho_max_k": 40}, "params": {}},
    {"profiles": {"rho_max_k": 2.0}},
    {"quadrature": {"kind": "montecarlo", "r_samples": 200, "s_samples": 20_000}},
    {"grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [25.7, 25]]}},
    {"grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [True, 25]]}},
], ids=["k5", "k-1", "k0", "k-float", "k-bool", "ks-scalar", "k-above-max", "r0",
        "r-float", "s-neg", "max-k0", "max-k-neg", "max-k40", "max-k-float",
        "kind-misspelled", "grid-count-float", "grid-count-bool"])
def test_bad_reconstruction_config_is_usage_error(tmp_path, capsys, change):
    """ks outside 1..rho_max_k, rho_max_k outside 1..8, sample counts below 1
    or not integers, and an unknown quadrature kind exit 2 before any work,
    with a message: ks = [5] ended in an IndexError, ks = [-1] read ρ₄ and
    then gave default_rng a negative seed, ks = [true] wrote
    spectrum_rhoTrue.csv, r_samples = 200.7 ran 200 draws per node and echoed
    200.7, rho_max_k = 0 wrote an empty report, a misspelled kind ran the
    trapezoid rule, and grid counts [25.7, 25] ran on a 25 × 25 grid."""
    payload = {**SMALL_MONTE_CARLO, **change}
    cfg = _write_config(tmp_path, payload)
    assert main(["appendix-c", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_LAYER = BOUND_CONFIG["params"]["layers"][0]
# SMALL_MONTE_CARLO's grid and ks, for any subcommand of the study
_SMALL_STUDY = {"grids": SMALL_MONTE_CARLO["grids"], "params": SMALL_MONTE_CARLO["params"]}
# grid settings with one axis more than the runs' defaults
_BOX_3D = [[-6.0, -6.0, -6.0], [6.0, 6.0, 6.0], [9, 9, 9]]
_BOX_2D = [[-8.0, -8.0], [8.0, 8.0], [33, 33]]


@pytest.mark.parametrize("experiment, change, key", [
    ("finite-model", {"params": {"n_seeds": 2.5}}, "params.n_seeds"),
    ("finite-model", {"params": {"p_values": [100, True]}}, "params.p_values"),
    ("finite-model", {"params": {"p_values": 100}}, "params.p_values"),
    ("decompose", {"params": {"basis_size": 2}}, "params.basis_size"),
    ("decompose", {"params": {"basis_size": 40}}, "params.basis_size"),
    ("decompose", {"params": {"terms": 9}}, "params.terms"),
    ("lazy", {"params": {"n_trials": 0}}, "params.n_trials"),
    ("bound", {"params": {"measure": True, "depth": True}}, "params.depth"),
    ("bound", {"params": {**BOUND_CONFIG["params"], "n": 256.5}}, "params.n"),
    ("bound", {"params": {"measure": True, "ghost_energy_fraction": 1.5}},
     "params.ghost_energy_fraction"),
    ("bound", {"params": {"measure": True, "ghost_energy_fraction": -0.1}},
     "params.ghost_energy_fraction"),
    ("bound", {"params": {"measure": True, "ghost_energy_fraction": True}},
     "params.ghost_energy_fraction"),
    ("bound", {"params": {**BOUND_CONFIG["params"], "B": 0}}, "params.B"),
    ("bound", {"params": {**BOUND_CONFIG["params"], "B": float("inf")}}, "params.B"),
    ("finite-model", {"params": {"epsilon": -1}}, "params.epsilon"),
    ("finite-model", {"params": {"epsilon": float("nan")}}, "params.epsilon"),
    ("finite-model", {"params": {"epsilon": "0.5"}}, "params.epsilon"),
    ("finite-model", {"params": {"delta_shape": "box"}}, "params.delta_shape"),
    ("admissibility", {"profiles": {"sigma": "gauss_dx"}}, "profiles.sigma"),
    ("admissibility", {"profiles": {"sigma": 3}}, "profiles.sigma"),
    ("admissibility", {"profiles": {"sigma": "gauss_d-1"}}, "profiles.sigma"),
    ("admissibility", {"profiles": {"sigma": "gauss_d46"}}, "profiles.sigma"),
    ("admissibility", {"profiles": {"sigma": "gauss_d300"}}, "profiles.sigma"),
    ("lazy", {"params": [20]}, "params"),
    ("decompose", {"grids": {"input": [-8.0, 8.0]}}, "grids.input"),
    ("decompose", {"grids": {"input": [8.0, -8.0, 161]}}, "grids.input"),
    ("decompose", {"grids": {"param": [[-12.0, -48.0], [12.0], [241, 257]]}}, "grids.param"),
    ("bound", {"params": {"layers": [{**_LAYER, "M": -1.0}]}}, "params.layers[0].M"),
    ("bound", {"params": {"layers": [{"M": 1.0, "V": 4.0}]}}, "params.layers[0]"),
    ("bound", {"params": {"layers": [{**_LAYER, "G_exclusive": 2.5}]}},
     "params.layers[0].G_exclusive"),
    ("bound", {"params": {"layers": "M=1"}}, "params.layers"),
    ("bound", {"params": {"layers": [{**_LAYER, "M": "1"}]}}, "params.layers[0].M"),
    ("bound", {**BOUND_CONFIG, "tolerances": 5}, "tolerances"),
    ("bound", {**BOUND_CONFIG, "tolerances": {"bound_inclusive": "1e-9"}}, "tolerances"),
    ("bound", {**BOUND_CONFIG, "seed": "abc"}, "seed"),
    ("bound", {**BOUND_CONFIG, "seed": 1.5}, "seed"),
    ("bound", {**BOUND_CONFIG, "seed": -1}, "seed"),
    ("bound", {**BOUND_CONFIG, "seed": None}, "seed"),
    ("bound", {**BOUND_CONFIG, "seed": True}, "seed"),
    ("bound", {**BOUND_CONFIG, "output_dir": 5}, "output_dir"),
    ("bound", {**BOUND_CONFIG, "output_dir": ""}, "output_dir"),
    ("bound", {"params": {"measure": "no"}}, "params.measure"),
    ("bound", {"params": {"measure": 1}}, "params.measure"),
    ("appendix-c", {**_SMALL_STUDY, "grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [3, 3]]}},
     "grids.param"),
    ("finite-model", {"grids": {"param": [[-10.0, -32.0], [10.0, 32.0], [3, 3]]}},
     "grids.param"),
    ("decompose", {"grids": {"param": [[-12.0, -48.0], [12.0, 48.0], [3, 257]]}}, "grids.param"),
    ("reconstruct", {**_SMALL_STUDY, "grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [3, 25]]}},
     "grids.param"),
    ("spectrum", {**_SMALL_STUDY, "grids": {"param": [[-6.0, -6.0], [6.0, 6.0], [2, 25]]}},
     "grids.param"),
    ("appendix-c", {**_SMALL_STUDY, "grids": {"param": _BOX_3D}}, "grids.param"),
    ("decompose", {"grids": {"param": _BOX_3D}}, "grids.param"),
    ("encode-series", {"grids": {"param": _BOX_3D}}, "grids.param"),
    ("finite-model", {"grids": {"param": _BOX_3D}}, "grids.param"),
    ("decompose", {"grids": {"param": [-12.0, 12.0, 241]}}, "grids.param"),
    ("appendix-c", {**_SMALL_STUDY, "grids": {"input": _BOX_2D}}, "grids.input"),
    ("encode-series", {"grids": {"input": _BOX_2D}}, "grids.input"),
    ("lazy", {"grids": {"input": _BOX_2D}}, "grids.input"),
    ("bound", {"params": {"measure": True}, "grids": {"input": _BOX_2D}}, "grids.input"),
    ("decompose", {"profiles": {"sigma": "tanh"}}, "profiles.sigma"),
    ("lazy", {"profiles": {"sigma": "gauss_d0"}}, "profiles.sigma"),
    ("admissibility", {"profiles": {"sigma": "gaussian"}}, "profiles.sigma"),
    ("bound", {"params": {"measure": True}, "profiles": {"sigma": "gauss_d0"}},
     "profiles.sigma"),
    ("appendix-c", {**_SMALL_STUDY, "params": {"ks": []}}, "params.ks"),
    ("appendix-c", {**_SMALL_STUDY, "params": {"ks": [1, 1]}}, "params.ks"),
    ("finite-model", {"params": {"p_values": []}}, "params.p_values"),
    ("finite-model", {"params": {"p_values": [100, 100]}}, "params.p_values"),
], ids=["n-seeds-float", "p-bool", "p-scalar", "basis-2", "basis-above-grid",
        "terms-above-basis", "trials-0", "depth-bool", "n-float", "fraction-above-1",
        "fraction-neg", "fraction-bool", "B-0", "B-inf", "epsilon-neg", "epsilon-nan",
        "epsilon-str", "delta-box", "sigma-order-str", "sigma-int", "sigma-order-neg",
        "sigma-order-46", "sigma-order-300", "params-list",
        "grid-two-entries", "grid-reversed", "grid-axes-disagree", "layer-M-neg",
        "layer-keys-missing", "layer-exclusive-above-inclusive", "layers-str",
        "layer-M-str", "tolerances-scalar", "tolerance-str", "seed-str", "seed-float",
        "seed-neg", "seed-null", "seed-bool", "output-dir-int", "output-dir-empty",
        "measure-str", "measure-int", "appendix-c-grid-3", "finite-model-grid-3",
        "decompose-a-count-3", "reconstruct-a-count-3", "spectrum-a-count-2",
        "appendix-c-param-3d", "decompose-param-3d", "encode-series-param-3d",
        "finite-model-param-3d", "decompose-param-1d", "appendix-c-input-2d",
        "encode-series-input-2d", "lazy-input-2d", "bound-input-2d", "decompose-sigma-tanh",
        "lazy-sigma-gaussian", "admissibility-sigma-gaussian", "bound-sigma-gauss-d0", "ks-empty", "ks-repeated",
        "p-values-empty", "p-values-repeated"])
def test_bad_integer_setting_is_usage_error(tmp_path, capsys, monkeypatch, experiment, change,
                                            key):
    """Every integer setting is read by one checked reader, and every real one
    by another (finite, in range); delta_shape must name a shape. A bad value
    exits 2 with the setting's name, before any work. n_seeds = 2.5 used to
    run 2 seeds and echo 2.5; ghost_energy_fraction = 1.5 ended in a
    DataError traceback; basis_size = 40 (more Hermite functions than the
    input grid holds), epsilon = −1, delta_shape = "box" and B = 0 in
    DomainError tracebacks. So did a malformed profiles.sigma, grid spec,
    params.layers entry or tolerances map: "gauss_dx" in a ValueError, 3 in
    an AttributeError, a two-entry grid in a ValueError, a reversed one and
    M = −1 in DomainErrors, missing layer keys, a string for the layers and a
    string M in TypeErrors, a scalar tolerances in an AttributeError; and
    "gauss_d-1" ran with gauss_d1's real evaluator beside the spectrum
    (iω)^{−1}√(2π)e^{−ω²/2}. "gauss_d300" ended in an OverflowError, and
    gauss_d46 ran on a spectrum that has not decayed by |ω| = 12 (above
    1e-10 of its peak there). A params list ended in an AttributeError. A
    seed of "abc" or 1.5 ended in a TypeError and −1 in a ValueError, null
    in a TypeError (appendix-c) or an unseeded run (lazy), and true ran as
    seed 1; output_dir 5 ended in a TypeError, and measure "no" ran the
    measured model. The output_dir cases give no --out, which would replace
    it, and run in tmp_path, where an empty output_dir would write. A grid
    axis of 2 or 3 nodes, fewer than the not-a-knot cubic takes, ended in a
    ValueError traceback from scipy's make_interp_spline (appendix-c and
    finite-model at [3, 3], decompose and reconstruct at an a-count of 3);
    one floor of 4 serves every grid setting, so spectrum, which builds no
    spline, no longer runs at an a-count of 2. Every run is m = 1, and a grid
    setting of another axis count than its default's ended in a traceback: a
    3-D grids.param in a DomainError (appendix-c: value count 81 != grid
    point count 729; decompose, encode-series and finite-model: parameter
    grid dim must be input grid dim + 1), a 2-D grids.input in a TypeError
    (appendix-c, encode-series) or a DomainError from hermite_basis (lazy,
    bound). The runs that project onto the ghosts (decompose, lazy, bound)
    need σ of finite weighted norm; with tanh or gauss_d0 (the Gaussian),
    which have none, they ended in a DomainError from the projection ("plain-L²
    projection requires a unit-norm activation"). An empty or repeated
    params.ks or params.p_values ran: ks [1, 1] wrote each k's files twice and
    reported spectra_min_pairwise_distinctness = 0, p_values [100, 100] an
    error_ratio_last_over_first of 1; ks [] reported no metric and p_values []
    only coeff_formula_gap. "gaussian" is no longer a σ name (gauss_d0 is the
    Gaussian)."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, {"experiment": experiment, **change})
    argv = [experiment, "--config", str(cfg)]
    if "output_dir" not in change:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, out):
    """--out naming a file, or a path under one, exits 2 before any work and
    creates nothing; both ended in a traceback (FileExistsError,
    NotADirectoryError) when the first artifact was written."""
    (tmp_path / "file").write_text("kept")
    assert main(["admissibility", "--out", str(tmp_path / out)]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_negative_seed_flag_is_usage_error(tmp_path, capsys):
    """--seed −1 exits 2 and names the seed; lazy ended in a ValueError
    traceback from default_rng."""
    cfg = _write_config(tmp_path, {"experiment": "lazy", "params": {"n_trials": 1}})
    assert main(["lazy", "--config", str(cfg), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, change, keys", [
    ("lazy", {"params": {"n_trial": 1}}, ["params.n_trial"]),
    ("admissibility", {"profiles": {"sigm": "tanh"}, "grids": {"paramz": [0, 1, 2]}},
     ["grids.paramz", "profiles.sigm"]),
    ("bound", {"params": {**BOUND_CONFIG["params"], "measure": True}}, ["params.layers"]),
    ("bound", {**BOUND_CONFIG, "grids": {"input": [-8.0, 8.0, 161]}}, ["grids.input"]),
    ("appendix-c", {**_SMALL_STUDY, "quadrature": {"kind": "trapezoid", "r_samples": 200}},
     ["quadrature.r_samples"]),
    ("spectrum", {**_SMALL_STUDY, "quadrature": {"r_samples": 200, "s_samples": 20_000}},
     ["quadrature.s_samples"]),
], ids=["lazy-misspelled", "admissibility-misspelled", "bound-layers-moot",
        "bound-grid-moot", "trapezoid-r-samples-moot", "spectrum-s-samples-moot"])
def test_unread_setting_is_usage_error(tmp_path, capsys, experiment, change, keys):
    """A setting the run never reads exits 2 and names it: a misspelled key,
    or one another setting makes moot (measure: true builds its own layers;
    given layers need no testbed grid; the trapezoid rule draws no samples;
    spectrum draws no S curve). `lazy` with n_trial ran the default 20
    trials and exited 0, and so did each of the others. Settings are
    known to be unread only once the run is done, so its artifacts are left."""
    cfg = _write_config(tmp_path, {"experiment": experiment, **change})
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert str(keys) in capsys.readouterr().err


def test_gauss_d_at_its_cap_runs_cleanly(tmp_path):
    """gauss_d45, the highest order whose spectrum has decayed on the ω box,
    runs `admissibility` without a warning (pytest turns warnings into
    errors)."""
    cfg = _write_config(tmp_path, {"profiles": {"sigma": "gauss_d45"}})
    assert main(["admissibility", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_measured_bound_is_the_same_for_even_and_odd_sigma(tmp_path):
    """`bound --measure` plants a ghost atom. Against gauss_d2 the testbed
    planted ρ₁ + ρ₃, which pairs to 0.987 with it, and the ratio read 0.969
    where gauss_d3 reads 0.0316 (seed 3). With ρ₂ + ρ₄ for an even σ, gauss_d2
    and gauss_d4 give gauss_d3's ratio."""
    ratios = {}
    for sigma in ("gauss_d2", "gauss_d3", "gauss_d4"):
        cfg = _write_config(tmp_path, {"profiles": {"sigma": sigma}, "params": {"measure": True}})
        out = tmp_path / sigma
        assert main(["bound", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        ratios[sigma] = metrics["exclusive_over_inclusive"]
    assert ratios["gauss_d3"] < 0.05
    for sigma in ("gauss_d2", "gauss_d4"):
        assert ratios[sigma] == pytest.approx(ratios["gauss_d3"], abs=1e-4), sigma


@pytest.mark.parametrize("experiment, params", [
    ("decompose", {}), ("lazy", {}), ("bound", {"measure": True}), ("finite-model", {}),
])
def test_coarse_input_grid_is_usage_error(tmp_path, capsys, experiment, params):
    """On [−8, 8, 21] (Δx = 0.8, too coarse for any Hermite function)
    `decompose` ended in a DomainError traceback from the Gram check
    (residual 0.25), and `lazy`, `bound` and `finite-model` in one from
    `hermite_basis`; each exits 2 and names grids.input, before any work."""
    cfg = _write_config(tmp_path, {"experiment": experiment, "params": params,
                                   "grids": {"input": [-8.0, 8.0, 21]}})
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "grids.input" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [
    {"experiment": "encode-series"},
    {**SMALL_BUMP_FINITE_MODEL, "params": {"p_values": [100, 1000], "n_seeds": 2}},
], ids=["encode-series", "finite-model"])
def test_tanh_runs_where_nothing_is_projected(tmp_path, config):
    """encode-series and finite-model make no projection, so they run with
    tanh, which has no finite weighted norm."""
    cfg = _write_config(tmp_path, {**config, "profiles": {"sigma": "tanh"}})
    assert main([config["experiment"], "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_bump_finite_model_converges(tmp_path):
    """The bump nascent delta takes the same path as the Gaussian one, apart
    from `mollify`'s stencil scatter: the sampling error falls from p = 100 to
    p = 1000 (ratio 0.15–0.51 at seeds 0–5)."""
    cfg = _write_config(tmp_path, SMALL_BUMP_FINITE_MODEL)
    assert main(["finite-model", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["metrics"]["error_ratio_last_over_first"] < 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_bump_default_epsilon_resolves_the_coarser_axis(tmp_path, seed):
    """On a 41×33 grid (spacing 0.5 × 2) the bump's default ε is 4·max
    spacing = 8. At 4·min spacing = 2, which equals the b spacing, the grid
    mass of δ^ε was 0.958 at a node and 1.097 at a cell centre: the ratio
    read 0.56–1.03 (1.026 at seed 0) and coeff_formula_gap 0.19–0.35 at seeds
    0–5, against 0.29–0.63 and 0.007–0.013 at ε = 8."""
    grids = {**SMALL_BUMP_FINITE_MODEL["grids"], "param": [[-10.0, -32.0], [10.0, 32.0], [41, 33]]}
    cfg = _write_config(tmp_path, {**SMALL_BUMP_FINITE_MODEL, "grids": grids})
    assert main(["finite-model", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "o")]) == 0
    metrics = json.loads((tmp_path / "o" / "report.json").read_text())["metrics"]
    assert metrics["error_ratio_last_over_first"] < 1.0
    assert metrics["coeff_formula_gap"] <= 0.05


@pytest.mark.parametrize("max_k", [0, -2, 9, 40, 4.0, True])
def test_admissibility_rho_max_k_outside_1_to_8_is_usage_error(tmp_path, capsys, max_k):
    """0 and −2 wrote an empty report and exited 0; 40 ended in a DomainError
    traceback from make_rho_family."""
    cfg = _write_config(tmp_path, {**SMALL_APPENDIX, "profiles": {"rho_max_k": max_k}})
    assert main(["admissibility", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "rho_max_k" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trapezoid_quadrature_runs_the_deterministic_study(tmp_path):
    """`quadrature.kind = "trapezoid"` computes R[f;ρ] and S[γ] by the grid
    rules. Its spectrum draws nothing, so it is the same at every seed, and
    it agrees with the 200-draw Monte Carlo spectrum to within its noise
    (RMS difference 0.19 of the RMS spectrum)."""
    spectra = {}
    quadrature = {"trapezoid": {"kind": "trapezoid"},  # draws nothing: no sample counts
                  "monte_carlo": {**SMALL_MONTE_CARLO["quadrature"], "kind": "monte_carlo"}}
    for kind, seed in (("trapezoid", 0), ("trapezoid", 5), ("monte_carlo", 0)):
        out = tmp_path / f"{kind}{seed}"
        cfg = ExperimentConfig.from_dict({**SMALL_MONTE_CARLO, "seed": seed,
                                          "output_dir": str(out),
                                          "quadrature": quadrature[kind]})
        run_subcommand(cfg)
        spectra[kind, seed] = np.loadtxt(out / "spectrum_rho2.csv", delimiter=",",
                                         skiprows=1)[:, 1:]
    trap, mc = spectra["trapezoid", 0], spectra["monte_carlo", 0]
    np.testing.assert_array_equal(trap, spectra["trapezoid", 5])
    assert 0.0 < np.linalg.norm(trap - mc) <= 0.5 * np.linalg.norm(trap)


def test_admissibility_zero_nonzero_pattern(tmp_path):
    cfg = ExperimentConfig(experiment="admissibility", output_dir=str(tmp_path / "adm"))
    report = run_subcommand(cfg)
    table = json.loads((tmp_path / "adm" / "admissibility.json").read_text())
    assert table["rho1"]["numerically_zero"] and table["rho3"]["numerically_zero"]
    assert not table["rho2"]["numerically_zero"]
    assert not table["rho4"]["numerically_zero"]


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    assert magic == b"P5", "not a binary PGM"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(rest, dtype=np.uint8, count=w * h).reshape(h, w)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(17, 23))
    path, lo, hi = write_pgm(tmp_path / "m.pgm", mat)
    back = read_pgm(path).astype(float) / 255.0 * (hi - lo) + lo
    assert np.max(np.abs(back - mat)) <= (hi - lo) / 255.0 + 1e-12


def test_unknown_experiment_in_config():
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="nope")
