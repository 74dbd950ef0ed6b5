"""Configuration-driven experiment runners behind the CLI.

Each runner takes an ExperimentConfig, computes its metrics, writes
machine-readable artifacts (CSV curves/matrices, JSON reports, PGM heatmaps)
under the output directory, and returns a RunReport echoing the fully
resolved configuration. Reruns with the same config and seed are
byte-identical, whatever the core count and the BLAS thread count: every
random draw is made on the calling thread, in a fixed order; the blocks that
run on worker threads (`parallel._block_map`, which may call the pinned BLAS)
are cut by array sizes alone; and partial sums are added in block order. A
Monte Carlo S curve is a uniformly drawn finite model (`point_mass_network`).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .encoding import make_ghost_codebook, encode_series, readout_mutate
from .finite_models import (
    EXCLUSIVE,
    INCLUSIVE,
    UNIFORM_BOX,
    LayerSpec,
    NascentDelta,
    finite_ridgelet_coeffs,
    generalization_bound,
    layer_norms,
    mollify,
    point_mass_network,
    sample_parameters,
    smooth_convolve,
)
from .grids import (
    Grid,
    ParamDistribution,
    SampledFunction,
    l2_norm,
    sample,
)
from .nullspace import (
    LinearCombination,
    admissibility,
    lazy_solution,
    make_nonadmissible,
    ridgelet_atom,
    structure_decompose,
)
from .profiles import (
    DEFAULT_OMEGA_GRID,
    Profile1D,
    gaussian_derivative_profile,
    gaussian_profile,
    hermite_basis,
    make_rho_family,
    tanh_profile,
)
from .parallel import _block_map
from .reporting import write_csv, write_json, write_matrix_csv, write_pgm
from .transforms import (
    forward_s,
    make_operator,
    ridgelet,
    ridgelet_fourier,
)

EXPERIMENTS = ("appendix-c", "spectrum", "reconstruct", "admissibility", "decompose",
               "encode-series", "finite-model", "lazy", "bound")


class UsageError(ValueError):
    """Bad configuration or unknown experiment (CLI exit code 2)."""


class AccuracyFailure(RuntimeError):
    """A configured tolerance was exceeded (CLI exit code 3)."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    output_dir: str = "ghostlet_out"
    grids: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; valid: {', '.join(EXPERIMENTS)}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise UsageError("config must name an experiment")
        return ExperimentConfig(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunReport:
    experiment: str
    metrics: dict
    artifacts: list
    config_echo: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def finish(self, out_dir: Path, tolerances: dict) -> "RunReport":
        """Write the report, verify artifacts exist, enforce tolerances."""
        for name, value in self.metrics.items():
            if not np.isfinite(value):
                raise AccuracyFailure(f"metric {name} is not finite")
        path = write_json(out_dir / "report.json", self.to_dict())
        self.artifacts.append(path)
        for artifact in self.artifacts:
            if not Path(artifact).exists():
                raise AccuracyFailure(f"artifact missing after run: {artifact}")
        failures = [f"{k} = {self.metrics[k]:.6g} > {v:.6g}"
                    for k, v in tolerances.items()
                    if k in self.metrics and self.metrics[k] > v]
        if failures:
            raise AccuracyFailure("tolerances exceeded: " + "; ".join(failures))
        return self


def _grid_from_spec(spec, default: Grid) -> Grid:
    if spec is None:
        return default
    lo, hi, n = spec
    if np.isscalar(lo):
        return Grid.line(float(lo), float(hi), int(n))
    return Grid(tuple(lo), tuple(hi), tuple(int(v) for v in n))


def _rel_l2(u: SampledFunction, v: SampledFunction) -> float:
    return l2_norm(u - v) / l2_norm(v)


# ---------------------------------------------------------------------------
# Appendix-style reconstruction study


def _mc_ridgelet_field(f_eval, rho: Profile1D, param_grid: Grid, x_lo: float,
                       x_hi: float, n_per_node: int, rng) -> np.ndarray:
    """R[f;ρ] on the grid by per-node Monte Carlo over x:
    R(a,b) ≈ (measure/n)·Σ f(x_i)·conj(ρ(a·x_i − b)) with fresh draws per
    node (the standard unbiased estimator; see `run_appendix_c` on the
    printed ΔxΣ/n form).

    The calling thread draws each a-node's block in node order; the rows
    are computed on `_block_map`. The field is real when f and ρ are."""
    a = param_grid.axis(0)
    b = param_grid.axis(1)
    measure = x_hi - x_lo

    def draws():
        for ai in a:
            yield ai, rng.random((len(b), n_per_node))

    def row(node):
        ai, xs = node
        xs *= x_hi - x_lo  # in place: the same values as x_lo + (x_hi − x_lo)·u
        xs += x_lo
        arg = ai * xs
        arg -= b[:, None]
        r = np.asarray(rho.real_eval(arg))
        vals = np.asarray(f_eval(xs)) * (np.conj(r) if np.iscomplexobj(r) else r)
        return measure * np.mean(vals, axis=1)

    return np.stack(list(_block_map(row, draws())))


def _box_gain(sigma: Profile1D, rho: Profile1D, xi0: float, a_half: float) -> float:
    """Per-frequency gain of the box-truncated reconstruction: the m = 1
    pairing restricted to |ω| ≥ |ξ₀|/A (diagnostic for the truncation low-pass)."""
    grid = DEFAULT_OMEGA_GRID
    omega = grid.axis(0)
    w = grid.axis_weights(0)
    integrand = sigma.spectral_values(grid) * np.conj(rho.spectral_values(grid)) \
        * np.abs(omega) ** -1.0
    keep = np.abs(omega) >= abs(xi0) / a_half
    return float(np.abs(np.sum((integrand * w)[keep])))


def _reconstruction_study(cfg: ExperimentConfig, emit_spectra: bool = True,
                          emit_curves: bool = True):
    """Shared core of the appendix-c / spectrum / reconstruct experiments."""
    out_dir = Path(cfg.output_dir)
    param_grid = _grid_from_spec(cfg.grids.get("param"),
                                 Grid((-6.0, -6.0), (6.0, 6.0), (145, 145)))
    x_grid = _grid_from_spec(cfg.grids.get("input"), Grid.line(-1.0, 1.0, 201))
    max_k = int(cfg.profiles.get("rho_max_k", 4))
    ks = cfg.params.get("ks", list(range(1, max_k + 1)))
    if not (isinstance(ks, list) and all(isinstance(k, int) and 1 <= k <= max_k for k in ks)):
        raise UsageError(f"params.ks must be a list of integers in 1..{max_k}, not {ks!r}")
    quad_kind = cfg.quadrature.get("kind", "monte_carlo")
    r_samples = int(cfg.quadrature.get("r_samples", 4000))
    s_samples = int(cfg.quadrature.get("s_samples", 1_000_000))
    if min(r_samples, s_samples) < 1:
        raise UsageError("quadrature.r_samples and s_samples must be at least 1")
    sigma = tanh_profile()
    family = make_rho_family(max_k, sigma=sigma)

    x = x_grid.axis(0)
    wx = x_grid.axis_weights(0)
    f_eval = lambda xs: np.sin(2.0 * np.pi * xs)
    f_vals = f_eval(x)
    f_norm = float(np.sqrt(np.sum(wx * f_vals ** 2)))

    metrics: dict = {}
    artifacts: list = []
    admissibility_table = {}
    spectra = {}
    for k in ks:
        rho = family[k]
        rng = np.random.default_rng(cfg.seed + 1000 * k)
        if quad_kind == "monte_carlo":
            field_vals = _mc_ridgelet_field(f_eval, rho, param_grid,
                                            x_grid.lower[0], x_grid.upper[0],
                                            r_samples, rng)
        else:
            f_sampled = sample(x_grid, lambda xx: f_eval(xx))
            field_vals = ridgelet(f_sampled, rho, param_grid).values
        field = ParamDistribution._adopt(param_grid, field_vals)
        spectra[k] = field_vals.real

        if emit_spectra:
            path = write_matrix_csv(out_dir / f"spectrum_rho{k}.csv", field_vals.real,
                                    param_grid.axis(0), param_grid.axis(1), corner="a\\b")
            artifacts.append(path)
            pgm_path, lo, hi = write_pgm(out_dir / f"spectrum_rho{k}.pgm", field_vals.real)
            artifacts.append(pgm_path)
            metrics[f"spectrum_rho{k}_pgm_lo"] = lo
            metrics[f"spectrum_rho{k}_pgm_hi"] = hi
            metrics[f"spectrum_rho{k}_max_imag"] = float(np.max(np.abs(field_vals.imag)))

        if emit_curves:
            if quad_kind == "monte_carlo":
                model = sample_parameters(field, s_samples, rng, UNIFORM_BOX)
                curve = point_mass_network(model, sigma, x_grid).values
            else:
                op = make_operator(sigma, param_grid, x_grid, normalize=False)
                curve = forward_s(op, field).values
            path = write_csv(out_dir / f"reconstruction_rho{k}.csv",
                             ["x", "f", "recon_re", "recon_im"],
                             zip(x, f_vals, curve.real, curve.imag))
            artifacts.append(path)

            rel_err = float(np.sqrt(np.sum(wx * np.abs(curve - f_vals) ** 2)) / f_norm)
            residual = float(np.sqrt(np.sum(wx * np.abs(curve) ** 2)) / f_norm)
            metrics[f"recon_rel_error_rho{k}"] = rel_err
            metrics[f"residual_energy_ratio_rho{k}"] = residual
            metrics[f"box_gain_rho{k}"] = _box_gain(sigma, rho, 2.0 * np.pi,
                                                    param_grid.upper[0])

        report = admissibility(sigma, rho, m=1)
        admissibility_table[f"rho{k}"] = {
            "pairing": report.pairing,
            "parity_forced_zero": report.parity_forced_zero,
            "error_estimate": report.error_estimate,
            "numerically_zero": report.numerically_zero,
            "method": report.method,
        }
        metrics[f"pairing_abs_rho{k}"] = abs(report.pairing)

    ks_list = list(ks)
    distinct = np.inf
    for i in range(len(ks_list)):
        for j in range(i + 1, len(ks_list)):
            diff = float(np.max(np.abs(spectra[ks_list[i]] - spectra[ks_list[j]])))
            scale = max(np.max(np.abs(spectra[ks_list[i]])),
                        np.max(np.abs(spectra[ks_list[j]])))
            distinct = min(distinct, diff / scale)
    if np.isfinite(distinct):
        metrics["spectra_min_pairwise_distinctness"] = distinct

    artifacts.append(write_json(out_dir / "admissibility.json", admissibility_table))
    return metrics, artifacts


def run_appendix_c(cfg: ExperimentConfig) -> RunReport:
    """Reconstruction study: f(x) = sin(2πx) on [−1,1], σ = tanh, the Dawson
    family ρ₁..ρ₄ on (a,b) ∈ [−6,6]², pointwise Monte Carlo quadrature (the
    standard unbiased (measure/n)·Σ estimator with fresh per-node draws; the
    printed (1/n)ΔxΣ form is scale-inconsistent and is not used). The curve
    S[γ] is a finite model of `s_samples` neurons drawn uniformly in the (a, b)
    box, weighted by γ·volume (`sample_parameters`, `point_mass_network`).

    Emits per k: the ridgelet spectrum (CSV + PGM), the reconstruction curve
    (CSV), an admissibility entry (JSON), and summary metrics. The box_gain
    diagnostics quantify how much of each pairing survives the |a| ≤ 6
    truncation at the dominant frequency 2π.
    """
    metrics, artifacts = _reconstruction_study(cfg)
    report = RunReport("appendix-c", metrics, artifacts, cfg.to_dict())
    return report.finish(Path(cfg.output_dir), cfg.tolerances)


def run_spectrum(cfg: ExperimentConfig) -> RunReport:
    metrics, artifacts = _reconstruction_study(cfg, emit_curves=False)
    report = RunReport("spectrum", metrics, artifacts, cfg.to_dict())
    return report.finish(Path(cfg.output_dir), cfg.tolerances)


def run_reconstruct(cfg: ExperimentConfig) -> RunReport:
    metrics, artifacts = _reconstruction_study(cfg, emit_spectra=False)
    report = RunReport("reconstruct", metrics, artifacts, cfg.to_dict())
    return report.finish(Path(cfg.output_dir), cfg.tolerances)


def run_admissibility(cfg: ExperimentConfig) -> RunReport:
    out_dir = Path(cfg.output_dir)
    max_k = int(cfg.profiles.get("rho_max_k", 4))
    sigma_name = cfg.profiles.get("sigma", "tanh")
    sigma = _named_sigma(sigma_name)
    family = make_rho_family(max_k, sigma=sigma)
    table = {}
    metrics = {}
    for k in range(1, max_k + 1):
        rep = admissibility(sigma, family[k], m=1)
        table[f"rho{k}"] = {
            "pairing": rep.pairing,
            "parity_forced_zero": rep.parity_forced_zero,
            "error_estimate": rep.error_estimate,
            "numerically_zero": rep.numerically_zero,
        }
        metrics[f"pairing_abs_rho{k}"] = abs(rep.pairing)
    artifacts = [write_json(out_dir / "admissibility.json", table)]
    return RunReport("admissibility", metrics, artifacts, cfg.to_dict()).finish(
        out_dir, cfg.tolerances)


def _named_sigma(name: str) -> Profile1D:
    if name == "tanh":
        return tanh_profile()
    if name.startswith("gauss_d"):
        return gaussian_derivative_profile(int(name.removeprefix("gauss_d")))
    if name == "gaussian":
        return gaussian_profile()
    raise UsageError(f"unknown activation profile {name!r}")


# ---------------------------------------------------------------------------
# Compact operator testbed for the demo experiments


def _compact_testbed(cfg: ExperimentConfig):
    input_grid = _grid_from_spec(cfg.grids.get("input"), Grid.line(-8.0, 8.0, 161))
    param_grid = _grid_from_spec(cfg.grids.get("param"),
                                 Grid((-12.0, -48.0), (12.0, 48.0), (241, 257)))
    sigma = _named_sigma(cfg.profiles.get("sigma", "gauss_d3"))
    op = make_operator(sigma, param_grid, input_grid)
    return op


def _ghost_testbed(cfg: ExperimentConfig, basis_size: int = 4):
    """The compact operator, the first `basis_size` Hermite functions on its
    input grid, and the ghost profile: the non-admissible combination of ρ₁
    and ρ₃ against the operator's σ."""
    op = _compact_testbed(cfg)
    basis = hermite_basis(basis_size, op.input_grid)
    family = make_rho_family(4, sigma=op.sigma)
    ghost_profile = make_nonadmissible(op.sigma, LinearCombination(family[1], family[3]))
    return op, basis, ghost_profile


def _bump(grid: Grid, center: float, width: float) -> SampledFunction:
    f = sample(grid, lambda x: np.exp(-((x - center) ** 2) / (2.0 * width ** 2)))
    return f * (1.0 / l2_norm(f))


def run_decompose(cfg: ExperimentConfig) -> RunReport:
    """Plant a principal + ghost mixture, decompose it, and report the
    structure-theorem checks (Parseval, ghost pairings, residual)."""
    out_dir = Path(cfg.output_dir)
    op, basis, ghost_profile = _ghost_testbed(cfg, int(cfg.params.get("basis_size", 8)))
    f0 = _bump(op.input_grid, 0.4, 1.3)
    gamma = ridgelet_fourier(f0, op.sigma, op.param_grid) \
        + 0.8 * ridgelet_atom(basis, 1, ghost_profile, op.param_grid) \
        + 0.5 * ridgelet_atom(basis, 2, ghost_profile, op.param_grid)
    deco = structure_decompose(op, gamma, basis, max_terms=int(cfg.params.get("terms", 6)))
    ghost_pairings = [abs(admissibility(op.sigma, r, 1).pairing)
                      for r in deco.ghost_ridgelets if r is not None]
    metrics = {
        "parseval_gap": deco.parseval_gap(),
        "residual_over_ghost": deco.residual_norm / max(l2_norm(deco.ghost), 1e-300),
        "max_ghost_pairing": max(ghost_pairings) if ghost_pairings else 0.0,
        "ghost_norm": l2_norm(deco.ghost),
        "principal_norm": l2_norm(deco.principal),
    }
    rows = [(i, abs(c)) for i, c in enumerate(deco.coefficients)]
    artifacts = [write_csv(out_dir / "structure_coefficients.csv",
                           ["index", "abs_coefficient"], rows)]
    return RunReport("decompose", metrics, artifacts, cfg.to_dict()).finish(
        out_dir, cfg.tolerances)


def run_encode_series(cfg: ExperimentConfig) -> RunReport:
    out_dir = Path(cfg.output_dir)
    op = _compact_testbed(cfg)
    codebook = make_ghost_codebook(op.sigma, n_ghosts=2)
    funcs = [_bump(op.input_grid, c, w) for c, w in ((0.0, 1.3), (1.0, 1.6), (-1.2, 1.4))]
    gamma = encode_series(codebook, funcs, op.param_grid)
    metrics = {}
    rows = []
    for i, f_i in enumerate(funcs):
        got = readout_mutate(codebook, gamma, i, op.input_grid)
        err = _rel_l2(got, f_i)
        metrics[f"readout_rel_error_{i}"] = err
        rows.append((i, err))
    artifacts = [write_csv(out_dir / "readout_errors.csv", ["slot", "rel_error"], rows)]
    return RunReport("encode-series", metrics, artifacts, cfg.to_dict()).finish(
        out_dir, cfg.tolerances)


def run_finite_model(cfg: ExperimentConfig) -> RunReport:
    """Sampling-convergence study: ‖S[γ^ε_p] − S[γ∗δ^ε]‖ across p, median
    over seeds, plus the two-formula coefficient cross-check."""
    out_dir = Path(cfg.output_dir)
    input_grid = _grid_from_spec(cfg.grids.get("input"), Grid.line(-6.0, 6.0, 121))
    param_grid = _grid_from_spec(cfg.grids.get("param"),
                                 Grid((-10.0, -32.0), (10.0, 32.0), (161, 129)))
    sigma = _named_sigma(cfg.profiles.get("sigma", "gauss_d3"))
    op = make_operator(sigma, param_grid, input_grid)
    grid = op.param_grid
    gamma = ridgelet_fourier(_bump(op.input_grid, 0.0, 1.4), op.sigma, grid)
    eps = float(cfg.params.get("epsilon", 4.0 * min(grid.spacing)))
    delta = NascentDelta(cfg.params.get("delta_shape", "gaussian"), eps)
    smooth = smooth_convolve(gamma, delta)
    target = forward_s(op, smooth)
    p_values = [int(v) for v in cfg.params.get("p_values", (100, 10_000))]
    n_seeds = int(cfg.params.get("n_seeds", 10))
    rows = []
    med = {}
    for p in p_values:
        errs = []
        for s in range(n_seeds):
            # sample the raw field: its mollified embedding is unbiased for γ∗δ^ε
            model = sample_parameters(gamma, p, seed=cfg.seed + 7919 * s + p)
            emb = mollify(model, delta, grid)
            errs.append(l2_norm(forward_s(op, emb) - target))
        med[p] = float(np.median(errs))
        rows.append((p, med[p]))
    metrics = {f"median_error_p{p}": v for p, v in med.items()}
    if len(p_values) >= 2:
        metrics["error_ratio_last_over_first"] = med[p_values[-1]] / med[p_values[0]]
    basis = hermite_basis(4, op.input_grid)
    from .profiles import _rho_k_unnormalized, gram_schmidt_l2m
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    model = sample_parameters(smooth, 64, seed=cfg.seed)
    _, gap, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (3, 2), grid)
    metrics["coeff_formula_gap"] = gap
    artifacts = [write_csv(out_dir / "convergence.csv", ["p", "median_error"], rows)]
    return RunReport("finite-model", metrics, artifacts, cfg.to_dict()).finish(
        out_dir, cfg.tolerances)


def run_lazy(cfg: ExperimentConfig) -> RunReport:
    out_dir = Path(cfg.output_dir)
    op, basis, ghost_profile = _ghost_testbed(cfg)
    f = _bump(op.input_grid, 0.5, 1.3)
    rng = np.random.default_rng(cfg.seed)
    gamma_init = ridgelet_fourier(_bump(op.input_grid, -0.4, 1.5), op.sigma, op.param_grid) \
        + 0.7 * ridgelet_atom(basis, 1, ghost_profile, op.param_grid)
    gamma_lazy = lazy_solution(op, f, gamma_init)
    fit = _rel_l2(forward_s(op, gamma_lazy), f)
    base_dist = l2_norm(gamma_lazy - gamma_init)
    n_trials = int(cfg.params.get("n_trials", 20))
    wins = 0
    for trial in range(n_trials):
        coeffs = rng.normal(size=2)
        g = coeffs[0] * ridgelet_atom(basis, 2, ghost_profile, op.param_grid) \
            + coeffs[1] * ridgelet_atom(basis, 3, ghost_profile, op.param_grid)
        rival = gamma_lazy + g
        if base_dist <= l2_norm(rival - gamma_init) + 1e-12:
            wins += 1
    metrics = {
        "forward_rel_error": fit,
        "distance_to_init": base_dist,
        "wins_vs_random_ghosts": float(wins),
        "trials": float(n_trials),
    }
    artifacts = [write_json(out_dir / "lazy.json", metrics)]
    return RunReport("lazy", metrics, artifacts, cfg.to_dict()).finish(out_dir, cfg.tolerances)


def run_bound(cfg: ExperimentConfig) -> RunReport:
    """Norm-bound calculator. Layer specs come from the config, or from a
    planted ghost-heavy model when params.measure is true."""
    out_dir = Path(cfg.output_dir)
    params = cfg.params
    if params.get("measure", False):
        op, basis, ghost_profile = _ghost_testbed(cfg)
        ghost_fraction = float(params.get("ghost_energy_fraction", 0.9))
        principal = ridgelet_fourier(_bump(op.input_grid, 0.0, 1.4), op.sigma, op.param_grid)
        ghost = ridgelet_atom(basis, 1, ghost_profile, op.param_grid)
        gamma = np.sqrt(1.0 - ghost_fraction) * (1.0 / l2_norm(principal)) * principal \
            + np.sqrt(ghost_fraction) * (1.0 / l2_norm(ghost)) * ghost
        inclusive, exclusive = layer_norms(op, gamma)
        # The sup-radius of the (a, b) box: its farthest corner from the origin.
        radius = float(np.linalg.norm(np.maximum(np.abs(op.param_grid.lower),
                                                 np.abs(op.param_grid.upper))))
        layer = {"M": radius, "V": op.param_grid.volume,
                 "G_inclusive": inclusive, "G_exclusive": exclusive}
        layers_cfg = [layer] * int(params.get("depth", 3))
    else:
        layers_cfg = params.get("layers")
        if not layers_cfg:
            raise UsageError("bound experiment needs params.layers or params.measure=true")
    layers = [LayerSpec(**spec) for spec in layers_cfg]
    d = len(layers)
    B = float(params.get("B", 1.0))
    n = int(params.get("n", 1024))
    inc = generalization_bound(layers, B, n, d, INCLUSIVE)
    exc = generalization_bound(layers, B, n, d, EXCLUSIVE)
    metrics = {
        "bound_inclusive": inc,
        "bound_exclusive": exc,
        "exclusive_over_inclusive": exc / inc if inc > 0 else 0.0,
        "depth": float(d),
    }
    rows = [(i, sp.M, sp.V, sp.G_inclusive, sp.G_exclusive) for i, sp in enumerate(layers)]
    artifacts = [write_csv(out_dir / "layers.csv",
                           ["layer", "M", "V", "G_inclusive", "G_exclusive"], rows)]
    return RunReport("bound", metrics, artifacts, cfg.to_dict()).finish(out_dir, cfg.tolerances)


_RUNNERS = {
    "appendix-c": run_appendix_c,
    "spectrum": run_spectrum,
    "reconstruct": run_reconstruct,
    "admissibility": run_admissibility,
    "decompose": run_decompose,
    "encode-series": run_encode_series,
    "finite-model": run_finite_model,
    "lazy": run_lazy,
    "bound": run_bound,
}


def run_subcommand(cfg: ExperimentConfig) -> RunReport:
    try:
        runner = _RUNNERS[cfg.experiment]
    except KeyError:
        raise UsageError(
            f"unknown experiment {cfg.experiment!r}; valid: {', '.join(EXPERIMENTS)}")
    return runner(cfg)
