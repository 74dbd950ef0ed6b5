"""Configuration-driven experiment runners behind the CLI.

One protocol serves every subcommand. A runner takes an ExperimentConfig,
computes its metrics, writes its machine-readable artifacts (CSV
curves/matrices, JSON tables, PGM heatmaps) under the output directory, and
returns `(metrics, artifacts)`. `run_subcommand` alone turns that into a
RunReport echoing the config as given (`config_echo`, without the defaults
the run used): it writes `report.json`, checks that every artifact exists
and enforces the configured tolerances.
Settings are read through checked readers (`_int_setting`, `_float_setting`,
`_grid_setting`), so a bool, a non-integral count, a non-finite number or a
value out of range is a UsageError that names the setting, before any work.
So is a setting the run never reads (misspelled, or made moot by another),
once the run is done.

Reruns with the same config and seed are byte-identical, whatever the core
count and the BLAS thread count: every random draw comes from a stream that
the seed fixes, on the calling thread in a fixed order (a Monte Carlo
ridgelet field draws its one shared sample from one child stream,
`_mc_ridgelet_field`); the blocks that run on worker threads
(`parallel._block_map`, which may call the pinned BLAS) are cut by array
sizes alone; and partial sums are added in block order. A Monte Carlo S
curve is a uniformly drawn finite model (`point_mass_network`).
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .encoding import make_ghost_codebook, encode_series, readout_mutate
from .finite_models import (
    BUMP,
    EXCLUSIVE,
    GAUSSIAN,
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
    DEFAULT_OMEGA_GRID,
    MONTE_CARLO,
    TRAPEZOID,
    Grid,
    ParamDistribution,
    SampledFunction,
    l2_inner,
    l2_norm,
    sample,
    uniform_points,
)
from .nullspace import (
    lazy_solution,
    make_nonadmissible,
    ridgelet_atom,
    structure_decompose,
)
from .profiles import (
    GAUSS_D_MAX_ORDER,
    RHO_MAX_ORDER,
    AdmissibilityReport,
    Profile1D,
    _rho_k_unnormalized,
    admissibility,
    gaussian_derivative_profile,
    gram_schmidt_l2m,
    hermite_basis,
    hermite_capacity,
    make_rho_family,
    tanh_profile,
)
from .parallel import _block_map, _block_threads
from .reporting import write_csv, write_json, write_matrix_csv, write_pgm
from .transforms import (
    NetworkOperator,
    _kernel_sum,
    forward_s,
    make_operator,
    ridgelet,
    ridgelet_fourier,
)

_SECTIONS = ("grids", "profiles", "quadrature", "params")  # a run reads each key given


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
        bad = [name for name in _SECTIONS if not isinstance(getattr(self, name), dict)]
        if bad:
            raise UsageError(f"config sections {bad} must map setting names to values")
        _int_setting(self.seed, "seed", lo=0)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise UsageError(f"output_dir must be a non-empty string, not {self.output_dir!r}")
        out = Path(self.output_dir).absolute()
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise UsageError(f"output_dir {self.output_dir!r} cannot be a directory: "
                             f"{existing} is not one")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise UsageError("config must name an experiment")
        return ExperimentConfig(**data)


@dataclass
class RunReport:
    experiment: str
    metrics: dict
    artifacts: list
    config_echo: dict
    version: str = field(default=__version__, init=False)

    def finish(self, out_dir: Path, tolerances: dict) -> "RunReport":
        """Write the report, verify artifacts exist, enforce tolerances."""
        for name, value in self.metrics.items():
            if not np.isfinite(value):
                raise AccuracyFailure(f"metric {name} is not finite")
        path = write_json(out_dir / "report.json", dataclasses.asdict(self))
        self.artifacts.append(path)
        for artifact in self.artifacts:
            if not Path(artifact).exists():
                raise AccuracyFailure(f"artifact missing after run: {artifact}")
        failures = [f"{k} = {self.metrics[k]:.6g} > {v:.6g}"
                    for k, v in tolerances.items() if self.metrics[k] > v]
        if failures:
            raise AccuracyFailure("tolerances exceeded: " + "; ".join(failures))
        return self


def _grid_setting(cfg: ExperimentConfig, key: str, default: Grid) -> Grid:
    """`grids.<key>`: [lo, hi, n] for a line or [[lo, ...], [hi, ...], [n, ...]]
    for a box of the default's axis count (every run is m = 1), each axis with
    finite lo < hi and an integer n of at least 4, the fewest nodes the
    not-a-knot cubic (`cubic_spline`) takes."""
    spec = cfg.grids.get(key)
    if spec is None:
        return default
    seq = (list, tuple)
    line = isinstance(spec, seq) and len(spec) == 3 and not isinstance(spec[0], seq)
    rows = [[v] for v in spec] if line else spec
    if not (isinstance(rows, seq) and len(rows) == 3
            and all(isinstance(r, seq) and len(r) == default.dim for r in rows)
            and all(map(_finite_number, (*rows[0], *rows[1])))
            and all(lo < hi for lo, hi in zip(rows[0], rows[1]))):
        form = "[lo, hi, n]" if default.dim == 1 else \
            f"[[lo, ...], [hi, ...], [n, ...]] of {default.dim} axes"
        raise UsageError(f"grids.{key} must be {form} with finite lo < hi, not {spec!r}")
    counts = tuple(_int_setting(v, f"grids.{key} node count", lo=4) for v in rows[2])
    return Grid(tuple(rows[0]), tuple(rows[1]), counts)


def _int_setting(value, name: str, lo: int = 1, hi: float = np.inf) -> int:
    """An integer setting: an `int`, not a `bool`, in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        span = f"in {lo}..{hi}" if hi < np.inf else f"at least {lo}"
        raise UsageError(f"{name} must be an integer {span}, not {value!r}")
    return value


def _finite_number(value) -> bool:
    """Whether a setting is an `int` or a `float`, not a `bool`, and finite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def _float_setting(value, name: str, hi: float = np.inf, zero_ok: bool = False) -> float:
    """A real setting: a finite number (`_finite_number`), above 0 (at least 0
    when `zero_ok`) and at most hi."""
    if (not _finite_number(value) or not (0 <= value if zero_ok else 0 < value)
            or value > hi):
        span = "at least 0" if zero_ok else "above 0"
        if hi < np.inf:
            span += f" and at most {hi:g}"
        raise UsageError(f"{name} must be a finite number {span}, not {value!r}")
    return float(value)


def _int_list(value, name: str, hi: float = np.inf) -> list[int]:
    """A non-empty list of distinct integer settings, each at least 1 and at most hi."""
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError(f"{name} must be a non-empty list of integers, not {value!r}")
    out = [_int_setting(v, f"{name} entry", hi=hi) for v in value]
    if len(set(out)) < len(out):
        raise UsageError(f"{name} repeats an entry: {value!r}")
    return out


def _rho_max_k(cfg: ExperimentConfig) -> int:
    """`profiles.rho_max_k`: the highest ρ_k of the family (`make_rho_family`
    builds up to `RHO_MAX_ORDER`)."""
    return _int_setting(cfg.profiles.get("rho_max_k", 4), "profiles.rho_max_k",
                        hi=RHO_MAX_ORDER)


def _admissibility_row(report: AdmissibilityReport) -> dict:
    return {
        "pairing": report.pairing,
        "parity_forced_zero": report.parity_forced_zero,
        "error_estimate": report.error_estimate,
        "numerically_zero": report.numerically_zero,
    }


def _rel_l2(u: SampledFunction, v: SampledFunction) -> float:
    return l2_norm(u - v) / l2_norm(v)


# ---------------------------------------------------------------------------
# Appendix-style reconstruction study


def _mc_ridgelet_field(f_eval, rho: Profile1D, param_grid: Grid, x_grid: Grid, n: int,
                       rng) -> np.ndarray:
    """R[f;ρ] on the grid by Monte Carlo over x: `ridgelet`'s kernel sum on one
    sorted uniform sample of the x box, weights measure/n, shared by every
    node. The field is then R of one empirical measure, so a ρ that pairs to
    zero with σ gives a field the grid S annihilates. The sample comes from
    `rng.spawn(1)[0]`, leaving `rng`'s own stream where it was. Rows run on
    `_block_map`, one ρ call each, with a·x − b in a buffer from a free list
    the calling thread fills, one per thread (`_block_threads`): fresh
    per-row buffers raised `mc-recon`'s peak RSS from 103.9 to 113.0 MB.
    Sorted, each row's argument is monotone and the range branches of `dawsn`
    and sin are predicted (one 145 × 4000 row: ρ₂ 28.5 → 10.7 ms, sin(2πx)
    20.6 → 8.7 ms; 2-vCPU Xeon)."""
    a = param_grid.axis(0)
    b = param_grid.axis(1)[:, None]
    xs = uniform_points(x_grid, n, rng.spawn(1)[0])[:, 0]
    xs.sort()
    coeff = f_eval(xs) * x_grid.volume / n
    free = [np.empty((len(b), n)) for _ in range(min(_block_threads(), len(a)))]

    def row(i):
        try:
            arg = free.pop()
        except IndexError:  # more rows running than buffers made
            arg = np.empty((len(b), n))
        np.multiply(a[i], xs, out=arg)
        arg -= b
        out = _kernel_sum(coeff, np.asarray(rho.real_eval(arg)).conj().T)
        free.append(arg)
        return out

    return np.stack(list(_block_map(row, range(len(a)))))


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


def _reconstruction_study(cfg: ExperimentConfig):
    """Reconstruction study behind appendix-c, spectrum and reconstruct:
    f(x) = sin(2πx) on [−1,1], σ = tanh, the Dawson family ρ₁..ρ₄ on
    (a,b) ∈ [−6,6]², Monte Carlo quadrature (the unbiased (measure/n)·Σ
    estimator on one x sample that every (a, b) node shares; the printed
    (1/n)ΔxΣ form is scale-inconsistent and is not used). Each k's
    generator, seeded `seed + 1000·k`, spawns the child stream of the
    field's sample (`_mc_ridgelet_field`) and then draws the curve S[γ]:
    a finite model of `s_samples` neurons drawn uniformly in the (a, b)
    box, weighted by γ·volume (`sample_parameters`, `point_mass_network`).
    `quadrature.kind: "trapezoid"` draws nothing, so only the Monte Carlo
    kind reads `r_samples`, and only where it draws the curve (not for
    spectrum) does it read `s_samples`; a moot count is an unread setting.

    Emits per k: the ridgelet spectrum (CSV + PGM; not for reconstruct), the
    reconstruction curve (CSV; not for spectrum), an admissibility entry
    (JSON), and summary metrics. The box_gain diagnostics quantify how much
    of each pairing survives the |a| ≤ 6 truncation at the dominant
    frequency 2π.
    """
    out_dir = Path(cfg.output_dir)
    emit_spectra = cfg.experiment != "reconstruct"
    emit_curves = cfg.experiment != "spectrum"
    param_grid = _grid_setting(cfg, "param", Grid((-6.0, -6.0), (6.0, 6.0), (145, 145)))
    x_grid = _grid_setting(cfg, "input", Grid.line(-1.0, 1.0, 201))
    max_k = _rho_max_k(cfg)
    ks = _int_list(cfg.params.get("ks", list(range(1, max_k + 1))), "params.ks", hi=max_k)
    quad_kind = cfg.quadrature.get("kind", MONTE_CARLO)
    if quad_kind not in (MONTE_CARLO, TRAPEZOID):
        raise UsageError(f"quadrature.kind must be {MONTE_CARLO!r} or {TRAPEZOID!r}, "
                         f"not {quad_kind!r}")
    monte_carlo = quad_kind == MONTE_CARLO
    if monte_carlo:  # the sample counts are read only where they are drawn
        r_samples = _int_setting(cfg.quadrature.get("r_samples", 4000),
                                 "quadrature.r_samples")
    if monte_carlo and emit_curves:
        s_samples = _int_setting(cfg.quadrature.get("s_samples", 1_000_000),
                                 "quadrature.s_samples")
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
        if monte_carlo:
            field_vals = _mc_ridgelet_field(f_eval, rho, param_grid, x_grid, r_samples, rng)
        else:
            field_vals = ridgelet(sample(x_grid, f_eval), rho, param_grid).values
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
            if monte_carlo:
                model = sample_parameters(field, s_samples, rng, UNIFORM_BOX)
                curve = point_mass_network(model, sigma, x_grid).values
            else:
                curve = forward_s(NetworkOperator(sigma, param_grid, x_grid), field).values
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
        admissibility_table[f"rho{k}"] = _admissibility_row(report)
        metrics[f"pairing_abs_rho{k}"] = abs(report.pairing)

    distinct = np.inf
    for i, j in itertools.combinations(ks, 2):
        diff = float(np.max(np.abs(spectra[i] - spectra[j])))
        scale = max(np.max(np.abs(spectra[i])), np.max(np.abs(spectra[j])))
        distinct = min(distinct, diff / scale)
    if np.isfinite(distinct):
        metrics["spectra_min_pairwise_distinctness"] = distinct

    artifacts.append(write_json(out_dir / "admissibility.json", admissibility_table))
    return metrics, artifacts


def run_admissibility(cfg: ExperimentConfig):
    max_k = _rho_max_k(cfg)
    sigma = _named_sigma(cfg, "tanh")
    family = make_rho_family(max_k, sigma=sigma)
    reports = {k: admissibility(sigma, family[k], m=1) for k in range(1, max_k + 1)}
    table = {f"rho{k}": _admissibility_row(rep) for k, rep in reports.items()}
    metrics = {f"pairing_abs_rho{k}": abs(rep.pairing) for k, rep in reports.items()}
    return metrics, [write_json(Path(cfg.output_dir) / "admissibility.json", table)]


def _named_sigma(cfg: ExperimentConfig, default: str) -> Profile1D:
    """`profiles.sigma`: "tanh" or "gauss_d<k>", 0 ≤ k ≤ `GAUSS_D_MAX_ORDER` (gauss_d0 is
    the Gaussian)."""
    name = cfg.profiles.get("sigma", default)
    if name == "tanh":
        return tanh_profile()
    if isinstance(name, str) and name.startswith("gauss_d"):
        order = name.removeprefix("gauss_d")
        return gaussian_derivative_profile(_int_setting(
            int(order) if order.isdecimal() else order, "profiles.sigma derivative order",
            lo=0, hi=GAUSS_D_MAX_ORDER))
    raise UsageError(f"profiles.sigma must be tanh or gauss_d<k>, not {name!r}")


# ---------------------------------------------------------------------------
# Compact operator testbed for the demo experiments


def _compact_testbed(cfg: ExperimentConfig):
    input_grid = _grid_setting(cfg, "input", Grid.line(-8.0, 8.0, 161))
    param_grid = _grid_setting(cfg, "param", Grid((-12.0, -48.0), (12.0, 48.0), (241, 257)))
    return make_operator(_named_sigma(cfg, "gauss_d3"), param_grid, input_grid)


def _require_hermite(input_grid: Grid, count: int) -> int:
    """`hermite_capacity` of the input grid (setting grids.input), which must
    hold `count` Hermite functions; a grid too narrow or too coarse for them
    is a usage error."""
    capacity = hermite_capacity(input_grid)
    if capacity < count:
        raise UsageError(f"grids.input holds {capacity} Hermite functions (too narrow or "
                         f"too coarse); this run needs {count}")
    return capacity


def _ghost_testbed(op, basis_size: int = 4):
    """The first `basis_size` Hermite functions on the operator's input grid,
    and the ghost profile: the sum of the first two ρ_k (1 ≤ k ≤ 4) that pair
    to zero with the operator's σ (`make_nonadmissible`), ρ₁ and ρ₃ for an
    odd σ and ρ₂ and ρ₄ for an even one. The runs that take it project onto
    the ghosts, which needs a σ of finite weighted norm
    (`NetworkOperator.is_normalized`); tanh and gauss_d0 have none,
    and are refused before any work."""
    if not op.is_normalized:
        raise UsageError(f"profiles.sigma {op.sigma.name!r} has no finite weighted norm, "
                         "which the projection onto the ghosts needs")
    _require_hermite(op.input_grid, basis_size)
    basis = hermite_basis(basis_size, op.input_grid)
    family = make_rho_family(4, sigma=op.sigma)
    ghosts = [rho for rho in family[1:] if admissibility(op.sigma, rho, 1).numerically_zero]
    ghost_profile = make_nonadmissible(op.sigma, *ghosts[:2])
    return basis, ghost_profile


def _bump(grid: Grid, center: float, width: float) -> SampledFunction:
    f = sample(grid, lambda x: np.exp(-((x - center) ** 2) / (2.0 * width ** 2)))
    return f * (1.0 / l2_norm(f))


def run_decompose(cfg: ExperimentConfig):
    """Plant a principal + ghost mixture, decompose it, and report the
    structure-theorem checks (Parseval, ghost pairings, residual)."""
    op = _compact_testbed(cfg)
    # the planted ghosts sit on e₁ and e₂, so the basis needs e₀..e₂
    basis_size = _int_setting(cfg.params.get("basis_size", 8), "params.basis_size", lo=3,
                              hi=_require_hermite(op.input_grid, 3))
    terms = _int_setting(cfg.params.get("terms", 6), "params.terms", hi=basis_size)
    basis, ghost_profile = _ghost_testbed(op, basis_size)
    f0 = _bump(op.input_grid, 0.4, 1.3)
    gamma = ridgelet_fourier(f0, op.sigma, op.param_grid) \
        + 0.8 * ridgelet_atom(basis, 1, ghost_profile, op.param_grid) \
        + 0.5 * ridgelet_atom(basis, 2, ghost_profile, op.param_grid)
    deco = structure_decompose(op, gamma, basis, max_terms=terms)
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
    return metrics, [write_csv(Path(cfg.output_dir) / "structure_coefficients.csv",
                               ["index", "abs_coefficient"], rows)]


def run_encode_series(cfg: ExperimentConfig):
    op = _compact_testbed(cfg)
    codebook = make_ghost_codebook(op.sigma, n_ghosts=2)
    funcs = [_bump(op.input_grid, c, w) for c, w in ((0.0, 1.3), (1.0, 1.6), (-1.2, 1.4))]
    gamma = encode_series(codebook, funcs, op.param_grid)
    metrics = {}
    rows = []
    reads = readout_mutate(codebook, gamma, range(len(funcs)), op.input_grid)
    for i, (f_i, got) in enumerate(zip(funcs, reads)):
        err = _rel_l2(got, f_i)
        metrics[f"readout_rel_error_{i}"] = err
        rows.append((i, err))
    return metrics, [write_csv(Path(cfg.output_dir) / "readout_errors.csv",
                               ["slot", "rel_error"], rows)]


def run_finite_model(cfg: ExperimentConfig):
    """Sampling-convergence study: ‖S[γ^ε_p] − S[γ∗δ^ε]‖ across p, median
    over seeds, plus the two-formula coefficient cross-check."""
    p_values = _int_list(cfg.params.get("p_values", (100, 10_000)), "params.p_values")
    n_seeds = _int_setting(cfg.params.get("n_seeds", 10), "params.n_seeds")
    input_grid = _grid_setting(cfg, "input", Grid.line(-6.0, 6.0, 121))
    _require_hermite(input_grid, 4)  # the coefficient cross-check's basis
    grid = _grid_setting(cfg, "param", Grid((-10.0, -32.0), (10.0, 32.0), (161, 129)))
    shape = cfg.params.get("delta_shape", GAUSSIAN)
    if shape not in (GAUSSIAN, BUMP):
        raise UsageError(f"params.delta_shape must be {GAUSSIAN!r} or {BUMP!r}, not {shape!r}")
    # the bump's support must span 8 nodes of the coarser axis (see NascentDelta)
    spacing = max(grid.spacing) if shape == BUMP else min(grid.spacing)
    eps = _float_setting(cfg.params.get("epsilon", 4.0 * spacing), "params.epsilon")
    delta = NascentDelta(shape, eps)
    op = make_operator(_named_sigma(cfg, "gauss_d3"), grid, input_grid)
    gamma = ridgelet_fourier(_bump(op.input_grid, 0.0, 1.4), op.sigma, grid)
    smooth = smooth_convolve(gamma, delta)
    target = forward_s(op, smooth)
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
    rho_basis = gram_schmidt_l2m([_rho_k_unnormalized(k) for k in (1, 2, 3)], m=1)
    model = sample_parameters(smooth, 64, seed=cfg.seed)
    _, gap, _ = finite_ridgelet_coeffs(model, delta, basis, rho_basis, (3, 2), grid)
    metrics["coeff_formula_gap"] = gap
    return metrics, [write_csv(Path(cfg.output_dir) / "convergence.csv",
                               ["p", "median_error"], rows)]


def _ghost_trial_wins(delta: ParamDistribution, atoms: list, rng, n_trials: int):
    """‖Δ‖ for Δ = γ_lazy − γ_init, and the number of `n_trials` random ghosts
    g = Σ c_i·atom_i, c = `rng.normal(size=len(atoms))` per trial, that leave
    γ_lazy + g no closer to γ_init: ‖Δ‖ ≤ ‖Δ + g‖ + 1e-12. ‖Δ + g‖² is the
    quadratic form ‖Δ‖² + 2·Re Σ c_i⟨Δ, atom_i⟩ + Σ c_i c_j ⟨atom_i, atom_j⟩
    (real c) of inner products taken once, so a trial builds no field."""
    base = l2_norm(delta)
    cross = np.array([l2_inner(delta, atom) for atom in atoms])
    gram = np.array([[l2_inner(u, v) for v in atoms] for u in atoms])
    wins = 0
    for _ in range(n_trials):
        c = rng.normal(size=len(atoms))
        dist = np.sqrt(max(base ** 2 + 2.0 * (c @ cross).real + (c @ gram @ c).real, 0.0))
        wins += bool(base <= dist + 1e-12)
    return base, wins


def run_lazy(cfg: ExperimentConfig):
    n_trials = _int_setting(cfg.params.get("n_trials", 20), "params.n_trials")
    op = _compact_testbed(cfg)
    basis, ghost_profile = _ghost_testbed(op)
    f = _bump(op.input_grid, 0.5, 1.3)
    rng = np.random.default_rng(cfg.seed)
    gamma_init = ridgelet_fourier(_bump(op.input_grid, -0.4, 1.5), op.sigma, op.param_grid) \
        + 0.7 * ridgelet_atom(basis, 1, ghost_profile, op.param_grid)
    gamma_lazy = lazy_solution(op, f, gamma_init)
    fit = _rel_l2(forward_s(op, gamma_lazy), f)
    atoms = [ridgelet_atom(basis, i, ghost_profile, op.param_grid) for i in (2, 3)]
    base_dist, wins = _ghost_trial_wins(gamma_lazy - gamma_init, atoms, rng, n_trials)
    metrics = {
        "forward_rel_error": fit,
        "distance_to_init": base_dist,
        "wins_vs_random_ghosts": float(wins),
        "trials": float(n_trials),
    }
    return metrics, [write_json(Path(cfg.output_dir) / "lazy.json", metrics)]


def run_bound(cfg: ExperimentConfig):
    """Norm-bound calculator. Layer specs come from the config, or from a
    planted ghost-heavy model when params.measure is true."""
    params = cfg.params
    n = _int_setting(params.get("n", 1024), "params.n")
    B = _float_setting(params.get("B", 1.0), "params.B")
    measure = params.get("measure", False)
    if not isinstance(measure, bool):
        raise UsageError(f"params.measure must be true or false, not {measure!r}")
    if measure:
        depth = _int_setting(params.get("depth", 3), "params.depth")
        ghost_fraction = _float_setting(params.get("ghost_energy_fraction", 0.9),
                                        "params.ghost_energy_fraction", hi=1.0, zero_ok=True)
        op = _compact_testbed(cfg)
        basis, ghost_profile = _ghost_testbed(op)
        principal = ridgelet_fourier(_bump(op.input_grid, 0.0, 1.4), op.sigma, op.param_grid)
        ghost = ridgelet_atom(basis, 1, ghost_profile, op.param_grid)
        gamma = np.sqrt(1.0 - ghost_fraction) * (1.0 / l2_norm(principal)) * principal \
            + np.sqrt(ghost_fraction) * (1.0 / l2_norm(ghost)) * ghost
        inclusive, exclusive = layer_norms(op, gamma)
        # The sup-radius of the (a, b) box: its farthest corner from the origin.
        radius = float(np.linalg.norm(np.maximum(np.abs(op.param_grid.lower),
                                                 np.abs(op.param_grid.upper))))
        layers = [LayerSpec(radius, op.param_grid.volume, inclusive, exclusive)] * depth
    else:
        layers_cfg = params.get("layers")
        if not layers_cfg:
            raise UsageError("bound experiment needs params.layers or params.measure=true")
        if not isinstance(layers_cfg, (list, tuple)):
            raise UsageError(f"params.layers must be a list of layers, not {layers_cfg!r}")
        layers = [_layer_setting(spec, f"params.layers[{i}]") for i, spec in enumerate(layers_cfg)]
    d = len(layers)
    inc = generalization_bound(layers, B, n, d, INCLUSIVE)
    exc = generalization_bound(layers, B, n, d, EXCLUSIVE)
    metrics = {
        "bound_inclusive": inc,
        "bound_exclusive": exc,
        "exclusive_over_inclusive": exc / inc if inc > 0 else 0.0,
        "depth": float(d),
    }
    rows = [(i, sp.M, sp.V, sp.G_inclusive, sp.G_exclusive) for i, sp in enumerate(layers)]
    return metrics, [write_csv(Path(cfg.output_dir) / "layers.csv",
                               ["layer", "M", "V", "G_inclusive", "G_exclusive"], rows)]


def _layer_setting(spec, name: str) -> LayerSpec:
    """One entry of `params.layers`: exactly the keys M and V (above 0),
    G_inclusive and G_exclusive (at least 0, G_exclusive ≤ G_inclusive)."""
    if not isinstance(spec, dict) or set(spec) != {"M", "V", "G_inclusive", "G_exclusive"}:
        raise UsageError(f"{name} must hold exactly M, V, G_inclusive and G_exclusive, "
                         f"not {spec!r}")
    _float_setting(spec["M"], f"{name}.M")
    _float_setting(spec["V"], f"{name}.V")
    g_inclusive = _float_setting(spec["G_inclusive"], f"{name}.G_inclusive", zero_ok=True)
    _float_setting(spec["G_exclusive"], f"{name}.G_exclusive", hi=g_inclusive, zero_ok=True)
    return LayerSpec(**spec)


_RUNNERS = {
    "appendix-c": _reconstruction_study,
    "spectrum": _reconstruction_study,
    "reconstruct": _reconstruction_study,
    "admissibility": run_admissibility,
    "decompose": run_decompose,
    "encode-series": run_encode_series,
    "finite-model": run_finite_model,
    "lazy": run_lazy,
    "bound": run_bound,
}


EXPERIMENTS = tuple(_RUNNERS)


class _ReadKeys(dict):
    """A config section that records the keys a runner reads with `get`."""

    def __init__(self, section: dict):
        super().__init__(section)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def run_subcommand(cfg: ExperimentConfig) -> RunReport:
    """Run `cfg.experiment`; then write its report.json, check that every
    artifact exists and enforce `cfg.tolerances` (metric name → finite limit).
    A tolerance naming a metric the run did not report, and a setting in
    `_SECTIONS` that it did not read, are refused once the run is done."""
    tolerances = cfg.tolerances
    if not (isinstance(tolerances, dict)
            and all(isinstance(k, str) and _finite_number(v) for k, v in tolerances.items())):
        raise UsageError(f"tolerances must map metric names to finite numbers, "
                         f"not {tolerances!r}")
    sections = {name: _ReadKeys(getattr(cfg, name)) for name in _SECTIONS}
    metrics, artifacts = _RUNNERS[cfg.experiment](dataclasses.replace(cfg, **sections))
    unread = sorted(f"{name}.{key}" for name, section in sections.items()
                    for key in section.keys() - section.read)
    if unread:
        raise UsageError(f"settings this run does not read: {unread}")
    unknown = sorted(set(tolerances) - set(metrics))
    if unknown:
        raise UsageError(f"tolerances name metrics this run does not report: {unknown}")
    return RunReport(cfg.experiment, metrics, artifacts, dataclasses.asdict(cfg)).finish(
        Path(cfg.output_dir), tolerances)
