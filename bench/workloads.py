"""The three benchmark workloads, their headline accuracy number and their
per-iteration correctness gate.

Each workload is a list of ExperimentConfigs run in-process through
``ghostlet.experiments.run_subcommand``; artifacts go to a throwaway
directory exactly as the CLI writes them. The workload seed reaches the
program only as ``ExperimentConfig.seed``. Why each workload exists, which
layer it loads and which it bypasses is recorded beside its definition
below and in README.md.

This module does not import ghostlet: the worker times that import itself.
"""
from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    # (experiment, params) pairs, run in order, each at its defaults otherwise.
    steps: tuple[tuple[str, dict], ...]
    # (experiment, metric) whose value is reported as the `err` metric.
    err: tuple[str, str]
    gate: Callable[[dict, float], list[str]]
    # Iterations (each on its own seed) whose `err` values are averaged: the
    # error is Monte Carlo noise on some workloads, so one seed is too few.
    err_iterations: int
    # Acceptance limits (experiment, metric, limit) the program misses today
    # for a measured cause; each run reports how many iterations miss them.
    known_misses: tuple[tuple[str, str, float], ...] = ()


def _mc_recon_gate(metrics: dict, seconds: float) -> list[str]:
    m = metrics["appendix-c"]
    out = []
    if not abs(m["pairing_abs_rho2"] - 1.0) <= 1e-8:
        out.append(f"pairing_abs_rho2 = {m['pairing_abs_rho2']!r}, want 1 ± 1e-8")
    if m["spectrum_rho2_max_imag"] != 0.0:
        out.append(f"spectrum_rho2_max_imag = {m['spectrum_rho2_max_imag']!r}, want 0")
    # One k per iteration, so the whole iteration is the per-k runtime.
    if seconds > 120.0:
        out.append(f"runtime {seconds:.1f} s for one k, want <= 120 s")
    return out


def _direct_finite_gate(metrics: dict, seconds: float) -> list[str]:
    m = metrics["finite-model"]
    out = []
    # Criterion 10 asks for a ratio <= 1/3; Monte Carlo noise in
    # sample_parameters puts it at 0.22-0.39 across seeds (above 1/3 on 4 of
    # seeds 0-9), so that limit is reported as a miss, not gated. The gate
    # keeps the convergence itself: 100x more samples must give less error.
    if not m["error_ratio_last_over_first"] < 1.0:
        out.append(f"error_ratio_last_over_first = {m['error_ratio_last_over_first']:.4g} >= 1")
    if not m["coeff_formula_gap"] <= 1e-3:
        out.append(f"coeff_formula_gap = {m['coeff_formula_gap']:.3g} > 1e-3")
    return out


_SLICE_LIMITS = (
    ("decompose", "parseval_gap", 2e-2),
    ("decompose", "max_ghost_pairing", 1e-6),
    ("encode-series", "readout_rel_error_0", 5e-2),
    ("encode-series", "readout_rel_error_1", 0.1),
    ("encode-series", "readout_rel_error_2", 0.1),
    ("lazy", "forward_rel_error", 2e-2),
    ("bound", "exclusive_over_inclusive", 0.45 ** 3),
)


def _slice_ghosts_gate(metrics: dict, seconds: float) -> list[str]:
    out = [f"{exp}.{key} = {metrics[exp][key]:.4g} > {limit:.4g}"
           for exp, key, limit in _SLICE_LIMITS if not metrics[exp][key] <= limit]
    lazy = metrics["lazy"]
    if lazy["wins_vs_random_ghosts"] != lazy["trials"]:
        out.append(f"lazy wins {lazy['wins_vs_random_ghosts']:g} of {lazy['trials']:g} trials")
    return out


WORKLOADS = {
    # The paper's Appendix-C study exactly as `ghostlet appendix-c` runs it,
    # one k. The Monte Carlo stack in experiments.py and the profile
    # evaluators (dawson_derivative) do the work; grids.interpolate runs once
    # on 10^6 points. fourier and the direct kernel (transforms) do none, so
    # this is the no-change control for a faster Fourier engine or a cached
    # direct kernel, and the target for quasi-random sampling or a merged MC
    # stack (which may move `err` here).
    "mc-recon": Workload(
        (("appendix-c", {"ks": [2]}),),
        ("appendix-c", "recon_rel_error_rho2"),
        _mc_recon_gate, err_iterations=2,
        # Criterion 1 (rho_2 error <= 0.1) is missed through |a| <= 6 box
        # truncation: the error tracks 1 - box_gain (0.78 against 0.825).
        known_misses=(("appendix-c", "recon_rel_error_rho2", 0.1),)),
    # `ghostlet finite-model` at its defaults: one operator applied by the
    # direct kernel 21 times (20,769 x 121 kernel evaluations each), 20
    # mollified finite models and 27 interpolations of 8 distinct fields.
    # This is where a cached sigma(a.x - b) kernel or a per-field spline
    # cache pays back; MC variance reduction moves `err` here.
    "direct-finite": Workload(
        (("finite-model", {}),),
        ("finite-model", "error_ratio_last_over_first"),
        _direct_finite_gate, err_iterations=5,
        known_misses=(("finite-model", "error_ratio_last_over_first", 1.0 / 3.0),)),
    # The Fourier-slice path on the compact testbed: projector, structure
    # decomposition, ghost encoding, lazy solution and norm bound. fourier
    # (dense axis transforms) and the per-omega spline loop in
    # forward_s_fourier dominate; it is the only workload that loads
    # fourier, nullspace and encoding. Direct S runs once, on a freshly built
    # operator, so a kernel cache gets no reuse here and must cost nothing.
    "slice-ghosts": Workload(
        (("decompose", {}), ("encode-series", {}), ("lazy", {}), ("bound", {"measure": True})),
        ("decompose", "residual_over_ghost"),
        _slice_ghosts_gate, err_iterations=3),
}


@dataclass
class Iteration:
    seconds: float
    cpu_seconds: float
    metrics: dict            # experiment -> report metrics
    failures: list[str]
    misses: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_iteration(workload: Workload, seed: int, out_dir: Path, experiments) -> Iteration:
    """Run every step of the workload once, timed, then apply the gate.

    An iteration fails if a step raises, a metric is not finite, a reported
    artifact is missing, or the workload's gate rejects a metric.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    cfgs = [experiments.ExperimentConfig(experiment=exp, seed=seed,
                                         output_dir=str(out_dir / exp), params=dict(params))
            for exp, params in workload.steps]
    reports = []
    failures = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for cfg in cfgs:
            reports.append(experiments.run_subcommand(cfg))
    except Exception as exc:  # a failed iteration is counted, not fatal
        failures.append(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - wall0
    cpu_seconds = time.process_time() - cpu0
    metrics = {r.experiment: dict(r.metrics) for r in reports}
    for report in reports:
        failures += [f"{report.experiment}.{k} is not finite"
                     for k, v in report.metrics.items() if not math.isfinite(v)]
        failures += [f"{report.experiment}: artifact missing: {a}"
                     for a in report.artifacts if not Path(a).is_file()]
    if not failures:
        try:
            failures += workload.gate(metrics, seconds)
        except KeyError as exc:
            failures.append(f"metric missing from report: {exc}")
    misses = [f"{exp}.{key} > {limit:.4g}" for exp, key, limit in workload.known_misses
              if exp in metrics and not metrics[exp][key] <= limit]
    return Iteration(seconds, cpu_seconds, metrics, failures, misses)


def err_value(workload: Workload, it: Iteration) -> float:
    exp, key = workload.err
    return float(it.metrics[exp][key])
