"""One measured process of the benchmark; run.py starts it.

    worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
                  [--first-index I] [--cold-only]
    worker.py setup MODULE [MODULE ...]

``run`` imports ghostlet (timed), runs one cold iteration, then warm
iterations while the next one is expected to end within ``--seconds`` (at
least one, and at least the workload's error-sample count in all);
``--cold-only`` stops after the cold one.
With ``--trace 1`` each warm step is an untraced iteration followed by a
traced one on the same seed, and the two reports must agree bit for bit.
``setup`` times a fresh interpreter's import of ghostlet plus the modules a
workload imports lazily. Both print one JSON object as their last line.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _import_ghostlet():
    import ghostlet
    import ghostlet.experiments as experiments

    origin = Path(ghostlet.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"ghostlet imported from {origin}, not from {SRC_DIR}")
    return experiments


def iteration_seed(seed: int, index: int) -> int:
    """Config seed of iteration `index`: every iteration of a run gets its own
    inputs, and the same run seed always gives the same ones."""
    return seed * 1000 + index


def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = int(getter())
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _env(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), **_blas_info(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed}


def run(args) -> dict:
    from workloads import WORKLOADS, err_value, run_iteration

    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    experiments = _import_ghostlet()
    import_s = time.perf_counter() - t0
    modules_after_import = set(sys.modules)
    index = args.first_index
    iterations = [run_iteration(workload, iteration_seed(args.seed, index), out_dir, experiments)]
    cold_s = time.perf_counter() - t0
    lazy_modules = sorted(
        name for name in set(sys.modules) - modules_after_import
        if name.rpartition(".")[0] in modules_after_import | {""}
        and getattr(getattr(sys.modules[name], "__spec__", None), "name", None) == name)

    min_iterations = 2 if args.trace else max(2, workload.err_iterations)
    warm, traced, layer_runs, mismatches = [], [], [], []
    window0 = time.perf_counter()
    # The last iteration's time predicts the next one's.
    while not args.cold_only and (
            time.perf_counter() - window0 + iterations[-1].seconds <= args.seconds
            or len(iterations) < min_iterations):
        seed = iteration_seed(args.seed, index + len(iterations))
        it = run_iteration(workload, seed, out_dir, experiments)
        iterations.append(it)
        warm.append(it)
        if args.trace:
            from layertrace import Tracer

            with Tracer() as tracer:
                traced_it = run_iteration(workload, seed, out_dir, experiments)
            traced.append(traced_it)
            layer_runs.append(tracer.metrics())
            if traced_it.metrics != it.metrics:
                mismatches.append(seed)
    done = iterations + traced
    failures = [f for it in done for f in it.failures]
    failures += [f"traced report metrics differ from untraced at seed {s}" for s in mismatches]
    result = {
        "attempted": len(done),
        "failed": sum(not it.ok for it in done) + len(mismatches),
        "failures": failures[:20],
        "missed": sum(bool(it.misses) for it in done),
        "misses": sorted({m for it in done for m in it.misses}),
        "seconds": [round(it.seconds, 3) for it in iterations],
        "env": _env(args.seed),
        "lazy_modules": lazy_modules,
    }
    if args.cold_only:
        result["metrics"] = {"cold_s": cold_s}
        return result
    run_s = statistics.median(it.seconds for it in warm)
    if args.trace:
        # Counts repeat exactly from run to run; times are medians (median_low,
        # so every value is one that was measured).
        layer = {name: statistics.median_low(run[name] for run in layer_runs)
                 for name in layer_runs[0]}
        layer["trace.run_s"] = statistics.median(it.seconds for it in traced)
        layer["trace.overhead_s"] = layer["trace.run_s"] - run_s
        result["metrics"] = layer
    else:
        errs = [err_value(workload, it) for it in iterations[:workload.err_iterations]
                if it.ok]
        result["metrics"] = {
            "run_s": run_s,
            "cpu_s": statistics.median(it.cpu_seconds for it in warm),
            "cold_s": cold_s,
            "import_s": import_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err": statistics.fmean(errs) if errs else float("nan"),
        }
    return result


def setup(modules: list[str]) -> dict:
    import importlib

    t0 = time.perf_counter()
    _import_ghostlet()
    for name in modules:
        importlib.import_module(name)
    return {"setup_s": time.perf_counter() - t0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--first-index", type=int, default=0)
    p_run.add_argument("--cold-only", action="store_true")
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("modules", nargs="*")
    args = parser.parse_args(argv)
    result = run(args) if args.mode == "run" else setup(args.modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
