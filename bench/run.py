"""ghostlet benchmark: three CLI workloads, end-to-end metrics and a layer trace.

    python3 bench/run.py --workload mc-recon|direct-finite|slice-ghosts|all \\
        --seed N [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/``. With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json
(run_s, cpu_s, setup_s, cold_s, peak_rss_mb, err), with ``--trace 1`` the
per-layer metrics of a separate traced run. Either way every iteration
passes the workload's correctness gate or counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit code 0 means a result was printed; anything else means no result.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORK_DIR = BENCH_DIR / "_work"

WORKLOAD_NAMES = ("mc-recon", "direct-finite", "slice-ghosts")
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "cold_s": "s",
              "peak_rss_mb": "MB", "err": "ratio"}
# Traced wall time per iteration, and its excess over the untraced run_s.
TRACE_TOTALS = {"trace.run_s": "s", "trace.overhead_s": "s"}
SETUP_PROBES = 3
# Extra fresh processes that run only import + first iteration, until the
# cold samples add up to COLD_TARGET_S: one cold iteration of a short
# workload is too noisy a sample on its own.
COLD_TARGET_S = 10.0
COLD_MAX_SAMPLES = 4
# Wall-clock budget of one workload's run, all processes included.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """Environment of every measured process: the checkout's src/ only, and
    at most one BLAS thread per available core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            env[var] = str(nproc)
    return env


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before worker {' '.join(args[:3])}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args[:3])} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload: a measured worker process, then (untraced)
    cold-start processes and fresh-interpreter set-up probes."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace)), "--out", str(WORK_DIR)]
    try:
        result = _child(run_args, deadline)
        if trace:
            return result
        colds = [result["metrics"]["cold_s"]]
        while sum(colds) < COLD_TARGET_S and len(colds) < COLD_MAX_SAMPLES:
            cold = _child([*run_args, "--cold-only", "--first-index", str(100 * len(colds))],
                          deadline)
            colds.append(cold["metrics"]["cold_s"])
            for key in ("attempted", "failed", "failures", "misses"):
                result[key] += cold[key]
            result["missed"] += cold["missed"]
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    result["metrics"]["cold_s"] = statistics.median(colds)
    result["cold_samples"] = [round(c, 3) for c in colds]
    probes = [_child(["setup", *result["lazy_modules"]], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result["metrics"]["setup_s"] = statistics.median(probes)
    return result


def _describe(workload: str, result: dict, units: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"== {workload}: fail_rate {failed / attempted:.3g} ({failed} of {attempted} "
             f"iterations)",
             f"  untraced iteration seconds, cold first: {result['seconds']}"]
    if "cold_samples" in result:
        lines.append(f"  cold_s samples (fresh processes): {result['cold_samples']}")
    for name, unit in units.items():
        lines.append(f"  {name:<48} {result['metrics'][name]:>16.6g} {unit}")
    if "import_s" in result["metrics"]:
        lines.append(f"  (import_s of the worker: {result['metrics']['import_s']:.6g} s)")
    if result["missed"]:
        lines.append(f"  known acceptance misses in {result['missed']} of {attempted} "
                     f"iterations: {'; '.join(result['misses'])}")
    lines += [f"  FAILED: {f}" for f in result["failures"]]
    lines.append(f"  lazy imports: {', '.join(result['lazy_modules']) or 'none'}")
    lines.append(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ghostlet" / "__init__.py").is_file():
        print(f"bench: no ghostlet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src" / "ghostlet", quiet=1):
        print("bench: ghostlet sources do not compile", file=sys.stderr)
        return 2

    from layertrace import metric_names

    units = {**metric_names(), **TRACE_TOTALS} if args.trace else END_TO_END
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(_describe(workload, result, units)), flush=True)
            prefix = f"{workload}/" if len(names) > 1 else ""
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].update(
                {f"{prefix}{name}": {"value": result["metrics"][name], "unit": unit}
                 for name, unit in units.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
