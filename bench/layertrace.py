"""Outside-in layer trace of a ghostlet run.

``Tracer`` rebinds each listed public function to a timing wrapper in every
loaded ``ghostlet`` module namespace (callers bind names with
``from .x import f``, so patching only the defining module would miss them),
runs, and restores the originals. Each call becomes a span with its name,
start, end and parent; work counters are computed from call arguments, so
they repeat exactly across runs. No program file is changed.

Per-layer metrics (see ``metric_names``):

- ``<layer>.self_s``: span time minus the time of child spans of other layers
- ``<layer>.calls``: calls of the layer's listed functions
- ``<layer>.<fn>.s``: inclusive time of outermost calls of ``fn``
- ``<layer>.<fn>.calls``: calls of ``fn``
- work counters: ``fourier.transform_entries`` (sum of |src|*|dst|*batch over
  the transform primitives) and ``fourier.entries_per_s``;
  ``transforms.kernel_evals`` (parameter nodes * x nodes per direct S/R call)
  and ``transforms.kernel_evals_per_s``; ``transforms.spline_builds``
  (CubicSpline constructions inside transforms spans);
  ``grids.interpolate.points`` and ``grids.interpolate.distinct_field_ratio``
  (distinct fields / calls); ``reporting.bytes`` written.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import os
import sys
import time

LAYERS = {
    "grids": ("interpolate", "l2_inner", "weighted_omega_inner"),
    "fourier": ("fourier_forward", "fourier_inverse", "partial_sharp_b", "partial_flat_b",
                "fractional_bracket"),
    "profiles": ("dawson_derivative", "make_rho_family", "hermite_basis", "gram_schmidt_l2m"),
    "transforms": ("forward_s", "ridgelet", "forward_s_fourier", "ridgelet_fourier",
                   "make_operator"),
    "nullspace": ("project", "structure_decompose", "ridgelet_atom", "lazy_solution",
                  "make_nonadmissible", "admissibility"),
    "encoding": ("make_ghost_codebook", "encode_series", "readout_mutate"),
    "finite_models": ("sample_parameters", "mollify", "smooth_convolve",
                      "finite_ridgelet_coeffs", "layer_norms"),
    "experiments": ("run_subcommand",),
    "reporting": ("write_csv", "write_matrix_csv", "write_pgm", "write_json"),
}

_TRANSFORM_PRIMITIVES = ("fourier_forward", "fourier_inverse", "partial_sharp_b",
                         "partial_flat_b")
_DIRECT_KERNELS = ("forward_s", "ridgelet")

COUNTERS = {
    "fourier.transform_entries": "count",
    "fourier.entries_per_s": "1/s",
    "transforms.kernel_evals": "count",
    "transforms.kernel_evals_per_s": "1/s",
    "transforms.spline_builds": "count",
    "grids.interpolate.points": "count",
    "grids.interpolate.distinct_field_ratio": "ratio",
    "reporting.bytes": "B",
}


def metric_names() -> dict:
    """Every per-layer metric a traced run reports, name -> unit."""
    names = {}
    for layer, fns in LAYERS.items():
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
        if layer == "experiments":  # one function: the layer totals say it all
            continue
        for fn in fns:
            names[f"{layer}.{fn}.s"] = "s"
            names[f"{layer}.{fn}.calls"] = "count"
    names.update(COUNTERS)
    return names


def _axis_entries(src_counts, dst_counts) -> int:
    """Entries of the dense kernels of an axis-by-axis transform: axis k maps
    src[k] -> dst[k] with the axes before it already transformed."""
    total = 0
    for k in range(len(src_counts)):
        batch = math.prod(dst_counts[:k]) * math.prod(src_counts[k + 1:])
        total += src_counts[k] * dst_counts[k] * batch
    return total


def _last_axis_entries(src_counts, dst_count) -> int:
    return math.prod(src_counts[:-1]) * src_counts[-1] * dst_count


def _quadrature_nodes(scheme, grid) -> int:
    return scheme.sample_count if scheme.kind == "monte_carlo" else grid.total_points


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` afterwards."""

    def __init__(self):
        self.spans = []          # [layer, fn, start, end, parent index]
        self._stack = []
        self._restore = []
        self.transform_entries = 0
        self.kernel_evals = 0
        self.spline_builds = 0
        self.interp_points = 0
        self.interp_fields = set()
        self.report_bytes = 0

    # -- installation ------------------------------------------------------

    def __enter__(self):
        import scipy.interpolate

        wrapped = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"ghostlet.{layer}")
            for fn in fns:
                orig = getattr(module, fn)
                wrapped[id(orig)] = self._wrap(layer, fn, orig)
        for name, module in list(sys.modules.items()):
            if name != "ghostlet" and not name.startswith("ghostlet."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:  # the originals stay alive, so ids are unique
                    self._rebind(module, attr, wrapped[id(value)])
        self._rebind(scipy.interpolate, "CubicSpline",
                     self._count_splines(scipy.interpolate.CubicSpline))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def _rebind(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _count_splines(self, cls):
        def counting(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == "transforms":
                self.spline_builds += 1
            return cls(*args, **kwargs)
        return counting

    def _wrap(self, layer, fn, orig):
        signature = inspect.signature(orig)
        count = getattr(self, f"_count_{fn}", None)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(**bound.arguments)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [layer, fn, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if layer == "reporting":
                path = result[0] if isinstance(result, tuple) else result
                self.report_bytes += os.path.getsize(path)
            return result

        return wrapper

    # -- work counters, from call arguments ----------------------------------

    def _count_fourier_forward(self, u, output_grid):
        self.transform_entries += _axis_entries(u.grid.counts, output_grid.counts)

    _count_fourier_inverse = _count_fourier_forward

    def _count_partial_sharp_b(self, gamma, omega_grid):
        self.transform_entries += _last_axis_entries(gamma.grid.counts, omega_grid.counts[0])

    def _count_partial_flat_b(self, gamma_sharp, b_grid):
        self.transform_entries += _last_axis_entries(gamma_sharp.grid.counts, b_grid.counts[0])

    def _count_forward_s(self, op, gamma):
        self.kernel_evals += (_quadrature_nodes(op.scheme, op.param_grid)
                              * op.input_grid.total_points)

    def _count_ridgelet(self, f, rho, param_grid, scheme):
        self.kernel_evals += param_grid.total_points * _quadrature_nodes(scheme, f.grid)

    def _count_interpolate(self, fld, points, method):
        shape = getattr(points, "shape", None) or (len(points),)
        self.interp_points += shape[0] if len(shape) >= 2 else 1
        digest = hashlib.blake2b(fld.values.tobytes(), digest_size=16)
        digest.update(repr(fld.grid).encode())
        self.interp_fields.add(digest.hexdigest())

    # -- summary -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (see metric_names)."""
        names = metric_names()
        out = {name: 0 if unit == "count" else 0.0 for name, unit in names.items()}
        child_time = [0.0] * len(self.spans)
        for layer, fn, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (layer, fn, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[index]
            out[f"{layer}.calls"] += 1
            if layer == "experiments":
                continue
            out[f"{layer}.{fn}.calls"] += 1
            if not self._inside_same_fn(index):
                out[f"{layer}.{fn}.s"] += duration
        primitive_s = sum(out[f"fourier.{fn}.s"] for fn in _TRANSFORM_PRIMITIVES)
        kernel_s = sum(out[f"transforms.{fn}.s"] for fn in _DIRECT_KERNELS)
        interp_calls = out["grids.interpolate.calls"]
        out.update({
            "fourier.transform_entries": self.transform_entries,
            "fourier.entries_per_s": self.transform_entries / primitive_s if primitive_s else 0.0,
            "transforms.kernel_evals": self.kernel_evals,
            "transforms.kernel_evals_per_s": self.kernel_evals / kernel_s if kernel_s else 0.0,
            "transforms.spline_builds": self.spline_builds,
            "grids.interpolate.points": self.interp_points,
            "grids.interpolate.distinct_field_ratio":
                len(self.interp_fields) / interp_calls if interp_calls else 0.0,
            "reporting.bytes": self.report_bytes,
        })
        return out

    def _inside_same_fn(self, index: int) -> bool:
        layer, fn, _, _, parent = self.spans[index]
        while parent >= 0:
            if self.spans[parent][0] == layer and self.spans[parent][1] == fn:
                return True
            parent = self.spans[parent][4]
        return False
