"""The benchmark's layer tracer (`bench/layertrace.py`) finds what it looks up.

The tracer rebinds each function its `LAYERS` table names, found by
`getattr` on the layer's `ghostlet` module, and each `Tracer._count_<fn>`
work counter receives `<fn>`'s arguments by name. A refactor that moves a
listed name, or renames a counted parameter, makes every traced benchmark run
(`bench/run.py --trace 1`) raise. These checks catch that without running a
workload; they read the bench files and change none.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from ghostlet.grids import Grid, ParamDistribution
from ghostlet.profiles import gaussian_derivative_profile
from ghostlet.transforms import make_operator

_SPEC = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "bench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


def _listed():
    """(module, function name) for every function the tracer lists."""
    for layer, fns in layertrace.LAYERS.items():
        module = importlib.import_module(f"ghostlet.{layer}")
        for fn in fns:
            yield module, fn


def test_tracer_finds_every_listed_name_and_restores_it():
    originals = {(module.__name__, fn): getattr(module, fn) for module, fn in _listed()}
    with layertrace.Tracer():
        pass
    assert {(module.__name__, fn): getattr(module, fn) for module, fn in _listed()} == originals


def test_each_counter_takes_the_parameters_of_its_function():
    counted = []
    for module, fn in _listed():
        count = getattr(layertrace.Tracer, f"_count_{fn}", None)
        if count is None:
            continue
        params = list(inspect.signature(count).parameters)[1:]   # after self
        assert params == list(inspect.signature(getattr(module, fn)).parameters), fn
        counted.append(fn)
    assert sorted(counted) == ["forward_s", "fourier_forward", "fourier_inverse", "interpolate",
                               "partial_flat_b", "partial_sharp_b", "ridgelet"]


def test_forward_s_counter_reads_the_operator():
    """`_count_forward_s` reads the operator's quadrature scheme and grids."""
    param_grid = Grid((-1.0, -1.0), (1.0, 1.0), (3, 4))
    op = make_operator(gaussian_derivative_profile(1), param_grid, Grid.line(-1.0, 1.0, 5))
    tracer = layertrace.Tracer()
    tracer._count_forward_s(op, ParamDistribution(param_grid, np.zeros(param_grid.counts)))
    assert tracer.kernel_evals == 12 * 5
