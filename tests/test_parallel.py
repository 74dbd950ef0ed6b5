"""Importing ghostlet pins numpy's and scipy's bundled OpenBLAS to one thread."""
import subprocess
import sys

import numpy as np
import pytest

from ghostlet.parallel import openblas_libraries

from conftest import blas_threads_env

_THREADS_AFTER_IMPORT = """
import ghostlet
from ghostlet.parallel import BLAS_PINNED, openblas_libraries
print(BLAS_PINNED, *(f"{package}={get()}" for package, _, _, get in openblas_libraries()))
"""


def test_import_pins_bundled_openblas_to_one_thread():
    """In a process started with OPENBLAS_NUM_THREADS=2, every bundled
    OpenBLAS reports one thread through its get_num_threads symbol once
    ghostlet is imported. numpy's counts whenever its build names
    scipy-openblas."""
    if not openblas_libraries():
        pytest.skip("neither numpy nor scipy bundles an OpenBLAS with thread-count symbols")
    out = subprocess.run([sys.executable, "-c", _THREADS_AFTER_IMPORT], env=blas_threads_env("2"),
                         capture_output=True, text=True, check=True, timeout=120).stdout.split()
    pinned, counts = out[0], dict(entry.split("=") for entry in out[1:])
    assert counts and set(counts.values()) == {"1"}, counts
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas == "scipy-openblas":
        assert "numpy" in counts and pinned == "True", out
