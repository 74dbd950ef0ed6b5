"""Importing ghostlet pins numpy's and scipy's bundled OpenBLAS to one
thread, and `_block_map` runs blocks on one pool kept for the process."""
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from ghostlet import parallel
from ghostlet.parallel import _block_map, openblas_libraries

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


@pytest.fixture
def pooled(monkeypatch):
    """`_block_map` with BLAS taken as pinned and two usable cores; the
    fixture's value sets another core count."""
    monkeypatch.setattr(parallel, "BLAS_PINNED", True)

    def set_cores(cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))

    set_cores(2)
    return set_cores


@pytest.mark.parametrize("cores", [1, 4])
def test_block_map_gives_the_bits_of_map(pooled, cores):
    """Each block's GEMM gives the same bits on a pool thread as inline, and
    the results come in block order."""
    pooled(cores)
    rng = np.random.default_rng(0)
    left, right = rng.normal(size=(60, 80)), rng.normal(size=(80, 70))
    gemm = lambda start: left[start:start + 7] @ right
    got = list(_block_map(gemm, range(0, 60, 7)))
    want = list(map(gemm, range(0, 60, 7)))
    assert len(got) == len(want) == 9
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_repeated_calls_start_no_new_threads(pooled):
    """The pool outlives each call: 50 more multi-block calls leave the
    process's thread count where the first call left it, and all 51 run
    their blocks on the same two threads (a pool per call made two new ones
    each time)."""
    ran_on = set()

    def block(i):
        ran_on.add(threading.current_thread())
        return i + 1

    assert list(_block_map(block, range(6))) == [1, 2, 3, 4, 5, 6]
    after_first = threading.active_count()
    for _ in range(50):
        assert list(_block_map(block, range(5))) == [1, 2, 3, 4, 5]
    assert threading.active_count() == after_first
    assert len(ran_on) <= 2 and threading.current_thread() not in ran_on


_NESTED = """
import os, threading
from ghostlet import parallel
parallel.BLAS_PINNED = True
os.sched_getaffinity = lambda pid: {0, 1}

def outer(i):
    inner = list(parallel._block_map(lambda j: (j, threading.get_ident()), range(4)))
    assert [j for j, _ in inner] == [0, 1, 2, 3]
    assert {thread for _, thread in inner} == {threading.get_ident()}, "inner blocks left the thread"
    return i + 6

assert list(parallel._block_map(outer, range(4))) == [6, 7, 8, 9]
print("done")
"""


def test_block_map_inside_a_block_runs_inline():
    """A `_block_map` called from a block runs on that block's thread and
    returns, instead of waiting for pool threads that its caller holds. It
    runs in a subprocess under a timeout, so a deadlock fails the test
    without hanging the test process at exit."""
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(_NESTED)],
                         env=blas_threads_env("1"), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["done"]


@pytest.mark.parametrize("how", ["raise", "close"])
def test_abandoned_call_leaves_no_block_running(pooled, how):
    """A block that raises, or a consumer that stops after one result, ends
    the call: the error propagates, the queued blocks are cancelled, every
    block that started has finished when the call is over (blocks past the
    two-per-thread window are never handed out), and the next call works."""
    lock = threading.Lock()
    started, finished = set(), set()

    def block(i):
        with lock:
            started.add(i)
        time.sleep(0.05 if i else 0.01)
        with lock:
            finished.add(i)
        if i == 0 and how == "raise":
            raise ValueError("block 0")
        return i

    results = _block_map(block, range(10))
    if how == "raise":
        with pytest.raises(ValueError, match="block 0"):
            list(results)
    else:
        assert next(results) == 0
        results.close()
    with lock:
        assert started == finished
        assert started <= {0, 1, 2, 3}
    assert list(_block_map(lambda i: -i, range(3))) == [0, -1, -2]


_FORK_AND_EXIT = """
import os, signal
from ghostlet import parallel
parallel.BLAS_PINNED = True
os.sched_getaffinity = lambda pid: {0, 1}
squares = [i * i for i in range(6)]
assert list(parallel._block_map(lambda i: i * i, range(6))) == squares
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child stuck on the parent's pool ends, not lingers
    ok = list(parallel._block_map(lambda i: i * i, range(6))) == squares
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
assert list(parallel._block_map(lambda i: i * i, range(6))) == squares
print("done")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_blocks_and_the_process_exits():
    """A child forked after the pool started makes its own pool and runs a
    multi-block call, and a process that used the pool exits with code 0."""
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(_FORK_AND_EXIT)],
                         env=blas_threads_env("1"), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["done"]
