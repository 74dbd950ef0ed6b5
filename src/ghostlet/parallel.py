"""The program's one level of parallelism: `_block_map`'s worker threads.

Importing ghostlet pins the OpenBLAS that numpy's wheel bundles, and the one
scipy's wheel bundles, to one thread each, for the whole process. A BLAS call
then runs on the thread that makes it and gives the same bits whatever
`OPENBLAS_NUM_THREADS` says, and no BLAS thread spins on a core that a
`_block_map` worker needs. Where numpy's BLAS exports no thread-count symbol
(an MKL or a system BLAS build), it is left alone, `BLAS_PINNED` is False,
and every BLAS call stays on the calling thread.
"""
from __future__ import annotations

import ctypes
import glob
import itertools
import os
from collections import deque
from pathlib import Path

import numpy as np
import scipy

# The OpenBLAS each wheel bundles in `<package>.libs`, and its thread-count
# setter and getter (numpy's is the 64-bit-integer build, with a suffix).
_BUNDLED_OPENBLAS = (
    (np, "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def openblas_libraries() -> list[tuple]:
    """(package, library path, set_num_threads, get_num_threads) of each
    OpenBLAS that numpy's and scipy's wheels bundle and that exports both
    thread-count symbols; empty for builds that bundle none."""
    found = []
    for package, set_name, get_name in _BUNDLED_OPENBLAS:
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # not a loadable library
                continue
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((package.__name__, path, setter, getter))
    return found


def _pin_openblas() -> bool:
    """Set every bundled OpenBLAS to one thread; True when numpy's is one of them."""
    libraries = openblas_libraries()
    for _, _, setter, _ in libraries:
        setter(1)
    return any(package == np.__name__ for package, *_ in libraries)


BLAS_PINNED = _pin_openblas()


def _block_map(fn, blocks):
    """Yield fn(block) for each block, in block order.

    The blocks run on one thread per usable core (`os.sched_getaffinity`),
    with at most two blocks per thread in flight, so a lazy `blocks` iterable
    is consumed only that far ahead of the results. A single block, or a
    single core, runs inline. BLAS runs on one thread: `fn` may call numpy's
    BLAS only when `BLAS_PINNED`, since an unpinned BLAS runs each call on
    its own threads as well, and calls from every worker oversubscribe the
    cores.
    """
    blocks = iter(blocks)
    head = list(itertools.islice(blocks, 2))
    workers = len(os.sched_getaffinity(0))
    if len(head) < 2 or workers == 1:
        yield from map(fn, itertools.chain(head, blocks))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for block in itertools.chain(head, blocks):
            pending.append(pool.submit(fn, block))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
