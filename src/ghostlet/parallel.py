"""The program's one level of parallelism: `_block_map` on one worker pool.

Importing ghostlet pins the OpenBLAS that numpy's wheel bundles, and the one
scipy's wheel bundles, to one thread each, for the whole process. A BLAS call
then runs on the thread that makes it and gives the same bits whatever
`OPENBLAS_NUM_THREADS` says, and no BLAS thread spins on a core that a
`_block_map` worker needs. Where numpy's BLAS exports no thread-count symbol
(an MKL or a system BLAS build), it is left alone, `BLAS_PINNED` is False,
and `_block_map` runs every block on the calling thread.

The workers are one `ThreadPoolExecutor` kept for the life of the process,
made by the first `_block_map` call that needs workers (importing starts no
thread), one thread per usable core, and replaced when that count changes. A
forked child drops the inherited pool, whose threads stayed in the parent.
"""
from __future__ import annotations

import ctypes
import glob
import itertools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
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


_pool: tuple[int, ThreadPoolExecutor] | None = None  # (threads, pool)
_pool_lock = threading.Lock()
_on_worker = threading.local()  # `.active` is True on the pool's threads


def _mark_worker():
    _on_worker.active = True


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool, with `workers` threads; a pool of another size is
    shut down (its queued blocks still run) and replaced."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = workers, ThreadPoolExecutor(workers, thread_name_prefix="ghostlet-block",
                                                initializer=_mark_worker)
        return _pool[1]


def _forget_pool():
    """In a forked child: the inherited pool's threads, and any holder of the
    lock, stayed in the parent."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _block_threads() -> int:
    """How many threads a `_block_map` call made here runs its blocks on:
    one per usable core where BLAS is pinned, else 1 (the calling thread),
    and 1 on one of the pool's own threads."""
    if not BLAS_PINNED or getattr(_on_worker, "active", False):
        return 1
    return len(os.sched_getaffinity(0))


def _block_map(fn, blocks):
    """Yield fn(block) for each block, in block order; `fn` may call BLAS.

    Where BLAS is pinned (`BLAS_PINNED`), the blocks run on the process's
    pool, one thread per usable core (`os.sched_getaffinity`), with at most
    two blocks per thread in flight, so a lazy `blocks` iterable is consumed
    only that far ahead of the results. A single block or a single core runs
    inline, and so does every block where BLAS is not pinned: that BLAS runs
    each call on its own threads as well, and calls from every worker would
    oversubscribe the cores. A call made on one of the pool's own threads
    also runs inline, since its blocks would wait for the thread they hold.

    When the generator is closed early (a block raised, or the consumer
    stopped), its queued blocks are cancelled and its running ones waited
    for, so no block of the call outlives it.
    """
    blocks = iter(blocks)
    head = list(itertools.islice(blocks, 2))
    workers = _block_threads()
    if len(head) < 2 or workers == 1:
        yield from map(fn, itertools.chain(head, blocks))
        return
    pool = _worker_pool(workers)
    pending = deque()
    try:
        for block in itertools.chain(head, blocks):
            pending.append(pool.submit(fn, block))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
