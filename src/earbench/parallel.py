"""The one worker pool of the CPU-bound stages: render, extract, probe grid.

Workers are forked, so they inherit modules, data and the job function
itself without pickling. Each runs numpy's bundled OpenBLAS on one thread:
the pool already keeps every core busy, and more BLAS threads would only
contend for the same cores.
"""

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def openblas_function(name: str):
    """`openblas_<name>` of the OpenBLAS in a numpy wheel's numpy.libs, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _set_blas_threads(n: int):
    set_threads = openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(n)


_blas_lock = threading.Lock()
_blas_users = 0  # bodies inside `one_blas_thread`, in any thread of this process
_blas_before = 0  # the count that the first of them found


@contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the count it had.

    A matmul's float64 bits can depend on how many threads share it, so
    feature extraction runs on one thread in every process: a pool worker,
    a `--workers 1` parent or a test. The count belongs to the process, so
    bodies that overlap, in one thread or several, share it: the first to
    enter saves the count and sets one thread, and the last to leave
    restores the saved count.
    """
    global _blas_users, _blas_before
    get_threads = openblas_function("get_num_threads")
    if get_threads is None:
        yield
        return
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    with _blas_lock:
        if _blas_users == 0:
            _blas_before = get_threads()
            _set_blas_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                _set_blas_threads(_blas_before)


_FN = None  # the job function of this pool worker, set by _start_worker


def _start_worker(fn):
    global _FN
    _FN = fn
    _set_blas_threads(1)


def _run(job):
    return _FN(job)


def parallel_map(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs] in job order, over `workers` forked processes.

    `fn` reaches the workers as the pool initializer's argument, which fork
    inherits, so it is never pickled and may be a closure over large arrays;
    only the jobs and results are. With `workers` <= 1 the jobs run here,
    with this process's BLAS threads (feature extraction sets its own).
    Jobs go out one at a time, so uneven costs balance.
    """
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that runs without a pool do not load it

    with multiprocessing.get_context("fork").Pool(workers, _start_worker, (fn,)) as pool:
        return pool.map(_run, jobs, chunksize=1)
