"""The one worker pool of the CPU-bound stages: render, extract, probe grid.

Workers are forked, so they inherit modules and data without pickling. Each
runs numpy's bundled OpenBLAS on one thread: the pool already keeps every
core busy, and more BLAS threads would only contend for the same cores.
"""

import ctypes
import glob
import os

import numpy as np


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


def _start_worker(init, initargs):
    set_threads = openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
    if init is not None:
        init(*initargs)


def parallel_map(fn, jobs, workers: int, init=None, initargs=()) -> list:
    """[fn(job) for job in jobs] in job order, over `workers` forked processes.

    With `workers` <= 1 the jobs run here, with this process's BLAS threads,
    and `init` is not called; otherwise `init(*initargs)` runs once in each
    worker. Jobs go out one at a time, so uneven costs balance.
    """
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that runs without a pool do not load it

    with multiprocessing.get_context("fork").Pool(workers, _start_worker, (init, initargs)) as pool:
        return pool.map(fn, jobs, chunksize=1)
