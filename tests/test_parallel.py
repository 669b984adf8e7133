import ctypes

import numpy as np
import pytest

from earbench.parallel import openblas_function, parallel_map


def _blas_threads(_job=None):
    get = openblas_function("get_num_threads")
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


def _square(x):
    return x * x


def test_parallel_map_keeps_job_order():
    jobs = list(range(23))
    assert parallel_map(_square, jobs, 2) == [x * x for x in jobs]
    assert parallel_map(_square, jobs, 1) == [x * x for x in jobs]


def test_parallel_map_runs_a_closure_over_local_data():
    table = np.arange(12.0).reshape(4, 3)

    def row_sum(i):
        return float(table[i].sum())

    assert parallel_map(row_sum, range(4), 2) == [3.0, 12.0, 21.0, 30.0]


def test_pool_workers_run_one_blas_thread():
    if openblas_function("get_num_threads") is None:
        pytest.skip("numpy's bundled OpenBLAS entry points not found")
    before = _blas_threads()
    assert parallel_map(_blas_threads, range(4), 2) == [1, 1, 1, 1]
    assert _blas_threads() == before  # the parent keeps its own setting
    assert parallel_map(_blas_threads, range(2), 1) == [before, before]
