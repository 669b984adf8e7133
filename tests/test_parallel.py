import os
import threading

import numpy as np
import pytest

from earbench.parallel import one_blas_thread, parallel_map
from blas_count import blas_thread_count, caller_blas_threads


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


def test_parallel_map_runs_one_or_no_job_in_the_caller():
    assert parallel_map(lambda _: os.getpid(), [0], 4) == [os.getpid()]
    assert parallel_map(lambda _: os.getpid(), [], 4) == []


def test_pool_workers_run_one_blas_thread():
    before = blas_thread_count()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS entry points not found")
    assert parallel_map(blas_thread_count, range(4), 2) == [1, 1, 1, 1]
    assert blas_thread_count() == before  # the parent keeps its own setting
    assert parallel_map(blas_thread_count, range(2), 1) == [before, before]


def test_overlapping_bodies_run_on_one_thread_until_the_last_leaves():
    """Thread A enters, then B; A leaves while B's body still runs. B must
    stay on one thread, and the caller's count must come back after B."""
    if blas_thread_count() is None:
        pytest.skip("numpy's bundled OpenBLAS entry points not found")
    both_inside = threading.Barrier(2, timeout=10)
    a_left = threading.Event()
    seen = {}

    def a():
        with one_blas_thread():
            both_inside.wait()
            seen["A inside"] = blas_thread_count()
        a_left.set()

    def b():
        with one_blas_thread():
            both_inside.wait()
            seen["B after A left"] = blas_thread_count() if a_left.wait(10) else "A never left"
        seen["after both"] = blas_thread_count()

    with caller_blas_threads(2):
        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"A inside": 1, "B after A left": 1, "after both": 2}
        with one_blas_thread():
            with one_blas_thread():
                assert blas_thread_count() == 1
            assert blas_thread_count() == 1  # an inner body leaving keeps the outer one on one thread
        assert blas_thread_count() == 2
