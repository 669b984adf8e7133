"""Read and set this process's OpenBLAS thread count, as a caller of earbench might.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import ctypes
from contextlib import contextmanager

from earbench.parallel import _set_blas_threads, openblas_function


def blas_thread_count(_job=None) -> int | None:
    """The count, or None when numpy's bundled OpenBLAS entry points are not found."""
    get = openblas_function("get_num_threads")
    if get is None:
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


@contextmanager
def caller_blas_threads(n: int):
    """Run the body with the count at `n`, as the caller's own setting, then restore the count."""
    before = blas_thread_count()
    _set_blas_threads(n)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)
