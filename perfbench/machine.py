"""Print the machine record benchmark figures are quoted with, as one JSON line.

Usage: python3 perfbench/machine.py

nproc, numpy version, the BLAS library numpy was built against, and the
number of threads that BLAS starts when OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are unset (run.py calls this script
with that environment, as it runs earbench).
"""

import ctypes
import glob
import json
import os

import numpy as np


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def main():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_variables": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
