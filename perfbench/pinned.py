"""Pins BLAS and OpenMP to one thread.  Every benchmark script imports this
first, before NumPy loads; child processes inherit it through the
environment."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
