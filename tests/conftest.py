import os

# One BLAS/OpenMP thread, as perfbench/pinned.py sets: on a small shared host
# spinning BLAS threads inflate the CPU time that the latency tests bound.
# NumPy reads these when it loads, so they come before its import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest


def random_generator(rng: np.random.Generator, d: int, norm_max: float = 5.0) -> np.ndarray:
    """Documented corpus distribution: off-diagonal rates i.i.d. U[0,1],
    diagonal fixed by zero row sums, then rescaled so the max-row-sum norm
    is t with t ~ U(0, norm_max]."""
    Q = rng.uniform(0.0, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    t = rng.uniform(0.0, norm_max)
    if t == 0.0:
        t = norm_max
    return Q * (t / np.abs(Q).sum(axis=1).max())


def random_markov(rng: np.random.Generator, d: int) -> np.ndarray:
    M = rng.uniform(0.0, 1.0, (d, d))
    return M / M.sum(axis=1, keepdims=True)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
