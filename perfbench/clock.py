"""Calibrated CPU clock.

The host this benchmark was tuned on is a shared 2-vCPU VM whose speed
drifts by 10-40 % between runs a few minutes apart, and within a run
(other tenants on the same cores); process CPU time drifts with it.  So a
calibrated run also times a fixed reference computation, independent of
markovembed, many times spread over the run, and scales the CPU time of
every operation in a round by ``nominal_ns / median(reference times taken
during the round)``.  Times then read in milliseconds at the host's typical
speed, and a slow or fast stretch of the host cancels out of comparisons
between runs.

Two references, each matched to the work it calibrates: ``Calibration``
runs small NumPy/SciPy problems and interpreted loops in-process, the mix
of a ``decide`` call; ``StartupCalibration`` starts a fresh interpreter
that imports NumPy and SciPy, the bulk of a CLI invocation.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import scipy.linalg

import child

REFERENCE_MATRICES = 120


class Calibration:
    """Reference speed samples taken during one run."""

    # CPU time of one reference at the tuning host's typical speed (its
    # median over 2,000 back-to-back runs was 8.33 ms).  Only ratios to it
    # matter: it fixes the unit, not the comparison.
    nominal_ns = 8_400_000
    every_ns = 400_000_000  # operation CPU time between samples

    def __init__(self):
        rng = np.random.default_rng(0)
        self._work = [rng.uniform(size=(4, 4)) for _ in range(REFERENCE_MATRICES)]
        self._eye = np.eye(4)
        self.samples: list[int] = []

    def _reference(self) -> float:
        acc = 0.0
        for A in self._work:
            acc += float(np.abs(np.linalg.eigvals(A)).max())
            acc += float(np.abs(scipy.linalg.expm(A - self._eye)).max())
            acc += float(np.linalg.svd(A, compute_uv=False)[0])
            for row in A.tolist():
                for v in row:
                    acc += v * 0.5
        return acc

    def _measure(self) -> int:
        """Time the reference once, after one untimed pass that warms the
        caches a child process or a long operation left cold."""
        self._reference()
        t0 = time.process_time_ns()
        self._reference()
        return time.process_time_ns() - t0

    def sample(self) -> None:
        self.samples.append(self._measure())

    def factor(self, start: int = 0) -> float:
        """Multiplier from CPU time to nominal-speed time, from the samples
        taken since sample number ``start``."""
        return self.nominal_ns / statistics.median(self.samples[start:])


class StartupCalibration(Calibration):
    """A fresh interpreter that imports NumPy and SciPy, timed as the
    user+system CPU time of the child."""

    nominal_ns = 500_000_000  # median of 180 such children on the tuning host: 0.50-0.54 s
    every_ns = 5_000_000_000

    def __init__(self):
        self.samples: list[int] = []

    def _measure(self) -> int:
        code, _out, cpu, _rss = child.run_child([sys.executable, "-c", "import numpy, scipy.linalg"])
        if code != 0:
            raise RuntimeError(f"calibration reference exited with {code}")
        return int(cpu * 1e9)
