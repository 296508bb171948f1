"""Root finding for monic polynomials of degree 1-4.

Degrees 1-3 have closed forms; degree 4 uses QR iteration on the companion
matrix.  A Markov matrix never needs degree 4: its eigenvalue 1 is deflated
first, leaving at most a cubic.  Complex roots of real polynomials come in
exact conjugate pairs (quadratic sub-factors carry real coefficients, and
the real QR iteration pairs its complex eigenvalues), so no symmetrisation
pass is needed downstream.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np


def char_poly(M: np.ndarray) -> np.ndarray:
    """Coefficients [c_0, ..., c_{d-1}] of the monic characteristic polynomial.

    p(x) = x^d + c_{d-1} x^{d-1} + ... + c_0, computed from the power sums
    tr(M^k) via Newton's identities (no eigenvalue solver involved).
    """
    d = M.shape[0]
    # each trace adds left to right, as ndarray.trace does (``sum`` compensates
    # from Python 3.12 on)
    power, p = M, [reduce(add, M.diagonal().tolist())]
    for _ in range(d - 1):
        power = power @ M
        p.append(reduce(add, power.diagonal().tolist()))
    e = [1.0]
    for k in range(1, d + 1):
        s = 0.0
        for i in range(1, k + 1):
            s += (e[k - i] if i % 2 else -e[k - i]) * p[i - 1]
        e.append(s / k)
    # x^d - e1 x^{d-1} + e2 x^{d-2} - ...
    return np.asarray([-e[d - k] if (d - k) % 2 else e[d - k] for k in range(d)])


def solve_quadratic(b: float, c: float) -> list[complex]:
    """Roots of x^2 + b x + c."""
    disc = b * b - 4.0 * c
    scale2 = max(1.0, b * b, abs(c))
    if abs(disc) <= 1e-14 * scale2:
        return [complex(-0.5 * b)] * 2
    if disc >= 0.0:
        s = math.sqrt(disc)
        # avoid cancellation: compute the large-magnitude root first
        q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
        if q == 0.0:
            return [0.0 + 0.0j, -b + 0.0j]
        return [complex(q), complex(c / q)]
    s = math.sqrt(-disc)
    return [complex(-0.5 * b, 0.5 * s), complex(-0.5 * b, -0.5 * s)]


def solve_cubic(b: float, c: float, d: float) -> list[complex]:
    """Roots of x^3 + b x^2 + c x + d."""
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    roots: list[complex]
    disc_scale = (q / 2.0) ** 2 + (abs(p) / 3.0) ** 3
    if p == 0.0 and q == 0.0:
        roots = [0.0 + 0.0j] * 3
    elif abs((q / 2.0) ** 2 + (p / 3.0) ** 3) <= 1e-13 * disc_scale:
        # vanishing discriminant: a double root (exact closed form is
        # well conditioned here, unlike the generic branches)
        if abs(p) <= 1e-13 * max(1.0, q ** (2.0 / 3.0) if q > 0 else abs(q) ** (2.0 / 3.0)):
            u = math.copysign(abs(q) ** (1.0 / 3.0), -q)
            roots = [complex(u)] * 3
        else:
            u = -1.5 * q / p
            roots = [complex(u), complex(u), complex(3.0 * q / p)]
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        if disc > 0.0:
            # one real root; pick the branch without cancellation
            s = math.sqrt(disc)
            w = -q / 2.0 - math.copysign(s, q)
            u = math.copysign(abs(w) ** (1.0 / 3.0), w)
            v = -p / (3.0 * u) if u != 0.0 else 0.0
            t0 = u + v
            # deflate: t^2 + t0 t + (t0^2 + p) has the conjugate pair
            roots = [complex(t0)] + solve_quadratic(t0, t0 * t0 + p)
        else:
            # three real roots (trigonometric form)
            m = 2.0 * math.sqrt(-p / 3.0)
            arg = 3.0 * q / (p * m) if p != 0.0 else 0.0
            theta = math.acos(min(1.0, max(-1.0, arg)))
            roots = [
                complex(m * math.cos((theta - 2.0 * math.pi * k) / 3.0))
                for k in range(3)
            ]
    return [r - shift for r in roots]


def poly_roots(coeffs: np.ndarray) -> list[complex]:
    """Roots of the monic polynomial with low-order coefficients `coeffs`.

    `coeffs` as returned by :func:`char_poly` ([c_0, ..., c_{d-1}]).
    """
    d = len(coeffs)
    if d == 1:
        return [complex(-coeffs[0])]
    if d == 2:
        return solve_quadratic(coeffs[1], coeffs[0])
    if d == 3:
        return solve_cubic(coeffs[2], coeffs[1], coeffs[0])
    if d == 4:
        return [complex(z) for z in np.roots([1.0, *coeffs[::-1]])]
    raise ValueError(f"unsupported degree {d}")
