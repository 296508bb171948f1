"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
a hand-rolled shifted QR iteration on the companion matrix of an
independently computed characteristic polynomial, logarithms from direct
power-series summation, matrix exponentials from SciPy, determinants from
exact rational arithmetic, and scalar constants from mpmath.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg


def oracle_char_poly(A: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first."""
    d = A.shape[0]
    # Newton's identities from power sums
    p = []
    P = np.eye(d)
    for _ in range(d):
        P = P @ A
        p.append(np.trace(P))
    e = [1.0]
    for k in range(1, d + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return np.array([1.0] + [(-1) ** k * e[k] for k in range(1, d + 1)])


def companion(coeffs_high_first: np.ndarray) -> np.ndarray:
    """Companion matrix of a monic polynomial (coefficients highest first)."""
    c = np.asarray(coeffs_high_first, dtype=complex)
    n = len(c) - 1
    C = np.zeros((n, n), dtype=complex)
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -c[1:][::-1]
    return C


def qr_eigenvalues(A: np.ndarray, max_iter: int = 2000) -> np.ndarray:
    """Eigenvalues by shifted QR iteration with deflation on the companion
    matrix of the characteristic polynomial."""
    H = companion(oracle_char_poly(A)).astype(complex)
    n = H.shape[0]
    eigs = []
    while n > 1:
        for _ in range(max_iter):
            off = abs(H[n - 1, n - 2])
            if off <= 1e-15 * (abs(H[n - 1, n - 1]) + abs(H[n - 2, n - 2]) + 1e-300):
                break
            a, b = H[n - 2, n - 2], H[n - 2, n - 1]
            c, dd = H[n - 1, n - 2], H[n - 1, n - 1]
            tr, det = a + dd, a * dd - b * c
            disc = np.sqrt(tr * tr / 4.0 - det + 0j)
            mu1, mu2 = tr / 2.0 + disc, tr / 2.0 - disc
            mu = mu1 if abs(mu1 - dd) <= abs(mu2 - dd) else mu2
            Q, R = np.linalg.qr(H[:n, :n] - mu * np.eye(n))
            H[:n, :n] = R @ Q + mu * np.eye(n)
        eigs.append(H[n - 1, n - 1])
        n -= 1
    eigs.append(H[0, 0])
    return np.array(eigs[::-1])


def exact_det(A: np.ndarray) -> Fraction:
    """Determinant of the float entries in exact rational arithmetic, by
    the Leibniz sum over permutations."""
    F = [[Fraction(float(x)) for x in row] for row in A]
    n = len(F)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(F[i][p[i]] for i in range(n))
    return total


def violates_transitivity(A: np.ndarray, nonneg: float) -> bool:
    """Some m_ik > 0 and m_kj > 0 with m_ij not > 0, entries counting as
    positive above ``nonneg``: the definition as a triple loop."""
    pos = np.asarray(A) > nonneg
    d = len(pos)
    return any(
        pos[i, k] and pos[k, j] and not pos[i, j]
        for i in range(d) for k in range(d) for j in range(d)
    )


def series_log(M: np.ndarray, max_terms: int = 10000, tol: float = 1e-16) -> np.ndarray:
    """Direct summation of the logarithm power series around the identity.

    Requires the spectral radius of M - I to be below 1.
    """
    d = M.shape[0]
    A = M - np.eye(d)
    total = np.zeros_like(A)
    power = np.eye(d)
    for m in range(1, max_terms + 1):
        power = power @ A
        term = ((-1) ** (m - 1) / m) * power
        total += term
        if np.abs(term).max() < tol:
            return total
    raise RuntimeError("series did not converge; spectral radius too large")


def repeated(spectrum) -> list[complex]:
    """A clustered spectrum's eigenvalues, each repeated by its multiplicity."""
    return [z for z, m in spectrum.roots for _ in range(m)]


def match_spectra(a, b) -> float:
    """Greedy max-distance between two eigenvalue multisets."""
    rem = list(b)
    worst = 0.0
    for z in a:
        j = min(range(len(rem)), key=lambda i: abs(rem[i] - z))
        worst = max(worst, abs(rem[j] - z))
        rem.pop(j)
    return worst


def assert_embeds(Q: np.ndarray, M: np.ndarray) -> None:
    """Q is a rate matrix with SciPy's exp(Q) = M: rates >= -1e-10, row sums
    within 1e-10 and residual <= 1e-8."""
    off = Q - np.diag(np.diag(Q))
    assert off.min() >= -1e-10
    assert np.abs(Q.sum(axis=1)).max() <= 1e-10
    assert np.abs(scipy.linalg.expm(Q) - M).max() <= 1e-8


def reference_consolidate_multiples(raw, coeffs, radius, A, tol):
    """The root consolidation of ``kernel._consolidate_multiples`` as a plain
    loop over every multiplicity m (4, 3, 2), without its early return when
    no two roots lie within the widest radius; the same arithmetic, so its
    roots must match the kernel's bit for bit.  Radii as in the kernel."""
    radii = {2: 5e-7, 3: 5e-5, 4: 5e-4}
    d = len(coeffs)
    scale = max(1.0, radius)
    ascending = [complex(c) for c in coeffs] + [1.0 + 0.0j]
    value_floor = 1e-13 * max(1.0, float(np.abs(coeffs).max())) * scale**d

    def evaluate(poly, z):
        acc = 0.0 + 0.0j
        for c in reversed(poly):
            acc = acc * z + c
        return acc

    def derivative(poly):
        return [k * poly[k] for k in range(1, len(poly))]

    def groups(roots, threshold):
        # union-find over the pairs within threshold, groups in first-member order
        parent = list(range(len(roots)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(len(roots)), 2):
            if abs(roots[i] - roots[j]) <= threshold:
                parent[find(i)] = find(j)
        out = {}
        for i, z in enumerate(roots):
            out.setdefault(find(i), []).append(z)
        return list(out.values())

    out = list(raw)
    for m in (4, 3, 2):
        if m > d:
            continue
        loose = radii[m] * scale
        regrouped = []
        for group in groups(out, loose):
            if len(group) != m:
                regrouped.extend(group)
                continue
            mean = sum(group) / m
            poly = ascending
            for _ in range(m - 1):
                poly = derivative(poly)
            dpoly = derivative(poly)
            u = mean
            for _ in range(12):
                dv = evaluate(dpoly, u)
                if dv == 0:
                    break
                step = evaluate(poly, u) / dv
                u = u - step
                if abs(step) < 1e-16 * max(1.0, abs(u)):
                    break
            ok = abs(u - mean) <= loose and abs(evaluate(ascending, u)) <= value_floor
            if ok:
                sv = np.linalg.svd(A.astype(complex) - u * np.eye(d), compute_uv=False)
                ok = sv[-1] <= 10.0 * tol.rank * max(sv[0], 1.0)
            regrouped.extend([u] * m if ok else group)
        out = regrouped
    return out
