"""Dense linear-algebra kernel for 2x2 to 4x4 real matrices.

Matrices are plain ``numpy.ndarray`` values; :func:`as_matrix` enforces the
contract (real, finite, square, dimension 2-4).  Eigenvalues come from
the roots of a characteristic polynomial, with relative clustering of
near-degenerate roots so that downstream case dispatch sees a discrete
multiplicity pattern.  For a Markov matrix that polynomial is the one of
the deflated (d-1)x(d-1) block, at most a cubic with closed-form roots,
and the eigenvalue 1 is exact.  Jordan block sizes are recovered from
numerical rank sequences; the ``blocks`` of :func:`jordan_structure` hold
every clustered eigenvalue, so its callers need no second spectrum.

Matrix exponential and principal logarithm delegate to SciPy's
scaling-and-squaring / inverse-scaling-and-squaring implementations behind
the same validated interface.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import scipy.linalg

from . import _roots
from .errors import (
    DimensionError,
    IllConditionedError,
    SpectrumOnCutError,
)


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance policy, passed explicitly to every decision.

    spec_cluster : relative eigenvalue clustering threshold
    nonneg       : absolute threshold for sign checks
    rowsum       : absolute threshold for row-sum checks
    residual     : absolute threshold for ||exp(Q) - M|| certificates
    rank         : relative threshold for numerical rank decisions
    """

    spec_cluster: float = 1e-8
    nonneg: float = 1e-10
    rowsum: float = 1e-10
    residual: float = 1e-8
    rank: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("spec_cluster", "nonneg", "rowsum", "residual", "rank"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicities after clustering.

    ``roots`` is sorted by (descending real part, ascending imaginary part);
    non-real roots occur in exactly conjugate pairs with equal multiplicity.
    """

    roots: tuple[tuple[complex, int], ...]

    def values(self) -> list[complex]:
        """Eigenvalues repeated by multiplicity."""
        out: list[complex] = []
        for z, m in self.roots:
            out.extend([z] * m)
        return out


@dataclasses.dataclass(frozen=True)
class JordanStructure:
    """Jordan block sizes per distinct eigenvalue.

    ``blocks`` pairs each clustered eigenvalue with its block-size list
    (descending); ``min_poly_degree`` is the sum over eigenvalues of the
    largest block size.
    """

    blocks: tuple[tuple[complex, tuple[int, ...]], ...]
    min_poly_degree: int


def as_matrix(M: object) -> np.ndarray:
    """Validate and convert to a float array of shape (d, d), d in {2,3,4}."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    d = A.shape[0]
    if d not in (2, 3, 4):
        raise DimensionError(f"dimension {d} not in {{2, 3, 4}}")
    if not np.isfinite(A).all():
        raise DimensionError("matrix entries must be finite")
    return A


def scale_of(M: np.ndarray) -> float:
    """Scale used by residual certificates: max(1, largest |entry|)."""
    return max(1.0, float(np.abs(M).max()))


def is_markov(M: object, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Entrywise nonnegative within tolerance and unit row sums."""
    A = as_matrix(M)
    if (A < -tol.nonneg).any():
        return False
    return bool(np.abs(A.sum(axis=1) - 1.0).max() <= tol.rowsum)


def is_generator(Q: object, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nonnegative off-diagonal within tolerance and zero row sums."""
    A = as_matrix(Q)
    off = A - np.diag(np.diag(A))
    if (off < -tol.nonneg).any():
        return False
    return bool(np.abs(A.sum(axis=1)).max() <= tol.rowsum)


def _poly_eval(ascending: list[complex], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(ascending):
        acc = acc * z + c
    return acc


def _poly_derivative(ascending: list[complex]) -> list[complex]:
    return [k * ascending[k] for k in range(1, len(ascending))]


def _group_by_distance(raw: list[complex], threshold: float) -> list[list[complex]]:
    n = len(raw)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(raw[i] - raw[j]) <= threshold:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(raw[i])
    return list(groups.values())


# Solver noise splits an m-fold root by roughly eps^(1/m); groups inside
# these radii are candidates for consolidation.
_CONSOLIDATION_RADIUS = {2: 5e-7, 3: 5e-5, 4: 5e-4}


def _consolidate_multiples(
    raw: list[complex], coeffs: np.ndarray, radius: float, A: np.ndarray, tol: Tolerances
) -> list[complex]:
    """Repair near-multiple roots from solver noise.

    An m-fold root computed by a generic solver splits by roughly
    eps^(1/m), which the relative clustering threshold cannot absorb.
    Working from the highest multiplicity down, groups of m roots inside
    the splitting radius are replaced by a Newton-refined root of the
    (m-1)-th derivative when both the polynomial value at the refined
    root and the smallest singular value of A - uI confirm a genuine
    eigenvalue (the latter rejects merely close simple spectra, which
    produce the same polynomial signature as a noisy multiple root).
    """
    d = len(coeffs)
    scale = max(1.0, radius)
    ascending = [complex(c) for c in coeffs] + [1.0 + 0.0j]
    value_floor = 1e-13 * max(1.0, float(np.abs(coeffs).max())) * scale**d

    out = list(raw)
    for m in (4, 3, 2):
        if m > d:
            continue
        loose = _CONSOLIDATION_RADIUS[m] * scale
        regrouped: list[complex] = []
        for group in _group_by_distance(out, loose):
            if len(group) != m:
                regrouped.extend(group)
                continue
            mean = sum(group) / m
            poly = ascending
            for _ in range(m - 1):
                poly = _poly_derivative(poly)
            dpoly = _poly_derivative(poly)
            u = mean
            for _ in range(12):
                dv = _poly_eval(dpoly, u)
                if dv == 0:
                    break
                step = _poly_eval(poly, u) / dv
                u = u - step
                if abs(step) < 1e-16 * max(1.0, abs(u)):
                    break
            ok = (
                abs(u - mean) <= loose
                and abs(_poly_eval(ascending, u)) <= value_floor
            )
            if ok:
                sv = np.linalg.svd(A.astype(complex) - u * np.eye(d), compute_uv=False)
                ok = sv[-1] <= 10.0 * tol.rank * max(sv[0], 1.0)
            regrouped.extend([u] * m if ok else group)
        out = regrouped
    return out


def _cluster_roots(raw: list[complex], threshold: float) -> list[tuple[complex, int]]:
    clusters: list[tuple[complex, int]] = []
    for g in _group_by_distance(raw, threshold):
        mean = sum(g) / len(g)
        if abs(mean.imag) <= threshold:
            mean = complex(mean.real, 0.0)
        clusters.append((mean, len(g)))
    return clusters


def eigenvalues(M: object, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Clustered spectrum from the roots of a characteristic polynomial.

    A Markov input has M 1 = 1, so its spectrum is {1} together with that of
    the deflated (d-1)x(d-1) block B = (m_ij - m_dj), i, j < d: the roots
    of B's polynomial get an eigenvalue 1 that is exact by construction.
    Any other input takes the roots of its full degree-d polynomial.  Roots
    within ``spec_cluster`` (relative to the spectral radius, floored at 1)
    merge into one root with summed multiplicity at their mean.
    """
    A = as_matrix(M)
    markov = is_markov(A, tol)
    B = A[:-1, :-1] - A[-1, :-1] if markov else A
    coeffs = _roots.char_poly(B)
    raw = _roots.poly_roots(coeffs)
    radius = max((abs(z) for z in raw), default=1.0)
    raw = _consolidate_multiples(raw, coeffs, radius, B, tol)
    if markov:
        raw = [1.0 + 0.0j, *raw]
    threshold = tol.spec_cluster * max(1.0, radius)

    clusters = _cluster_roots(raw, threshold)

    if markov:
        # a cluster that merges the deflated 1 with roots of B sits at
        # their mean; the eigenvalue itself is exactly 1
        k = min(range(len(clusters)), key=lambda i: abs(clusters[i][0] - 1.0))
        clusters[k] = (1.0 + 0.0j, clusters[k][1])

    clusters.sort(key=lambda zm: (-zm[0].real, zm[0].imag))
    return Spectrum(roots=tuple(clusters))


def _numerical_rank(B: np.ndarray, tol: Tolerances) -> int:
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    threshold = tol.rank * sv[0]
    ambiguous = [s for s in sv if threshold / 10.0 < s < threshold * 10.0]
    if ambiguous:
        raise IllConditionedError(
            f"singular values {ambiguous} within 10x of rank threshold {threshold:g}"
        )
    return int((sv >= threshold).sum())


def jordan_structure(M: object, tol: Tolerances = DEFAULT_TOL) -> JordanStructure:
    """Block sizes per eigenvalue from the rank sequence of (M - lambda I)^p."""
    A = as_matrix(M)
    d = A.shape[0]
    spec = eigenvalues(A, tol)

    blocks: list[tuple[complex, tuple[int, ...]]] = []
    for z, m in spec.roots:
        if m == 1:
            blocks.append((z, (1,)))
            continue
        B = A.astype(complex) - z * np.eye(d)
        nullities = [0]
        P = np.eye(d, dtype=complex)
        for _ in range(m):
            P = P @ B
            nullities.append(d - _numerical_rank(P, tol))
        ge = [nullities[p] - nullities[p - 1] for p in range(1, m + 1)]
        # the count of blocks of size >= p can only decrease with p; a
        # violation means the per-power rank thresholds disagree
        if any(ge[p] > ge[p - 1] for p in range(1, m)) or ge[0] <= 0:
            raise IllConditionedError(
                f"inconsistent rank sequence at eigenvalue {z}: nullities {nullities}"
            )
        sizes: list[int] = []
        for p in range(m, 0, -1):
            count = ge[p - 1] - (ge[p] if p < m else 0)
            sizes.extend([p] * count)
        if sum(sizes) != m or any(s <= 0 for s in sizes):
            raise IllConditionedError(
                f"inconsistent rank sequence at eigenvalue {z}: nullities {nullities}"
            )
        blocks.append((z, tuple(sorted(sizes, reverse=True))))

    degree = sum(max(sizes) for _, sizes in blocks)
    return JordanStructure(blocks=tuple(blocks), min_poly_degree=degree)


def mat_exp(A: object) -> np.ndarray:
    """Matrix exponential (scaling and squaring with Pade core)."""
    return scipy.linalg.expm(as_matrix(A))


def principal_log(M: object, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm, real with spectrum in |Im| < pi.

    Raises :class:`SpectrumOnCutError` when an eigenvalue is real and
    <= 0 within the sign tolerance (no principal logarithm), and
    :class:`IllConditionedError` when the residual certificate
    ||exp(log M) - M|| <= residual * scale(M) fails.
    """
    A = as_matrix(M)
    spec = eigenvalues(A, tol)
    for z, _ in spec.roots:
        if z.imag == 0.0 and z.real <= tol.nonneg:
            raise SpectrumOnCutError(f"eigenvalue {z.real:g} on the closed negative axis")
    with warnings.catch_warnings():
        # logm's own error estimate; the residual certificate below decides
        warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
        R = scipy.linalg.logm(A)
    if np.iscomplexobj(R):
        if np.abs(R.imag).max() > 1e-8 * scale_of(A):
            raise IllConditionedError("logarithm has a non-negligible imaginary part")
        R = R.real
    if np.abs(mat_exp(R) - A).max() > tol.residual * scale_of(A):
        raise IllConditionedError("matrix logarithm failed its residual certificate")
    return R


def poly_in(coeffs: object, A: object) -> np.ndarray:
    """sum_i coeffs[i] * A^(i+1); at most dim-1 coefficients."""
    B = as_matrix(A)
    cs = list(np.asarray(coeffs, dtype=float).ravel())
    if len(cs) > B.shape[0] - 1:
        raise ValueError(f"{len(cs)} coefficients exceed dim-1 = {B.shape[0] - 1}")
    out = np.zeros_like(B)
    power = np.eye(B.shape[0])
    for c in cs:
        power = power @ B
        out += c * power
    return out
