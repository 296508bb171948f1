"""Dense linear-algebra kernel for 2x2 to 4x4 real matrices.

Matrices are plain ``numpy.ndarray`` values; :func:`as_matrix` enforces the
contract (real, finite, square, dimension 2-4).  Every public function
that takes a matrix validates it with :func:`as_matrix` (``scale_of``
excepted); the private cores ``_is_markov`` and ``_poly_in`` take an array
that has already passed it, so a pipeline that validated its input once
calls those.  Eigenvalues come from
the roots of a characteristic polynomial, with relative clustering of
near-degenerate roots so that downstream case dispatch sees a discrete
multiplicity pattern.  For a Markov matrix that polynomial is the one of
the deflated (d-1)x(d-1) block, at most a cubic with closed-form roots,
and the eigenvalue 1 is exact.  Jordan block sizes are recovered from
one numerical nullity per repeated eigenvalue (two for a fourfold one in
two blocks); the ``blocks`` of :func:`jordan_structure` hold every
clustered eigenvalue, so its callers need no second spectrum.

Matrix exponential and principal logarithm delegate to SciPy's
scaling-and-squaring / inverse-scaling-and-squaring implementations behind
the same validated interface.
"""

from __future__ import annotations

import dataclasses
import math
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
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"tolerance {name} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicities after clustering.

    ``roots`` is sorted by (descending real part, ascending imaginary part);
    non-real roots occur in exactly conjugate pairs with equal multiplicity.
    """

    roots: tuple[tuple[complex, int], ...]


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
    if not all(map(math.isfinite, A.ravel().tolist())):
        raise DimensionError("matrix entries must be finite")
    return A


def scale_of(M: np.ndarray) -> float:
    """Scale used by residual certificates: max(1, largest |entry|)."""
    return max(1.0, max(map(abs, np.ravel(M).tolist())))


def is_markov(M: object, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Entrywise nonnegative within tolerance and unit row sums."""
    return _is_markov(as_matrix(M), tol)


def _is_markov(A: np.ndarray, tol: Tolerances) -> bool:
    # one NumPy reduction, the row sums; comparing Python floats costs less
    return min(A.ravel().tolist()) >= -tol.nonneg and all(
        abs(s - 1.0) <= tol.rowsum for s in A.sum(axis=1).tolist()
    )


def is_generator(Q: object, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Nonnegative off-diagonal within tolerance and zero row sums."""
    A = as_matrix(Q)
    off = A.ravel().tolist()
    del off[:: len(A) + 1]  # the diagonal
    return min(off) >= -tol.nonneg and all(abs(s) <= tol.rowsum for s in A.sum(axis=1).tolist())


def _poly_eval(ascending: list[complex], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(ascending):
        acc = acc * z + c
    return acc


def _poly_derivative(ascending: list[complex]) -> list[complex]:
    return [k * ascending[k] for k in range(1, len(ascending))]


def _group_by_distance(raw: list[complex], threshold: float) -> list[list[complex]]:
    """The components of the roots joined where |z - w| <= threshold, each
    in input order, ordered by their first member."""
    label = list(range(len(raw)))  # a root's component, named by its first member
    for j, w in enumerate(raw):
        for i in range(j):
            if abs(raw[i] - w) <= threshold and label[i] != label[j]:
                a, b = sorted((label[i], label[j]))
                label = [a if c == b else c for c in label]
    groups: dict[int, list[complex]] = {}
    for c, z in zip(label, raw):
        groups.setdefault(c, []).append(z)
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
    # a group below needs two roots inside the widest radius, that of m = d
    widest = _CONSOLIDATION_RADIUS.get(d, 0.0) * scale
    if not any(abs(z - w) <= widest for i, z in enumerate(raw) for w in raw[:i]):
        return raw
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
            ok = abs(u - mean) <= loose and abs(_poly_eval(ascending, u)) <= value_floor
            if ok:
                sv = np.linalg.svd(A - (u if u.imag else u.real) * np.eye(d), compute_uv=False)
                ok = sv[-1] <= 10.0 * tol.rank * max(sv[0], 1.0)
            regrouped.extend([u] * m if ok else group)
        out = regrouped
    return out


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
    markov = _is_markov(A, tol)
    B = A[:-1, :-1] - A[-1, :-1] if markov else A
    coeffs = _roots.char_poly(B)
    raw = _roots.poly_roots(coeffs.tolist())  # Python floats: cheaper arithmetic
    radius = max(map(abs, raw), default=1.0)
    raw = _consolidate_multiples(raw, coeffs, radius, B, tol)
    if markov:
        raw = [1.0 + 0.0j, *raw]
    threshold = tol.spec_cluster * max(1.0, radius)
    clusters = []
    for g in _group_by_distance(raw, threshold):
        mean = sum(g) / len(g)
        clusters.append((complex(mean.real, 0.0) if abs(mean.imag) <= threshold else mean, len(g)))

    if markov:
        # a cluster that merges the deflated 1 with roots of B sits at
        # their mean; the eigenvalue itself is exactly 1
        k = min(range(len(clusters)), key=lambda i: abs(clusters[i][0] - 1.0))
        clusters[k] = (1.0 + 0.0j, clusters[k][1])

    clusters.sort(key=lambda zm: (-zm[0].real, zm[0].imag))
    return Spectrum(roots=tuple(clusters))


def _null_space(B: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, float]:
    """The rank rule for B = A - lambda I: right singular vectors (rows, by
    descending singular value), nullity n (the last n rows span the null
    space) and s = max(sigma_1, 1), floored so a B of rounding noise is null.
    Null below tol.rank s; IllConditionedError within 10x of that threshold."""
    _u, sv, vh = np.linalg.svd(B)
    scale = max(sv[0], 1.0)
    threshold = tol.rank * scale
    ambiguous = [s for s in sv if threshold / 10.0 < s < threshold * 10.0]
    if ambiguous:
        raise IllConditionedError(
            f"singular values {ambiguous} within 10x of rank threshold {threshold:g}"
        )
    return vh, int((sv < threshold).sum()), scale


def jordan_structure(M: object, tol: Tolerances = DEFAULT_TOL) -> JordanStructure:
    """Block sizes per eigenvalue: the nullity n of M - lambda I (real for a
    real lambda) under :func:`_null_space`'s rule counts the Jordan blocks
    (Higham, Functions of Matrices, 2008, ch. 1), (m - n + 1, 1, ...) for a
    multiplicity m <= 3; four in two blocks are (2, 2) where (M - lambda I)^2
    is null, (3, 1) where its nullity is 3.  IllConditionedError for any other
    count, or for another eigenvalue mu with |mu - lambda|^m <= 10 tol.rank
    s^m, a gap that (M - lambda I)^m would count null or ambiguous."""
    A = as_matrix(M)
    roots = eigenvalues(A, tol).roots
    blocks: list[tuple[complex, tuple[int, ...]]] = []
    for z, m in roots:
        sizes = (1,)
        if m > 1:
            B = A - (z if z.imag else z.real) * np.eye(len(A))
            _vh, n, scale = _null_space(B, tol)
            if not 1 <= n <= m:
                raise IllConditionedError(f"nullity {n} of multiplicity {m} at eigenvalue {z}")
            sizes = (m - n + 1,) + (1,) * (n - 1)
            if m == 4 and n == 2:
                squared = _null_space(B @ B, tol)[1]
                if squared not in (3, 4):
                    raise IllConditionedError(f"nullity {squared} of (M - lambda I)^2 at {z}")
                sizes = (2, 2) if squared == 4 else (3, 1)
            if any(abs(w - z) ** m <= 10.0 * tol.rank * scale**m for w, _ in roots if w != z):
                raise IllConditionedError(f"an eigenvalue within the rank band of {z}")
        blocks.append((z, sizes))

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
    return _poly_in(cs, B)


def _poly_in(cs: list[float], B: np.ndarray) -> np.ndarray:
    out, power = np.zeros_like(B), None
    for c in cs:
        power = B if power is None else power @ B
        out += c * power
    return out
