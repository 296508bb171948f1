"""Dense linear-algebra kernel for 2x2 to 4x4 real matrices.

Matrices are plain ``numpy.ndarray`` values; :func:`as_matrix` enforces the
contract (real, finite, square, dimension 2-4).  Eigenvalues come from
closed-form root solvers on the characteristic polynomial, with relative
clustering of near-degenerate roots so that downstream case dispatch sees a
discrete multiplicity pattern.  Jordan block sizes are recovered from
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
    clustered: bool

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.roots)

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

    @property
    def dim(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)

    @property
    def is_cyclic(self) -> bool:
        return all(len(sizes) == 1 for _, sizes in self.blocks)

    def sizes_at(self, value: complex, tol: float = 1e-9) -> tuple[int, ...]:
        for z, sizes in self.blocks:
            if abs(z - value) <= tol * max(1.0, abs(value)):
                return sizes
        return ()


@dataclasses.dataclass(frozen=True)
class RealJordanDecomposition:
    """Real similarity M = T @ canonical @ inv(T).

    ``canonical`` is real block diagonal: J_n(lambda) blocks for real
    eigenvalues and 2x2 [[a, b], [-b, a]] blocks for conjugate pairs a+-bi.
    ``cond`` is the condition number of T; ``ill_conditioned`` flags
    cond > 1e8 (the result is still returned).
    """

    T: np.ndarray
    canonical: np.ndarray
    cond: float
    ill_conditioned: bool


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


def _cluster_roots(
    raw: list[complex], threshold: float
) -> tuple[list[tuple[complex, int]], bool]:
    groups = _group_by_distance(raw, threshold)
    merged = any(len(g) > 1 for g in groups)

    clusters: list[tuple[complex, int]] = []
    for g in groups:
        mean = sum(g) / len(g)
        if abs(mean.imag) <= threshold:
            mean = complex(mean.real, 0.0)
        clusters.append((mean, len(g)))
    return clusters, merged


def _pair_conjugates(
    clusters: list[tuple[complex, int]]
) -> list[tuple[complex, int]]:
    # force exact conjugate symmetry on the clustered values
    out: list[tuple[complex, int]] = []
    neg = [(z, m) for z, m in clusters if z.imag < 0.0]
    used = [False] * len(neg)
    for z, m in clusters:
        if z.imag > 0.0:
            best, best_j = None, -1
            for j, (w, mw) in enumerate(neg):
                if used[j] or mw != m:
                    continue
                dist = abs(z - w.conjugate())
                if best is None or dist < best:
                    best, best_j = dist, j
            if best_j >= 0:
                used[best_j] = True
                zz = (z + neg[best_j][0].conjugate()) / 2.0
                out.append((zz, m))
                out.append((zz.conjugate(), m))
            else:
                out.append((z, m))
        elif z.imag == 0.0:
            out.append((z, m))
    for j, (w, mw) in enumerate(neg):
        if not used[j]:
            out.append((w, mw))
    return out


def eigenvalues(M: object, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Clustered spectrum from closed-form characteristic-polynomial roots.

    Roots within ``spec_cluster`` (relative to the spectral radius, floored
    at 1) merge into one root with summed multiplicity at their mean.  For a
    Markov input the root nearest 1 is snapped to exactly 1.
    """
    A = as_matrix(M)
    coeffs = _roots.char_poly(A)
    raw = _roots.poly_roots(coeffs)
    radius = max((abs(z) for z in raw), default=1.0)
    raw = _consolidate_multiples(raw, coeffs, radius, A, tol)
    threshold = tol.spec_cluster * max(1.0, radius)

    clusters, merged = _cluster_roots(raw, threshold)
    clusters = _pair_conjugates(clusters)

    if is_markov(A, tol):
        k = min(range(len(clusters)), key=lambda i: abs(clusters[i][0] - 1.0))
        clusters[k] = (1.0 + 0.0j, clusters[k][1])

    clusters.sort(key=lambda zm: (-zm[0].real, zm[0].imag))
    return Spectrum(roots=tuple(clusters), clustered=merged)


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


def _orthonormal_nullspace(B: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Columns spanning the numerical null space, deterministic signs."""
    _u, sv, vh = np.linalg.svd(B)
    threshold = tol.rank * sv[0] if sv[0] > 0.0 else np.inf
    ns = vh[sv < threshold].conj().T if sv[0] > 0.0 else vh.conj().T
    cols = []
    for j in range(ns.shape[1]):
        v = ns[:, j]
        k = int(np.argmax(np.abs(v)))
        if v[k].real < 0.0 or (v[k].real == 0.0 and v[k].imag < 0.0):
            v = -v
        cols.append(v)
    return np.column_stack(cols) if cols else np.zeros((B.shape[0], 0))


def _project_off(V: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    W = V.copy()
    for b in basis:
        W = W - np.outer(b, b.conj() @ W)
    return W


def _top_direction(V: np.ndarray) -> np.ndarray:
    u, sv, _vh = np.linalg.svd(V, full_matrices=False)
    v = u[:, 0]
    k = int(np.argmax(np.abs(v)))
    if v[k].real < 0.0 or (v[k].real == 0.0 and v[k].imag < 0.0):
        v = -v
    return v


def _chain_columns(
    A: np.ndarray, lam: float, sizes: tuple[int, ...], tol: Tolerances
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Jordan chains for a real eigenvalue; returns (columns, blocks)."""
    d = A.shape[0]
    B = A - lam * np.eye(d)
    smax = max(sizes)
    null_bases = [np.zeros((d, 0))]
    P = np.eye(d)
    for _ in range(smax):
        P = P @ B
        null_bases.append(_orthonormal_nullspace(P, tol))

    columns: list[np.ndarray] = []
    bottom_vectors: list[np.ndarray] = []  # chain bottoms already placed in N_1
    for s in sorted(sizes, reverse=True):
        if s == 1:
            cand = _project_off(null_bases[1], bottom_vectors)
            v = _top_direction(cand)
            columns.append(v.real)
            bottom_vectors.append(v / np.linalg.norm(v))
            continue
        # top vector: in null(B^s) but not null(B^{s-1})
        prev = [null_bases[s - 1][:, j] for j in range(null_bases[s - 1].shape[1])]
        cand = _project_off(null_bases[s], prev)
        v = _top_direction(cand).real
        chain = [v]
        for _ in range(s - 1):
            chain.append(B @ chain[-1])
        chain.reverse()  # bottom (eigenvector) first
        columns.extend(chain)
        b0 = chain[0]
        bottom_vectors.append(b0 / np.linalg.norm(b0))

    blocks = []
    for s in sorted(sizes, reverse=True):
        J = lam * np.eye(s) + np.diag(np.ones(s - 1), 1)
        blocks.append(J)
    return columns, blocks


def real_jordan(M: object, tol: Tolerances = DEFAULT_TOL) -> RealJordanDecomposition:
    """Real Jordan decomposition with deterministic eigenvalue ordering.

    Real eigenvalues come first, sorted descending (so 1 leads for a Markov
    input), followed by conjugate pairs sorted by descending real part;
    each pair contributes a 2x2 rotation-scaling block.
    """
    A = as_matrix(M)
    js = jordan_structure(A, tol)

    real_blocks = sorted(
        (b for b in js.blocks if b[0].imag == 0.0), key=lambda b: -b[0].real
    )
    pair_blocks = sorted(
        (b for b in js.blocks if b[0].imag > 0.0), key=lambda b: (-b[0].real, b[0].imag)
    )

    columns: list[np.ndarray] = []
    diag_blocks: list[np.ndarray] = []
    for z, sizes in real_blocks:
        cols, blks = _chain_columns(A, z.real, sizes, tol)
        columns.extend(cols)
        diag_blocks.extend(blks)
    for z, sizes in pair_blocks:
        if sizes != (1,) * len(sizes):
            raise IllConditionedError("non-trivial complex Jordan blocks unsupported")
        B = A.astype(complex) - z * np.eye(A.shape[0])
        ns = _orthonormal_nullspace(B, tol)
        for j in range(ns.shape[1]):
            w = ns[:, j]
            columns.extend([w.real, w.imag])
            diag_blocks.append(np.array([[z.real, z.imag], [-z.imag, z.real]]))

    T = np.column_stack(columns)
    canonical = scipy.linalg.block_diag(*diag_blocks)
    cond = float(np.linalg.cond(T))
    return RealJordanDecomposition(
        T=T, canonical=canonical, cond=cond, ill_conditioned=cond > 1e8
    )


def reconstruction_residual(decomp: RealJordanDecomposition, M: np.ndarray) -> float:
    """max |T C T^-1 - M|, the decomposition's defect."""
    R = decomp.T @ decomp.canonical @ np.linalg.inv(decomp.T)
    return float(np.abs(R - M).max())
