"""Nucleotide substitution model classes and their closed-form embedders.

Constructors, recognizers and embeddability deciders for the equal-input
family (with the constant-input / Jukes-Cantor subfamily), the Tamura-Nei
class (with HKY), and the Kimura three-parameter class K3ST (with K2P).
State order is fixed to (A, G, C, T); recognizers do not search
permutations.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .classify import CaseTag, Pattern
from .embed import (
    Construction,
    EmbeddingResult,
    GeneratorCandidate,
    Reason,
    Uniqueness,
    _candidate,
    _embeddable,
    _not_embeddable,
    _rotation_branch_range,
    _undecided,
    decide,
    smt_coeffs,
    uniqueness_certificates,
)
from .errors import InfeasibleParamsError, NonpositiveParameterError
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    is_generator,
    is_markov,
    poly_in,
)


@dataclasses.dataclass(frozen=True)
class EqualInputParams:
    """Column parameters c_1..c_d; the summatory parameter is their sum."""

    c_vec: tuple[float, ...]

    @property
    def c(self) -> float:
        return float(sum(self.c_vec))

    @property
    def dim(self) -> int:
        return len(self.c_vec)

    def validate(self) -> None:
        d = self.dim
        if d not in (2, 3, 4):
            raise InfeasibleParamsError(f"dimension {d} not supported")
        if any(ci < 0.0 for ci in self.c_vec):
            raise InfeasibleParamsError("parameters must be nonnegative")
        if any(self.c > 1.0 + ci for ci in self.c_vec):
            raise InfeasibleParamsError("row feasibility c <= 1 + c_i violated")


@dataclasses.dataclass(frozen=True)
class TNParams:
    a1: float
    a2: float
    a3: float
    a4: float
    kappa1: float
    kappa2: float

    def validate(self) -> None:
        if min(self.a1, self.a2, self.a3, self.a4, self.kappa1, self.kappa2) < 0.0:
            raise InfeasibleParamsError("parameters must be nonnegative")
        if np.diag(tn_matrix(self, _validate=False)).min() < -1e-12:
            raise InfeasibleParamsError("off-diagonal row sums exceed 1")


@dataclasses.dataclass(frozen=True)
class K3STParams:
    x: float
    y: float
    z: float

    def validate(self) -> None:
        if min(self.x, self.y, self.z) < 0.0:
            raise InfeasibleParamsError("parameters must be nonnegative")
        if self.x + self.y + self.z > 1.0 + 1e-12:
            raise InfeasibleParamsError("x + y + z must not exceed 1")


def equal_input_matrix(p: EqualInputParams) -> np.ndarray:
    p.validate()
    d = p.dim
    return (1.0 - p.c) * np.eye(d) + np.tile(np.asarray(p.c_vec), (d, 1))


def recognize_equal_input(
    M: object, tol: Tolerances = DEFAULT_TOL
) -> EqualInputParams | None:
    """Parameters if M is a Markov equal-input matrix within the row-sum
    tolerance, clamped at 0; like the other recognizers it never raises."""
    A = as_matrix(M)
    if not is_markov(A, tol):
        return None
    d = A.shape[0]
    off = ~np.eye(d, dtype=bool)
    # c_j is the common off-diagonal entry of column j
    c_vec = np.array([A[off[:, j], j].mean() for j in range(d)])
    rebuilt = (1.0 - c_vec.sum()) * np.eye(d) + np.tile(c_vec, (d, 1))
    if np.abs(rebuilt - A).max() > 10.0 * tol.rowsum:
        return None
    return EqualInputParams(tuple(max(float(cj), 0.0) for cj in c_vec))


def embed_equal_input(
    p: EqualInputParams, dim: int | None = None, tol: Tolerances = DEFAULT_TOL
) -> EmbeddingResult:
    """Closed-form equal-input decision.

    For c in [0, 1) the equal-input generator -log(1-c)/c * A embeds in
    every dimension.  Even dimensions admit no other parameter range: the
    eigenvalue 1 - c has odd multiplicity d - 1, so c > 1 makes the
    determinant negative.  For d = 3 and c > 1 the double eigenvalue
    1 - c is negative, and ``decide`` searches the odd rotations of that
    pair, which embed some matrices beyond c = 1 on every ray.
    """
    p.validate()
    d = p.dim if dim is None else dim
    if dim is not None and dim != p.dim:
        raise InfeasibleParamsError("dim disagrees with the parameter vector")
    M = equal_input_matrix(p)
    c = p.c
    A = M - np.eye(d)

    if c < 1.0 - 1e-12:
        if c <= 0.0:
            zero = GeneratorCandidate(np.zeros((d, d)), 0, Construction.PRINCIPAL_LOG, 0.0)
            return _embeddable([zero], Uniqueness.UNIQUE)
        Q = (-math.log1p(-c) / c) * A
        cand = _candidate(M, Q, 0, Construction.POLY_SMT, tol)
        if isinstance(cand, Reason):
            return _undecided(Reason.RESIDUAL_CHECK_FAILED)
        u = uniqueness_certificates(M, tol)
        if d == 2:
            u = Uniqueness.UNIQUE
        elif u is Uniqueness.UNKNOWN:
            # further non-equal-input embeddings are possible but at most
            # finitely many; the rotation bound rules them out for large c
            ks = _rotation_branch_range(d, math.log(1.0 - c), odd=False)
            u = Uniqueness.POSSIBLY_MORE if ks else Uniqueness.UNIQUE
        return _embeddable([cand], u)
    if abs(c - 1.0) <= 1e-12 or d != 3:
        return _not_embeddable(Reason.DET_NONPOSITIVE)
    return decide(M, tol)


def commutant_basis_d3(c1: float, c2: float, c3: float) -> list[np.ndarray]:
    """Basis of the zero-row-sum matrices commuting with C(c1, c2, c3)."""
    if min(c1, c2, c3) <= 0.0:
        raise NonpositiveParameterError("parameters must be strictly positive")
    alpha = (c1 + c3) * (c2 + c3)
    beta = (c1 + c2) * (c1 + c3)
    gamma = (c1 + c2) * (c2 + c3)
    b1 = np.array([[0.0, 0.0, 0.0], [0.0, -c3, c3], [0.0, c2, -c2]])
    b2 = np.array([[-c3, 0.0, c3], [0.0, 0.0, 0.0], [c1, 0.0, -c1]])
    b3 = np.array([[-c2, c2, 0.0], [c1, -c1, 0.0], [0.0, 0.0, 0.0]])
    r0 = np.array(
        [
            [gamma - alpha, alpha, -gamma],
            [-alpha, alpha - beta, beta],
            [gamma, -beta, beta - gamma],
        ]
    )
    return [b1, b2, b3, r0]


# --- Tamura-Nei ------------------------------------------------------------


def tn_matrix(p: TNParams, _validate: bool = True) -> np.ndarray:
    if _validate:
        p.validate()
    a1, a2, a3, a4 = p.a1, p.a2, p.a3, p.a4
    k1, k2 = p.kappa1, p.kappa2
    M = np.array(
        [
            [0.0, a2 * k1, a3, a4],
            [a1 * k1, 0.0, a3, a4],
            [a1, a2, 0.0, a4 * k2],
            [a1, a2, a3 * k2, 0.0],
        ]
    )
    np.fill_diagonal(M, 1.0 - M.sum(axis=1))
    return M


def tn_spectrum(p: TNParams) -> tuple[float, float, float]:
    """The three non-unit eigenvalues, in closed form."""
    p.validate()
    s12 = p.a1 + p.a2
    s34 = p.a3 + p.a4
    return (
        1.0 - (s12 + s34),
        1.0 - p.kappa1 * s12 - s34,
        1.0 - s12 - p.kappa2 * s34,
    )


def tn_condition(p: TNParams) -> bool:
    """The published double inequality on weighted rate sums.

    Sufficient for a positive spectrum; not necessary when both rate
    ratios exceed 1 (the max/max combination is not an eigenvalue), so
    the decider below gates on the closed-form spectrum instead.
    """
    s12 = p.a1 + p.a2
    s34 = p.a3 + p.a4
    low = min(1.0, p.kappa1) * s12 + min(1.0, p.kappa2) * s34
    high = max(1.0, p.kappa1) * s12 + max(1.0, p.kappa2) * s34
    return 0.0 < low and high < 1.0


def recognize_tn(M: object, tol: Tolerances = DEFAULT_TOL) -> TNParams | None:
    A = as_matrix(M)
    if A.shape[0] != 4 or not is_markov(A, tol):
        return None
    band = 10.0 * tol.rowsum
    a1 = 0.5 * (A[2, 0] + A[3, 0])
    a2 = 0.5 * (A[2, 1] + A[3, 1])
    a3 = 0.5 * (A[0, 2] + A[1, 2])
    a4 = 0.5 * (A[0, 3] + A[1, 3])
    k1 = (A[0, 1] + A[1, 0]) / (a1 + a2) if a1 + a2 > band else 1.0
    k2 = (A[2, 3] + A[3, 2]) / (a3 + a4) if a3 + a4 > band else 1.0
    try:
        p = TNParams(max(a1, 0.0), max(a2, 0.0), max(a3, 0.0), max(a4, 0.0),
                     max(k1, 0.0), max(k2, 0.0))
        p.validate()
    except InfeasibleParamsError:
        return None
    if np.abs(tn_matrix(p) - A).max() > band:
        return None
    return p


def embed_tn(p: TNParams, tol: Tolerances = DEFAULT_TOL) -> EmbeddingResult:
    """Closed-form Tamura-Nei decision for the generic (simple) case.

    Simple spectrum: embeddable iff the double inequality on the weighted
    rate sums holds (equivalently, all non-unit eigenvalues lie in (0,1));
    the unique generator is the principal logarithm and stays TN-shaped.
    Degenerate spectra route to the general engine.
    """
    p.validate()
    M = tn_matrix(p)
    lams = tn_spectrum(p)
    vals = [1.0, *lams]
    gaps = [abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]]
    if min(gaps) <= 10.0 * tol.spec_cluster:
        return decide(M, tol)
    if min(lams) <= tol.nonneg:
        return _not_embeddable(Reason.SPECTRUM_NOT_POSITIVE)
    l1, l2, l3 = sorted(lams, reverse=True)
    tag = CaseTag(4, 4, Pattern.D4_SIMPLE_REAL, {"lambda1": l1, "lambda2": l2, "lambda3": l3})
    coeffs = smt_coeffs(tag, tol=tol)
    Q = poly_in(coeffs, M - np.eye(4))
    # positive spectrum alone does not force nonnegative rates here: for
    # rate ratios far from 1 the (unique) principal log can leave the
    # generator cone, so the verdict must check it
    if not is_generator(Q, tol):
        return _not_embeddable(Reason.LOG_NOT_GENERATOR)
    cand = _candidate(M, Q, 0, Construction.POLY_SMT, tol)
    if isinstance(cand, Reason):
        return _undecided(Reason.RESIDUAL_CHECK_FAILED)
    return _embeddable([cand], Uniqueness.UNIQUE)


def tn_shaped(Q: object, tol: float = 1e-9) -> bool:
    """Zero-row-sum matrix with the TN off-diagonal pattern."""
    A = np.asarray(Q, dtype=float)
    if np.abs(A.sum(axis=1)).max() > math.sqrt(tol):
        return False
    pairs = [
        abs(A[2, 0] - A[3, 0]),
        abs(A[2, 1] - A[3, 1]),
        abs(A[0, 2] - A[1, 2]),
        abs(A[0, 3] - A[1, 3]),
        abs(A[0, 1] * A[2, 0] - A[1, 0] * A[2, 1]),
        abs(A[2, 3] * A[0, 2] - A[3, 2] * A[0, 3]),
    ]
    scale = max(1.0, float(np.abs(A).max()))
    return max(pairs) <= tol * scale


# --- Kimura 3ST ------------------------------------------------------------

_K1 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
_K2 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
_K3 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)


def k3st_matrix(p: K3STParams) -> np.ndarray:
    p.validate()
    s = p.x + p.y + p.z
    return (1.0 - s) * np.eye(4) + p.x * _K1 + p.y * _K2 + p.z * _K3


def k3st_generator(x: float, y: float, z: float) -> np.ndarray:
    return x * _K1 + y * _K2 + z * _K3 - (x + y + z) * np.eye(4)


def k3st_spectrum(p: K3STParams) -> tuple[float, float, float]:
    p.validate()
    return (
        1.0 - 2.0 * (p.x + p.z),
        1.0 - 2.0 * (p.y + p.z),
        1.0 - 2.0 * (p.x + p.y),
    )


def recognize_k3st(M: object, tol: Tolerances = DEFAULT_TOL) -> K3STParams | None:
    A = as_matrix(M)
    if A.shape[0] != 4 or not is_markov(A, tol):
        return None
    x = float(np.mean([A[0, 1], A[1, 0], A[2, 3], A[3, 2]]))
    y = float(np.mean([A[0, 2], A[2, 0], A[1, 3], A[3, 1]]))
    z = float(np.mean([A[0, 3], A[3, 0], A[1, 2], A[2, 1]]))
    try:
        p = K3STParams(max(x, 0.0), max(y, 0.0), max(z, 0.0))
        p.validate()
    except InfeasibleParamsError:
        return None
    if np.abs(k3st_matrix(p) - A).max() > 10.0 * tol.rowsum:
        return None
    return p


def embed_k3st(p: K3STParams, tol: Tolerances = DEFAULT_TOL) -> EmbeddingResult:
    """Closed-form K3ST decision for the generic (simple) case.

    Simple spectrum: embeddable iff all eigenvalues are positive and each
    one dominates the product of the other two; the unique generator is
    assembled entrywise from signed quarter-sums of the eigenvalue logs.
    Degenerate parameter patterns route to the constant-input formula or
    the general engine.
    """
    p.validate()
    M = k3st_matrix(p)
    x, y, z = p.x, p.y, p.z
    band = 10.0 * tol.spec_cluster
    if abs(x - y) <= band and abs(y - z) <= band:
        avg = (x + y + z) / 3.0
        return embed_equal_input(EqualInputParams((avg, avg, avg, avg)), tol=tol)
    if abs(x - y) <= band or abs(y - z) <= band or abs(x - z) <= band:
        return decide(M, tol)

    l1, l2, l3 = k3st_spectrum(p)
    if min(l1, l2, l3) <= tol.nonneg:
        return _not_embeddable(Reason.SPECTRUM_NOT_POSITIVE)
    prods_ok = (
        l1 >= l2 * l3 - tol.nonneg
        and l2 >= l1 * l3 - tol.nonneg
        and l3 >= l1 * l2 - tol.nonneg
    )
    if not prods_ok:
        return _not_embeddable(Reason.LOG_NOT_GENERATOR)
    g1, g2, g3 = math.log(l1), math.log(l2), math.log(l3)
    qx = 0.25 * (-g1 + g2 - g3)
    qy = 0.25 * (g1 - g2 - g3)
    qz = 0.25 * (-g1 - g2 + g3)
    Q = k3st_generator(qx, qy, qz)
    if not is_generator(Q, tol):
        return _not_embeddable(Reason.LOG_NOT_GENERATOR)
    cand = _candidate(M, Q, 0, Construction.POLY_SMT, tol)
    if isinstance(cand, Reason):
        return _undecided(Reason.RESIDUAL_CHECK_FAILED)
    return _embeddable([cand], Uniqueness.UNIQUE)


def model_recognize(M: object, tol: Tolerances = DEFAULT_TOL) -> set[str]:
    """All model classes matching M within the row-sum tolerance."""
    A = as_matrix(M)
    tags: set[str] = set()
    band = 10.0 * tol.rowsum

    eq = recognize_equal_input(A, tol)
    if eq is not None:
        tags.add("EQUAL_INPUT")
        if max(eq.c_vec) - min(eq.c_vec) <= band:
            tags.add("CONSTANT_INPUT")
    if A.shape[0] == 4:
        tn = recognize_tn(A, tol)
        if tn is not None:
            tags.add("TN")
            if abs(tn.kappa1 - tn.kappa2) <= band:
                tags.add("HKY")
        ks = recognize_k3st(A, tol)
        if ks is not None:
            tags.add("K3ST")
            if abs(ks.y - ks.z) <= band:
                tags.add("K2P")
    return tags
