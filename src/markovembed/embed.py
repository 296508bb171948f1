"""Embeddability decisions for Markov matrices of dimension 2-4.

``decide`` looks up a matrix's case pattern in one decision table,
``_DECIDERS``, whose entry constructs every candidate generator the case
theory allows: the polynomial logarithm (one Hermite interpolant of log on
the spectrum, ``smt_coeffs``) for the principal-branch cases, for
complex-pair spectra its branches k of one interval (the branch-k
logarithm R_0 + k D has rates affine in k), and an exact feasibility
search over the real square roots of -I (``hyperbola_search``) for the
cases with a repeated eigenvalue pair, d=3 equal-input matrices with a
negative double eigenvalue included: it evaluates a finite set of
candidate points that holds a feasible point whenever one exists.  Both
pair constructions try only branches in the generator sector, one rule
(``_sector``); a conjugate pair with none is rejected before any logarithm.

Every candidate that is reported has been re-verified: it passes
``is_generator`` and the residual certificate ||exp(Q) - M|| <= residual
tolerance * scale(M).  Verdicts are three-valued; ``Undecided`` absorbs
numerical failure and the search's "Inconclusive" outcome, which means
only that the best candidate's violation lies in the floating-point band
between the sign tolerance and the Infeasible margin; ``Undecided`` never
masquerades as ``NotEmbeddable``.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import math

import numpy as np

from .classify import _NAMED, CaseTag, Pattern, analyse, sign_screen, spectral_screen
from .errors import (
    ClassificationError,
    DegenerateDenominatorError,
    DimensionError,
    IllConditionedError,
    NonpositiveParameterError,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    _is_markov,
    _null_space,
    _poly_in,
    as_matrix,
    is_generator,
    mat_exp,
    scale_of,
)


class Verdict(enum.Enum):
    EMBEDDABLE = "Embeddable"
    NOT_EMBEDDABLE = "NotEmbeddable"
    UNDECIDED = "Undecided"


class Uniqueness(enum.Enum):
    UNIQUE = "Unique"
    MULTIPLE_KNOWN = "MultipleKnown"
    POSSIBLY_MORE = "PossiblyMore"
    UNKNOWN = "Unknown"


class Construction(enum.Enum):
    PRINCIPAL_LOG = "PRINCIPAL_LOG"
    POLY_SMT = "POLY_SMT"
    HYPERBOLA = "HYPERBOLA"


class Reason(enum.Enum):
    DET_NONPOSITIVE = "DET_NONPOSITIVE"
    ZERO_DIAGONAL = "ZERO_DIAGONAL"
    UNIT_CIRCLE_EIGENVALUE = "UNIT_CIRCLE_EIGENVALUE"
    NEGATIVE_EIGENVALUE_CULVER = "NEGATIVE_EIGENVALUE_CULVER"
    TRANSITIVITY_VIOLATION = "TRANSITIVITY_VIOLATION"
    SPECTRUM_NOT_POSITIVE = "SPECTRUM_NOT_POSITIVE"
    LOG_NOT_GENERATOR = "LOG_NOT_GENERATOR"
    NO_BRANCH_FEASIBLE = "NO_BRANCH_FEASIBLE"
    K_RANGE_EMPTY = "K_RANGE_EMPTY"
    SEARCH_INCONCLUSIVE = "SEARCH_INCONCLUSIVE"
    NEAR_BOUNDARY = "NEAR_BOUNDARY"
    ILL_CONDITIONED = "ILL_CONDITIONED"
    RESIDUAL_CHECK_FAILED = "RESIDUAL_CHECK_FAILED"


class SearchStatus(enum.Enum):
    FOUND = "Found"
    INFEASIBLE = "Infeasible"
    INCONCLUSIVE = "Inconclusive"


@dataclasses.dataclass(frozen=True)
class HyperbolaPoint:
    """Point (x, y, z) with y*z - x^2 = 1, z > 0, parametrising a real
    square root of -I_2."""

    x: float
    y: float
    z: float


@dataclasses.dataclass(frozen=True)
class GeneratorCandidate:
    matrix: np.ndarray
    branch: int
    construction: Construction
    residual: float


@dataclasses.dataclass(frozen=True)
class EmbeddingResult:
    verdict: Verdict
    generators: tuple[GeneratorCandidate, ...]
    uniqueness: Uniqueness
    reason: Reason | None = None
    case: CaseTag | None = None

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.EMBEDDABLE) != bool(self.generators):
            raise ValueError("verdict Embeddable iff generators nonempty")
        if self.verdict is Verdict.UNDECIDED and self.reason is None:
            raise ValueError("Undecided requires a reason")


def _embeddable(gens, uniqueness, case=None) -> EmbeddingResult:
    return EmbeddingResult(Verdict.EMBEDDABLE, tuple(gens), uniqueness, None, case)


def _not_embeddable(reason, case=None) -> EmbeddingResult:
    return EmbeddingResult(Verdict.NOT_EMBEDDABLE, (), Uniqueness.UNKNOWN, reason, case)


def _undecided(reason, case=None) -> EmbeddingResult:
    return EmbeddingResult(Verdict.UNDECIDED, (), Uniqueness.UNKNOWN, reason, case)


def _candidate(
    M: np.ndarray,
    Q: np.ndarray,
    branch: int,
    construction: Construction,
    tol: Tolerances,
) -> GeneratorCandidate | Reason:
    """Re-verify a proposed generator; on failure, the check it failed:
    LOG_NOT_GENERATOR or RESIDUAL_CHECK_FAILED.

    It checks a copy of Q whose diagonal is minus the off-diagonal row sums.
    A logarithm built as a polynomial in M - I, or in a basis whose first
    column is all ones, has zero row sums by construction; what is left of
    them is rounding, which grows with the coefficients (about 1e-9 at
    coefficients of 1e6) and is no evidence against the candidate.
    """
    Q = Q.copy()
    Q.reshape(-1)[:: len(Q) + 1] -= Q.sum(axis=1)
    if not is_generator(Q, tol):
        return Reason.LOG_NOT_GENERATOR
    residual = float(np.abs(mat_exp(Q) - M).max())
    if residual > tol.residual * scale_of(M):
        return Reason.RESIDUAL_CHECK_FAILED
    return GeneratorCandidate(Q, branch, construction, residual)


# ---------------------------------------------------------------------------
# the polynomial logarithm: one Hermite interpolant of log on the spectrum
# (Higham, Functions of Matrices, 2008, sec. 1.2)
# ---------------------------------------------------------------------------

def smt_coeffs(
    case: CaseTag,
    eigen_data: dict[str, complex] | None = None,
    k: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> list[float]:
    """Real coefficients c with poly_in(c, A - I) the branch-k real logarithm.

    p(x) = sum_i c[i] x^(i+1) is the Hermite interpolant of log(1 + x) on the
    roots mu = lambda - 1 of A's minimal polynomial: 0, and each eigenvalue the
    tag names, repeated as often as its index, a complex pair with its
    conjugate on the branch log lambda + 2 pi i k.  The index (largest block
    size) and the kind come from the pattern's row of the case table; a name
    outside the row counts as a real simple eigenvalue.  Raises
    :class:`DegenerateDenominatorError` for a real eigenvalue <= 0, a pair
    with |Im lambda| < tol.spec_cluster or two nodes within tol.spec_cluster
    of each other.
    """
    eig = case.eigen if eigen_data is None else eigen_data
    row = _NAMED[case.pattern]
    # nodes lambda_i (each repeated as often as its index) with log's Taylor coefficients;
    # lambda_i - lambda_j is exact where (lambda_i - 1) - (lambda_j - 1) rounds
    nodes, f = [1.0], [[0.0]]
    for name in sorted(eig):
        lam = complex(eig[name])
        kind, sizes = row.get(name, ("r", (1,)))
        if kind == "c":
            if abs(lam.imag) < tol.spec_cluster:
                raise DegenerateDenominatorError("pair is not genuinely complex")
            z = cmath.log(lam) + 2j * math.pi * k
            new, taylor = [lam, lam.conjugate()], [[z], [z.conjugate()]]
        else:
            lam = lam.real
            if lam <= 0.0:
                raise DegenerateDenominatorError(f"no real logarithm at lambda={lam:g}")
            index = max(sizes)
            new = [lam] * index
            taylor = [[math.log(lam), 1.0 / lam, -0.5 / lam**2][:index]] * index
        if any(abs(new[0] - x) < tol.spec_cluster for x in nodes):
            raise DegenerateDenominatorError("near-coincident eigenvalues")
        nodes += new
        f += taylor

    # confluent divided differences: dd[i] = log[lambda_0, ..., lambda_i]
    n = len(nodes)
    dd = [t[0] for t in f]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            if nodes[i] == nodes[i - j]:
                dd[i] = f[i][j]
            else:
                dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    # Newton form to monomials in x = lambda - 1; x_0 = 0, dd[0] = 0 leave p = x q
    c = [dd[-1]]
    for i in range(n - 2, 0, -1):
        x = nodes[i] - 1.0
        c = [dd[i] - x * c[0]] + [c[j - 1] - x * c[j] for j in range(1, len(c))] + [c[-1]]
    return [v.real for v in c]


# ---------------------------------------------------------------------------
# the extremal equal-input pair of d=3 (the paper's closed form)
# ---------------------------------------------------------------------------


def delta_min(c1: float, c2: float, c3: float) -> float:
    """Smallest decay exponent reachable on the ray of (c1, c2, c3).

    Positively homogeneous of degree 0; its value pi*sqrt(3) at equal
    parameters is the global minimum.
    """
    if min(c1, c2, c3) <= 0.0:
        raise NonpositiveParameterError("parameters must be strictly positive")
    c = c1 + c2 + c3
    kappa = max(c1, c2, c3)
    return math.pi * kappa * math.sqrt(c) / math.sqrt(c1 * c2 * c3)


def eq_input_extremal_generators(
    c1: float, c2: float, c3: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two generators whose exponential is the extremal equal-input
    matrix on the ray of (c1, c2, c3)."""
    if min(c1, c2, c3) <= 0.0:
        raise NonpositiveParameterError("parameters must be strictly positive")
    c = c1 + c2 + c3
    kappa = max(c1, c2, c3)
    pref = math.pi / math.sqrt(c * c1 * c2 * c3)

    def build(sign: float) -> np.ndarray:
        return pref * np.array(
            [
                [-kappa * (c2 + c3), c2 * (kappa + sign * c3), c3 * (kappa - sign * c2)],
                [c1 * (kappa - sign * c3), -kappa * (c1 + c3), c3 * (kappa + sign * c1)],
                [c1 * (kappa + sign * c2), c2 * (kappa - sign * c1), -kappa * (c1 + c2)],
            ]
        )

    return build(1.0), build(-1.0)


# ---------------------------------------------------------------------------
# hyperbola search over the real square roots of -I
# ---------------------------------------------------------------------------


def _pair_decomposition(
    M: np.ndarray, fixed_eigs: list[float], pair_value: float, tol: Tolerances
) -> np.ndarray:
    """Real similarity T with the repeated-pair eigenspace in its last two
    columns, so inv(T) M T is diagonal.

    The first column is the all-ones eigenvector, so any log candidate
    assembled in this basis has zero row sums by construction.  Directions
    for eigenvalues appearing more than once are drawn from one orthonormal
    pool per eigenvalue (the pair reserves the first two).
    """
    d = M.shape[0]
    ones = np.ones(d)
    pools: dict[float, list[np.ndarray]] = {}

    def pool(lam: float) -> list[np.ndarray]:
        if lam not in pools:
            vh, n, _scale = _null_space(M - lam * np.eye(d), tol)
            ns = vh[len(vh) - max(n, 1) :].T  # the null directions, or else the smallest one
            if lam == 1.0:
                u = ones / math.sqrt(d)
                ns = ns - np.outer(u, u @ ns)
                q, r = np.linalg.qr(ns)
                ns = q[:, np.abs(np.diag(r)) > 1e-8]
            # each direction signed so that its entry of largest modulus is >= 0
            pools[lam] = [v if v[int(np.argmax(np.abs(v)))] >= 0 else -v for v in ns.T]
        return pools[lam]

    if len(pool(pair_value)) < 2:
        raise IllConditionedError("pair eigenspace not numerically two-dimensional")
    pair_cols = pool(pair_value)[:2]
    counters = {pair_value: 2}
    columns = [ones]
    for lam in fixed_eigs:
        i = counters.get(lam, 0)
        counters[lam] = i + 1
        if i >= len(pool(lam)):
            raise IllConditionedError("eigenspace deficient for the fixed block")
        columns.append(pool(lam)[i])
    columns.extend(pair_cols)
    return np.column_stack(columns)


def _sheet_constraints(
    T: np.ndarray, fixed_block: np.ndarray, log_modulus: float
) -> np.ndarray:
    """Rows (f, a, b, c), one per off-diagonal entry of
    R = T (fixed_block (+) (log_modulus I + angle [[x, -z], [y, -x]])) T^-1,
    which is f + angle (a x + b y + c z)."""
    d = T.shape[0]
    Tinv = np.linalg.inv(T)
    fixed = np.zeros((d, d))
    fixed[: d - 2, : d - 2] = fixed_block
    fixed[d - 2 :, d - 2 :] = log_modulus * np.eye(2)
    base = T @ fixed @ Tinv
    (u1, u2), (v1, v2) = T[:, d - 2 :].T, Tinv[d - 2 :]
    Wx = np.outer(u1, v1) - np.outer(u2, v2)
    Wy = np.outer(u2, v1)
    Wz = -np.outer(u1, v2)
    off = ~np.eye(d, dtype=bool)
    return np.column_stack([base[off], Wx[off], Wy[off], Wz[off]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of two arrays whose first axis is the coordinate."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _sheet_roots(n1, h1, n2, h2) -> list[np.ndarray]:
    """Rows (1, x, y, z) of the point (0, 1, 1) and of both points of each line
    {n1 . p = h1, n2 . p = h2} on the sheet, per system s of the (3, s, n) normals.

    The line is p0 + t u with u the unit direction; yz - x^2 = 1 along it
    is one quadratic in t, solved in the cancellation-free form, so a
    tangent line gives its double root and a line asymptotic to the sheet
    its single finite root.  Rounding that pushes a tangent line's
    discriminant below 0 is clamped, and every root is scaled in (y, z)
    back onto the sheet; lines that miss it give extra points of the sheet,
    which can only weaken an Infeasible verdict.
    """
    d = _cross(n1, n2)
    dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    p0 = (h1 * _cross(n2, d) + h2 * _cross(d, n1)) / dd
    u = d / np.sqrt(dd)
    qa = u[1] * u[2] - u[0] ** 2
    qb = p0[1] * u[2] + p0[2] * u[1] - 2.0 * p0[0] * u[0]
    qc = p0[1] * p0[2] - p0[0] ** 2 - 1.0
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    P = np.ones((4, q.shape[0], 2 * q.shape[1] + 1))  # (1, x, y, z), system, point
    P[1:, :, 0] = ((0.0,), (1.0,), (1.0,))
    P[1:, :, 1:] = np.concatenate([p0 + q / qa * u, p0 + qc / q * u], axis=2)
    on = (P[2:] > 0.0).all(axis=0)
    P[2:] *= np.sqrt((1.0 + P[1] ** 2) / (P[2] * P[3]))
    on &= np.isfinite(P).all(axis=0)
    return [S[k] for S, k in zip(P.transpose(1, 2, 0), on)]


# (bytes of the last search's mirror rows, their candidates), rebound whole; the key fixes the value
_mirror: tuple[bytes, np.ndarray] = (b"", np.empty((0, 4)))


def hyperbola_search(
    rows: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[SearchStatus, HyperbolaPoint | None]:
    """Is g_i = f + a x + b y + c z >= 0, for every row (f, a, b, c), at a
    point p = (x, y, z) of the sheet H = {yz - x^2 = 1, z > 0}?

    For a repeated eigenvalue pair the rows are those of
    ``_sheet_constraints`` scaled by (1, angle, angle, angle): one per
    off-diagonal entry of the pair-rotated logarithm R, which is a generator
    iff p lies in the polyhedron P = {g_i >= 0} and on H.  The logarithm of
    a point is read off those rows: its off-diagonal entries, row-major, are
    rows @ (1, x, y, z), and its diagonal is minus their row sums.

    Theorem: if S = P n H is nonempty, y + z attains its minimum over S
    (y + z >= 2 sqrt(1 + x^2) on H, so it is coercive there and S is
    closed), and a minimiser lies among
      * the point (0, 1, 1), the minimiser of y + z over all of H;
      * the KKT points of y + z on each conic C_i = {g_i = 0} n H: the two
        roots of one quadratic, on the line where the plane g_i = 0 meets
        the plane det[(0, 1, 1); grad g_i; grad(yz - x^2)] = 0 (which also
        holds where the plane is tangent to H); when grad g_i is parallel
        to (0, 1, 1), y + z is constant on C_i, and any point of it serves
        unless another constraint is active, which the next item covers;
      * the two roots of each line {g_i = g_j = 0} n H, at most
        2 C(12, 2) = 132 for d = 4.
    A minimiser with no active constraint is the critical point (0, 1, 1);
    with one, it is critical for y + z on C_i; with two or more distinct
    planes, it lies on their line (coinciding planes count as one).

    The mirror rows (f, -a, -b, -c), a pair's next branch, have these lines
    with negated normals; their roots on H negate these lines' roots on
    y, z < 0, but not to the bit where a sum cancels to +0.  So the mirror's
    lines are solved in the same pass, and kept for a search on its bytes.

    Every constraint is evaluated at every candidate at once, and
    Found        -- the candidate with the most slack violates by at most
                    tol.nonneg; it is returned;
    Infeasible   -- every candidate violates by more than 10 tol.nonneg plus
                    a rounding allowance scaled by the coefficient sizes and
                    the candidate's size, so S is empty;
    Inconclusive -- otherwise: the best candidate sits in that band.
    """
    global _mirror
    key, Ph = _mirror
    if key != rows.tobytes():
        f, N = rows[:, 0], rows[:, 1:].T
        N = np.stack([N, -N], axis=1)  # (coordinate, system, row)
        # the KKT points of y + z on {g_i = 0} and the sheet satisfy
        # det[(0, 1, 1); n_i; grad(yz - x^2)] = 2 (b_i - c_i) x - a_i y + a_i z = 0;
        # a normal parallel to (0, 1, 1) makes y + z constant on its conic, and
        # x = 0 then picks points of it
        K = np.array([2.0 * (N[1] - N[2]), -N[0], N[0]])
        K[:, ~K.any(axis=0)] = ((1.0,), (0.0,), (0.0,))
        i, j = np.nonzero(np.arange(len(f))[:, None] < np.arange(len(f)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Ph, mirrored = _sheet_roots(
                np.concatenate([N, N[..., i]], axis=2),
                -np.concatenate([f, f[i]]),
                np.concatenate([K, N[..., j]], axis=2),
                -np.concatenate([np.zeros(len(f)), f[j]]),
            )
        _mirror = ((rows * (1.0, -1.0, -1.0, -1.0)).tobytes(), mirrored)
    violation = -(Ph @ rows.T).min(axis=1)
    best = int(np.argmin(violation))
    if violation[best] <= tol.nonneg:
        return SearchStatus.FOUND, HyperbolaPoint(*(float(v) for v in Ph[best, 1:]))
    # rounding allowance: 2^10 ulp of the largest term of g_i(p)
    rounding = 2.0**10 * np.finfo(float).eps * (np.abs(Ph) @ np.abs(rows).T).max(axis=1)
    if (violation > 10.0 * tol.nonneg + rounding).all():
        return SearchStatus.INFEASIBLE, None
    return SearchStatus.INCONCLUSIVE, None


# ---------------------------------------------------------------------------
# case deciders
# ---------------------------------------------------------------------------


def embed_d2(M: object, tol: Tolerances = DEFAULT_TOL) -> EmbeddingResult:
    """d=2: embeddable iff a + b < 1, with the unique closed-form generator.

    The comparison is exact on the matrix entries (the boundary a + b = 1
    is singular, hence definitely not embeddable).
    """
    A = as_matrix(M)
    if A.shape[0] != 2:
        raise DimensionError("embed_d2 expects a 2x2 matrix")
    return _kendall(A, None, tol)


def _kendall(A: np.ndarray, tag: CaseTag | None, tol: Tolerances) -> EmbeddingResult:
    """embed_d2 on a validated 2x2 array, its results tagged with ``tag``."""
    s = float(A[0, 1]) + float(A[1, 0])
    if s >= 1.0:
        return _not_embeddable(Reason.DET_NONPOSITIVE, tag)
    if s <= 0.0:
        zero = GeneratorCandidate(np.zeros((2, 2)), 0, Construction.PRINCIPAL_LOG, 0.0)
        return _embeddable([zero], Uniqueness.UNIQUE, tag)
    Q = (-math.log1p(-s) / s) * (A - np.eye(2))
    cand = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
    if isinstance(cand, Reason):
        return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)
    return _embeddable([cand], Uniqueness.UNIQUE, tag)


def uniqueness_certificates(M: object, tol: Tolerances = DEFAULT_TOL) -> Uniqueness:
    """Global uniqueness certificates for an embeddable M.

    Unique when min m_ii > 1/2 (the principal log is then the sole
    candidate), or when det(M) min m_ii > e^-pi prod m_ii; Unknown
    otherwise.
    """
    A = as_matrix(M)
    diag = np.diag(A)
    low = float(diag.min())
    if low > 0.5 or float(np.linalg.det(A)) * low > math.exp(-math.pi) * float(np.prod(diag)):
        return Uniqueness.UNIQUE
    return Uniqueness.UNKNOWN


def _lams(tag: CaseTag) -> list[float]:
    """The tag's real eigenvalues, in the order of its case-table row."""
    return [tag.eigen[name].real for name, (kind, _) in _NAMED[tag.pattern].items() if kind != "c"]


def _sector(d: int, log_modulus: float) -> float:
    """The largest |angle| of an eigenvalue log_modulus + i angle of a d x d
    generator, the one sector rule: every such eigenvalue z has |Im z| <=
    cot(pi/d) |Re z| (Runnenberg); cot(pi/3) = 1/sqrt(3), cot(pi/4) = 1,
    with slack for boundary cases."""
    cot = 1.0 / math.sqrt(3.0) if d == 3 else 1.0
    return cot * abs(log_modulus) * (1.0 + 1e-12) + 1e-9


def _rotation_branch_range(d: int, log_modulus: float, odd: bool) -> list[int]:
    """Branch indices k whose rotation angle, 2k*pi (odd=False) or (2k+1)*pi
    (odd=True), lies in the generator sector, ``_sector``; each beside its mirror."""
    limit = _sector(d, log_modulus)
    ks, n = [], 0 if odd else 1
    while (2 * n + odd) * math.pi <= limit:
        ks.extend([n, -n - odd])
        n += 1
    return ks


def _repeated_pair(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool
) -> EmbeddingResult:
    """A repeated eigenvalue pair beside the eigenvalue 1 and, at d=4, one
    more fixed eigenvalue: the tag's other one, the pair's own value for
    D4_DEG2_TRIPLE_L, 1 otherwise.  A positive pair gives the polynomial
    logarithm; the others rotate the pair's plane by the angles 2k pi
    ((2k + 1) pi for a negative pair) that fit the generator spectrum, each
    decided by the sheet search.  With a principal generator in hand the
    rotations only affect uniqueness and are searched on demand; without
    one they decide, but a principal failing only the residual certificate
    leaves the verdict Undecided unless a rotation is verified.  At d=3
    this decides the equal-input matrices with a repeated eigenvalue.
    """
    d = A.shape[0]
    *fixed, pair = _lams(tag)
    if tag.pattern is Pattern.D4_DEG2_TRIPLE_L:
        fixed = [pair]
    fixed = fixed or [1.0] * (d - 3)
    gens, residual_only = [], False
    if pair > 0.0:
        Q = _poly_in(smt_coeffs(tag, tol=tol), A - np.eye(d))
        principal = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
        if isinstance(principal, Reason):
            residual_only = principal is Reason.RESIDUAL_CHECK_FAILED
        else:
            gens.append(principal)

    log_mod = math.log(abs(pair))
    ks = _rotation_branch_range(d, log_mod, odd=pair < 0.0)
    unsettled = bool(ks)  # rotations neither verified nor ruled out
    if ks and (all_branches or not gens):
        T = _pair_decomposition(A, fixed, pair, tol)
        # fixed log block: 0 for each unit eigenvalue, log(lam) otherwise
        fixed_block = np.diag([0.0] + [0.0 if l == 1.0 else math.log(l) for l in fixed])
        rows = _sheet_constraints(T, fixed_block, log_mod)
        off = ~np.eye(d, dtype=bool)
        # for D4_DEG2_TRIPLE_L this scans one plane of the triple eigenspace
        unsettled = pair in fixed
        for k in ks:
            angle = (2 * k + 1) * math.pi if pair < 0.0 else 2 * k * math.pi
            scaled = rows * (1.0, angle, angle, angle)
            status, point = hyperbola_search(scaled, tol)
            if status is SearchStatus.FOUND:
                R = np.zeros((d, d))
                R[off] = scaled @ (1.0, point.x, point.y, point.z)
                cand = _candidate(A, R, k, Construction.HYPERBOLA, tol)
                if isinstance(cand, GeneratorCandidate):
                    gens.append(cand)
                    continue
            unsettled |= status is not SearchStatus.INFEASIBLE
        gens.sort(key=lambda g: (g.construction is Construction.HYPERBOLA, g.branch))

    if len(gens) > 1:
        return _embeddable(gens, Uniqueness.MULTIPLE_KNOWN, tag)
    if gens:
        u = uniqueness_certificates(A, tol)
        if u is Uniqueness.UNKNOWN:
            alone = gens[0].construction is Construction.POLY_SMT and not unsettled
            u = Uniqueness.UNIQUE if alone else Uniqueness.POSSIBLY_MORE
        return _embeddable(gens, u, tag)
    if residual_only:
        return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)
    if not ks:
        return _not_embeddable(Reason.K_RANGE_EMPTY, tag)
    if unsettled:
        return _undecided(Reason.SEARCH_INCONCLUSIVE, tag)
    return _not_embeddable(Reason.NO_BRANCH_FEASIBLE, tag)


def _principal_only(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool
) -> EmbeddingResult:
    """Cases where the principal polynomial logarithm is the sole candidate;
    for D3_DEG2_1_1_L and D4_DEG2_TRIPLE_ONE rotations inside the unit
    eigenspace would need purely imaginary generator eigenvalues, which
    Gershgorin excludes."""
    Q = _poly_in(smt_coeffs(tag, tol=tol), A - np.eye(A.shape[0]))
    cand = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
    if cand is Reason.LOG_NOT_GENERATOR:
        return _not_embeddable(cand, tag)
    if cand is Reason.RESIDUAL_CHECK_FAILED:
        return _undecided(cand, tag)
    return _embeddable([cand], Uniqueness.UNIQUE, tag)


def _branch_interval(R0: np.ndarray, D: np.ndarray, tol: Tolerances) -> range:
    """The integers k with every off-diagonal entry of R0 + k D >= -tol.nonneg.

    D has zero row sums and eigenvalues +-2 pi i, so by Gershgorin neither D
    nor -D is a generator: its off-diagonal entries take both signs, and
    the interval is bounded.  A one-signed D is a numerical failure.
    """
    # (slack, step) per off-diagonal entry, in Python floats: a dozen entries
    # cost less there than in NumPy calls
    d, R, S = len(D), R0.tolist(), D.tolist()
    pairs = [(R[i][j] + tol.nonneg, S[i][j]) for i in range(d) for j in range(d) if i != j]
    up = [-r / s for r, s in pairs if s > 0.0]
    down = [-r / s for r, s in pairs if s < 0.0]
    if not (up and down):
        raise IllConditionedError("branch step has off-diagonal entries of one sign")
    lo, hi = max(up), min(down)
    if any(r < 0.0 for r, s in pairs if s == 0.0) or lo > hi:
        return range(0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IllConditionedError("branch interval has no finite bound")
    return range(math.ceil(lo), math.floor(hi) + 1)


def _complex_branches(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool
) -> EmbeddingResult:
    """A complex-conjugate pair (theta beside a real lambda for
    D4_SIMPLE_COMPLEX).  The spectral-mapping coefficients are affine in
    the branch k, so the branch-k logarithm is R_0 + k D with
    D = poly_in(c(1) - c(0), A - I), and the generator branches are the
    integers of one interval; each is re-verified.  A pair none of whose
    branches log|theta| + i(arg theta + 2 pi k) lies in the generator
    sector (``_sector``, the rule the rotations of repeated pairs obey too)
    is rejected before any logarithm is built."""
    # the unit-circle screen has already required |theta| < 1 - tol.nonneg
    theta = tag.eigen.get("theta", tag.eigen.get("lambda"))
    if abs(theta) <= tol.nonneg:
        return _not_embeddable(Reason.DET_NONPOSITIVE, tag)
    # |arg theta| <= pi is the smallest |arg theta + 2 pi k|
    if abs(cmath.phase(theta)) > _sector(len(A), math.log(abs(theta))):
        return _not_embeddable(Reason.NO_BRANCH_FEASIBLE, tag)

    c0, c1 = smt_coeffs(tag, k=0, tol=tol), smt_coeffs(tag, k=1, tol=tol)
    Ash = A - np.eye(A.shape[0])
    R0, D = _poly_in(c0, Ash), _poly_in([b - a for a, b in zip(c0, c1)], Ash)
    cands = [_candidate(A, R0 + k * D, k, Construction.POLY_SMT, tol)
             for k in _branch_interval(R0, D, tol)]
    gens = [cand for cand in cands if isinstance(cand, GeneratorCandidate)]
    if not gens:
        if cands:  # a branch in the interval failed its re-verification
            return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)
        return _not_embeddable(Reason.NO_BRANCH_FEASIBLE, tag)
    u = Uniqueness.UNIQUE if len(gens) == 1 else Uniqueness.MULTIPLE_KNOWN
    return _embeddable(gens, u, tag)


# The decision table: one row per non-identity d=3/d=4 pattern, read by
# ``decide``.  Each decider takes (A, tag, tol, all_branches) with A
# validated, tag = classify(A) and the tag's real eigenvalues clear of 0
# and 1.
_DECIDERS = {
    Pattern.D3_DEG2_1_1_L: _principal_only,
    Pattern.D3_DEG2_1_L_L_POS: _repeated_pair,
    Pattern.D3_DEG2_1_L_L_NEG: _repeated_pair,
    Pattern.D3_SIMPLE_REAL: _principal_only,
    Pattern.D3_JORDAN2: _principal_only,
    Pattern.D3_COMPLEX_PAIR: _complex_branches,
    Pattern.D4_DEG2_TRIPLE_ONE: _principal_only,
    Pattern.D4_DEG2_TRIPLE_L: _repeated_pair,
    Pattern.D4_DEG2_DOUBLE_POS: _repeated_pair,
    Pattern.D4_DEG2_DOUBLE_NEG: _repeated_pair,
    Pattern.D4_DEG3_TWO_ONES_DISTINCT: _principal_only,
    Pattern.D4_DEG3_TWO_ONES_JORDAN: _principal_only,
    Pattern.D4_DEG3_L_JORDAN_L: _principal_only,
    Pattern.D4_DEG3_DOUBLE_L2_POS: _repeated_pair,
    Pattern.D4_DEG3_DOUBLE_L2_NEG: _repeated_pair,
    Pattern.D4_DEG3_COMPLEX: _complex_branches,
    Pattern.D4_SIMPLE_REAL: _principal_only,
    Pattern.D4_SIMPLE_COMPLEX: _complex_branches,
    Pattern.D4_JORDAN3: _principal_only,
    Pattern.D4_MIXED_JORDAN2: _principal_only,
}


def decide(
    M: object,
    tol: Tolerances = DEFAULT_TOL,
    all_branches: bool = False,
) -> EmbeddingResult:
    """Full embeddability decision for a Markov matrix of dimension 2-4.

    Validates the input and takes the zero generator within the residual
    tolerance of the identity.  d=2 takes embed_d2's exact rule, labeled
    from its spectrum {1, m00 - m10}, which it analyses only when m00 - m10
    lies in the clustering band around 1.  For d >= 3 it screens the entries
    first (det > 0, then a positive diagonal and a transitive sign pattern;
    these rejections carry case=None, and classify(M) gives the tag),
    analyses the matrix once (spectrum, Jordan structure, case tag), screens
    that for the unit circle and Culver's condition and runs the case
    decider that the decision table holds for its pattern; a conjugate pair
    outside the generator sector is rejected there before any logarithm is
    built.  Numerical failures surface as Undecided with a reason, never as
    NotEmbeddable.
    """
    A = as_matrix(M)
    if not _is_markov(A, tol):
        raise ValueError("decide expects a Markov matrix")
    d, rows = len(A), A.tolist()

    # inside the residual certificate the zero generator already embeds the
    # matrix; eigenvalue multiplicities are unresolvable this close to the
    # identity, so skip classification entirely
    gap = max(abs(x - (i == j)) for i, row in enumerate(rows) for j, x in enumerate(row))
    if gap <= tol.residual:
        tag = CaseTag(d, 1, getattr(Pattern, f"D{d}_IDENTITY"))
        zero = GeneratorCandidate(np.zeros((d, d)), 0, Construction.PRINCIPAL_LOG, gap)
        return _embeddable([zero], Uniqueness.UNIQUE, tag)

    if d == 2:
        # the deflated 1x1 block's root, as eigenvalues computes it (+ 0.0 drops
        # a -0.0); analyse labels it D2_SIMPLE inside its disk and apart from 1
        lam, radius = rows[0][0] - rows[1][0] + 0.0, 1.0 + 100.0 * tol.spec_cluster
        if abs(lam) <= radius and abs(1.0 - lam) > tol.spec_cluster * max(1.0, abs(lam)):
            return _kendall(A, CaseTag(2, 2, Pattern.D2_SIMPLE, {"lambda": lam}), tol)
    else:
        det = float(np.linalg.det(A))  # a nonpositive det needs no sign pattern
        if not det > 0.0:
            return _not_embeddable(Reason.DET_NONPOSITIVE)
        diag_positive, transitive = sign_screen(A, tol)
        if not diag_positive:
            return _not_embeddable(Reason.ZERO_DIAGONAL)
        if not transitive:
            return _not_embeddable(Reason.TRANSITIVITY_VIOLATION)

    try:
        js, tag = analyse(A, tol)
    except (IllConditionedError, ClassificationError):
        return _undecided(Reason.ILL_CONDITIONED)
    unit_circle_ok, culver_ok = spectral_screen(js.blocks, det, tol)
    if not unit_circle_ok:
        return _not_embeddable(Reason.UNIT_CIRCLE_EIGENVALUE, tag)
    if not culver_ok:
        return _not_embeddable(Reason.NEGATIVE_EIGENVALUE_CULVER, tag)
    # the sign gate; a real eigenvalue < -tol.nonneg has a block size of odd
    # count, so Culver's condition has already rejected it
    if any(abs(lam) <= tol.nonneg or abs(1.0 - lam) <= tol.nonneg for lam in _lams(tag)):
        return _undecided(Reason.NEAR_BOUNDARY, tag)

    try:
        return _DECIDERS[tag.pattern](A, tag, tol, all_branches)
    except (IllConditionedError, DegenerateDenominatorError):
        return _undecided(Reason.ILL_CONDITIONED, tag)
