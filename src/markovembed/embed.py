"""Embeddability decisions for Markov matrices of dimension 2-4.

``decide``, ``embed_d4`` and the public d=3 deciders look up a matrix's
case pattern in one decision table, ``_DECIDERS``, whose entry constructs
every candidate generator the case theory allows: closed-form polynomial
logarithms for the principal-branch cases, for complex-pair spectra the
branches k of one interval (the branch-k logarithm R_0 + k D has rates
affine in k), and an exact feasibility search over the real square roots
of -I (a sheet of a hyperbola) for the cases with a repeated eigenvalue
pair, d=3 equal-input matrices with a negative double eigenvalue
included: it evaluates a finite set of candidate points that holds a
feasible point whenever one exists.

Every candidate that is reported has been re-verified: it passes
``is_generator`` and the residual certificate ||exp(Q) - M|| <= residual
tolerance * scale(M).  Verdicts are three-valued; ``Undecided`` absorbs
numerical failure and the search's "Inconclusive" outcome, which means
only that the best candidate's violation lies in the floating-point band
between the sign tolerance and the Infeasible margin; ``Undecided`` never
masquerades as ``NotEmbeddable``.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .classify import CaseTag, Pattern, analyse, classify, screen
from .errors import (
    ClassificationError,
    DegenerateDenominatorError,
    DimensionError,
    IllConditionedError,
    MarkovEmbedError,
    NonpositiveParameterError,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    is_generator,
    is_markov,
    mat_exp,
    poly_in,
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


def _zero_row_sums(Q: np.ndarray) -> np.ndarray:
    """A copy of Q with each row sum subtracted from its diagonal entry,
    which leaves minus the off-diagonal row sum there.

    A logarithm built as a polynomial in M - I, or in a basis whose first
    column is all ones, has zero row sums by construction; what is left of
    them is rounding, which grows with the coefficients (about 1e-9 at
    coefficients of 1e6) and is no evidence against the candidate.
    """
    Q = Q.copy()
    Q.reshape(-1)[:: len(Q) + 1] -= Q.sum(axis=1)
    return Q


def _candidate(
    M: np.ndarray,
    Q: np.ndarray,
    branch: int,
    construction: Construction,
    tol: Tolerances,
) -> GeneratorCandidate | None:
    """Re-verify a proposed generator; None when it fails either check."""
    Q = _zero_row_sums(Q)
    if not is_generator(Q, tol):
        return None
    residual = float(np.abs(mat_exp(Q) - M).max())
    if residual > tol.residual * scale_of(M):
        return None
    return GeneratorCandidate(Q, branch, construction, residual)


# ---------------------------------------------------------------------------
# closed-form logarithm coefficients (spectral mapping)
# ---------------------------------------------------------------------------


def _real_part(values, scale: float) -> list[float]:
    worst = max(abs(v.imag) for v in values)
    if worst > 1e-8 * max(1.0, scale):
        raise IllConditionedError(f"coefficients not real: imaginary size {worst:g}")
    return [float(v.real) for v in values]


def _require_positive(*lams: float) -> None:
    if min(lams) <= 0.0:
        raise DegenerateDenominatorError(
            "principal-branch formula needs positive eigenvalues"
        )


def _coeffs_two_distinct(mu: float, nu: float, tol: Tolerances) -> list[float]:
    _require_positive(1.0 + mu, 1.0 + nu)
    if abs(mu - nu) < tol.spec_cluster * max(1.0, abs(mu), abs(nu)):
        raise DegenerateDenominatorError("mu and nu coincide")
    if min(abs(mu), abs(nu)) < tol.spec_cluster:
        raise DegenerateDenominatorError("eigenvalue shift vanishes")
    den = mu * nu * (mu - nu)
    alpha = (mu**2 * math.log1p(nu) - nu**2 * math.log1p(mu)) / den
    beta = (-mu * math.log1p(nu) + nu * math.log1p(mu)) / den
    return [alpha, beta]


def _coeffs_jordan_pair(mu: float, tol: Tolerances) -> list[float]:
    _require_positive(1.0 + mu)
    if abs(mu) < tol.spec_cluster or abs(1.0 + mu) < tol.spec_cluster:
        raise DegenerateDenominatorError("degenerate shift in confluent pair")
    alpha = 2.0 * math.log1p(mu) / mu - 1.0 / (1.0 + mu)
    beta = 1.0 / (mu * (1.0 + mu)) - math.log1p(mu) / mu**2
    return [alpha, beta]


def _coeffs_complex_pair(lam: complex, k: int, tol: Tolerances) -> list[float]:
    mu = lam - 1.0
    if abs(mu.imag) < tol.spec_cluster:
        raise DegenerateDenominatorError("pair is not genuinely complex")
    zk = np.log(lam) + 2j * math.pi * k
    den = abs(mu) ** 2 * (mu.conjugate() - mu)
    alpha = (mu.conjugate() ** 2 * zk - mu**2 * zk.conjugate()) / den
    beta = (-mu.conjugate() * zk + mu * zk.conjugate()) / den
    return _real_part([alpha, beta], abs(zk))


def _coeffs_three_distinct(lams: list[float], tol: Tolerances) -> list[float]:
    _require_positive(*lams)
    mus = [lam - 1.0 for lam in lams]
    ms = []
    for i in range(3):
        m = mus[i]
        for j in range(3):
            if j != i:
                m *= mus[j] - mus[i]
        if abs(m) < tol.spec_cluster**2:
            raise DegenerateDenominatorError("near-coincident eigenvalues")
        ms.append(m)
    logs = [math.log(lam) for lam in lams]
    alpha = sum(
        (mus[(i + 1) % 3] * mus[(i + 2) % 3] / ms[i]) * logs[i] for i in range(3)
    )
    beta = -sum(((sum(mus) - mus[i]) / ms[i]) * logs[i] for i in range(3))
    gamma = sum(logs[i] / ms[i] for i in range(3))
    return [alpha, beta, gamma]


def _coeffs_real_plus_pair(
    lam: float, theta: complex, k: int, tol: Tolerances
) -> list[float]:
    _require_positive(lam)
    mu = lam - 1.0
    nu = theta - 1.0
    if abs(nu.imag) < tol.spec_cluster:
        raise DegenerateDenominatorError("pair is not genuinely complex")
    zk = np.log(theta) + 2j * math.pi * k
    m1 = mu * (mu - nu) * (mu - nu.conjugate())
    m2 = nu * (nu - mu) * (nu - nu.conjugate())
    m3 = nu.conjugate() * (nu.conjugate() - mu) * (nu.conjugate() - nu)
    if min(abs(m1), abs(m2)) < tol.spec_cluster**3:
        raise DegenerateDenominatorError("near-coincident eigenvalues")
    lg = math.log(lam)
    alpha = (abs(nu) ** 2 / m1) * lg + (mu * nu.conjugate() / m2) * zk + (
        mu * nu / m3
    ) * zk.conjugate()
    beta = (
        -((nu + nu.conjugate()) / m1) * lg
        - ((mu + nu.conjugate()) / m2) * zk
        - ((mu + nu) / m3) * zk.conjugate()
    )
    gamma = lg / m1 + zk / m2 + zk.conjugate() / m3
    return _real_part([alpha, beta, gamma], abs(zk) + abs(lg))


def _coeffs_jordan3(lam: float, tol: Tolerances) -> list[float]:
    _require_positive(lam)
    mu = lam - 1.0
    if abs(mu) < tol.spec_cluster:
        raise DegenerateDenominatorError("eigenvalue shift vanishes")
    rhs = np.array([math.log(lam), 1.0 / lam, -1.0 / lam**2])
    inv = np.array(
        [
            [3.0 / mu, -2.0, mu / 2.0],
            [-3.0 / mu**2, 3.0 / mu, -1.0],
            [1.0 / mu**3, -1.0 / mu**2, 1.0 / (2.0 * mu)],
        ]
    )
    return list(inv @ rhs)


def _coeffs_simple_plus_jordan(l1: float, l2: float, tol: Tolerances) -> list[float]:
    _require_positive(l1, l2)
    m1, m2 = l1 - 1.0, l2 - 1.0
    if abs(m1 - m2) < tol.spec_cluster or min(abs(m1), abs(m2)) < tol.spec_cluster:
        raise DegenerateDenominatorError("near-coincident eigenvalues")
    dd = (m1 - m2) ** 2
    inv = np.array(
        [
            [m2**2 / (m1 * dd), m1 * (2 * m1 - 3 * m2) / (m2 * dd), -m1 / (m1 - m2)],
            [-2 * m2 / (m1 * dd), (3 * m2**2 - m1**2) / (m2**2 * dd), (m1 + m2) / (m2 * (m1 - m2))],
            [1.0 / (m1 * dd), (m1 - 2 * m2) / (m2**2 * dd), -1.0 / (m2 * (m1 - m2))],
        ]
    )
    rhs = np.array([math.log(l1), math.log(l2), 1.0 / l2])
    return list(inv @ rhs)


def smt_coeffs(
    case: CaseTag,
    eigen_data: dict[str, complex] | None = None,
    k: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> list[float]:
    """Real coefficients c with poly_in(c, A) the branch-k real logarithm.

    Dispatches on the case pattern to the matching closed-form solution of
    the spectral-mapping equations.  Raises
    :class:`DegenerateDenominatorError` when eigenvalue differences or the
    denominators fall below the clustering threshold; callers reroute to
    the confluent variant or report Undecided.
    """
    eig = case.eigen if eigen_data is None else eigen_data
    p = case.pattern

    def real(key: str) -> float:
        return complex(eig[key]).real

    single = {
        Pattern.D2_SIMPLE,
        Pattern.D3_DEG2_1_1_L,
        Pattern.D3_DEG2_1_L_L_POS,
        Pattern.D3_DEG2_1_L_L_NEG,
        Pattern.D4_DEG2_TRIPLE_ONE,
        Pattern.D4_DEG2_TRIPLE_L,
        Pattern.D4_DEG2_DOUBLE_POS,
    }
    if p in single:
        lam = real("lambda")
        if lam <= 0.0 or lam >= 1.0:
            raise DegenerateDenominatorError(f"no principal branch at lambda={lam:g}")
        return [-math.log(lam) / (1.0 - lam)]
    if p in (
        Pattern.D3_SIMPLE_REAL,
        Pattern.D4_DEG3_TWO_ONES_DISTINCT,
        Pattern.D4_DEG3_DOUBLE_L2_POS,
    ):
        return _coeffs_two_distinct(real("lambda1") - 1.0, real("lambda2") - 1.0, tol)
    if p in (
        Pattern.D3_JORDAN2,
        Pattern.D4_DEG3_TWO_ONES_JORDAN,
        Pattern.D4_DEG3_L_JORDAN_L,
    ):
        return _coeffs_jordan_pair(real("lambda") - 1.0, tol)
    if p in (Pattern.D3_COMPLEX_PAIR, Pattern.D4_DEG3_COMPLEX):
        return _coeffs_complex_pair(complex(eig["lambda"]), k, tol)
    if p is Pattern.D4_SIMPLE_REAL:
        return _coeffs_three_distinct([real(f"lambda{i}") for i in (1, 2, 3)], tol)
    if p is Pattern.D4_SIMPLE_COMPLEX:
        return _coeffs_real_plus_pair(real("lambda"), complex(eig["theta"]), k, tol)
    if p is Pattern.D4_JORDAN3:
        return _coeffs_jordan3(real("lambda"), tol)
    if p is Pattern.D4_MIXED_JORDAN2:
        return _coeffs_simple_plus_jordan(real("lambda1"), real("lambda2"), tol)
    raise DegenerateDenominatorError(f"no coefficient formula for {p}")


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


def _nullspace(B: np.ndarray, tol: Tolerances) -> np.ndarray:
    _u, sv, vh = np.linalg.svd(B)
    threshold = tol.rank * sv[0] if sv[0] > 0 else np.inf
    ns = vh[sv < threshold].T
    if ns.shape[1] == 0:
        # fall back to the smallest singular direction
        ns = vh[-1:].T
    return ns


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return v if v[int(np.argmax(np.abs(v)))] >= 0 else -v


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
            ns = _nullspace(M - lam * np.eye(d), tol)
            if lam == 1.0:
                u = ones / math.sqrt(d)
                ns = ns - np.outer(u, u @ ns)
                q, r = np.linalg.qr(ns)
                ns = q[:, np.abs(np.diag(r)) > 1e-8]
            pools[lam] = [_fix_sign(ns[:, j]) for j in range(ns.shape[1])]
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
    """Row-wise cross products of two (n, 3) arrays."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def _sheet_roots(n1, h1, n2, h2) -> np.ndarray:
    """Both points of each line {n1 . p = h1, n2 . p = h2} on the sheet.

    The line is p0 + t u with u the unit direction; yz - x^2 = 1 along it
    is one quadratic in t, solved in the cancellation-free form, so a
    tangent line gives its double root and a line asymptotic to the sheet
    its single finite root.  Rounding that pushes a tangent line's
    discriminant below 0 is clamped, and every root is scaled in (y, z)
    back onto the sheet; lines that miss it give extra points of the sheet,
    which can only weaken an Infeasible verdict.
    """
    d = _cross(n1, n2)
    dd = (d * d).sum(axis=1)[:, None]
    p0 = (h1[:, None] * _cross(n2, d) + h2[:, None] * _cross(d, n1)) / dd
    u = d / np.sqrt(dd)
    qa = u[:, 1] * u[:, 2] - u[:, 0] ** 2
    qb = p0[:, 1] * u[:, 2] + p0[:, 2] * u[:, 1] - 2.0 * p0[:, 0] * u[:, 0]
    qc = p0[:, 1] * p0[:, 2] - p0[:, 0] ** 2 - 1.0
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    P = np.concatenate([p0 + (q / qa)[:, None] * u, p0 + (qc / q)[:, None] * u])
    P = P[(P[:, 1] > 0.0) & (P[:, 2] > 0.0)]
    P[:, 1:] *= np.sqrt((1.0 + P[:, :1] ** 2) / (P[:, 1:2] * P[:, 2:]))
    return P[np.isfinite(P).all(axis=1)]


def _sheet_search(
    rows: np.ndarray, tol: Tolerances
) -> tuple[SearchStatus, HyperbolaPoint | None]:
    """Is f + a x + b y + c z >= 0, for every row (f, a, b, c), at a point
    of the sheet?  Candidates and statuses are those of hyperbola_search."""
    f, N = rows[:, 0], rows[:, 1:]
    m = len(f)
    # the KKT points of y + z on {g_i = 0} and the sheet satisfy
    # det[(0, 1, 1); n_i; grad(yz - x^2)] = 2 (b_i - c_i) x - a_i y + a_i z = 0;
    # a normal parallel to (0, 1, 1) makes y + z constant on its conic, and
    # x = 0 then picks points of it
    K = np.column_stack([2.0 * (N[:, 1] - N[:, 2]), -N[:, 0], N[:, 0]])
    K[~K.any(axis=1)] = (1.0, 0.0, 0.0)
    i, j = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = np.vstack(
            [
                (0.0, 1.0, 1.0),
                _sheet_roots(
                    np.concatenate([N, N[i]]),
                    -np.concatenate([f, f[i]]),
                    np.concatenate([K, N[j]]),
                    -np.concatenate([np.zeros(m), f[j]]),
                ),
            ]
        )
    Ph = np.column_stack([np.ones(len(P)), P])
    violation = -(Ph @ rows.T).min(axis=1)
    best = int(np.argmin(violation))
    if violation[best] <= tol.nonneg:
        return SearchStatus.FOUND, HyperbolaPoint(*(float(v) for v in P[best]))
    # rounding allowance: 2^10 ulp of the largest term of g_i(p)
    rounding = 2.0**10 * np.finfo(float).eps * (np.abs(Ph) @ np.abs(rows).T).max(axis=1)
    if (violation > 10.0 * tol.nonneg + rounding).all():
        return SearchStatus.INFEASIBLE, None
    return SearchStatus.INCONCLUSIVE, None


def hyperbola_search(
    T: np.ndarray,
    fixed_block: object,
    log_modulus: float,
    angle: float,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[SearchStatus, HyperbolaPoint | None]:
    """Feasibility of R(x,y,z) = T (fixed + (log_modulus I + angle I_xyz)) T^-1.

    The last two columns of ``T`` must span the repeated-eigenvalue
    pair eigenspace; ``fixed_block`` is the leading log-domain block.  Each
    off-diagonal entry g_i of R is affine in p = (x, y, z), and R is a
    generator iff p lies in the polyhedron P = {g_i >= 0} and on the sheet
    H = {yz - x^2 = 1, z > 0}.

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

    Every constraint is evaluated at every candidate at once, and
    Found        -- the candidate with the most slack violates by at most
                    tol.nonneg; it is returned;
    Infeasible   -- every candidate violates by more than 10 tol.nonneg plus
                    a rounding allowance scaled by the coefficient sizes and
                    the candidate's size, so S is empty;
    Inconclusive -- otherwise: the best candidate sits in that band.
    """
    fixed = np.atleast_2d(np.asarray(fixed_block, dtype=float))
    rows = _sheet_constraints(T, fixed, log_modulus)
    return _sheet_search(rows * (1.0, angle, angle, angle), tol)


def rotation_log(
    T: np.ndarray,
    fixed_block: object,
    log_modulus: float,
    angle: float,
    point: HyperbolaPoint,
) -> np.ndarray:
    """Assemble the real logarithm a hyperbola point parametrises."""
    d = T.shape[0]
    block = np.zeros((d, d))
    block[: d - 2, : d - 2] = np.atleast_2d(np.asarray(fixed_block, float))
    block[d - 2 :, d - 2 :] = log_modulus * np.eye(2) + angle * np.array(
        [[point.x, -point.z], [point.y, -point.x]]
    )
    return T @ block @ np.linalg.inv(T)


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
    a, b = float(A[0, 1]), float(A[1, 0])
    s = a + b
    if s >= 1.0:
        return _not_embeddable(Reason.DET_NONPOSITIVE)
    if s <= 0.0:
        zero = GeneratorCandidate(np.zeros((2, 2)), 0, Construction.PRINCIPAL_LOG, 0.0)
        return _embeddable([zero], Uniqueness.UNIQUE)
    Q = (-math.log1p(-s) / s) * (A - np.eye(2))
    cand = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
    if cand is None:
        return _undecided(Reason.RESIDUAL_CHECK_FAILED)
    return _embeddable([cand], Uniqueness.UNIQUE)


def uniqueness_certificates(
    M: object, Q: object, tol: Tolerances = DEFAULT_TOL
) -> Uniqueness:
    """Global uniqueness certificates for a verified generator.

    Unique when min m_ii > 1/2 (the principal log is then the sole
    candidate), or when det(M) min m_ii > e^-pi prod m_ii; Unknown
    otherwise.  Both certificates read M alone; ``Q`` is not read.
    """
    A = as_matrix(M)
    diag = np.diag(A)
    if float(diag.min()) > 0.5:
        return Uniqueness.UNIQUE
    det = float(np.linalg.det(A))
    if det * float(diag.min()) > math.exp(-math.pi) * float(np.prod(diag)):
        return Uniqueness.UNIQUE
    return Uniqueness.UNKNOWN


def _gate(
    tag: CaseTag, lams: list[float], tol: Tolerances, culver: bool = True
) -> EmbeddingResult | None:
    """The sign gate: Undecided for an eigenvalue within tol.nonneg of 0 or 1,
    NotEmbeddable for a negative one if ``culver``, None when all pass."""
    for lam in lams:
        if abs(lam) <= tol.nonneg or abs(1.0 - lam) <= tol.nonneg:
            return _undecided(Reason.NEAR_BOUNDARY, tag)
        if culver and lam < 0.0:
            return _not_embeddable(Reason.NEGATIVE_EIGENVALUE_CULVER, tag)
    return None


def _lams(tag: CaseTag) -> list[float]:
    """Real parts of the tag's eigenvalues named lambda, lambda1, ..."""
    return [complex(tag.eigen[k]).real for k in sorted(tag.eigen) if k.startswith("lambda")]


def _rotation_branch_range(
    d: int, log_modulus: float, odd: bool, slack: float = 1e-9
) -> list[int]:
    """Branch indices k whose rotation angle fits the generator spectrum.

    Angles are 2k*pi (odd=False) or (2k+1)*pi (odd=True).  Every eigenvalue
    z of a d x d generator has |Im z| <= cot(pi/d) |Re z| (Runnenberg), so
    an angle is admissible while |angle| <= cot(pi/d) |log_modulus|
    (+ slack for boundary cases); cot(pi/3) = 1/sqrt(3), cot(pi/4) = 1.
    """
    cot = 1.0 / math.sqrt(3.0) if d == 3 else 1.0
    limit = cot * abs(log_modulus) * (1.0 + 1e-12) + slack
    ks = []
    if odd:
        n = 0
        while (2 * n + 1) * math.pi <= limit:
            ks.extend([n, -n - 1])
            n += 1
    else:
        n = 1
        while 2 * n * math.pi <= limit:
            ks.extend([n, -n])
            n += 1
    return sorted(ks)


def _search_pair_case(
    A, tag, fixed_eigs, pair_value, odd, principal, tol, all_branches
) -> EmbeddingResult:
    """Shared driver for cases whose extra logs live on the hyperbola.

    ``principal`` is a verified candidate or None.  With a principal
    generator in hand the extra branches only affect uniqueness and are
    searched on demand; without one they decide embeddability.
    """
    log_mod = math.log(abs(pair_value))
    ks = _rotation_branch_range(A.shape[0], log_mod, odd)
    gens = [principal] if principal is not None else []

    if principal is not None and not all_branches:
        if not ks:
            return _embeddable(gens, Uniqueness.UNIQUE, tag)
        u = uniqueness_certificates(A, principal.matrix, tol)
        u = Uniqueness.POSSIBLY_MORE if u is Uniqueness.UNKNOWN else u
        return _embeddable(gens, u, tag)

    if not ks and principal is None:
        return _not_embeddable(Reason.K_RANGE_EMPTY, tag)

    T = _pair_decomposition(A, fixed_eigs, pair_value, tol)
    # fixed log block: 0 for each unit eigenvalue, log(lam) otherwise
    fixed_block = np.diag([0.0] + [0.0 if l == 1.0 else math.log(l) for l in fixed_eigs])

    rows = _sheet_constraints(T, fixed_block, log_mod)
    inconclusive = False
    found_extra = False
    for k in ks:
        angle = (2 * k + 1) * math.pi if odd else 2 * k * math.pi
        status, point = _sheet_search(rows * (1.0, angle, angle, angle), tol)
        if status is SearchStatus.FOUND:
            Q = rotation_log(T, fixed_block, log_mod, angle, point)
            cand = _candidate(A, Q, k, Construction.HYPERBOLA, tol)
            if cand is not None:
                gens.append(cand)
                found_extra = True
            else:
                inconclusive = True
        elif status is SearchStatus.INCONCLUSIVE:
            inconclusive = True

    if gens:
        if len(gens) > 1:
            return _embeddable(gens, Uniqueness.MULTIPLE_KNOWN, tag)
        u = uniqueness_certificates(A, gens[0].matrix, tol)
        if u is Uniqueness.UNKNOWN:
            certified_alone = (
                principal is not None and not found_extra and not inconclusive
            )
            u = Uniqueness.UNIQUE if certified_alone else Uniqueness.POSSIBLY_MORE
        return _embeddable(gens, u, tag)
    if inconclusive:
        return _undecided(Reason.SEARCH_INCONCLUSIVE, tag)
    return _not_embeddable(Reason.NO_BRANCH_FEASIBLE, tag)


def _one_lambda(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool
) -> EmbeddingResult:
    """Minimal polynomial (x - 1)(x - lam): the principal logarithm is
    (-log lam / (1 - lam)) (A - I); further logarithms rotate a plane of a
    repeated lam, and each pattern keeps its own uniqueness rule."""
    p = tag.pattern
    d = A.shape[0]
    (lam,) = _lams(tag)
    stop = _gate(tag, [lam], tol)
    if stop is not None:
        return stop

    Q = (-math.log(lam) / (1.0 - lam)) * (A - np.eye(d))
    cand = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
    if cand is None:
        return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)
    # for d=3, extra rotational branches exist only for tiny lambda
    if p is Pattern.D4_DEG2_DOUBLE_POS or (
        p is Pattern.D3_DEG2_1_L_L_POS and _rotation_branch_range(3, math.log(lam), odd=False)
    ):
        return _search_pair_case(A, tag, [1.0] * (d - 3), lam, False, cand, tol, all_branches)
    # rotations inside the unit eigenspace of D3_DEG2_1_1_L and
    # D4_DEG2_TRIPLE_ONE would need purely imaginary generator eigenvalues,
    # which Gershgorin excludes
    if p is not Pattern.D4_DEG2_TRIPLE_L or not _rotation_branch_range(4, math.log(lam), odd=False):
        return _embeddable([cand], Uniqueness.UNIQUE, tag)
    if all_branches:
        # partial: scans one pair plane of the triple eigenspace, so only a
        # second generator is reported
        res = _search_pair_case(A, tag, [lam], lam, False, cand, tol, True)
        if len(res.generators) > 1:
            return res
    u = uniqueness_certificates(A, Q, tol)
    return _embeddable([cand], Uniqueness.POSSIBLY_MORE if u is Uniqueness.UNKNOWN else u, tag)


def _repeated_pair(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool
) -> EmbeddingResult:
    """A repeated pair beside the eigenvalue 1 and, at d=4, one more fixed
    eigenvalue (1 when the tag names only the pair): the principal
    logarithm when the pair is positive, and the rotations of the pair on
    the hyperbola (odd ones for a negative pair).  At d=3 this decides the
    equal-input matrices with a negative double eigenvalue exactly."""
    d = A.shape[0]
    *fixed, pair = _lams(tag)
    stop = _gate(tag, fixed, tol) or _gate(tag, [pair], tol, culver=False)
    if stop is not None:
        return stop
    principal = None
    if pair > 0.0:
        try:
            coeffs = smt_coeffs(tag, tol=tol)
        except DegenerateDenominatorError:
            return _undecided(Reason.ILL_CONDITIONED, tag)
        # a failed k = 0 candidate leaves the rotations at k != 0 to decide
        principal = _candidate(A, poly_in(coeffs, A - np.eye(d)), 0, Construction.POLY_SMT, tol)
    return _search_pair_case(
        A, tag, fixed or [1.0] * (d - 3), pair, pair < 0.0, principal, tol, all_branches
    )


def _principal_only(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool = False
) -> EmbeddingResult:
    """Cases where the principal polynomial logarithm is the sole candidate."""
    stop = _gate(tag, _lams(tag), tol)
    if stop is not None:
        return stop
    try:
        coeffs = smt_coeffs(tag, tol=tol)
    except DegenerateDenominatorError:
        return _undecided(Reason.ILL_CONDITIONED, tag)
    Q = poly_in(coeffs, A - np.eye(A.shape[0]))
    cand = _candidate(A, Q, 0, Construction.POLY_SMT, tol)
    if cand is not None:
        return _embeddable([cand], Uniqueness.UNIQUE, tag)
    if not is_generator(_zero_row_sums(Q), tol):
        return _not_embeddable(Reason.LOG_NOT_GENERATOR, tag)
    return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)


def _branch_interval(R0: np.ndarray, D: np.ndarray, tol: Tolerances) -> range:
    """The integers k with every off-diagonal entry of R0 + k D >= -tol.nonneg.

    D has zero row sums and eigenvalues +-2 pi i, so by Gershgorin neither D
    nor -D is a generator: its off-diagonal entries take both signs, and
    the interval is bounded.  A one-signed D is a numerical failure.
    """
    off = ~np.eye(len(D), dtype=bool)
    slack, step = R0[off] + tol.nonneg, D[off]
    up, down = step > 0.0, step < 0.0
    if not (up.any() and down.any()):
        raise IllConditionedError("branch step has off-diagonal entries of one sign")
    with np.errstate(over="ignore"):
        lo = float((-slack[up] / step[up]).max())
        hi = float((-slack[down] / step[down]).min())
    if (slack[~(up | down)] < 0.0).any() or lo > hi:
        return range(0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IllConditionedError("branch interval has no finite bound")
    return range(math.ceil(lo), math.floor(hi) + 1)


def _complex_branches(
    A: np.ndarray, tag: CaseTag, tol: Tolerances, all_branches: bool = False
) -> EmbeddingResult:
    """A complex-conjugate pair (theta beside a real lambda for
    D4_SIMPLE_COMPLEX).  The spectral-mapping coefficients are affine in
    the branch k, so the branch-k logarithm is R_0 + k D with
    D = poly_in(c(1) - c(0), A - I), and the generator branches are the
    integers of one interval; each is re-verified."""
    stop = _gate(tag, _lams(tag) if "theta" in tag.eigen else [], tol)
    if stop is not None:
        return stop
    r = abs(complex(tag.eigen.get("theta", tag.eigen.get("lambda"))))
    if r >= 1.0 - tol.nonneg:
        return _not_embeddable(Reason.UNIT_CIRCLE_EIGENVALUE, tag)
    if r <= tol.nonneg:
        return _not_embeddable(Reason.DET_NONPOSITIVE, tag)

    try:
        c0 = smt_coeffs(tag, k=0, tol=tol)
        c1 = smt_coeffs(tag, k=1, tol=tol)
    except DegenerateDenominatorError:
        return _undecided(Reason.ILL_CONDITIONED, tag)
    Ash = A - np.eye(A.shape[0])
    R0, D = poly_in(c0, Ash), poly_in(np.subtract(c1, c0), Ash)
    gens = []
    uncertain = False
    for k in _branch_interval(R0, D, tol):
        cand = _candidate(A, R0 + k * D, k, Construction.POLY_SMT, tol)
        if cand is not None:
            gens.append(cand)
        else:
            uncertain = True
    if not gens:
        if uncertain:
            return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)
        return _not_embeddable(Reason.NO_BRANCH_FEASIBLE, tag)
    u = Uniqueness.UNIQUE if len(gens) == 1 else Uniqueness.MULTIPLE_KNOWN
    return _embeddable(gens, u, tag)


# The decision table: one row per non-identity d=3/d=4 pattern, shared by
# ``decide``, ``embed_d4`` and the public d=3 deciders.  Each decider takes
# (A, tag, tol, all_branches) with A validated and tag = classify(A).
_DECIDERS = {
    Pattern.D3_DEG2_1_1_L: _one_lambda,
    Pattern.D3_DEG2_1_L_L_POS: _one_lambda,
    Pattern.D3_DEG2_1_L_L_NEG: _repeated_pair,
    Pattern.D3_SIMPLE_REAL: _principal_only,
    Pattern.D3_JORDAN2: _principal_only,
    Pattern.D3_COMPLEX_PAIR: _complex_branches,
    Pattern.D4_DEG2_TRIPLE_ONE: _one_lambda,
    Pattern.D4_DEG2_TRIPLE_L: _one_lambda,
    Pattern.D4_DEG2_DOUBLE_POS: _one_lambda,
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


def _tagged(M: object, tag: CaseTag | None, tol: Tolerances) -> tuple[np.ndarray, CaseTag]:
    return as_matrix(M), classify(M, tol) if tag is None else tag


def embed_d3_deg2(
    M: object,
    tag: CaseTag | None = None,
    tol: Tolerances = DEFAULT_TOL,
    all_branches: bool = False,
) -> EmbeddingResult:
    """d=3 with minimal polynomial degree 2: the one-eigenvalue logarithm,
    and for a negative repeated eigenvalue (an equal-input matrix with
    c > 1) the odd rotations of the pair on the hyperbola."""
    A, tag = _tagged(M, tag, tol)
    return _DECIDERS[tag.pattern](A, tag, tol, all_branches)


def embed_d3_cyclic_real(
    M: object, tag: CaseTag | None = None, tol: Tolerances = DEFAULT_TOL
) -> EmbeddingResult:
    """d=3 cyclic with real spectrum: positive eigenvalues and a generator
    polynomial logarithm are jointly necessary and sufficient."""
    return _principal_only(*_tagged(M, tag, tol), tol)


def embed_d3_complex(
    M: object, tag: CaseTag | None = None, tol: Tolerances = DEFAULT_TOL
) -> EmbeddingResult:
    """d=3 with a complex-conjugate pair: every branch logarithm in the
    interval of k where its rates are nonnegative."""
    return _complex_branches(*_tagged(M, tag, tol), tol)


def embed_d4(
    M: object,
    tag: CaseTag | None = None,
    tol: Tolerances = DEFAULT_TOL,
    all_branches: bool = False,
) -> EmbeddingResult:
    """Case dispatch for d=4 (everything except the identity)."""
    A, tag = _tagged(M, tag, tol)
    if tag.pattern not in _DECIDERS or not tag.pattern.name.startswith("D4"):
        raise MarkovEmbedError(f"embed_d4 cannot handle pattern {tag.pattern}")
    return _DECIDERS[tag.pattern](A, tag, tol, all_branches)


def decide(
    M: object,
    tol: Tolerances = DEFAULT_TOL,
    all_branches: bool = False,
) -> EmbeddingResult:
    """Full embeddability decision for a Markov matrix of dimension 2-4.

    Validates the input, takes the zero generator within the residual
    tolerance of the identity, and otherwise analyses the matrix once
    (spectrum, Jordan structure, case tag), screens that analysis for the
    necessary conditions (d >= 3; rejections carry the case tag) and runs
    the case decider that the decision table holds for its pattern.
    Numerical failures (ill-conditioned Jordan decisions, inconclusive
    searches, boundary-ambiguous eigenvalues) surface as Undecided with a
    reason, never as NotEmbeddable.
    """
    A = as_matrix(M)
    if not is_markov(A, tol):
        raise ValueError("decide expects a Markov matrix")
    d = A.shape[0]

    # inside the residual certificate the zero generator already embeds the
    # matrix; eigenvalue multiplicities are unresolvable this close to the
    # identity, so skip classification entirely
    gap = float(np.abs(A - np.eye(d)).max())
    if gap <= tol.residual:
        tag = CaseTag(d, 1, getattr(Pattern, f"D{d}_IDENTITY"))
        zero = GeneratorCandidate(np.zeros((d, d)), 0, Construction.PRINCIPAL_LOG, gap)
        return _embeddable([zero], Uniqueness.UNIQUE, tag)

    try:
        analysis = analyse(A, tol)
    except (IllConditionedError, ClassificationError):
        return _undecided(Reason.ILL_CONDITIONED)
    tag = analysis.tag

    if tag.pattern in (Pattern.D2_IDENTITY, Pattern.D3_IDENTITY, Pattern.D4_IDENTITY):
        return _undecided(Reason.RESIDUAL_CHECK_FAILED, tag)

    if A.shape[0] == 2:
        return dataclasses.replace(embed_d2(A, tol), case=tag)

    report = screen(A, analysis.jordan.blocks, tol)
    if not report.det_positive:
        return _not_embeddable(Reason.DET_NONPOSITIVE, tag)
    if not report.diag_positive:
        return _not_embeddable(Reason.ZERO_DIAGONAL, tag)
    if not report.unit_circle_ok:
        return _not_embeddable(Reason.UNIT_CIRCLE_EIGENVALUE, tag)
    if not report.culver_ok:
        return _not_embeddable(Reason.NEGATIVE_EIGENVALUE_CULVER, tag)
    if not report.transitivity_ok:
        return _not_embeddable(Reason.TRANSITIVITY_VIOLATION, tag)

    try:
        return _DECIDERS[tag.pattern](A, tag, tol, all_branches)
    except (IllConditionedError, DegenerateDenominatorError):
        return _undecided(Reason.ILL_CONDITIONED, tag)
