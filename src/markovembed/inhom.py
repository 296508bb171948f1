"""Time-inhomogeneous toolkit: flows, series solutions, Poisson factors.

Solves the row-convention initial value problem dM/dt = M Q(t), M(0) = I,
for piecewise-constant generator schedules (exact products of matrix
exponentials) and via the iterated-integral series (Peano-Baker), plus the
determinant identity, Poisson matrix factor algebra, and the d=3 criteria
for embeddability in the generalised (time-inhomogeneous) sense.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .errors import (
    DimensionError,
    IllConditionedError,
    NotConvergedError,
    NotTotallyPositiveError,
)
from .kernel import DEFAULT_TOL, Tolerances, as_matrix, is_generator, is_markov, mat_exp


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Generator schedule: piecewise constant segments, or a sampled family.

    Piecewise constant: ordered (Q, duration) segments, durations > 0.
    Sampled: values Q(j*h) on a uniform grid, step h > 0 (the function is
    treated as smooth between samples).
    """

    segments: tuple[tuple[np.ndarray, float], ...] = ()
    samples: np.ndarray | None = None
    step: float | None = None

    @staticmethod
    def piecewise_constant(
        parts: list[tuple[object, float]], tol: Tolerances = DEFAULT_TOL
    ) -> "Schedule":
        segs = []
        for Q, dur in parts:
            A = as_matrix(Q)
            if not is_generator(A, tol):
                raise ValueError("every schedule segment must be a generator")
            if not dur > 0.0:
                raise ValueError("durations must be positive")
            segs.append((A, float(dur)))
        if not segs:
            raise ValueError("schedule needs at least one segment")
        dims = {s[0].shape[0] for s in segs}
        if len(dims) != 1:
            raise DimensionError("all segments must share one dimension")
        return Schedule(segments=tuple(segs))

    @staticmethod
    def sampled(
        values: object, step: float, tol: Tolerances = DEFAULT_TOL
    ) -> "Schedule":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 3 or arr.shape[0] < 2:
            raise ValueError("need at least two samples of shape (n, d, d)")
        if not step > 0.0:
            raise ValueError("step must be positive")
        for Q in arr:
            if not is_generator(Q, tol):
                raise ValueError("every sample must be a generator")
        return Schedule(samples=arr, step=float(step))

    @property
    def is_sampled(self) -> bool:
        return self.samples is not None

    @property
    def dim(self) -> int:
        if self.is_sampled:
            return self.samples.shape[1]
        return self.segments[0][0].shape[0]

    @property
    def span(self) -> float:
        if self.is_sampled:
            return self.step * (self.samples.shape[0] - 1)
        return sum(d for _, d in self.segments)


def evolve(s: Schedule) -> np.ndarray:
    """exp(d1 Q1) exp(d2 Q2) ... in segment order (earliest factor leftmost,
    matching the row convention dM/dt = M Q)."""
    if s.is_sampled:
        raise ValueError("evolve requires a piecewise-constant schedule")
    M = np.eye(s.dim)
    for Q, dur in s.segments:
        M = M @ mat_exp(dur * Q)
    return M


def _sample_grid(s: Schedule, t: float, max_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and generator values on a grid aligned with segment boundaries.

    Every panel lies inside one segment, so the integrands below are smooth
    on each panel and composite Simpson keeps its full order; constant
    segments make the leading integral exact.
    """
    if s.is_sampled:
        n = s.samples.shape[0] - 1
        idx = min(n, int(math.ceil(t / s.step - 1e-12)))
        times = np.arange(idx + 1) * s.step
        values = s.samples[: idx + 1]
        if times[-1] > t + 1e-12:
            raise ValueError("t must align with the sampling grid")
        return times, values

    # segment boundary nodes are duplicated, once with each side's
    # generator, so the jump never sits inside a quadrature panel
    times: list[float] = []
    values: list[np.ndarray] = []
    elapsed = 0.0
    remaining = t
    for Q, dur in s.segments:
        if remaining <= 1e-15:
            break
        d = min(dur, remaining)
        n = max(2, 2 * int(math.ceil(d / (2.0 * max_step))))
        local = elapsed + np.linspace(0.0, d, n + 1)
        times.extend(local.tolist())
        values.extend([Q] * (n + 1))
        elapsed += d
        remaining -= d
    return np.asarray(times), np.stack(values)


def _cumulative_simpson(times: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Cumulative integral of matrix samples F(t_j) along axis 0.

    Pairs of intervals integrate with a three-point parabolic rule; the
    half-panel values use the same stencil, so the result is available at
    every node.
    """
    n = len(times) - 1
    out = np.zeros_like(F)
    acc = np.zeros_like(F[0])
    j = 0
    while j < n:
        if times[j + 1] - times[j] == 0.0:
            # duplicated boundary node: carry the accumulator across
            out[j + 1] = acc
            j += 1
            continue
        if j + 2 <= n:
            h1 = times[j + 1] - times[j]
            h2 = times[j + 2] - times[j + 1]
            f0, f1, f2 = F[j], F[j + 1], F[j + 2]
            a0 = h1 * (3.0 * h2 + 2.0 * h1) / (6.0 * (h1 + h2))
            a1 = h1 * (3.0 * h2 + h1) / (6.0 * h2)
            a2 = -(h1**3) / (6.0 * h2 * (h1 + h2))
            out[j + 1] = acc + a0 * f0 + a1 * f1 + a2 * f2
            b0 = (h1 + h2) * (2.0 * h1 - h2) / (6.0 * h1)
            b1 = (h1 + h2) ** 3 / (6.0 * h1 * h2)
            b2 = (h1 + h2) * (2.0 * h2 - h1) / (6.0 * h2)
            acc = acc + b0 * f0 + b1 * f1 + b2 * f2
            out[j + 2] = acc
            j += 2
        else:
            # trailing single interval: trapezoid (grids are built even)
            h1 = times[j + 1] - times[j]
            acc = acc + 0.5 * h1 * (F[j] + F[j + 1])
            out[j + 1] = acc
            j += 1
    return out


def peano_baker(
    s: Schedule,
    t: float,
    max_terms: int = 200,
    tol: float = 1e-12,
    grid_step: float = 0.01,
) -> np.ndarray:
    """Iterated-integral series solution of dM/dt = M Q(t) at time t.

    Terms satisfy I_{n+1}(t) = integral of I_n Q; each has zero row sums,
    so the partial sums keep unit row sums.  Truncates when the newest
    term drops below ``tol`` in max norm; raises
    :class:`NotConvergedError` at ``max_terms``, and
    :class:`IllConditionedError` when a term's row sums drift from zero.
    """
    if not 0.0 <= t <= s.span + 1e-12:
        raise ValueError("t outside the schedule span")
    if t == 0.0:
        return np.eye(s.dim)
    times, values = _sample_grid(s, t, grid_step)
    d = s.dim

    total = np.eye(d)
    # I_n at every grid node; start with I_0 = identity
    term = np.broadcast_to(np.eye(d), values.shape).copy()
    for _ in range(max_terms):
        integrand = np.einsum("tij,tjk->tik", term, values)
        term = _cumulative_simpson(times, integrand)
        size = float(np.abs(term[-1]).max())
        drift = float(np.abs(term[-1].sum(axis=1)).max())
        if drift > 1e-8 * max(1.0, size):
            raise IllConditionedError(f"series term row sums drifted to {drift:g}")
        total = total + term[-1]
        if size < tol:
            return total
    raise NotConvergedError(f"series term still {size:g} after {max_terms} terms")


def liouville_det(s: Schedule, t: float, grid_step: float = 0.01) -> float:
    """exp of the integrated trace of Q; equals det(M(t)) and lies in (0, 1]."""
    if not 0.0 <= t <= s.span + 1e-12:
        raise ValueError("t outside the schedule span")
    if s.is_sampled:
        times, values = _sample_grid(s, t, grid_step)
        traces = np.trace(values, axis1=1, axis2=2)
        acc = _cumulative_simpson(times, traces.reshape(-1, 1, 1))
        return float(math.exp(acc[-1, 0, 0]))
    remaining = t
    acc = 0.0
    for Q, dur in s.segments:
        if remaining <= 0.0:
            break
        d = min(dur, remaining)
        acc += d * float(np.trace(Q))
        remaining -= d
    return math.exp(acc)


@dataclasses.dataclass(frozen=True)
class PoissonFactor:
    """Elementary factor I - a E_ii + a E_ij; singular exactly at a = 1."""

    i: int
    j: int
    a: float

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("indices must differ")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("parameter must lie in [0, 1]")


def poisson_matrix(f: PoissonFactor, dim: int = 3) -> np.ndarray:
    if not (0 <= f.i < dim and 0 <= f.j < dim):
        raise DimensionError("factor indices outside the dimension")
    M = np.eye(dim)
    M[f.i, f.i] -= f.a
    M[f.i, f.j] += f.a
    return M


def bangbang_product(fs: list[PoissonFactor], dim: int = 3) -> np.ndarray:
    M = np.eye(dim)
    for f in fs:
        M = M @ poisson_matrix(f, dim)
    return M


def g_necessary(M: object, tol: Tolerances = DEFAULT_TOL) -> bool:
    """prod(m_ii) >= det(M) > 0, necessary for the generalised embedding."""
    A = as_matrix(M)
    det = float(np.linalg.det(A))
    return bool(det > 0.0 and float(np.prod(np.diag(A))) >= det)


def _minor(A: np.ndarray, i: int, j: int) -> float:
    sub = np.delete(np.delete(A, i, axis=0), j, axis=1)
    return float(np.linalg.det(sub))


def b_quantity(M: object, tol: Tolerances = DEFAULT_TOL) -> float:
    """max over index pairs of (m_ii m_jj / m_ij) * signed minor, d=3 only.

    The sign is (-1)^(i+j+delta_ij-1) with rows and columns counted from 1.
    Requires a totally positive matrix.
    """
    A = as_matrix(M)
    if A.shape[0] != 3:
        raise DimensionError("defined for d=3 only")
    if A.min() <= tol.nonneg:
        raise NotTotallyPositiveError("requires all entries strictly positive")
    best = -np.inf
    for i in range(3):
        for j in range(3):
            sign = (-1) ** ((i + 1) + (j + 1) + (1 if i == j else 0) - 1)
            val = A[i, i] * A[j, j] / A[i, j] * sign * _minor(A, i, j)
            best = max(best, val)
    return float(best)


class GVerdict(enum.Enum):
    G_EMBEDDABLE = "GEmbeddable"
    NOT_G_EMBEDDABLE = "NotGEmbeddable"
    UNDECIDED = "Undecided"


@dataclasses.dataclass(frozen=True)
class GReport:
    necessary_ok: bool
    b_quantity: float | None
    verdict: GVerdict
    factor_bound: int | None = None
    factors: tuple[PoissonFactor, ...] | None = None

    def __post_init__(self) -> None:
        if self.verdict is GVerdict.G_EMBEDDABLE and not self.necessary_ok:
            raise ValueError("GEmbeddable requires the necessary condition")


def g_embed_d3(M: object, tol: Tolerances = DEFAULT_TOL) -> GReport:
    """Generalised (time-inhomogeneous) embeddability for d=3.

    A zero off-diagonal entry reduces the problem to the necessary
    determinant inequality (factor bound 5).  Totally positive matrices are
    decided by comparing the weighted-minor maximum against det(M) (factor
    bound 6); below that threshold the published criteria are not
    reproduced here, so the verdict is Undecided with the generic factor
    bounds attached for information.
    """
    A = as_matrix(M)
    if A.shape[0] != 3:
        raise DimensionError("defined for d=3 only")
    if not is_markov(A, tol):
        raise ValueError("g_embed_d3 expects a Markov matrix")

    det = float(np.linalg.det(A))
    necessary = g_necessary(A, tol)
    if det <= 0.0:
        return GReport(necessary, None, GVerdict.NOT_G_EMBEDDABLE)

    off = [A[i, j] for i in range(3) for j in range(3) if i != j]
    if min(off) <= tol.nonneg:
        if necessary:
            return GReport(True, None, GVerdict.G_EMBEDDABLE, factor_bound=5)
        return GReport(False, None, GVerdict.NOT_G_EMBEDDABLE)

    if not necessary:
        return GReport(False, None, GVerdict.NOT_G_EMBEDDABLE)

    b = b_quantity(A, tol)
    if b >= det:
        return GReport(True, b, GVerdict.G_EMBEDDABLE, factor_bound=6)

    # remaining region: criteria out of scope; attach the generic bounds
    generic = 6 * int(math.ceil(math.log(det) / math.log(0.5)))
    bound = generic
    k = 2
    while k < 60:
        lo_a, hi_a = 1.0 / (2.0 * 8.0 ** (k - 1)), 1.0 / 8.0 ** (k - 1)
        lo_b, hi_b = 1.0 / 8.0**k, 1.0 / (2.0 * 8.0 ** (k - 1))
        if lo_a <= det < hi_a:
            bound = min(generic, 5 * k - 2)
            break
        if lo_b <= det < hi_b:
            bound = min(generic, 5 * k - 1)
            break
        k += 1
    return GReport(True, b, GVerdict.UNDECIDED, factor_bound=bound)


def star_point(dim: int) -> np.ndarray:
    """The rank-one idempotent Markov matrix with all entries 1/dim."""
    if dim not in (2, 3, 4):
        raise DimensionError(f"dimension {dim} not in {{2, 3, 4}}")
    return np.full((dim, dim), 1.0 / dim)
