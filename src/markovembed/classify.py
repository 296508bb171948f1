"""Case classification for Markov matrices of dimension 2-4.

Every Markov matrix maps to exactly one case pattern determined by its
dimension, minimal-polynomial degree and Jordan structure.  The patterns
drive the decision engine's dispatch.  ``analyse`` is the one analysis
pass (a single ``jordan_structure``, which computes the spectrum once, and
the case lookup on it); ``screen`` reads that pass's eigenvalues and block
sizes for the cheap exclusions that rule out embeddability before any
logarithm is attempted.  ``classify`` and ``necessary_checks`` are their
validating public forms.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import ClassificationError, IllConditionedError
from .kernel import (
    DEFAULT_TOL,
    JordanStructure,
    Tolerances,
    as_matrix,
    eigenvalues,
    is_markov,
    jordan_structure,
)


class Pattern(enum.Enum):
    D2_IDENTITY = "D2_IDENTITY"
    D2_SIMPLE = "D2_SIMPLE"

    D3_IDENTITY = "D3_IDENTITY"
    D3_DEG2_1_1_L = "D3_DEG2_1_1_L"
    D3_DEG2_1_L_L_POS = "D3_DEG2_1_L_L_POS"
    D3_DEG2_1_L_L_NEG = "D3_DEG2_1_L_L_NEG"
    D3_SIMPLE_REAL = "D3_SIMPLE_REAL"
    D3_JORDAN2 = "D3_JORDAN2"
    D3_COMPLEX_PAIR = "D3_COMPLEX_PAIR"

    D4_IDENTITY = "D4_IDENTITY"
    D4_DEG2_TRIPLE_ONE = "D4_DEG2_TRIPLE_ONE"
    D4_DEG2_TRIPLE_L = "D4_DEG2_TRIPLE_L"
    D4_DEG2_DOUBLE_POS = "D4_DEG2_DOUBLE_POS"
    D4_DEG2_DOUBLE_NEG = "D4_DEG2_DOUBLE_NEG"
    D4_DEG3_TWO_ONES_DISTINCT = "D4_DEG3_TWO_ONES_DISTINCT"
    D4_DEG3_TWO_ONES_JORDAN = "D4_DEG3_TWO_ONES_JORDAN"
    D4_DEG3_L_JORDAN_L = "D4_DEG3_L_JORDAN_L"
    D4_DEG3_DOUBLE_L2_POS = "D4_DEG3_DOUBLE_L2_POS"
    D4_DEG3_DOUBLE_L2_NEG = "D4_DEG3_DOUBLE_L2_NEG"
    D4_DEG3_COMPLEX = "D4_DEG3_COMPLEX"
    D4_SIMPLE_REAL = "D4_SIMPLE_REAL"
    D4_SIMPLE_COMPLEX = "D4_SIMPLE_COMPLEX"
    D4_JORDAN3 = "D4_JORDAN3"
    D4_MIXED_JORDAN2 = "D4_MIXED_JORDAN2"


@dataclasses.dataclass(frozen=True)
class CaseTag:
    """One row of the case tables: pattern plus its named eigenvalues."""

    dim: int
    min_poly_degree: int
    pattern: Pattern
    eigen: dict[str, complex] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class NecessaryReport:
    """Cheap necessary conditions; any False flag excludes embeddability."""

    diag_positive: bool
    det_positive: bool
    unit_circle_ok: bool
    culver_ok: bool
    transitivity_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.diag_positive
            and self.det_positive
            and self.unit_circle_ok
            and self.culver_ok
            and self.transitivity_ok
        )


def _non_unit(js: JordanStructure) -> list[tuple[complex, tuple[int, ...]]]:
    return [(z, s) for z, s in js.blocks if z != 1.0]


def _sole(blocks):
    if len(blocks) != 1:
        raise ClassificationError(f"expected one non-unit eigenvalue, got {blocks}")
    return blocks[0]


def _classify_d2(js: JordanStructure) -> CaseTag:
    if js.min_poly_degree == 1:
        return CaseTag(2, 1, Pattern.D2_IDENTITY)
    lam, _sizes = _sole(_non_unit(js))
    return CaseTag(2, 2, Pattern.D2_SIMPLE, {"lambda": lam})


def _classify_d3(js: JordanStructure) -> CaseTag:
    deg = js.min_poly_degree
    if deg == 1:
        return CaseTag(3, 1, Pattern.D3_IDENTITY)
    others = _non_unit(js)
    if deg == 2:
        lam, sizes = _sole(others)
        if sum(sizes) == 1:
            return CaseTag(3, 2, Pattern.D3_DEG2_1_1_L, {"lambda": lam})
        pat = Pattern.D3_DEG2_1_L_L_POS if lam.real >= 0.0 else Pattern.D3_DEG2_1_L_L_NEG
        return CaseTag(3, 2, pat, {"lambda": lam})
    if deg == 3:
        cplx = [z for z, _ in others if z.imag > 0.0]
        if cplx:
            return CaseTag(3, 3, Pattern.D3_COMPLEX_PAIR, {"lambda": cplx[0]})
        if len(others) == 2:
            l1, l2 = sorted((z.real for z, _ in others), reverse=True)
            return CaseTag(3, 3, Pattern.D3_SIMPLE_REAL, {"lambda1": l1, "lambda2": l2})
        lam, sizes = _sole(others)
        if sizes == (2,):
            return CaseTag(3, 3, Pattern.D3_JORDAN2, {"lambda": lam})
    raise ClassificationError(f"no d=3 pattern for blocks {js.blocks}")


def _classify_d4(js: JordanStructure) -> CaseTag:
    deg = js.min_poly_degree
    if deg == 1:
        return CaseTag(4, 1, Pattern.D4_IDENTITY)
    others = _non_unit(js)
    unit_mult = sum(sum(s) for z, s in js.blocks if z == 1.0)

    if deg == 2:
        lam, sizes = _sole(others)
        if unit_mult == 3:
            return CaseTag(4, 2, Pattern.D4_DEG2_TRIPLE_ONE, {"lambda": lam})
        if sum(sizes) == 3:
            return CaseTag(4, 2, Pattern.D4_DEG2_TRIPLE_L, {"lambda": lam})
        pat = (
            Pattern.D4_DEG2_DOUBLE_POS if lam.real >= 0.0 else Pattern.D4_DEG2_DOUBLE_NEG
        )
        return CaseTag(4, 2, pat, {"lambda": lam})

    if deg == 3:
        cplx = [z for z, _ in others if z.imag > 0.0]
        if cplx:
            return CaseTag(4, 3, Pattern.D4_DEG3_COMPLEX, {"lambda": cplx[0]})
        if unit_mult == 2:
            if len(others) == 2:
                l1, l2 = sorted((z.real for z, _ in others), reverse=True)
                return CaseTag(
                    4, 3, Pattern.D4_DEG3_TWO_ONES_DISTINCT, {"lambda1": l1, "lambda2": l2}
                )
            (lam, sizes), = others
            if sizes == (2,):
                return CaseTag(4, 3, Pattern.D4_DEG3_TWO_ONES_JORDAN, {"lambda": lam})
        else:
            if len(others) == 1:
                (lam, sizes), = others
                if sizes == (2, 1):
                    return CaseTag(4, 3, Pattern.D4_DEG3_L_JORDAN_L, {"lambda": lam})
            if len(others) == 2:
                simple = [z for z, s in others if sum(s) == 1]
                double = [(z, s) for z, s in others if sum(s) == 2]
                if len(simple) == 1 and len(double) == 1 and double[0][1] == (1, 1):
                    l2 = double[0][0].real
                    pat = (
                        Pattern.D4_DEG3_DOUBLE_L2_POS
                        if l2 >= 0.0
                        else Pattern.D4_DEG3_DOUBLE_L2_NEG
                    )
                    return CaseTag(
                        4, 3, pat, {"lambda1": simple[0].real, "lambda2": l2}
                    )

    if deg == 4:
        cplx = sorted((z for z, _ in others if z.imag > 0.0), key=lambda z: -z.real)
        reals = sorted((z.real for z, s in others if z.imag == 0.0), reverse=True)
        if len(cplx) == 1 and len(reals) == 1:
            return CaseTag(
                4, 4, Pattern.D4_SIMPLE_COMPLEX, {"lambda": reals[0], "theta": cplx[0]}
            )
        if len(cplx) == 0 and len(reals) == 3:
            l1, l2, l3 = reals
            return CaseTag(
                4, 4, Pattern.D4_SIMPLE_REAL,
                {"lambda1": l1, "lambda2": l2, "lambda3": l3},
            )
        if len(others) == 1:
            (lam, sizes), = others
            if sizes == (3,):
                return CaseTag(4, 4, Pattern.D4_JORDAN3, {"lambda": lam})
        if len(others) == 2:
            jordan = [(z, s) for z, s in others if s == (2,)]
            plain = [z for z, s in others if s == (1,)]
            if len(jordan) == 1 and len(plain) == 1:
                return CaseTag(
                    4, 4, Pattern.D4_MIXED_JORDAN2,
                    {"lambda1": plain[0].real, "lambda2": jordan[0][0].real},
                )

    raise ClassificationError(f"no d=4 pattern for blocks {js.blocks}")


@dataclasses.dataclass(frozen=True)
class Analysis:
    """One matrix's Jordan structure and the case it selects."""

    jordan: JordanStructure
    tag: CaseTag


def analyse(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """Jordan structure and case pattern of a validated Markov array.

    Raises as :func:`classify` does; the caller has already checked that
    ``A`` comes from :func:`as_matrix` and passes :func:`is_markov`.
    """
    js = jordan_structure(A, tol)
    # Markov spectra live in the closed unit disk; computed roots clearly
    # outside it signal an ill-conditioned (near-multiple) root problem
    for z, _sizes in js.blocks:
        if abs(z) > 1.0 + 100.0 * tol.spec_cluster:
            raise IllConditionedError(f"computed eigenvalue {z} outside the unit disk")
    by_dim = {2: _classify_d2, 3: _classify_d3, 4: _classify_d4}
    return Analysis(jordan=js, tag=by_dim[A.shape[0]](js))


def classify(M: object, tol: Tolerances = DEFAULT_TOL) -> CaseTag:
    """Map a Markov matrix to its unique case pattern.

    Raises :class:`IllConditionedError` (propagated from the Jordan
    analysis) when multiplicity decisions sit too close to the rank
    threshold, and :class:`ClassificationError` for Jordan data no Markov
    matrix can produce.
    """
    A = as_matrix(M)
    if not is_markov(A, tol):
        raise ValueError("classify expects a Markov matrix")
    return analyse(A, tol).tag


def screen(A: np.ndarray, blocks, tol: Tolerances = DEFAULT_TOL) -> NecessaryReport:
    """``necessary_checks`` on a validated array and its eigenvalues.

    ``blocks`` is :attr:`JordanStructure.blocks`; the block sizes are read
    only when det(A) != 0 (a singular matrix fails Culver's condition).
    """
    d = A.shape[0]

    diag_positive = bool(np.diag(A).min() > tol.nonneg)
    det = float(np.linalg.det(A))
    det_positive = det > 0.0

    unit_circle_ok = all(z == 1.0 or abs(z) < 1.0 - tol.nonneg for z, _ in blocks)

    culver_ok = abs(det) > 0.0
    if culver_ok:
        for z, sizes in blocks:
            if z.imag == 0.0 and z.real < -tol.nonneg:
                for s in set(sizes):
                    if sizes.count(s) % 2 != 0:
                        culver_ok = False

    positive = A > tol.nonneg
    transitivity_ok = True
    for i in range(d):
        for k in range(d):
            if not positive[i, k]:
                continue
            for j in range(d):
                if positive[k, j] and not positive[i, j]:
                    transitivity_ok = False

    return NecessaryReport(
        diag_positive=diag_positive,
        det_positive=det_positive,
        unit_circle_ok=unit_circle_ok,
        culver_ok=culver_ok,
        transitivity_ok=transitivity_ok,
    )


def necessary_checks(M: object, tol: Tolerances = DEFAULT_TOL) -> NecessaryReport:
    """Spectral and combinatorial conditions every embeddable matrix satisfies.

    diag_positive   : all diagonal entries strictly positive
    det_positive    : det(M) > 0
    unit_circle_ok  : every eigenvalue != 1 has modulus < 1
    culver_ok       : nonsingular, and Jordan blocks of negative eigenvalues
                      occur with even multiplicity per block size
    transitivity_ok : m_ik > 0 and m_kj > 0 imply m_ij > 0

    The Jordan analysis runs only for a nonsingular M.
    """
    A = as_matrix(M)
    if float(np.linalg.det(A)) != 0.0:
        blocks = jordan_structure(A, tol).blocks
    else:
        blocks = tuple((z, ()) for z, _m in eigenvalues(A, tol).roots)
    return screen(A, blocks, tol)
