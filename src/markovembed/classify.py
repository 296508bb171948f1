"""Case classification for Markov matrices of dimension 2-4.

A Markov matrix's case pattern is the row of one case table, ``_CASES``,
that holds its Jordan signature: the block sizes of the eigenvalue 1 and
the kind (real or complex) and block sizes of each other eigenvalue.  The
patterns drive the decision engine's dispatch, and the same row gives the
engine each named eigenvalue's index and kind.  The necessary conditions
screen in two parts: the entries alone (det, and ``sign_screen``'s
diagonal and sign pattern, which ``decide`` forms only for det > 0) before
any spectral work; ``analyse`` is the one analysis
pass (a single ``jordan_structure``, which computes the spectrum once,
and the case lookup on it), and ``spectral_screen`` reads its eigenvalues
and block sizes.  ``classify`` and ``necessary_checks`` are their
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
    _is_markov,
    as_matrix,
    eigenvalues,
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
        return all(getattr(self, f.name) for f in dataclasses.fields(self))


# The case table: each pattern's Jordan signature.  A row holds the block
# sizes of the eigenvalue 1 and, for each other eigenvalue, its name in the
# tag, its kind and its block sizes.  Kinds: "r" a real eigenvalue, "+" or
# "-" a real double eigenvalue with 1x1 blocks by its sign, "c" a complex
# pair, named by its member with Im > 0.  Each row lists its eigenvalues in
# the order of _case_tag's sort; equal kinds and sizes go by descending
# real part (lambda1 > lambda2 > ...).
_CASES = {
    Pattern.D2_IDENTITY: ((1, 1), ()),
    Pattern.D2_SIMPLE: ((1,), (("lambda", "r", (1,)),)),
    Pattern.D3_IDENTITY: ((1, 1, 1), ()),
    Pattern.D3_DEG2_1_1_L: ((1, 1), (("lambda", "r", (1,)),)),
    Pattern.D3_DEG2_1_L_L_POS: ((1,), (("lambda", "+", (1, 1)),)),
    Pattern.D3_DEG2_1_L_L_NEG: ((1,), (("lambda", "-", (1, 1)),)),
    Pattern.D3_SIMPLE_REAL: ((1,), (("lambda1", "r", (1,)), ("lambda2", "r", (1,)))),
    Pattern.D3_JORDAN2: ((1,), (("lambda", "r", (2,)),)),
    Pattern.D3_COMPLEX_PAIR: ((1,), (("lambda", "c", (1,)),)),
    Pattern.D4_IDENTITY: ((1, 1, 1, 1), ()),
    Pattern.D4_DEG2_TRIPLE_ONE: ((1, 1, 1), (("lambda", "r", (1,)),)),
    Pattern.D4_DEG2_TRIPLE_L: ((1,), (("lambda", "r", (1, 1, 1)),)),
    Pattern.D4_DEG2_DOUBLE_POS: ((1, 1), (("lambda", "+", (1, 1)),)),
    Pattern.D4_DEG2_DOUBLE_NEG: ((1, 1), (("lambda", "-", (1, 1)),)),
    Pattern.D4_DEG3_TWO_ONES_DISTINCT: (
        (1, 1), (("lambda1", "r", (1,)), ("lambda2", "r", (1,)))
    ),
    Pattern.D4_DEG3_TWO_ONES_JORDAN: ((1, 1), (("lambda", "r", (2,)),)),
    Pattern.D4_DEG3_L_JORDAN_L: ((1,), (("lambda", "r", (2, 1)),)),
    Pattern.D4_DEG3_DOUBLE_L2_POS: ((1,), (("lambda1", "r", (1,)), ("lambda2", "+", (1, 1)))),
    Pattern.D4_DEG3_DOUBLE_L2_NEG: ((1,), (("lambda1", "r", (1,)), ("lambda2", "-", (1, 1)))),
    Pattern.D4_DEG3_COMPLEX: ((1, 1), (("lambda", "c", (1,)),)),
    Pattern.D4_SIMPLE_REAL: (
        (1,), (("lambda1", "r", (1,)), ("lambda2", "r", (1,)), ("lambda3", "r", (1,)))
    ),
    Pattern.D4_SIMPLE_COMPLEX: ((1,), (("theta", "c", (1,)), ("lambda", "r", (1,)))),
    Pattern.D4_JORDAN3: ((1,), (("lambda", "r", (3,)),)),
    Pattern.D4_MIXED_JORDAN2: ((1,), (("lambda1", "r", (1,)), ("lambda2", "r", (2,)))),
}

_BY_SIGNATURE = {
    (units, tuple((kind, sizes) for _name, kind, sizes in named)): (pattern, named)
    for pattern, (units, named) in _CASES.items()
}
# each pattern's named eigenvalues, in row order: name -> (kind, block sizes)
_NAMED = {
    pattern: {name: (kind, sizes) for name, kind, sizes in named}
    for pattern, (_units, named) in _CASES.items()
}


def _case_tag(js: JordanStructure) -> CaseTag:
    """The case table's row for the Jordan signature of ``js``, with the
    eigenvalues it names; ClassificationError for a signature not in it."""
    units, members = (), []
    for z, sizes in js.blocks:
        if z == 1.0:
            units = sizes
        elif z.imag >= 0.0:
            sign = "+" if z.real >= 0.0 else "-"
            kind = "c" if z.imag > 0.0 else "r" if sizes != (1, 1) else sign
            members.append((sum(sizes), sizes, kind, -z.real, z))
    members.sort(key=lambda m: m[:4])
    row = _BY_SIGNATURE.get((units, tuple((m[2], m[1]) for m in members)))
    if row is None:
        raise ClassificationError(f"no case for Jordan blocks {js.blocks}")
    pattern, named = row
    eigen = {
        name: m[4] if kind == "c" else m[4].real for (name, kind, _), m in zip(named, members)
    }
    dim = sum(sum(sizes) for _z, sizes in js.blocks)
    return CaseTag(dim, js.min_poly_degree, pattern, eigen)


def analyse(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[JordanStructure, CaseTag]:
    """Jordan structure and case tag of a validated Markov array.

    Raises as :func:`classify` does.  It validates nothing: the caller has
    already checked that ``A`` comes from :func:`as_matrix` and passes the
    Markov test, so only the public stages it calls (``jordan_structure``,
    which calls ``eigenvalues``) check their argument again.
    """
    js = jordan_structure(A, tol)
    # Markov spectra live in the closed unit disk; computed roots clearly
    # outside it signal an ill-conditioned (near-multiple) root problem
    for z, _sizes in js.blocks:
        if abs(z) > 1.0 + 100.0 * tol.spec_cluster:
            raise IllConditionedError(f"computed eigenvalue {z} outside the unit disk")
    # the rank rule also calls M - I null for an M just off the identity,
    # whose multiplicities it cannot resolve; the identity pattern is I's
    if js.min_poly_degree == 1 and (A != np.eye(len(A))).any():
        raise IllConditionedError("identity pattern of a matrix other than I")
    return js, _case_tag(js)


def classify(M: object, tol: Tolerances = DEFAULT_TOL) -> CaseTag:
    """Map a Markov matrix to its unique case pattern.

    Raises :class:`IllConditionedError` (propagated from the Jordan
    analysis) when multiplicity decisions sit too close to the rank
    threshold or M - I is null at it without M = I, and
    :class:`ClassificationError` for Jordan data no Markov matrix can
    produce.
    """
    A = as_matrix(M)
    if not _is_markov(A, tol):
        raise ValueError("classify expects a Markov matrix")
    return analyse(A, tol)[1]


def sign_screen(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """A positive diagonal and a transitive sign pattern (m_ik, m_kj > 0 imply
    m_ij > 0), an entry counting as positive above tol.nonneg."""
    if min(A.ravel().tolist()) > tol.nonneg:
        return True, True
    return _sign_flags(A > tol.nonneg)


def _sign_flags(P: np.ndarray) -> tuple[bool, bool]:
    """A positive diagonal and transitivity (P P inside P) of a sign pattern P."""
    return bool(P.diagonal().all()), not (P @ P > P).any()


def spectral_screen(blocks, det: float, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, bool]:
    """The unit-circle and Culver conditions on :attr:`JordanStructure.blocks`;
    block sizes are read only when det != 0 (a singular matrix fails Culver's)."""
    unit_circle_ok = all(z == 1.0 or abs(z) < 1.0 - tol.nonneg for z, _ in blocks)
    culver_ok = det != 0.0 and all(
        sizes.count(s) % 2 == 0
        for z, sizes in blocks
        if z.imag == 0.0 and z.real < -tol.nonneg
        for s in sizes
    )
    return unit_circle_ok, culver_ok


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
    det, diag_positive, transitive = float(np.linalg.det(A)), *sign_screen(A, tol)
    if det != 0.0:
        blocks = jordan_structure(A, tol).blocks
    else:
        blocks = tuple((z, ()) for z, _m in eigenvalues(A, tol).roots)
    unit_circle_ok, culver_ok = spectral_screen(blocks, det, tol)
    return NecessaryReport(diag_positive, det > 0.0, unit_circle_ok, culver_ok, transitive)
