"""Correctness checks made apart from the program.

Every check compares an output with a computation done here (SciPy,
LAPACK, exact rational arithmetic, the models' definitions) or with a
property the method must have.  None compares with stored program output.
Results reach the checks as plain dicts, so the self-check can plant wrong
answers in the same form.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

RATE_TOL = 1e-10  # off-diagonal rates of a generator must be >= -RATE_TOL
ROWSUM_TOL = 1e-10  # and its row sums within ROWSUM_TOL of 0
RESIDUAL_TOL = 1e-8  # max|expm(Q) - M| <= RESIDUAL_TOL * max(1, max|M|)
PLANTED_TOL = 1e-6  # a Unique generator equals the planted Q to this, relative
EIG_TOL = 1e-6  # reported eigenvalues agree with LAPACK's to this
EXACT_TOL = 1e-12  # exp, simulate and model matrices agree with SciPy to this, relative

KNOWN_FAULT_KINDS = frozenset({"known_fault_block"})
VERDICTS = frozenset({"Embeddable", "NotEmbeddable", "Undecided"})
# Undecided is a legitimate answer on a nearly singular problem (a sweep of
# 60 roundtrip seeds met 2 in 72,000 inputs, exp(Q) with ||Q|| ~ 1e-4), but on
# more than this share of a round's operations it is a fault of every one
UNDECIDED_MAX_SHARE = 0.01
# repeated_pair kinds whose verdict is proven, so Undecided on them is wrong
PROVEN_KINDS = frozenset({"rotation", "kendall_neg", "kendall_pos", "constant_lift"})


def summarize(res) -> dict:
    """EmbeddingResult -> the plain dict the checks read."""
    return {
        "verdict": res.verdict.value,
        "reason": res.reason.value if res.reason is not None else None,
        "uniqueness": res.uniqueness.value,
        "generators": [np.array(g.matrix, dtype=float) for g in res.generators],
    }


def _scale(M: np.ndarray) -> float:
    return max(1.0, float(np.abs(M).max()))


def generator_fault(G: np.ndarray, M: np.ndarray) -> str | None:
    """None when G is a rate matrix with expm(G) = M (SciPy, not the program)."""
    G = np.asarray(G, dtype=float)
    off = G - np.diag(np.diag(G))
    if off.min() < -RATE_TOL:
        return f"negative rate {off.min():.3g}"
    rows = float(np.abs(G.sum(axis=1)).max())
    if rows > ROWSUM_TOL:
        return f"row sum {rows:.3g}"
    residual = float(np.abs(scipy.linalg.expm(G) - M).max())
    if residual > RESIDUAL_TOL * _scale(M):
        return f"residual {residual:.3g}"
    return None


def verdict_fault(r: dict) -> str | None:
    """A verdict outside the three the method returns, such as the runner's
    "Error" for an exception raised by decide()."""
    if r["verdict"] not in VERDICTS:
        return f"verdict {r['verdict']} ({r['reason']})"
    return None


def generators_fault(r: dict, M: np.ndarray) -> str | None:
    for G in r["generators"]:
        fault = generator_fault(G, M)
        if fault is not None:
            return "generator: " + fault
    if (r["verdict"] == "Embeddable") != bool(r["generators"]):
        return "verdict and generator list disagree"
    return None


# --- independent confirmation of rejection reasons -----------------------------


def exact_det(M: np.ndarray) -> Fraction:
    """Determinant of the float matrix in exact rational arithmetic."""
    A = [[Fraction(float(v)) for v in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            if f:
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det


def has_odd_negative_eigenvalue(M: np.ndarray) -> bool:
    """A real negative LAPACK eigenvalue of odd multiplicity."""
    w = np.linalg.eigvals(M)
    for z in w:
        if abs(z.imag) <= 1e-9 and z.real < 0.0:
            mult = int(np.sum(np.abs(w - z) <= EIG_TOL))
            if mult % 2 == 1:
                return True
    return False


def transitivity_violated(M: np.ndarray) -> bool:
    """m_ik > 0 and m_kj > 0 but m_ij = 0, on the sign pattern at RATE_TOL."""
    pos = np.asarray(M) > RATE_TOL
    d = pos.shape[0]
    return any(pos[i, k] and pos[k, j] and not pos[i, j]
               for i in range(d) for k in range(d) for j in range(d))


def generator_log_branch(M: np.ndarray) -> int | None:
    """Search the real logarithms of M for a generator.

    Uses an eigen-decomposition: for a simple spectrum every real logarithm
    is V diag(log w + 2 pi i k) V^-1 with conjugate branches on conjugate
    pairs and k = 0 on real eigenvalues.  The branch window is the
    generator-sector bound |Im| <= cot(pi/d) |Re| plus three more branches
    on each side.  Returns the branch of a generator found, else None.
    Raises ValueError when the spectrum is not simple (the enumeration
    would be incomplete).
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    w, V = np.linalg.eig(M)
    gaps = [abs(w[i] - w[j]) for i in range(d) for j in range(i + 1, d)]
    if min(gaps) <= EIG_TOL:
        raise ValueError("spectrum not simple")
    if any(abs(z.imag) <= 1e-12 and z.real <= 0.0 for z in w):
        return None  # a simple eigenvalue on the closed negative axis: no real log
    Vinv = np.linalg.inv(V)
    upper = [i for i in range(d) if w[i].imag > 1e-12]
    lower = [int(np.argmin(np.abs(w - np.conj(w[i])))) for i in upper]
    slope = 1.0 / math.tan(math.pi / d)
    windows = []
    for i in upper:
        k = int(math.ceil((slope * abs(math.log(abs(w[i]))) + abs(np.angle(w[i]))) / (2 * math.pi)))
        windows.append(range(-k - 3, k + 4))
    for ks in itertools.product(*windows):
        logs = np.log(w.astype(complex))
        for i, j, k in zip(upper, lower, ks):
            logs[i] += 2j * math.pi * k
            logs[j] -= 2j * math.pi * k
        L = (V @ np.diag(logs) @ Vinv).real
        if generator_fault(L, M) is None:
            return int(ks[0]) if ks else 0
    return None


def reason_fault(reason: str | None, M: np.ndarray) -> str | None:
    """None when the rejection reason is confirmed independently."""
    if reason == "DET_NONPOSITIVE":
        return None if exact_det(M) <= 0 else "DET_NONPOSITIVE but the exact determinant is positive"
    if reason == "NEGATIVE_EIGENVALUE_CULVER":
        return None if has_odd_negative_eigenvalue(M) else "no odd negative LAPACK eigenvalue"
    if reason == "TRANSITIVITY_VIOLATION":
        return None if transitivity_violated(M) else "sign pattern is transitive"
    if reason in ("LOG_NOT_GENERATOR", "NO_BRANCH_FEASIBLE"):
        try:
            k = generator_log_branch(M)
        except ValueError as exc:
            return f"{reason} not confirmable: {exc}"
        return None if k is None else f"{reason} but branch {k} gives a generator"
    return f"reason {reason} cannot be confirmed on this workload"


# --- library workloads ----------------------------------------------------------


def undecided_fault(r: dict, results) -> str | None:
    """Undecided on more than UNDECIDED_MAX_SHARE of the round's operations."""
    if r["verdict"] != "Undecided":
        return None
    n = sum(x["verdict"] == "Undecided" for x in results)
    if n <= UNDECIDED_MAX_SHARE * len(results):
        return None
    return f"Undecided ({r['reason']}) on {n} of {len(results)} operations"


def check_roundtrip(ops, results) -> dict[int, str]:
    faults = {}
    for i, (op, r) in enumerate(zip(ops, results)):
        if r["verdict"] == "NotEmbeddable":
            faults[i] = f"NotEmbeddable ({r['reason']}) for exp(Q)"
            continue
        fault = verdict_fault(r) or undecided_fault(r, results) or generators_fault(r, op.matrix)
        if fault is None and r["uniqueness"] == "Unique":
            Q = op.meta["planted"]
            if not any(np.abs(G - Q).max() <= PLANTED_TOL * _scale(Q) for G in r["generators"]):
                fault = "Unique, but no generator equals the planted Q"
        if fault is not None:
            faults[i] = fault
    return faults


def check_random_markov(ops, results) -> dict[int, str]:
    faults = {}
    for i, (op, r) in enumerate(zip(ops, results)):
        if r["verdict"] == "Embeddable":
            fault = generators_fault(r, op.matrix)
        elif r["verdict"] == "NotEmbeddable":
            fault = reason_fault(r["reason"], op.matrix)
        else:
            fault = verdict_fault(r) or undecided_fault(r, results)
        pair = op.meta["pair"]
        if fault is None and pair != i and results[pair]["verdict"] != r["verdict"]:
            fault = f"verdict {r['verdict']} for P M P^T but {results[pair]['verdict']} for M"
        if fault is not None:
            faults[i] = fault
    return faults


def _lift_generator_block(lift_result: dict, B: np.ndarray) -> np.ndarray | None:
    """A verified generator of B read off a generator of 1 (+) B, if any."""
    for G in lift_result["generators"]:
        if np.abs(G[0, :]).max() <= RATE_TOL and np.abs(G[:, 0]).max() <= RATE_TOL:
            if generator_fault(G[1:, 1:], B) is None:
                return G[1:, 1:]
    return None


def _repeated_pair_kind_fault(op, r: dict, results) -> str | None:
    """The property the operation's kind proves about its verdict."""
    v = r["verdict"]
    if op.kind in PROVEN_KINDS and v == "Undecided":
        return f"Undecided ({r['reason']}) on a proven {op.kind}"
    if op.kind == "rotation" and v == "NotEmbeddable":
        return "planted rotation reported NotEmbeddable"
    if op.kind == "kendall_neg" and v == "Embeddable":
        return "2 (+) 2 with a shared non-positive determinant reported Embeddable"
    if op.kind == "kendall_pos" and v == "NotEmbeddable":
        return "2 (+) 2 of embeddable Kendall blocks reported NotEmbeddable"
    if op.kind == "constant_lift":
        if op.meta["f"] > 1.0 and v == "Embeddable":
            return "constant-ray lift beyond 1 + e^(-pi sqrt 3) reported Embeddable"
        if op.meta["f"] < 1.0 and v == "NotEmbeddable":
            return "constant-ray lift inside 1 + e^(-pi sqrt 3) reported NotEmbeddable"
    if op.kind in ("block", "known_fault_block"):
        lifted = results[op.meta["lift_index"]]
        if v == "NotEmbeddable" and _lift_generator_block(lifted, op.matrix) is not None:
            return f"block NotEmbeddable ({r['reason']}) but the lift's generator reproduces it"
        if v == "Embeddable" and lifted["verdict"] == "NotEmbeddable":
            return "block Embeddable but its lift 1 (+) B reported NotEmbeddable"
    return None


def check_repeated_pair(ops, results) -> dict[int, str]:
    faults = {}
    for i, (op, r) in enumerate(zip(ops, results)):
        fault = (verdict_fault(r) or generators_fault(r, op.matrix)
                 or _repeated_pair_kind_fault(op, r, results))
        if fault is not None:
            faults[i] = fault
    return faults


# --- cli workload ----------------------------------------------------------------

_SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "verdict.schema.json"
_VERDICT_EXIT = {"Embeddable": 0, "NotEmbeddable": 1, "Undecided": 2,
                 "GEmbeddable": 0, "NotGEmbeddable": 1}


def _validators():
    import jsonschema

    schema = json.loads(_SCHEMA_PATH.read_text())
    full = jsonschema.Draft7Validator(schema)
    props = schema["properties"]
    partial = jsonschema.Draft7Validator({
        "type": "object",
        "required": ["input", "case_tag"],
        "properties": {"input": props["input"], "case_tag": props["case_tag"]},
    })
    return full, partial


def k3st_definition(x: float, y: float, z: float) -> np.ndarray:
    """Kimura 3ST: x, y, z on the three fixed-point-free involutions of 4 states."""
    M = np.full((4, 4), 0.0)
    for i in range(4):
        M[i, i ^ 1], M[i, i ^ 2], M[i, i ^ 3] = x, y, z
        M[i, i] = 1.0 - x - y - z
    return M


def tn_definition(a1, a2, a3, a4, k1, k2) -> np.ndarray:
    """Tamura-Nei with rates a_j into state j, purine (k1) and pyrimidine (k2) factors."""
    M = np.array([[0.0, k1 * a2, a3, a4],
                  [k1 * a1, 0.0, a3, a4],
                  [a1, a2, 0.0, k2 * a4],
                  [a1, a2, k2 * a3, 0.0]])
    np.fill_diagonal(M, 1.0 - M.sum(axis=1))
    return M


def equal_input_definition(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    return (1.0 - c.sum()) * np.eye(len(c)) + np.tile(c, (len(c), 1))


def _close(A, B, tol=EXACT_TOL) -> bool:
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return A.shape == B.shape and float(np.abs(A - B).max()) <= tol * _scale(B)


class CliChecker:
    """Checks one CLI invocation: exit code, schema and numbers."""

    def __init__(self):
        self.full, self.partial = _validators()

    def _verdict_doc(self, doc, code, M) -> str | None:
        errors = sorted(e.message for e in self.full.iter_errors(doc))
        if errors:
            return "schema: " + errors[0]
        if code != _VERDICT_EXIT[doc["verdict"]]:
            return f"exit code {code} for verdict {doc['verdict']}"
        if not _close(doc["input"]["rows"], M):
            return "input rows differ from the model's definition"
        r = {"verdict": doc["verdict"], "generators": [np.array(g["matrix"]) for g in doc["generators"]]}
        return generators_fault(r, M)

    def check(self, op, code: int, stdout: str) -> str | None:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return f"exit code {code}, output is not JSON"
        kind = op.kind
        if kind == "embed":
            fault = self._verdict_doc(doc, code, op.matrix)
            if fault is None and doc["verdict"] == "NotEmbeddable":
                fault = "exp(Q) reported NotEmbeddable"
            return fault
        if kind.startswith("model_"):
            p = op.meta["params"]
            M = {"model_k3st": k3st_definition, "model_tn": tn_definition}.get(kind)
            M = M(*p) if M is not None else equal_input_definition(p)
            fault = self._verdict_doc(doc, code, M)
            if fault is None and doc["verdict"] == "NotEmbeddable":
                if kind == "model_equal_input" and sum(p) < 1.0:
                    fault = "equal-input with c < 1 reported NotEmbeddable"
                elif kind == "model_k3st":
                    fault = reason_fault("NO_BRANCH_FEASIBLE", M)
            return fault
        if kind == "classify":
            errors = sorted(e.message for e in self.partial.iter_errors(doc))
            if errors:
                return "schema: " + errors[0]
            if code != 0:
                return f"exit code {code}"
            tag = doc["case_tag"]
            if tag["dim"] != op.matrix.shape[0] or not _close(doc["input"]["rows"], op.matrix):
                return "input echoed wrongly"
            w = np.linalg.eigvals(op.matrix)
            for name, z in tag["eigen"].items():
                if np.abs(w - complex(z["re"], z["im"])).min() > EIG_TOL:
                    return f"eigenvalue {name} is not a LAPACK eigenvalue"
            return None
        if code != _VERDICT_EXIT.get(doc.get("verdict"), 0):
            return f"exit code {code}"
        if kind == "exp":
            return None if _close(doc["rows"], scipy.linalg.expm(op.matrix)) else "exp differs from SciPy"
        if kind == "log":
            L = np.asarray(doc["rows"], dtype=float)
            ref = scipy.linalg.logm(op.matrix)
            if not _close(L, ref.real, RESIDUAL_TOL) or np.abs(ref.imag).max() > RESIDUAL_TOL:
                return "log differs from SciPy's logm"
            return None
        if kind == "simulate":
            F = np.eye(3)
            for S, t in op.meta["segments"]:
                F = F @ scipy.linalg.expm(t * S)
            return None if _close(doc["rows"], F) else "flow product differs from SciPy"
        if kind == "gcheck":
            if not _close(doc["input"]["rows"], op.matrix):
                return "input echoed wrongly"
            if doc["verdict"] == "NotGEmbeddable":
                return "flow product reported NotGEmbeddable"
            return None
        return f"no check for {kind}"


CHECKERS = {
    "roundtrip": check_roundtrip,
    "random_markov": check_random_markov,
    "repeated_pair": check_repeated_pair,
}
