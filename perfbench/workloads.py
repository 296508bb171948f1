"""Seeded corpora for the four benchmark workloads.

Every corpus is a pure function of (workload, seed, tiny).  Its make-up (how
many operations of each kind) never depends on the seed, so every run
attempts the same operations in the same proportions and the known-fault
operations are the same share of every round.  The program sees only the
matrices and documents built here.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import scipy.linalg

WORKLOADS = ("roundtrip", "random_markov", "repeated_pair", "cli")

# Percentile reported as latency_tail_ms, over the operations of one round:
# the highest that leaves at least ten operations beyond it (see README).
TAIL_PERCENTILE = {"roundtrip": 99.0, "random_markov": 99.0, "repeated_pair": 90.0, "cli": 70.0}

_SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# The near-boundary lift of ROADMAP item 4: one _bnb_certify pass of ~20 s.
NEAR_BOUNDARY_RAY = (0.372, 0.373, 0.255)
NEAR_BOUNDARY_F = 1.7905
# Known-fault blocks: skewed rays with 1 < f below the ray's true threshold.
# embed_d3_eq_input_neg rejects them with EXCEEDS_EXTREMAL_BOUND although
# their lifts 1 (+) E(r, f) carry a generator whose block reproduces E(r, f).
# The near-boundary block is a third one; its lift is the slow operation.
KNOWN_FAULT_BLOCKS = (((0.55, 0.3, 0.2), 1.5), ((0.5, 0.3, 0.2), 2.0))
LIFT_F_GRID = (0.5, 0.75, 1.25, 2.0, 3.0, 5.0, 9.0, 16.0)
BLOCK_F_GRID = (0.5, 0.75)  # f < 1: the closed-form extremal bound holds on every ray
CONSTANT_RAY_F = (0.5, 1.5, 4.0)


@dataclasses.dataclass
class Op:
    """One operation: decide(matrix) for library workloads, one CLI
    invocation (argv + stdin) for the cli workload."""

    kind: str
    matrix: np.ndarray | None = None
    argv: tuple[str, ...] = ()
    stdin: str = ""
    meta: dict = dataclasses.field(default_factory=dict)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SALT[workload]])


def random_generator(rng: np.random.Generator, d: int, norm_max: float = 5.0) -> np.ndarray:
    """Criterion 3's distribution: off-diagonal rates i.i.d. U[0,1], zero row
    sums, rescaled to a max-row-sum norm t ~ U(0, norm_max]."""
    Q = rng.uniform(0.0, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    t = rng.uniform(0.0, norm_max) or norm_max
    return Q * (t / np.abs(Q).sum(axis=1).max())


def random_markov(rng: np.random.Generator, d: int) -> np.ndarray:
    M = rng.uniform(0.0, 1.0, (d, d))
    return M / M.sum(axis=1, keepdims=True)


def delta_min(r) -> float:
    """Decay exponent of the extremal equal-input pair on the ray r (the
    paper's formula, written out here so the corpus does not call the
    program)."""
    c1, c2, c3 = r
    return math.pi * max(r) * math.sqrt(c1 + c2 + c3) / math.sqrt(c1 * c2 * c3)


def equal_input_block(r, f: float) -> np.ndarray:
    """E(r, f): 3-state equal-input matrix on ray r with c = 1 + f e^-delta_min(r)."""
    r = np.asarray(r, dtype=float)
    c = 1.0 + f * math.exp(-delta_min(r))
    return (1.0 - c) * np.eye(3) + np.tile(c * r / r.sum(), (3, 1))


def lift(B: np.ndarray) -> np.ndarray:
    M = np.eye(4)
    M[1:, 1:] = B
    return M


def kendall(a: float, b: float) -> np.ndarray:
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def _permutation(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.eye(d)[rng.permutation(d)]


# --- library workloads -------------------------------------------------------


def roundtrip(seed: int, tiny: bool = False) -> list[Op]:
    """decide(exp(Q)), Q from criterion 3's distribution, d = 2, 3, 4 in turn."""
    rng = rng_for("roundtrip", seed)
    ops = []
    for _ in range(8 if tiny else 400):
        for d in (2, 3, 4):
            Q = random_generator(rng, d)
            ops.append(Op(f"d{d}", scipy.linalg.expm(Q), meta={"planted": Q}))
    return ops


def random_markov_ops(seed: int, tiny: bool = False) -> list[Op]:
    """Row-normalised uniform matrices, d = 3 and 4, each followed by a
    seeded state permutation P M P^T of itself."""
    rng = rng_for("random_markov", seed)
    ops = []
    for i in range(6 if tiny else 300):
        for d in (3, 4):
            M = random_markov(rng, d)
            P = _permutation(rng, d)
            pair = len(ops)
            ops.append(Op(f"d{d}", M, meta={"pair": pair}))
            ops.append(Op(f"d{d}_perm", P @ M @ P.T, meta={"pair": pair}))
    return ops


def _skewed_ray(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        r = rng.uniform(0.1, 1.0, 3)
        if r.max() / r.min() >= 1.5:
            r = r / r.sum()
            return tuple(float(v) for v in r)


def repeated_pair(seed: int, tiny: bool = False) -> list[Op]:
    """d=4 matrices with a repeated eigenvalue pair, plus the 3-state blocks
    whose lifts they are, and once per round the near-boundary lift."""
    rng = rng_for("repeated_pair", seed)
    ops: list[Op] = []

    def add_pair(ray, f, known_fault=False, with_block=True):
        B = equal_input_block(ray, f)
        ops.append(Op("lift", lift(B), meta={"ray": ray, "f": f}))
        if with_block:
            kind = "known_fault_block" if known_fault else "block"
            ops.append(Op(kind, B, meta={"ray": ray, "f": f, "lift_index": len(ops) - 1}))

    # fixed inputs first, so set-up times the same first operation on every seed
    for ray, f in KNOWN_FAULT_BLOCKS:
        add_pair(ray, f, known_fault=True)
    # Many rays with two grid points each, because the cost of a search
    # depends on the ray.  The rays are the same in every run and the seed
    # only orders their components (E(P r, f) = P E(r, f) P^T), because a
    # seeded ray lands near its threshold on some seeds: 1 (+) E(r, 9) on
    # r = (0.492, 0.343, 0.165) takes 22 s, and seed 903 drew it.
    fixed = np.random.default_rng(0)
    n = len(LIFT_F_GRID)
    for i in range(4 if tiny else 40):
        ray = _skewed_ray(fixed)
        ray = tuple(ray[j] for j in rng.permutation(3))
        for f in (LIFT_F_GRID[i % n], LIFT_F_GRID[(i + n // 2) % n]):
            add_pair(ray, f, with_block=f in BLOCK_F_GRID)
    for f in CONSTANT_RAY_F:
        ops.append(Op("constant_lift", lift(equal_input_block((1 / 3, 1 / 3, 1 / 3), f)),
                      meta={"f": f}))

    # mid-round, so the reference samples around it come from both sides
    if not tiny:
        ray, f = NEAR_BOUNDARY_RAY, NEAR_BOUNDARY_F
        B = equal_input_block(ray, f)
        ops.append(Op("known_fault_block", B, meta={"ray": ray, "f": f, "lift_index": len(ops) + 1}))
        ops.append(Op("near_boundary_lift", lift(B), meta={"ray": ray, "f": f}))

    n_kendall = 4 if tiny else 36
    for i in range(n_kendall):
        # shared second eigenvalue lam = 1 - a - b, three in four negative:
        # the searches dominate, so the round's median sits inside them
        if i % 4 != 3:
            lam = -float(rng.uniform(0.001, math.exp(-math.pi) * 0.95))
        else:
            lam = float(rng.uniform(0.05, 0.7))
        a1 = float(rng.uniform(0.05, 0.95)) * (1.0 - lam)
        a2 = float(rng.uniform(0.05, 0.95)) * (1.0 - lam)
        M = np.zeros((4, 4))
        M[:2, :2] = kendall(a1, 1.0 - lam - a1)
        M[2:, 2:] = kendall(a2, 1.0 - lam - a2)
        P = _permutation(rng, 4)
        ops.append(Op("kendall_neg" if lam <= 0 else "kendall_pos", P @ M @ P.T, meta={"lam": lam}))

    n_rot = 4 if tiny else 36
    C1 = np.roll(np.eye(3), 1, axis=1) - np.eye(3)
    C2 = np.roll(np.eye(3), 2, axis=1) - np.eye(3)
    for i in range(n_rot):
        # circulant a C1 + b C2 rotates by (a - b) sqrt(3) / 2: a multiple of
        # pi gives the repeated real pair, odd multiples (searched) a negative one
        k = 1 if i % 4 != 3 else 2
        b = float(rng.uniform(0.0, 1.5))
        a = b + 2.0 * math.pi * k / math.sqrt(3.0)
        Q = np.zeros((4, 4))
        Q[1:, 1:] = a * C1 + b * C2
        P = _permutation(rng, 4)
        Q = P @ Q @ P.T
        ops.append(Op("rotation", scipy.linalg.expm(Q), meta={"planted": Q}))

    return ops


# --- cli workload --------------------------------------------------------------


def _doc(M: np.ndarray, label: str) -> str:
    return json.dumps({"dim": int(M.shape[0]), "rows": M.tolist(), "label": label})


def cli(seed: int, tiny: bool = False) -> list[Op]:
    """Documents for every subcommand, four of each; each operation is one
    fresh process."""
    rng = rng_for("cli", seed)
    ops = []
    for _ in range(1 if tiny else 4):
        Q = random_generator(rng, 4)
        M = scipy.linalg.expm(Q)
        ops.append(Op("embed", M, ("embed", "-"), _doc(M, "embed")))
        M = random_markov(rng, 4)
        ops.append(Op("classify", M, ("classify", "-"), _doc(M, "classify")))
        Q = random_generator(rng, 3)
        ops.append(Op("exp", Q, ("exp", "-"), _doc(Q, "exp")))
        M = scipy.linalg.expm(random_generator(rng, 3, norm_max=1.0))
        ops.append(Op("log", M, ("log", "-"), _doc(M, "log")))
        x, y, z = (float(v) for v in rng.uniform(0.02, 0.3, 3))
        ops.append(Op("model_k3st", None, ("model", "k3st", repr(x), repr(y), repr(z)),
                      meta={"params": (x, y, z)}))
        a = [float(v) for v in rng.uniform(0.02, 0.2, 4)]
        k1, k2 = (float(v) for v in rng.uniform(0.5, 1.5, 2))
        ops.append(Op("model_tn", None, ("model", "tn", *map(repr, a), repr(k1), repr(k2)),
                      meta={"params": (*a, k1, k2)}))
        c = [float(v) for v in rng.uniform(0.05, 0.3, 3)]
        ops.append(Op("model_equal_input", None, ("model", "equal-input", *map(repr, c)),
                      meta={"params": tuple(c)}))
        segments = [(random_generator(rng, 3, norm_max=2.0), float(rng.uniform(0.2, 1.2)))
                    for _ in range(2)]
        sched = json.dumps({"segments": [{"Q": S.tolist(), "duration": t} for S, t in segments]})
        ops.append(Op("simulate", None, ("simulate", "-"), sched, meta={"segments": segments}))
        # a flow product is embeddable in the generalised sense by definition
        F = np.eye(3)
        for S, t in segments:
            F = F @ scipy.linalg.expm(t * S)
        ops.append(Op("gcheck", F, ("gcheck", "-"), _doc(F, "gcheck")))
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    return {
        "roundtrip": roundtrip,
        "random_markov": random_markov_ops,
        "repeated_pair": repeated_pair,
        "cli": cli,
    }[workload](seed, tiny)
