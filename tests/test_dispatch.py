"""One decision table for every d=3/d=4 case pattern.

``decide`` reaches a case decider of the table for every non-identity
d=3 and d=4 pattern, and a relabelling of the states, M -> P M P^T,
changes none of its verdicts, reasons or uniqueness labels.  The corpus
below is seeded, holds matrices of every such pattern and ends with the
permuted twin of each; it is built with NumPy and SciPy only.
"""

import importlib
import math

import numpy as np
import scipy.linalg

from markovembed import Pattern, decide

from conftest import random_generator, random_markov

embed_mod = importlib.import_module("markovembed.embed")

DECIDED_PATTERNS = {
    p for p in Pattern if p.name[:2] in ("D3", "D4") and not p.name.endswith("IDENTITY")
}


def kendall_at(rng, lam):
    """Kendall block [[1 - a, a], [b, 1 - b]] with second eigenvalue
    lam = 1 - a - b."""
    lo, hi = max(0.0, -lam), min(1.0, 1.0 - lam)
    a = lo + float(rng.uniform(0.05, 0.95)) * (hi - lo)
    b = 1.0 - lam - a
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


def equal_input(c_vec):
    c_vec = np.asarray(c_vec, dtype=float)
    d = len(c_vec)
    return (1.0 - c_vec.sum()) * np.eye(d) + np.tile(c_vec, (d, 1))


def circulant(a, b):
    return np.array([[-(a + b), a, b], [b, -(a + b), a], [a, b, -(a + b)]])


def chain(rates, d=4):
    """Generator of a pure-death chain i -> i + 1 with the given rates."""
    Q = np.zeros((d, d))
    for i, r in enumerate(rates):
        if r:
            Q[i, i], Q[i, i + 1] = -r, r
    return Q


def pattern_corpus(seed=5, rounds=4):
    """Seeded matrices covering every non-identity d=3/d=4 pattern."""
    rng = np.random.default_rng(seed)
    block = scipy.linalg.block_diag
    out = []
    for _ in range(rounds):
        pos = float(rng.uniform(0.05, 0.9))
        neg = -float(rng.uniform(0.05, 0.6))
        r, s = (float(v) for v in rng.uniform(0.1, 2.0, 2))
        ray = rng.uniform(0.5, 1.0, 3)
        ray = ray / ray.sum()
        # d=3, minimal polynomial of degree 2
        for lam in (pos, neg):
            out.append(block([[1.0]], kendall_at(rng, lam)))  # D3_DEG2_1_1_L
        out.append(equal_input(float(rng.uniform(0.1, 0.95)) * ray))  # 1_L_L_POS
        out.append(equal_input(float(rng.uniform(1.02, 1.2)) * ray))  # 1_L_L_NEG
        # d=3 cyclic
        out.append(scipy.linalg.expm(random_generator(rng, 3)))
        out.append(scipy.linalg.expm(chain([r, r], 3)))  # D3_JORDAN2
        out.append(scipy.linalg.expm(chain([r, s], 3)))  # D3_SIMPLE_REAL
        out.append(scipy.linalg.expm(circulant(r + 2.5, s)))  # D3_COMPLEX_PAIR
        # d=4, minimal polynomial of degree 2
        out.append(block(np.eye(2), kendall_at(rng, pos)))  # D4_DEG2_TRIPLE_ONE
        out.append(equal_input(float(rng.uniform(0.1, 0.95)) * np.append(ray, 0.3) / 1.3))
        for lam in (pos, neg):  # D4_DEG2_DOUBLE_POS / _NEG
            out.append(block(kendall_at(rng, lam), kendall_at(rng, lam)))
        out.append(block([[1.0]], equal_input(float(rng.uniform(0.1, 0.9)) * ray)))
        # d=4, minimal polynomial of degree 3
        out.append(block(kendall_at(rng, pos), kendall_at(rng, pos / 2.0)))  # TWO_ONES_DISTINCT
        for lam in (pos, neg):  # D4_DEG3_DOUBLE_L2_POS / _NEG
            K = kendall_at(rng, lam)
            out.append(np.kron(K, K))
        out.append(block([[1.0]], scipy.linalg.expm(circulant(r + 2.5, s))))  # DEG3_COMPLEX
        out.append(scipy.linalg.expm(chain([r, r, 0.0])))  # TWO_ONES_JORDAN
        Q = chain([0.0, s, s])
        Q[0, 0], Q[0, 3] = -s, s
        out.append(scipy.linalg.expm(Q))  # D4_DEG3_L_JORDAN_L
        # d=4 cyclic
        out.append(np.kron(kendall_at(rng, pos), kendall_at(rng, neg)))  # D4_SIMPLE_REAL
        out.append(scipy.linalg.expm(chain([r, r, r])))  # D4_JORDAN3
        out.append(scipy.linalg.expm(chain([r, s, s])))  # D4_MIXED_JORDAN2
        for _ in range(3):
            out.append(scipy.linalg.expm(random_generator(rng, 4)))
            out.append(random_markov(rng, 4))
    # repeated pairs whose extra logarithms are searched on the hyperbola
    E = equal_input(np.full(3, (1.0 + 0.5 * math.exp(-math.pi * math.sqrt(3.0))) / 3.0))
    out += [E, block([[1.0]], E), equal_input(np.full(4, (1.0 - 1e-3) / 4.0))]
    perms = [np.eye(len(M))[rng.permutation(len(M))] for M in out]
    return out + [P @ M @ P.T for P, M in zip(perms, out)]


def test_table_keys_are_the_decided_patterns():
    assert set(embed_mod._DECIDERS) == DECIDED_PATTERNS
    assert set(embed_mod._DECIDERS.values()) == {
        embed_mod._principal_only,
        embed_mod._repeated_pair,
        embed_mod._complex_branches,
    }


def test_permuted_twins_decided_alike():
    corpus = pattern_corpus()
    half = len(corpus) // 2
    seen = set()
    for M, twin in zip(corpus[:half], corpus[half:]):
        for all_branches in (False, True):
            res, other = (decide(A, all_branches=all_branches) for A in (M, twin))
            if res.case is not None:
                seen.add(res.case.pattern)
            assert (res.verdict, res.reason, res.uniqueness) == (
                other.verdict, other.reason, other.uniqueness
            ), (res.case, all_branches)
    assert seen >= DECIDED_PATTERNS, DECIDED_PATTERNS - seen
