"""Golden outputs: ``decide`` on a seeded corpus, to the bit.

Each canonical output (verdict, reason, uniqueness, the case tag with its
eigenvalues in hex, and for each generator its branch, construction, matrix
bytes and residual in hex) is hashed with SHA-256 and compared with the
digests in ``golden_outputs.json``.  A change meant to leave outputs alone
(a speed-up, a refactor) must keep every digest.  A change that alters
outputs on purpose rewrites the file and names the entries it changed:

    PYTHONPATH=src python tests/test_golden_outputs.py --write

The digests hold for the toolchain the file records (Python minor version,
NumPy, SciPy): another library build may round differently, and there the
test is skipped.
"""

import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg

from markovembed import decide

from conftest import random_generator, random_markov

FIXTURE = Path(__file__).with_name("golden_outputs.json")
SEED = 2110


def toolchain():
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def lift(r, f):
    """1 (+) E(r, f), E the 3-state equal-input matrix on the ray r with
    c = 1 + f exp(-delta_min(r)): a repeated eigenvalue pair 1 - c."""
    r = np.asarray(r, dtype=float)
    c = 1.0 + f * math.exp(-math.pi * r.max() * math.sqrt(r.sum()) / math.sqrt(r.prod()))
    M = np.eye(4)
    M[1:, 1:] = (1.0 - c) * np.eye(3) + np.tile(c * r / r.sum(), (3, 1))
    return M


def corpus(seed=SEED):
    """(key, matrix, all_branches) triples: round trips exp(Q) for d = 2, 3,
    4; uniform Markov matrices and a state permutation of each; lifts of
    equal-input blocks, 2 (+) 2 Kendall pairs, the equal-input blocks with
    c > 1, rotation round trips and simple spectra at the clustering
    threshold, decided with and without all branches."""
    rng = np.random.default_rng(seed)
    out = []
    for d in (2, 3, 4):
        for i in range(100):
            out.append((f"exp{d}:{i}", scipy.linalg.expm(random_generator(rng, d)), False))
    for d in (2, 3, 4):
        for i in range(80):
            M = random_markov(rng, d)
            P = np.eye(d)[rng.permutation(d)]
            out += [(f"uni{d}:{i}", M, False), (f"perm{d}:{i}", P @ M @ P.T, False)]
    pairs = []
    for i in range(24):
        r = rng.uniform(0.1, 1.0, 3)
        pairs.append((f"lift:{i}", lift(r / r.sum(), float(rng.choice([0.5, 1.5, 4.0, 9.0])))))
    for i in range(16):
        lam = float(rng.uniform(-0.04, 0.7))
        M = np.zeros((4, 4))
        for k in (0, 2):
            a = float(rng.uniform(0.05, 0.95)) * (1.0 - lam)
            M[k:k + 2, k:k + 2] = [[1.0 - a, a], [1.0 - lam - a, lam + a]]
        P = np.eye(4)[rng.permutation(4)]
        pairs.append((f"kendall2x2:{i}", P @ M @ P.T))
    for i in range(12):
        r = rng.uniform(0.1, 1.0, 3)
        f = float(rng.choice([0.5, 1.5, 4.0, 9.0]))
        pairs.append((f"block:{i}", lift(r / r.sum(), f)[1:, 1:]))
    # the circulant a C1 + b C2 turns its plane by (a - b) sqrt(3) / 2 = k pi
    C1 = np.roll(np.eye(3), 1, axis=1) - np.eye(3)
    C2 = np.roll(np.eye(3), 2, axis=1) - np.eye(3)
    for i in range(12):
        b = float(rng.uniform(0.0, 1.5))
        Q = np.zeros((4, 4))
        Q[1:, 1:] = (b + 2.0 * math.pi * (1 + i % 2) / math.sqrt(3.0)) * C1 + b * C2
        P = np.eye(4)[rng.permutation(4)]
        pairs.append((f"rotation:{i}", scipy.linalg.expm(P @ Q @ P.T)))
    pairs += near_threshold_spectra(rng)
    out += [(f"{key}:{b}", M, b) for key, M in pairs for b in (False, True)]
    return out


def chain(rates):
    """exp of the pure-death chain i -> i + 1 with the given rates: upper
    triangular, with eigenvalues 1 and exp(-rate) for each rate."""
    Q = np.zeros((len(rates) + 1,) * 2)
    for i, r in enumerate(rates):
        Q[i, i], Q[i, i + 1] = -r, r
    return scipy.linalg.expm(Q)


def near_threshold_spectra(rng):
    """Simple spectra whose closest pair of eigenvalues lies 0.5, 1, 1.01
    and 2 times the clustering threshold (1e-8 for a Markov matrix) apart,
    each with a state permutation of itself.  A pair below 1 is merged by
    the consolidation of near-multiple roots; a pair with the eigenvalue 1
    meets the clustering threshold itself."""
    out = []
    for factor in (0.5, 1.0, 1.01, 2.0):
        gap = factor * 1e-8
        for r in (0.3, 1.1):
            s = -math.log(math.exp(-r) + gap)
            out.append((f"gap{factor}:d3:{r}", chain([r, s])))
            out.append((f"gap{factor}:d4:{r}", chain([r, 2.0, s])))
        r = -math.log1p(-gap)
        out.append((f"gap{factor}:one:d3", chain([r, 0.7])))
        out.append((f"gap{factor}:one:d4", chain([r, 0.7, 1.9])))
    perms = [np.eye(len(M))[rng.permutation(len(M))] for _key, M in out]
    return out + [(f"{key}:perm", P @ M @ P.T) for P, (key, M) in zip(perms, out)]


def _hex(v):
    return [v.real.hex(), v.imag.hex()] if isinstance(v, complex) else float(v).hex()


def canonical(res):
    tag = res.case
    return json.dumps([
        res.verdict.value,
        None if res.reason is None else res.reason.value,
        res.uniqueness.value,
        None if tag is None else [
            tag.pattern.value, tag.dim, tag.min_poly_degree,
            sorted((name, _hex(v)) for name, v in tag.eigen.items()),
        ],
        [
            [g.branch, g.construction.value, g.matrix.tobytes().hex(), float(g.residual).hex()]
            for g in res.generators
        ],
    ])


def digests():
    return {
        key: hashlib.sha256(canonical(decide(M, all_branches=b)).encode()).hexdigest()
        for key, M, b in corpus()
    }


def test_decide_outputs_match_the_recorded_digests():
    recorded = json.loads(FIXTURE.read_text())
    if recorded["toolchain"] != toolchain():
        pytest.skip(f"digests recorded with {recorded['toolchain']}, running {toolchain()}")
    got = digests()
    assert got.keys() == recorded["digests"].keys()
    changed = sorted(k for k, v in got.items() if v != recorded["digests"][k])
    assert not changed, f"{len(changed)} outputs changed: {changed[:20]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    doc = {"seed": SEED, "toolchain": toolchain(), "digests": digests()}
    FIXTURE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {FIXTURE}")
