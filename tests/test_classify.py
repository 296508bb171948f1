import importlib
import math

import numpy as np

from markovembed import (
    DEFAULT_TOL,
    IllConditionedError,
    NecessaryReport,
    Pattern,
    Reason,
    Verdict,
    classify,
    decide,
    eigenvalues,
    jordan_structure,
    mat_exp,
    necessary_checks,
)

from conftest import random_generator, random_markov
from oracles import exact_det, violates_transitivity

# the package re-exports the function ``classify`` under the module's name
classify_mod = importlib.import_module("markovembed.classify")
embed_mod = importlib.import_module("markovembed.embed")
kernel_mod = importlib.import_module("markovembed.kernel")


def kendall_block(a, b):
    return np.array([[1 - a, a], [b, 1 - b]])


class TestPatterns:
    def test_identities(self):
        assert classify(np.eye(2)).pattern is Pattern.D2_IDENTITY
        assert classify(np.eye(3)).pattern is Pattern.D3_IDENTITY
        assert classify(np.eye(4)).pattern is Pattern.D4_IDENTITY

    def test_d2_simple(self):
        tag = classify(kendall_block(0.3, 0.2))
        assert tag.pattern is Pattern.D2_SIMPLE
        assert abs(tag.eigen["lambda"] - 0.5) < 1e-12

    def test_d3_deg2_cases(self):
        M = np.eye(3)
        M[2, :] = [0.2, 0.3, 0.5]  # single nontrivial row: JNF diag(1,1,lam)
        assert classify(M).pattern is Pattern.D3_DEG2_1_1_L

        c = 0.6
        M = (1 - c) * np.eye(3) + np.full((3, 3), c / 3)
        assert classify(M).pattern is Pattern.D3_DEG2_1_L_L_POS

        c = 1.2
        M = (1 - c) * np.eye(3) + np.full((3, 3), c / 3)
        assert classify(M).pattern is Pattern.D3_DEG2_1_L_L_NEG

    def test_d3_cyclic_cases(self, rng):
        a, b = 1 - math.exp(-0.7), 1 - math.exp(-0.4)
        M = np.array([[1 - a, a, 0], [0, 1, 0], [b, 0, 1 - b]])
        assert classify(M).pattern is Pattern.D3_SIMPLE_REAL
        M = np.array([[1 - a, a, 0], [0, 1, 0], [a, 0, 1 - a]])
        assert classify(M).pattern is Pattern.D3_JORDAN2

        found = False
        for _ in range(100):
            M = random_markov(rng, 3)
            tag = classify(M)
            if tag.pattern is Pattern.D3_COMPLEX_PAIR:
                assert tag.eigen["lambda"].imag > 0
                found = True
                break
        assert found

    def test_d4_block_construction(self):
        # two Kendall blocks sharing lam = 1 - a - b: JNF diag(1, 1, lam, lam)
        M = np.zeros((4, 4))
        M[:2, :2] = kendall_block(0.3, 0.2)
        M[2:, 2:] = kendall_block(0.25, 0.25)
        assert classify(M).pattern is Pattern.D4_DEG2_DOUBLE_POS

        M[:2, :2] = kendall_block(0.8, 0.6)  # lam = -0.4
        M[2:, 2:] = kendall_block(0.7, 0.7)
        assert classify(M).pattern is Pattern.D4_DEG2_DOUBLE_NEG

        # single nontrivial 2x2 block: the third eigenvalue equals 1, so the
        # unit eigenvalue is triple
        M = np.eye(4)
        M[2:, 2:] = kendall_block(0.3, 0.2)
        assert classify(M).pattern is Pattern.D4_DEG2_TRIPLE_ONE

    def test_d4_triple_and_jordan(self):
        M = np.eye(4)
        M[2:, 2:] = kendall_block(0.3, 0.4)
        assert classify(M).pattern is Pattern.D4_DEG2_TRIPLE_ONE

        c = 0.9
        M = (1 - c) * np.eye(4) + np.full((4, 4), c / 4)
        tag = classify(M)
        assert tag.pattern is Pattern.D4_DEG2_TRIPLE_L
        assert tag.min_poly_degree == 2

        r, s = 0.8, 0.5
        chains = {
            Pattern.D4_JORDAN3: np.array(
                [[-r, r, 0, 0], [0, -r, r, 0], [0, 0, -r, r], [0, 0, 0, 0.0]]
            ),
            Pattern.D4_MIXED_JORDAN2: np.array(
                [[-r, r, 0, 0], [0, -s, s, 0], [0, 0, -s, s], [0, 0, 0, 0.0]]
            ),
            Pattern.D4_DEG3_L_JORDAN_L: np.array(
                [[-s, 0, 0, s], [0, -s, s, 0], [0, 0, -s, s], [0, 0, 0, 0.0]]
            ),
        }
        for pattern, Q in chains.items():
            assert classify(mat_exp(Q)).pattern is pattern

    def test_d4_two_ones_distinct(self):
        M = np.zeros((4, 4))
        M[:2, :2] = kendall_block(0.3, 0.2)
        M[2:, 2:] = kendall_block(0.1, 0.15)
        tag = classify(M)
        assert tag.pattern is Pattern.D4_DEG3_TWO_ONES_DISTINCT
        assert tag.eigen["lambda1"] > tag.eigen["lambda2"]

    def test_classify_total_and_unique(self, rng):
        counts = {}
        for d in (2, 3, 4):
            for _ in range(10_000):
                tag = classify(random_markov(rng, d))
                assert tag.dim == d
                counts[tag.pattern] = counts.get(tag.pattern, 0) + 1
        # generic matrices are cyclic
        assert Pattern.D4_SIMPLE_REAL in counts
        assert Pattern.D4_SIMPLE_COMPLEX in counts

    def test_exp_generator_never_hits_impossible_rows(self, rng):
        # embeddable matrices cannot carry a nontrivial block at 1
        for d in (3, 4):
            for _ in range(2000):
                M = mat_exp(random_generator(rng, d))
                tag = classify(M)
                assert tag.pattern.value != f"D{d}_IDENTITY" or np.abs(M - np.eye(d)).max() < 1e-8


class TestNecessaryChecks:
    def test_identity_all_true(self):
        rep = necessary_checks(np.eye(3))
        assert rep.all_ok

    def test_zero_diagonal(self):
        M = np.array([[0.0, 1.0, 0.0], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
        assert not necessary_checks(M).diag_positive

    def test_transitivity_violation(self):
        a = b = 1 - math.exp(-1.0)
        M = np.array([[1 - a, a, 0], [0, 1, 0], [b, 0, 1 - b]])
        rep = necessary_checks(M)
        assert M[2, 0] * M[0, 1] > 0 and M[2, 1] == 0
        assert not rep.transitivity_ok

    def test_negative_det(self):
        M = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert not necessary_checks(M).det_positive

    def test_culver_odd_negative(self):
        # simple negative eigenvalue: odd block multiplicity
        M = np.array([[0.05, 0.95, 0.0], [0.9, 0.05, 0.05], [0.1, 0.1, 0.8]])
        rep = necessary_checks(M)
        evs = np.linalg.eigvals(M)
        assert min(e.real for e in evs) < 0
        assert not rep.culver_ok

    def test_failed_flag_forces_not_embeddable(self, rng):
        checked = 0
        for _ in range(4000):
            d = int(rng.integers(2, 5))
            M = random_markov(rng, d)
            rep = necessary_checks(M)
            if not rep.all_ok:
                assert decide(M).verdict is not Verdict.EMBEDDABLE
                checked += 1
        assert checked > 100


def analysis_corpus(seed=31):
    """Seeded d=3/4 corpus: uniform Markov matrices (about half with
    det <= 0), exp(Q) round trips, their state permutations, and two
    singular matrices."""
    rng = np.random.default_rng(seed)
    out = []
    for d in (3, 4):
        for _ in range(30):
            out.append(random_markov(rng, d))
        for _ in range(15):
            out.append(mat_exp(random_generator(rng, d, norm_max=3.0)))
        for M in out[-10:]:
            P = np.eye(d)[rng.permutation(d)]
            out.append(P @ M @ P.T)
        out.append(np.full((d, d), 1.0 / d))
    out.append(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
    return out


def reference_report(M, tol=DEFAULT_TOL):
    """The necessary-condition report built directly from the spectrum and,
    for a nonsingular M, the Jordan structure."""
    A = np.asarray(M, dtype=float)
    det = float(np.linalg.det(A))
    spec = eigenvalues(A, tol)
    unit_circle_ok = all(z == 1.0 or abs(z) < 1.0 - tol.nonneg for z, _ in spec.roots)
    culver_ok = det != 0.0
    if culver_ok:
        for z, sizes in jordan_structure(A, tol).blocks:
            if z.imag == 0.0 and z.real < -tol.nonneg:
                culver_ok &= all(sizes.count(s) % 2 == 0 for s in sizes)
    return NecessaryReport(
        diag_positive=bool(np.diag(A).min() > tol.nonneg),
        det_positive=det > 0.0,
        unit_circle_ok=unit_circle_ok,
        culver_ok=culver_ok,
        transitivity_ok=not violates_transitivity(A, tol.nonneg),
    )


# rejections that decide() makes on the entries alone, before any spectral work
ENTRY_ONLY = {Reason.DET_NONPOSITIVE, Reason.ZERO_DIAGONAL, Reason.TRANSITIVITY_VIOLATION}


class TestSingleAnalysisPass:
    def test_one_spectrum_and_one_jordan_structure_per_decide(self, monkeypatch):
        calls = {"eigenvalues": 0, "jordan_structure": 0, "det": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("eigenvalues", eigenvalues), ("jordan_structure", jordan_structure)):
            for mod in (kernel_mod, classify_mod, embed_mod):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, fn))
        monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))

        reasons = set()
        for M in analysis_corpus():
            calls.update(eigenvalues=0, jordan_structure=0, det=0)
            res = decide(M)
            reasons.add(res.reason)
            # entry-only rejections make no spectral call, the rest exactly one
            n = 0 if res.reason in ENTRY_ONLY else 1
            assert calls == {"eigenvalues": n, "jordan_structure": n, "det": 1}, (M, res.reason)
        assert Reason.DET_NONPOSITIVE in reasons and None in reasons

    def test_case_and_report_match_the_public_forms(self):
        # case is None exactly for the entry-only rejections and for a
        # failed analysis (ILL_CONDITIONED); otherwise it is classify's tag
        for M in analysis_corpus():
            res = decide(M)
            try:
                tag = classify(M)
            except IllConditionedError:
                tag = None
                assert res.reason in ENTRY_ONLY | {Reason.ILL_CONDITIONED}
            assert res.case == (None if res.reason in ENTRY_ONLY else tag)
            assert necessary_checks(M) == reference_report(M)

    def test_singular_matrix_skips_jordan_analysis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Jordan analysis on a singular matrix")

        monkeypatch.setattr(classify_mod, "jordan_structure", refuse)
        rep = necessary_checks(np.full((4, 4), 0.25))
        assert not rep.det_positive and not rep.culver_ok


class TestEntryScreens:
    def test_rejections_confirmed_exactly(self):
        # every DET_NONPOSITIVE has an exact determinant <= 0 (the float
        # entries in rational arithmetic) and every TRANSITIVITY_VIOLATION a
        # violating triple (i, k, j); sparse matrices reach the latter
        rng = np.random.default_rng(15)
        corpus = analysis_corpus() + [random_markov(rng, d) for _ in range(300) for d in (3, 4)]
        for _ in range(200):
            d = int(rng.integers(3, 5))
            M = random_markov(rng, d) * (rng.uniform(size=(d, d)) < 0.6)
            np.fill_diagonal(M, rng.uniform(0.5, 1.0, d))
            corpus.append(M / M.sum(axis=1, keepdims=True))
        seen = set()
        for M in corpus:
            res = decide(M)
            seen.add(res.reason)
            if res.reason is Reason.DET_NONPOSITIVE:
                assert exact_det(M) <= 0, M
            if res.reason is Reason.TRANSITIVITY_VIOLATION:
                assert violates_transitivity(M, DEFAULT_TOL.nonneg), M
        assert {Reason.DET_NONPOSITIVE, Reason.TRANSITIVITY_VIOLATION} <= seen
