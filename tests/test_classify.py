import cmath
import collections
import importlib
import itertools
import math

import numpy as np

from markovembed import (
    DEFAULT_TOL,
    ClassificationError,
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
from test_embed import d2_corpus

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

    def test_two_state_label_needs_no_analysis_outside_the_band(self, monkeypatch):
        # the spectrum {1, m00 - m10} labels a 2x2 matrix; only a second
        # eigenvalue inside the clustering band around 1 is analysed
        calls = {"eigenvalues": 0, "jordan_structure": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("eigenvalues", eigenvalues), ("jordan_structure", jordan_structure)):
            for mod in (kernel_mod, classify_mod, embed_mod):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, fn))

        analysed = 0
        for M, tol in d2_corpus():
            calls.update(eigenvalues=0, jordan_structure=0)
            res = decide(M, tol)
            lam = M[0, 0] - M[1, 0]
            inside = abs(1.0 - lam) <= tol.spec_cluster * max(1.0, abs(lam))
            if np.abs(M - np.eye(2)).max() <= tol.residual:
                n = 0  # the zero generator within the residual tolerance
            else:
                n = 1 if inside or abs(lam) > 1.0 + 100.0 * tol.spec_cluster else 0
            assert calls == {"eigenvalues": n, "jordan_structure": n}, (M, tol, res.reason)
            analysed += n
        assert analysed > 0

    def test_one_validation_per_public_stage(self, monkeypatch):
        # decide validates its input once (as_matrix and the Markov test);
        # after that only the stages it reaches by their public names
        # validate their own argument again: the Jordan analysis, the
        # spectrum, and the certificate's generator test and exponential
        stages = ("jordan_structure", "eigenvalues", "is_generator", "mat_exp")
        calls = dict.fromkeys(("as_matrix", "is_markov", "poly_in", *stages), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(kernel_mod, name)
            for mod in (kernel_mod, classify_mod, embed_mod):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))

        analysed = 0
        for M in analysis_corpus():
            calls.update(dict.fromkeys(calls, 0))
            res = decide(M)
            if res.reason in ENTRY_ONLY:
                assert calls["as_matrix"] == 1, (M, calls)
            else:
                analysed += 1
                assert calls["as_matrix"] <= 1 + sum(calls[s] for s in stages), (M, calls)
            # the Markov test and the polynomial run on validated arrays
            assert calls["is_markov"] == calls["poly_in"] == 0, (M, calls)
        assert analysed > 0

    def test_screens_skip_the_work_they_make_moot(self, monkeypatch):
        # a nonpositive det rejects before the sign pattern and any spectral
        # call; a conjugate pair with no branch in the generator sector
        # rejects after the one analysis, before any logarithm is built,
        # exponentiated or tested
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("eigenvalues", "jordan_structure", "sign_screen", "smt_coeffs", "mat_exp",
                 "is_generator")
        for mod in (kernel_mod, classify_mod, embed_mod):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))

        rng = np.random.default_rng(43)
        found = collections.Counter()
        while min(found[Reason.DET_NONPOSITIVE], found[Reason.NO_BRANCH_FEASIBLE]) < 20:
            M = random_markov(rng, int(rng.integers(3, 5)))
            if np.linalg.det(M) > 0.0:
                tag = classify(M)
                theta = tag.eigen.get("theta", tag.eigen.get("lambda"))
                # |Im z| <= cot(pi/d) |Re z| for every z = log|theta| + i(arg theta + 2 pi k)
                cot = 1.0 / math.tan(math.pi / len(M))
                if not isinstance(theta, complex) or (
                    abs(cmath.phase(theta)) <= cot * abs(math.log(abs(theta))) + 1e-6
                ):
                    continue
            calls.clear()
            res = decide(M)
            found[res.reason] += 1
            if res.reason is Reason.DET_NONPOSITIVE:
                assert calls == {}, (M, calls)
            else:
                assert res.reason is Reason.NO_BRANCH_FEASIBLE, (M, res.reason)
                assert calls == {"eigenvalues": 1, "jordan_structure": 1, "sign_screen": 1}, (
                    M, calls
                )

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

    def test_det_rejection_comes_first(self):
        # a matrix failing the det screen together with the diagonal or the
        # transitivity screen reports DET_NONPOSITIVE, while necessary_checks
        # reports every failed flag.  A transitive pattern with an exact zero on
        # the diagonal is singular (a positive permutation would pass through
        # that state on a cycle, and transitivity would close the cycle on
        # it), so a zero diagonal with det < 0 comes with intransitivity
        rng = np.random.default_rng(17)
        corpus = [np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])]
        while len(corpus) < 41:
            d = int(rng.integers(3, 5))
            M = random_markov(rng, d) * (rng.uniform(size=(d, d)) < 0.6)
            if M.sum(axis=1).all() and exact_det(M) < -1e-9:
                corpus.append(M / M.sum(axis=1, keepdims=True))
        seen = collections.Counter()
        for M in corpus:
            zero_diag = not (np.diag(M) > DEFAULT_TOL.nonneg).all()
            intransitive = violates_transitivity(M, DEFAULT_TOL.nonneg)
            if not (zero_diag or intransitive):
                continue
            assert decide(M).reason is Reason.DET_NONPOSITIVE, M
            rep = necessary_checks(M)
            assert (rep.det_positive, rep.diag_positive, rep.transitivity_ok) == (
                False, not zero_diag, not intransitive
            ), M
            seen[zero_diag, intransitive] += 1
        assert set(seen) == {(True, False), (False, True), (True, True)}, seen


def partitions(n, most=None):
    """The partitions of n, as descending tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def slot_lists(n):
    """Lists of eigenvalue slots filling n dimensions: ("r", sizes) for a
    real eigenvalue, ("c", sizes) for a complex pair, which fills twice."""
    if n == 0:
        yield []
        return
    for m in range(1, n + 1):
        for sizes in partitions(m):
            for rest in slot_lists(n - m):
                yield [("r", sizes), *rest]
            for rest in slot_lists(n - 2 * m) if 2 * m <= n else ():
                yield [("c", sizes), *rest]


def jordan_structures():
    """Every Jordan structure with the eigenvalue 1, for d = 2-4: each
    partition at 1, each filling of the rest by real eigenvalues (positive,
    zero or negative) and complex pairs, each with each partition."""
    reals, pairs = (0.5, 0.25, 0.0, -0.25, -0.5), (0.3 + 0.4j, -0.3 + 0.4j)
    seen = {}
    for d in (2, 3, 4):
        for m in range(1, d + 1):
            for units, slots in itertools.product(partitions(m), slot_lists(d - m)):
                rs = [sizes for kind, sizes in slots if kind == "r"]
                cs = [sizes for kind, sizes in slots if kind == "c"]
                for rv in itertools.permutations(reals, len(rs)):
                    for cv in itertools.permutations(pairs, len(cs)):
                        blocks = [(1.0 + 0j, units)] + [(complex(v), s) for v, s in zip(rv, rs)]
                        for z, s in zip(cv, cs):
                            blocks += [(z, s), (z.conjugate(), s)]
                        seen[tuple(sorted(blocks, key=lambda b: (b[0].real, b[0].imag)))] = 0
    return [kernel_mod.JordanStructure(b, sum(max(s) for _z, s in b)) for b in seen]


def signature(js):
    """The sizes at 1 and the sorted (kind, sizes) of each other eigenvalue:
    r real, + or - a real one with two 1x1 blocks by sign, c a complex pair."""
    units = dict(js.blocks)[1.0]
    others = []
    for z, sizes in js.blocks:
        if z != 1.0 and z.imag >= 0.0:
            kind = "c" if z.imag else "r" if sizes != (1, 1) else "+" if z.real >= 0 else "-"
            others.append((kind, sizes))
    return units, tuple(sorted(others))


class TestCaseTable:
    STRUCTURES = jordan_structures()

    def test_only_a_nontrivial_block_at_one_is_unclassified(self):
        # a Jordan block of size > 1 at 1 makes the powers of M grow, which
        # no Markov matrix allows; every other structure has a case
        raised = 0
        for js in self.STRUCTURES:
            power_bounded = max(dict(js.blocks)[1.0]) == 1
            try:
                classify_mod._case_tag(js)
            except ClassificationError:
                assert not power_bounded, js
                raised += 1
            else:
                assert power_bounded, js
        assert 0 < raised < len(self.STRUCTURES)

    def test_every_tag_covers_its_spectrum(self):
        for js in self.STRUCTURES:
            if max(dict(js.blocks)[1.0]) > 1:
                continue
            tag = classify_mod._case_tag(js)
            assert tag == classify_mod._case_tag(kernel_mod.JordanStructure(
                js.blocks[::-1], js.min_poly_degree
            ))
            units, row = classify_mod._CASES[tag.pattern]
            sizes = dict(js.blocks)
            assert tag.dim == sum(sum(s) for s in sizes.values())
            assert set(sizes) == {1.0} | {
                w for v in tag.eigen.values() for w in (v, complex(v).conjugate())
            }
            assert sizes[1.0] == units and tag.eigen.keys() == {n for n, _k, _s in row}
            degree = max(units)
            for name, kind, s in row:
                assert sizes[tag.eigen[name]] == s
                assert isinstance(tag.eigen[name], complex) == (kind == "c")
                degree += max(s) * (2 if kind == "c" else 1)
            assert tag.min_poly_degree == js.min_poly_degree == degree
            # names of one kind and size descend: lambda1 > lambda2 > ...
            for (n1, k1, s1), (n2, k2, s2) in itertools.combinations(row, 2):
                if (k1, s1) == (k2, s2):
                    assert n1 < n2 and tag.eigen[n1].real > tag.eigen[n2].real
            if tag.pattern.name.endswith(("_POS", "_NEG")):
                double = tag.eigen["lambda2" if "lambda2" in tag.eigen else "lambda"]
                assert sizes[double] == (1, 1)
                assert (double >= 0.0) == tag.pattern.name.endswith("_POS")

    def test_each_pattern_has_one_signature(self):
        reached = {}
        for js in self.STRUCTURES:
            if max(dict(js.blocks)[1.0]) == 1:
                pattern = classify_mod._case_tag(js).pattern
                reached.setdefault(pattern, set()).add(signature(js))
        assert reached.keys() == set(Pattern)
        assert all(len(sigs) == 1 for sigs in reached.values()), reached
