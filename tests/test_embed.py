import cmath
import collections
import math
import sys
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg

from markovembed import (
    CaseTag,
    ClassificationError,
    Construction,
    DegenerateDenominatorError,
    IllConditionedError,
    NonpositiveParameterError,
    Pattern,
    Reason,
    SearchStatus,
    Tolerances,
    Uniqueness,
    Verdict,
    classify,
    decide,
    delta_min,
    embed_d2,
    eq_input_extremal_generators,
    hyperbola_search,
    is_generator,
    jordan_structure,
    mat_exp,
    poly_in,
    principal_log,
    smt_coeffs,
    uniqueness_certificates,
)
from markovembed.embed import (
    _branch_interval,
    _pair_decomposition,
    _sector,
    _sheet_constraints,
)
from markovembed import embed as embed_mod
from markovembed.kernel import DEFAULT_TOL, scale_of

from conftest import random_generator, random_markov
from oracles import assert_embeds, match_spectra, qr_eigenvalues
from test_dispatch import pattern_corpus

PI_SQRT3 = math.pi * math.sqrt(3.0)


def kendall_block(a, b):
    return np.array([[1 - a, a], [b, 1 - b]])


def constant_input(c, d=3):
    return (1 - c) * np.eye(d) + np.full((d, d), c / d)


def lifted_equal_input(ray, f):
    """1 (+) E(ray, f): the equal-input block with c = 1 + f exp(-delta_min)."""
    r = np.asarray(ray, dtype=float)
    c = 1 + f * math.exp(-delta_min(*r))
    M = np.eye(4)
    M[1:, 1:] = (1 - c) * np.eye(3) + np.tile(c * r / r.sum(), (3, 1))
    return M


def sheet_point(u, w):
    """The point of yz - x^2 = 1, z > 0 at (u, w)."""
    return np.array([np.sinh(u), np.cosh(u) * np.exp(w), np.cosh(u) * np.exp(-w)])


class TestD2:
    def test_closed_form(self):
        a, b = 0.3, 0.2
        res = embed_d2(kendall_block(a, b))
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness is Uniqueness.UNIQUE
        Q = res.generators[0].matrix
        # lam = 0.5, so the rate scale is 2 ln 2
        expected = 2 * math.log(2) * (kendall_block(a, b) - np.eye(2))
        assert np.abs(Q - expected).max() < 1e-14
        assert res.generators[0].residual < 1e-10

    def test_singular_boundary(self):
        res = embed_d2(kendall_block(0.5, 0.5))
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.DET_NONPOSITIVE

    def test_identity(self):
        res = embed_d2(np.eye(2))
        assert res.verdict is Verdict.EMBEDDABLE
        assert np.abs(res.generators[0].matrix).max() == 0.0

    def test_decide_labels_and_decides_as_the_analysis_and_kendall(self):
        # decide labels most 2x2 inputs from their entries; the label must be
        # classify's to the bit, and the decision embed_d2's
        cases = collections.Counter()
        for M, tol in d2_corpus():
            res = decide(M, tol)
            if np.abs(M - np.eye(2)).max() <= tol.residual:
                assert res.case.pattern is Pattern.D2_IDENTITY and res.verdict is Verdict.EMBEDDABLE
                cases["identity"] += 1
                continue
            try:
                tag = classify(M, tol)
            except (IllConditionedError, ClassificationError):
                assert (res.verdict, res.reason, res.case) == (
                    Verdict.UNDECIDED, Reason.ILL_CONDITIONED, None
                ), M
                cases["ill-conditioned"] += 1
                continue
            # the analysis gives D2_IDENTITY only for M = I, which the
            # identity shortcut has taken
            assert res.case == tag and tag.pattern is Pattern.D2_SIMPLE, (M, tol)
            assert res.case.eigen["lambda"].hex() == tag.eigen["lambda"].hex(), M
            ref = embed_d2(M, tol)
            assert (res.verdict, res.reason, res.uniqueness) == (
                ref.verdict, ref.reason, ref.uniqueness
            ), M
            assert [(g.matrix.tobytes(), g.residual) for g in res.generators] == [
                (g.matrix.tobytes(), g.residual) for g in ref.generators
            ], M
            cases[res.verdict] += 1
        assert set(cases) == {
            "identity", "ill-conditioned", Verdict.EMBEDDABLE, Verdict.NOT_EMBEDDABLE
        }, cases


def d2_corpus(seed=23):
    """Seeded 2x2 Markov matrices [[1 - a, a], [b, 1 - b]], each with a
    tolerance policy: a + b = 0 and >= 1, a zero rate, rates of 1e-17 and
    1e-300, 1 - lam = a + b on either side of the clustering band (with a
    residual tolerance below it, so that the band is analysed), lam just
    past -1, and policies with a wide band and a narrow one."""
    rng = np.random.default_rng(seed)
    tight = Tolerances(residual=1e-12)
    wide = Tolerances(spec_cluster=0.3)
    out = [(kendall_block(a, b), DEFAULT_TOL) for a, b in [
        (0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.0, 0.0), (0.6, 0.7), (0.0, 0.3), (0.3, 0.0),
        (1e-17, 1e-17), (1e-17, 0.3), (1e-300, 1e-300), (0.0, 1e-300), (1e-300, 0.4),
    ]]
    for _ in range(40):
        a, b = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        out += [(kendall_block(a, b), DEFAULT_TOL), (kendall_block(a, b), wide)]
        one_rate = kendall_block(a, 0.0) if rng.uniform() < 0.5 else kendall_block(0.0, b)
        out.append((one_rate, DEFAULT_TOL))
    for tol in (tight, DEFAULT_TOL):
        for k in range(-4, 5):
            s = tol.spec_cluster * (1.0 + k * 2.0**-45)
            for share in (0.0, 0.5, 1.0):
                out.append((kendall_block(share * s, s - share * s), tol))
    # entries past 0 and 1 within the Markov tolerance: lam = -1 - 8e-11, inside
    # the analysis's disk of radius 1 + 100 spec_cluster, and outside it
    M = np.array([[-4e-11, 1.0 + 4e-11], [1.0 + 4e-11, -4e-11]])
    out += [(M, DEFAULT_TOL), (M, Tolerances(spec_cluster=1e-13))]
    # lam = -0.0 - 0.0, which the analysis reads as 0.0
    return out + [(np.array([[-0.0, 1.0], [0.0, 1.0]]), DEFAULT_TOL)]


class TestNearIdentity:
    """Inputs past the residual tolerance of the identity but inside the
    clustering band around it.  Where M - I is null at the rank threshold
    (entries below about tol.rank) the Jordan analysis reads the identity's
    blocks, but the identity pattern is I's alone; every input must still
    come back with a result, never NotEmbeddable and never identity-tagged."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decided_or_undecided_never_raised(self, d):
        rng = np.random.default_rng(41 + d)
        tight = Tolerances(residual=1e-12)
        verdicts = collections.Counter()
        for tol, scales in ((tight, (1e-11, 3e-10, 1e-9, 1.5e-9)), (DEFAULT_TOL, (3e-8, 1e-7))):
            for scale in scales:
                for _ in range(15):
                    # I + scale Q, exp(scale Q) to first order, with every rate
                    # in [scale / 2, scale], above the sign tolerance
                    Q = rng.uniform(0.5, 1.0, (d, d))
                    np.fill_diagonal(Q, 0.0)
                    np.fill_diagonal(Q, -Q.sum(axis=1))
                    M = np.eye(d) + scale * Q
                    assert np.abs(M - np.eye(d)).max() > tol.residual
                    res = decide(M, tol)
                    assert res.verdict is not Verdict.NOT_EMBEDDABLE, (M, res.reason)
                    assert res.case is None or res.case.pattern.name != f"D{d}_IDENTITY"
                    verdicts[res.verdict] += 1
        # inside the band the multiplicities are unresolvable: ILL_CONDITIONED
        assert verdicts[Verdict.UNDECIDED] > 0, verdicts

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_blocks_past_the_residual_gap(self, d):
        # every off-diagonal entry 1e-11: M - I is null at the rank threshold,
        # so the Jordan analysis reads the identity's blocks, yet M is not I
        # and the zero generator misses residual = 1e-12
        tight = Tolerances(residual=1e-12)
        M = np.full((d, d), 1e-11)
        np.fill_diagonal(M, 1.0 - (d - 1) * 1e-11)
        assert jordan_structure(M, tight).blocks == ((1.0, (1,) * d),)
        with pytest.raises(IllConditionedError, match="identity pattern"):
            classify(M, tight)
        assert classify(np.eye(d), tight).pattern.name == f"D{d}_IDENTITY"
        res = decide(M, tight)
        assert (res.verdict, res.reason, res.case) == (
            Verdict.UNDECIDED, Reason.ILL_CONDITIONED, None
        )


CONFLUENT_PATTERNS = {
    Pattern.D3_JORDAN2,
    Pattern.D4_DEG3_TWO_ONES_JORDAN,
    Pattern.D4_DEG3_L_JORDAN_L,
    Pattern.D4_JORDAN3,
    Pattern.D4_MIXED_JORDAN2,
}


def mp_log_coeffs(M, k):
    """Coefficients c with p(x) = sum_j c[j] x^(j+1) matching the branch-k
    log(1 + x) and its derivatives up to the index of each eigenvalue of M
    (read off its Jordan structure): the confluent Vandermonde system,
    solved in 30-digit mpmath arithmetic."""
    rows, rhs = [], []
    for z, sizes in jordan_structure(M).blocks:
        if z == 1.0:
            continue
        lam = mpmath.mpc(z.real, z.imag) if z.imag else mpmath.mpf(z.real)
        mu = lam - 1
        for r in range(max(sizes)):
            rhs.append(
                mpmath.log(lam) + 2j * mpmath.pi * k * mpmath.sign(z.imag)
                if r == 0
                else (-1) ** (r + 1) / (r * lam**r)
            )
            rows.append((mu, r))
    n = len(rows)
    A = mpmath.matrix(n, n)
    for i, (mu, r) in enumerate(rows):
        for j in range(n):
            power = j + 1
            if power >= r:  # d^r/dx^r x^power / r! at mu
                A[i, j] = mpmath.binomial(power, r) * mu ** (power - r)
    c = mpmath.lu_solve(A, mpmath.matrix(rhs))
    return [float(mpmath.re(v)) for v in c]


class TestCoeffFormulas:
    def test_confluent_pair_closed_form(self):
        # equal shifted eigenvalues: the confluent limit formula
        mu = -0.4
        tag = classify(mat_exp(np.array([[-0.5, 0.5, 0], [0, -0.5, 0.5], [0, 0, 0.0]])))
        coeffs = smt_coeffs(tag)
        lam = tag.eigen["lambda"].real
        m = lam - 1
        assert abs(coeffs[0] - (2 * math.log1p(m) / m - 1 / (1 + m))) < 1e-12

    def test_complex_branch_matches_principal_log(self, rng):
        done = 0
        while done < 50:
            M = random_markov(rng, 3)
            tag = classify(M)
            if tag.pattern is not Pattern.D3_COMPLEX_PAIR:
                continue
            coeffs = smt_coeffs(tag, k=0)
            R = poly_in(coeffs, M - np.eye(3))
            assert np.abs(R - principal_log(M)).max() < 1e-9
            done += 1

    def test_simple_real_spectral_check(self, rng):
        done = 0
        while done < 50:
            M = random_markov(rng, 4)
            tag = classify(M)
            if tag.pattern is not Pattern.D4_SIMPLE_REAL:
                continue
            lams = [tag.eigen[f"lambda{i}"].real for i in (1, 2, 3)]
            if min(lams) <= 1e-6:
                continue
            R = poly_in(smt_coeffs(tag), M - np.eye(4))
            want = [0.0] + [math.log(l) for l in lams]
            assert match_spectra(want, list(qr_eigenvalues(R))) < 1e-9
            done += 1

    def test_eigen_data_override(self):
        tag = classify(np.eye(3) * 0 + constant_input(0.4))
        # explicit data replaces the tag's own eigenvalues
        got = smt_coeffs(tag, eigen_data={"lambda": 0.25})
        assert abs(got[0] - (-math.log(0.25) / 0.75)) < 1e-14

    def test_cross_check_against_principal_log(self, rng):
        # every principal-branch formula must reproduce the principal log
        done = 0
        while done < 200:
            d = int(rng.integers(3, 5))
            M = mat_exp(random_generator(rng, d, norm_max=2.0))
            tag = classify(M)
            try:
                coeffs = smt_coeffs(tag)
            except Exception:
                continue
            R = poly_in(coeffs, M - np.eye(d))
            assert np.abs(R - principal_log(M)).max() < 1e-9
            done += 1

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_every_pattern_matches_logm_and_mpmath(self, seed):
        # the one interpolant reproduces scipy's logm on every pattern with
        # a real logarithm, the Jordan ones included, and a 30-digit
        # confluent Vandermonde solve on the branches k = -1, 0, 1
        covered = set()
        with mpmath.workdps(30):
            for M in pattern_corpus(seed):
                tag = classify(M)
                try:
                    coeffs = {k: smt_coeffs(tag, k=k) for k in (-1, 0, 1)}
                except DegenerateDenominatorError:
                    continue
                L = scipy.linalg.logm(M)
                R = poly_in(coeffs[0], M - np.eye(len(M)))
                assert np.abs(R - L).max() <= 1e-8 * np.abs(L).max()
                for k, c in coeffs.items():
                    want = mp_log_coeffs(M, k)
                    assert np.abs(np.subtract(c, want)).max() <= 1e-10 * np.abs(want).max()
                covered.add(tag.pattern)
        assert CONFLUENT_PATTERNS <= covered
        assert {Pattern.D3_COMPLEX_PAIR, Pattern.D4_DEG3_COMPLEX, Pattern.D4_SIMPLE_REAL} <= covered

    @pytest.mark.parametrize(
        "pattern, eigen",
        [
            (Pattern.D3_SIMPLE_REAL, {"lambda1": 0.5, "lambda2": -0.3}),
            (Pattern.D4_JORDAN3, {"lambda": 0.0}),
            (Pattern.D4_SIMPLE_COMPLEX, {"lambda": -0.2, "theta": 0.3 + 0.2j}),
            (Pattern.D3_SIMPLE_REAL, {"lambda1": 0.5 + 5e-9, "lambda2": 0.5}),
            (Pattern.D3_SIMPLE_REAL, {"lambda1": 1.0 - 5e-9, "lambda2": 0.6}),
            (Pattern.D4_MIXED_JORDAN2, {"lambda1": 0.4, "lambda2": 0.4 - 5e-9}),
            (Pattern.D3_COMPLEX_PAIR, {"lambda": 0.5 + 7e-9j}),
            (Pattern.D4_SIMPLE_COMPLEX, {"lambda": 0.2, "theta": 0.5 + 7e-9j}),
        ],
        ids=[
            "negative", "zero-jordan", "negative-beside-pair", "close-pair",
            "close-to-one", "close-to-jordan", "near-real-pair", "near-real-pair-d4",
        ],
    )
    def test_degenerate_nodes_raise(self, pattern, eigen):
        # |Im lambda| = 7e-9 puts the pair 1.4e-8 apart, beyond the node
        # distance check alone: the pair has its own
        d = int(pattern.name[1])  # every case here is cyclic: degree d
        tag = CaseTag(d, d, pattern, eigen)
        with pytest.raises(DegenerateDenominatorError):
            smt_coeffs(tag, k=1)


class TestD3Deg2:
    def test_equal_input_half(self):
        M = constant_input(0.5)
        res = decide(M)
        expected = (-math.log(0.5) / 0.5) * (M - np.eye(3))
        assert res.verdict is Verdict.EMBEDDABLE
        assert np.abs(res.generators[0].matrix - expected).max() < 1e-12

    def test_single_row_case_unique(self):
        M = np.eye(3)
        M[2, :] = [0.2, 0.3, 0.5]
        res = decide(M)
        assert res.case.pattern is Pattern.D3_DEG2_1_1_L
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness is Uniqueness.UNIQUE

    def test_negative_simple_eigenvalue_rejected(self):
        M = np.eye(3)
        M[2, :] = [0.7, 0.7, -0.4]
        # lam = -0.4 on a single-row case is not Markov; use the direct gate
        M = np.eye(3)
        M[2, :] = [0.9, 0.5, -0.4]
        assert not (M >= 0).all()  # such lam < 0 cannot occur in this class
        # but the rejected path is reachable through the equal-input family
        res = decide(constant_input(1.4))
        assert res.verdict is Verdict.NOT_EMBEDDABLE

    def test_uniqueness_from_branch_bound(self):
        lam = math.exp(-2 * PI_SQRT3) + 1e-3
        res = decide(constant_input(1 - lam))
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness is Uniqueness.UNIQUE

    def test_possibly_more_below_branch_bound(self):
        lam = math.exp(-2 * PI_SQRT3) / 10.0
        res = decide(constant_input(1 - lam))
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness in (Uniqueness.POSSIBLY_MORE, Uniqueness.MULTIPLE_KNOWN)


class TestEqualInputNegative:
    def test_delta_min_values(self):
        assert abs(delta_min(1.0, 1.0, 1.0) - PI_SQRT3) < 1e-14
        # frozen from mpmath: pi * 2 * sqrt(4) / sqrt(2)
        assert abs(delta_min(1.0, 1.0, 2.0) - 8.885765876316732) < 1e-12

    def test_delta_min_homogeneous(self, rng):
        for _ in range(200):
            c = rng.uniform(0.1, 3.0, 3)
            t = rng.uniform(0.1, 10.0)
            assert abs(delta_min(*c) - delta_min(*(t * c))) < 1e-10 * delta_min(*c)

    def test_delta_min_rejects_nonpositive(self):
        with pytest.raises(NonpositiveParameterError):
            delta_min(1.0, 0.0, 1.0)

    def test_extremal_generators_constant_input(self):
        qp, qm = eq_input_extremal_generators(1.0, 1.0, 1.0)
        s = 2 * math.pi / math.sqrt(3.0)
        circ = s * np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]])
        assert np.abs(qp - circ).max() < 1e-12
        assert np.abs(qm - circ.T).max() < 1e-12

    def test_extremal_exponential_identity(self, rng):
        for _ in range(1000):
            c = rng.uniform(0.2, 2.0, 3)
            qp, qm = eq_input_extremal_generators(*c)
            assert is_generator(qp) and is_generator(qm)
            cmax = 1 + math.exp(-delta_min(*c))
            target = (1 - cmax) * np.eye(3) + np.tile(cmax * c / c.sum(), (3, 1))
            assert np.abs(mat_exp(qp) - target).max() < 1e-9
            assert np.abs(mat_exp(qm) - target).max() < 1e-9

    def test_extremal_pair_commutes_with_direction(self, rng):
        for _ in range(100):
            c = rng.uniform(0.2, 2.0, 3)
            C = np.tile(c, (3, 1))
            for Q in eq_input_extremal_generators(*c):
                assert np.abs(Q @ C - C @ Q).max() < 1e-10

    def test_interior_point_two_generators(self):
        res = decide(constant_input(1.002))
        assert res.verdict is Verdict.EMBEDDABLE
        assert len(res.generators) == 2
        assert res.uniqueness is Uniqueness.MULTIPLE_KNOWN
        assert all(g.residual <= 1e-8 for g in res.generators)
        assert {g.construction for g in res.generators} == {Construction.HYPERBOLA}
        assert sorted(g.branch for g in res.generators) == [-1, 0]

    def test_beyond_bound_rejected(self):
        res = decide(constant_input(1.4))
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.K_RANGE_EMPTY

    def test_squared_extremal_has_three_embeddings(self):
        # the square of the extremal matrix is equal-input with c < 1 and
        # carries the equal-input embedding plus both doubled circulants
        s = 2 * math.pi / math.sqrt(3.0)
        qp = s * np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]])
        M2 = mat_exp(qp) @ mat_exp(qp)
        res = decide(M2, all_branches=True)
        assert res.verdict is Verdict.EMBEDDABLE
        assert len(res.generators) == 3
        assert res.uniqueness is Uniqueness.MULTIPLE_KNOWN
        # the principal logarithm first, then the rotations by ascending k,
        # although the searches run each branch beside its mirror
        assert [(g.construction, g.branch) for g in res.generators] == [
            (Construction.POLY_SMT, 0), (Construction.HYPERBOLA, -1), (Construction.HYPERBOLA, 1)
        ]
        assert min(np.abs(g.matrix - 2 * qp).max() for g in res.generators) < 1e-8
        c = 1 - math.exp(-2 * PI_SQRT3)
        q_ei = (-math.log1p(-c) / c) * (M2 - np.eye(3))
        assert min(np.abs(g.matrix - q_ei).max() for g in res.generators) < 1e-8

    def test_skewed_ray(self, rng):
        for _ in range(50):
            c = rng.uniform(0.2, 2.0, 3)
            dmin = delta_min(*c)
            cmax = 1 + math.exp(-dmin)
            inside = 1 + 0.5 * math.exp(-dmin)
            M = (1 - inside) * np.eye(3) + np.tile(inside * c / c.sum(), (3, 1))
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE
            # beyond the constant-ray bound: the block embeds iff its lift
            # 1 (+) M does, as a generator of either gives one of the other
            beyond = min(1.5, 1 + 1.7 * math.exp(-dmin))
            M = (1 - beyond) * np.eye(3) + np.tile(beyond * c / c.sum(), (3, 1))
            L = np.eye(4)
            L[1:, 1:] = M
            res, lifted = decide(M), decide(L)
            assert res.verdict is lifted.verdict
            for g in res.generators:
                assert_embeds(g.matrix, M)


class TestConverseContract:
    """No NotEmbeddable where a generator exists: d=3 equal-input blocks
    with c > 1 against their lifts 1 (+) E, and large-norm round trips."""

    def test_block_verdict_equals_lift_verdict(self):
        rng = np.random.default_rng(7)
        seen = collections.Counter()
        for _ in range(60):
            ray = rng.uniform(0.1, 1.0, 3)
            f = math.exp(rng.uniform(math.log(0.3), math.log(20.0)))
            L = lifted_equal_input(ray, f)
            res = decide(L[1:, 1:])
            assert res.verdict is decide(L).verdict, (ray, f)
            seen[res.verdict] += 1
            for g in res.generators:
                assert_embeds(g.matrix, L[1:, 1:])
        assert seen[Verdict.EMBEDDABLE] >= 20 and seen[Verdict.NOT_EMBEDDABLE] >= 10

    @pytest.mark.parametrize(
        "ray, f",
        [((0.55, 0.3, 0.2), 1.5), ((0.5, 0.3, 0.2), 2.0), ((0.372, 0.373, 0.255), 1.7905)],
    )
    def test_skewed_blocks_beyond_constant_ray_bound(self, ray, f):
        E = lifted_equal_input(ray, f)[1:, 1:]
        res = decide(E)
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness is Uniqueness.MULTIPLE_KNOWN
        assert sorted(g.branch for g in res.generators) == [-1, 0]
        for g in res.generators:
            assert g.construction is Construction.HYPERBOLA
            assert_embeds(g.matrix, E)

    def test_constant_ray_threshold(self):
        # the sector |Im z| <= |Re z| / sqrt(3) of 3x3 generators puts the
        # threshold at c = 1 + e^(-pi sqrt 3), where the circulants embed
        edge = math.exp(-PI_SQRT3)
        inside = decide(constant_input(1 + edge * (1 - 1e-6)))
        assert inside.verdict is Verdict.EMBEDDABLE
        beyond = decide(constant_input(1 + edge * (1 + 1e-6)))
        assert (beyond.verdict, beyond.reason) == (Verdict.NOT_EMBEDDABLE, Reason.K_RANGE_EMPTY)
        M = constant_input(1 + edge)
        res = decide(M)
        assert [g.construction for g in res.generators] == [Construction.HYPERBOLA] * 2
        for Q in eq_input_extremal_generators(1.0, 1.0, 1.0):
            assert min(np.abs(g.matrix - Q).max() for g in res.generators) <= 1e-10
        for g in res.generators:
            assert_embeds(g.matrix, M)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_tighter_residual_never_rejects(self, seed):
        # a residual tolerance that almost no candidate meets fails the
        # certificates: that may leave a verdict Undecided, never NotEmbeddable
        tight = Tolerances(residual=1e-300)
        undecided = collections.Counter()
        for M in pattern_corpus(seed):
            for all_branches in (False, True):
                loose = decide(M, all_branches=all_branches)
                if loose.verdict is not Verdict.NOT_EMBEDDABLE:
                    res = decide(M, tight, all_branches=all_branches)
                    assert res.verdict is not Verdict.NOT_EMBEDDABLE, (loose.case, res.reason)
                    undecided[loose.case.pattern, res.reason] += 1
        assert undecided[Pattern.D4_DEG3_DOUBLE_L2_POS, Reason.RESIDUAL_CHECK_FAILED] > 0

    def test_large_norm_round_trips(self):
        # polynomial logarithms with coefficients of 1e5-1e6: their row
        # sums are zero up to rounding of about 1e-9
        rng = np.random.default_rng(5)
        for _ in range(300):
            Q = rng.uniform(0.0, 1.0, (4, 4))
            np.fill_diagonal(Q, 0.0)
            np.fill_diagonal(Q, -Q.sum(axis=1))
            Q *= rng.uniform(10.0, 12.0) / np.abs(Q).sum(axis=1).max()
            M = scipy.linalg.expm(Q)
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE, (res.reason, Q)
            for g in res.generators:
                assert_embeds(g.matrix, M)


class TestD3Cyclic:
    def test_round_trip_real(self, rng):
        done = 0
        while done < 200:
            Q = random_generator(rng, 3)
            M = mat_exp(Q)
            tag = classify(M)
            if tag.pattern not in (Pattern.D3_SIMPLE_REAL, Pattern.D3_JORDAN2):
                continue
            res = decide(M)
            assert res.case == tag
            assert res.verdict is Verdict.EMBEDDABLE
            assert np.abs(res.generators[0].matrix - Q).max() < 1e-8
            assert res.uniqueness is Uniqueness.UNIQUE
            done += 1

    def test_product_of_commuting_flows_not_embeddable(self):
        # a = 1 - e^{-t}, b = 1 - e^{-s} with t != s: the entry screen
        # rejects the sign pattern, and the cubic-coefficient log, the sole
        # candidate, has a strictly negative rate
        a, b = 1 - math.exp(-1.0), 1 - math.exp(-0.4)
        M = np.array([[1 - a, a, 0], [0, 1, 0], [b, 0, 1 - b]])
        res = decide(M)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.TRANSITIVITY_VIOLATION
        R = poly_in(smt_coeffs(classify(M)), M - np.eye(3))
        assert R[~np.eye(3, dtype=bool)].min() < -1e-3


class TestD3Complex:
    def test_branch_count_bound_value(self):
        det = math.exp(-4 * PI_SQRT3)
        bound = math.floor(1 - math.log(det) / (2 * PI_SQRT3))
        assert bound == 3

    def test_round_trip_unique_for_large_det(self, rng):
        done = 0
        while done < 100:
            Q = random_generator(rng, 3, norm_max=2.0)
            if math.exp(np.trace(Q)) <= math.exp(-math.pi):
                continue
            M = mat_exp(Q)
            if classify(M).pattern is not Pattern.D3_COMPLEX_PAIR:
                continue
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE
            assert len(res.generators) == 1
            assert res.uniqueness is Uniqueness.UNIQUE
            assert np.abs(res.generators[0].matrix - Q).max() < 1e-8
            done += 1

    def test_circulant_multiple_branches(self):
        # strong rotation: branches k = 0 and k = -1 both feasible
        s = 2 * math.pi / math.sqrt(3.0) * 1.2
        Q = s * np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]])
        M = mat_exp(Q)
        tag = classify(M)
        if tag.pattern is Pattern.D3_COMPLEX_PAIR:
            res = decide(M)
            assert res.case == tag
            assert res.verdict is Verdict.EMBEDDABLE
            assert any(np.abs(g.matrix - Q).max() < 1e-8 for g in res.generators)


COMPLEX_PATTERNS = (Pattern.D3_COMPLEX_PAIR, Pattern.D4_DEG3_COMPLEX, Pattern.D4_SIMPLE_COMPLEX)


def complex_corpus(pattern, seed, count=30):
    """Seeded matrices of one complex-pair pattern: exp(Q) round trips,
    random Markov matrices, and the strong-rotation circulant, which has
    two generator branches (lifted to d=4 by a unit state, or by a slow
    fourth state for D4_SIMPLE_COMPLEX)."""
    rng = np.random.default_rng(seed)
    lift = pattern is Pattern.D4_DEG3_COMPLEX
    d = 3 if pattern is Pattern.D3_COMPLEX_PAIR or lift else 4
    out = []
    for draw in (
        lambda: mat_exp(random_generator(rng, d, norm_max=4.0)),
        lambda: random_markov(rng, d),
    ):
        found = 0
        while found < count:
            M = draw()
            M = scipy.linalg.block_diag([[1.0]], M) if lift else M
            if classify(M).pattern is pattern:
                out.append(M)
                found += 1
    Q = np.zeros((4, 4))
    Q[:3, :3] = 2 * math.pi / math.sqrt(3.0) * 1.2 * np.array(
        [[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]]
    )
    if pattern is Pattern.D3_COMPLEX_PAIR:
        Q = Q[:3, :3]
    elif pattern is Pattern.D4_SIMPLE_COMPLEX:
        Q[3] = (0.5 / 3, 0.5 / 3, 0.5 / 3, -0.5)
    out.append(mat_exp(Q))
    return out


# the rejections made before the case decider runs
SCREENS = {
    Reason.DET_NONPOSITIVE, Reason.ZERO_DIAGONAL, Reason.TRANSITIVITY_VIOLATION,
    Reason.UNIT_CIRCLE_EIGENVALUE, Reason.NEGATIVE_EIGENVALUE_CULVER,
}


def cycle_scan(d):
    """exp(s C) for the d-cycle generator C, s = 0.5, 0.75, ..., 12.  The
    pair -1 + exp(+-2 pi i / d) of C lies on the edge of the generator
    sector |Im z| <= cot(pi/d) |Re z|, and so does its branch of log exp(s C)."""
    C = np.roll(np.eye(d), 1, axis=1) - np.eye(d)
    return [(s, mat_exp(s * C)) for s in np.arange(0.5, 12.01, 0.25)]


def pair_angles(M, tag):
    """The pair's principal argument and the sector's largest angle at its modulus."""
    theta = tag.eigen.get("theta", tag.eigen.get("lambda"))
    return cmath.phase(theta), _sector(len(M), math.log(abs(theta)))


def scan_branches(M, tag, kmax=10):
    """Brute force: the branches |k| <= kmax whose spectral-mapping
    logarithm is a generator passing the residual certificate; none when
    the coefficients do not exist (a negative real eigenvalue)."""
    A = M - np.eye(len(M))
    try:
        coeffs = {k: smt_coeffs(tag, k=k) for k in range(-kmax, kmax + 1)}
    except DegenerateDenominatorError:
        return set()
    found = set()
    for k, c in coeffs.items():
        R = poly_in(c, A)
        if is_generator(R) and np.abs(mat_exp(R) - M).max() <= DEFAULT_TOL.residual * scale_of(M):
            found.add(k)
    return found


class TestBranchInterval:
    """Complex-pair branches R_k = R_0 + k D, k in one interval."""

    @pytest.mark.parametrize("pattern", COMPLEX_PATTERNS, ids=lambda p: p.name)
    def test_coefficients_affine_in_branch(self, pattern):
        for M in complex_corpus(pattern, seed=3, count=10):
            tag = classify(M)
            try:
                c0, c1 = (np.array(smt_coeffs(tag, k=k)) for k in (0, 1))
            except DegenerateDenominatorError:
                continue
            for k in range(-3, 4):
                ck = np.array(smt_coeffs(tag, k=k))
                assert np.abs(ck - (c0 + k * (c1 - c0))).max() <= 1e-12 * np.abs(ck).max()

    @pytest.mark.parametrize("pattern", COMPLEX_PATTERNS, ids=lambda p: p.name)
    def test_branches_match_brute_force_scan(self, pattern):
        # a pair with no branch in the generator sector is NotEmbeddable,
        # NO_BRANCH_FEASIBLE unless a screen before the decider fired; every
        # generator's branch lies in the sector, and so do its eigenvalues
        # (Runnenberg)
        cot = 1.0 / math.tan(math.pi / (3 if pattern is Pattern.D3_COMPLEX_PAIR else 4))
        outcomes = collections.Counter()
        for M in complex_corpus(pattern, seed=11):
            res, tag = decide(M), classify(M)
            assert res.verdict is not Verdict.UNDECIDED
            assert {g.branch for g in res.generators} == scan_branches(M, tag)
            outcomes[res.reason or len(res.generators)] += 1
            phase, limit = pair_angles(M, tag)
            if abs(phase) > limit:
                assert res.reason in SCREENS | {Reason.NO_BRANCH_FEASIBLE}, M
                outcomes["sector empty", res.reason] += 1
            for g in res.generators:
                assert abs(phase + 2 * math.pi * g.branch) <= limit, (M, g.branch)
                z = np.linalg.eigvals(g.matrix)
                assert (np.abs(z.imag) <= cot * np.abs(z.real) + 1e-8).all(), (M, z)
        assert outcomes[Reason.NO_BRANCH_FEASIBLE] > 0
        assert outcomes["sector empty", Reason.NO_BRANCH_FEASIBLE] > 0
        assert outcomes[2] > 0

    @pytest.mark.parametrize("d", [3, 4])
    def test_sector_edge_passes_the_screen(self, d):
        # the cycle's pair sits on the sector's edge: the screen never fires
        # on it, and while its principal argument is the generator's own
        # angle (s sin(2 pi / d) < pi) the principal branch is found
        for s, M in cycle_scan(d):
            res = decide(M)
            if res.case is None or res.case.pattern not in COMPLEX_PATTERNS:
                continue
            phase, limit = pair_angles(M, res.case)
            assert abs(phase) <= limit, s
            if s * math.sin(2 * math.pi / d) < math.pi - 0.1:
                assert res.verdict is Verdict.EMBEDDABLE, s
                assert 0 in {g.branch for g in res.generators}, s
            for g in res.generators:
                assert abs(phase + 2 * math.pi * g.branch) <= limit, (s, g.branch)

    def test_interval_edges(self):
        R0 = np.array([[-3.0, 1.0, 2.0], [0.5, -0.5, 0.0], [1.0, 1.0, -2.0]])
        D = np.array([[0.0, 0.5, -0.5], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        # rows: 1 + k/2 >= 0, 2 - k/2 >= 0, 0.5 - k >= 0; zero steps elsewhere
        assert _branch_interval(R0, D, DEFAULT_TOL) == range(-2, 1)
        R0[2, 0] = -1.0  # a negative rate that no branch moves
        assert _branch_interval(R0, D, DEFAULT_TOL) == range(0)
        with pytest.raises(IllConditionedError):
            _branch_interval(R0, np.abs(D), DEFAULT_TOL)


class TestHyperbola:
    def test_planted_rotation_found(self):
        circ3 = (2 * math.pi / math.sqrt(3.0)) * np.array(
            [[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]]
        )
        Q = np.zeros((4, 4))
        Q[1:, 1:] = circ3
        M = mat_exp(Q)
        tag = classify(M)
        assert tag.pattern is Pattern.D4_DEG2_DOUBLE_NEG
        res = decide(M)
        assert res.verdict is Verdict.EMBEDDABLE
        assert all(g.residual <= 1e-8 for g in res.generators)

    def test_krange_filter_excludes_large_modulus(self):
        M = np.zeros((4, 4))
        M[:2, :2] = kendall_block(0.8, 0.6)  # lam = -0.4 < -e^{-pi}
        M[2:, 2:] = kendall_block(0.7, 0.7)
        res = decide(M)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.K_RANGE_EMPTY

    def test_certified_infeasible_via_block_reduction(self):
        # 1 (+) M3 embeds iff M3 does; pick M3 beyond its extremal bound
        # with the branch window still nonempty
        c = 1 + math.exp(-5.0)  # needs Delta = 5 < pi sqrt(3): impossible
        M = np.eye(4)
        M[1:, 1:] = constant_input(c)
        tag = classify(M)
        assert tag.pattern is Pattern.D4_DEG2_DOUBLE_NEG
        res = decide(M)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.NO_BRANCH_FEASIBLE

    def test_feasible_twin_of_block_reduction(self):
        c = 1 + math.exp(-5.8)  # Delta = 5.8 > pi sqrt(3): embeddable
        M = np.eye(4)
        M[1:, 1:] = constant_input(c)
        res = decide(M)
        assert res.verdict is Verdict.EMBEDDABLE

    def test_search_statuses_directly(self):
        c = 1 + math.exp(-5.8)
        M = np.eye(4)
        M[1:, 1:] = constant_input(c)
        lam = -(c - 1)
        dec = _pair_decomposition(M, [1.0], lam, DEFAULT_TOL)
        rows = _sheet_constraints(dec, np.zeros((2, 2)), math.log(abs(lam)))
        rows = rows * (1.0, math.pi, math.pi, math.pi)
        status, point = hyperbola_search(rows, DEFAULT_TOL)
        assert status is SearchStatus.FOUND
        # the point's rates are the off-diagonal entries of its logarithm
        R = np.zeros((4, 4))
        R[~np.eye(4, dtype=bool)] = rows @ (1.0, point.x, point.y, point.z)
        np.fill_diagonal(R, -R.sum(axis=1))
        assert is_generator(R)
        assert np.abs(scipy.linalg.expm(R) - M).max() <= 1e-8
        assert abs(point.y * point.z - point.x**2 - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "ray, f",
        [
            ((0.372, 0.373, 0.255), 1.7905),  # near its threshold
            ((0.4922554322011088, 0.34307848368133703, 0.16466608411755426), 9.0),
        ],
    )
    def test_skewed_lifts_decided_quickly(self, ray, f):
        # a loose bound: searches that grid and subdivide the sheet took
        # 17-22 s of CPU on these two lifts
        M = lifted_equal_input(ray, f)
        start = time.process_time()
        res = decide(M)
        elapsed = time.process_time() - start
        assert res.verdict is Verdict.EMBEDDABLE
        for g in res.generators:
            assert is_generator(g.matrix)
            assert np.abs(scipy.linalg.expm(g.matrix) - M).max() <= 1e-8
        assert elapsed < 1.0

    def test_single_constraint_statuses(self):
        # y + z >= 3 holds on a whole circle of the sheet, where y + z is
        # constant, so any point of that conic is a candidate
        status, point = hyperbola_search(np.array([[-3.0, 0.0, 1.0, 1.0]]), DEFAULT_TOL)
        assert status is SearchStatus.FOUND
        assert abs(point.y + point.z - 3.0) < 1e-12
        # the rows of a decision are one per off-diagonal entry of a
        # similarity T (.) T^-1, which cannot express a single constraint,
        # so this one is hand-built.  2 - (y + z) >= 0 holds on the
        # sheet only at (0, 1, 1); shifted by 5e-10 its best candidate
        # violates by more than tol.nonneg and less than the margin.
        for shift, status in (
            (0.0, SearchStatus.FOUND),
            (5e-10, SearchStatus.INCONCLUSIVE),
            (1e-8, SearchStatus.INFEASIBLE),
        ):
            rows = np.array([[2.0 - shift, 0.0, -1.0, -1.0]])
            found, point = hyperbola_search(rows, DEFAULT_TOL)
            assert found is status
            if status is SearchStatus.FOUND:
                assert abs(point.x) + abs(point.y - 1.0) + abs(point.z - 1.0) < 1e-12
            else:
                assert point is None

    def test_inconclusive_band_through_decide(self):
        # 1 (+) E on the constant ray, a relative 5e-12 beyond its extremal
        # bound: the best point of each branch violates by about 4e-10
        c = (1 + math.exp(-PI_SQRT3)) * (1 + 5e-12)
        M = np.eye(4)
        M[1:, 1:] = constant_input(c)
        lam = -(c - 1)
        dec = _pair_decomposition(M, [1.0], lam, DEFAULT_TOL)
        rows = _sheet_constraints(dec, np.zeros((2, 2)), math.log(abs(lam)))
        status, point = hyperbola_search(rows * (1.0, math.pi, math.pi, math.pi), DEFAULT_TOL)
        assert status is SearchStatus.INCONCLUSIVE and point is None
        res = decide(M)
        assert res.verdict is Verdict.UNDECIDED
        assert res.reason is Reason.SEARCH_INCONCLUSIVE


def random_sheet_system(rng):
    """6-12 random affine constraints g = f + n . (x, y, z) >= 0, with slack
    drawn around an anchor point on the sheet.

    One system in four keeps only the first constraint tight there, and one
    in four makes it a bounded cap of the sheet around the anchor, so that
    minimisers on a single conic occur.  Three in four get a planted
    degeneracy in the last rows: a normal parallel to (0, 1, 1), a repeated
    plane, or a parallel plane.
    """
    m = int(rng.integers(6, 13))
    anchor = sheet_point(*rng.uniform(-1.5, 1.5, 2))
    N = rng.normal(size=(m, 3))
    slack = rng.uniform(-0.5, 1.0, m)
    shape, degeneracy = rng.integers(4, size=2)
    if shape == 1:
        slack[1:] += 3.0
    elif shape == 2:
        x, y, z = anchor
        N[0] = (2.0 * x, -z, -y)  # minus the gradient of yz - x^2 at the anchor
        slack[0] = rng.uniform(0.01, 0.5)
        slack[1:] += 3.0
    if degeneracy == 1:
        N[-1] = np.array([0.0, 1.0, 1.0]) * rng.normal()
    elif degeneracy >= 2:
        t = rng.uniform(0.5, 2.0)
        N[-2] = t * N[-1]
        if degeneracy == 2:
            slack[-2] = t * slack[-1]
    return np.column_stack([slack - N @ anchor, N])


class TestSheetCandidates:
    """The candidate theorem of hyperbola_search on random affine systems."""

    U, W = np.meshgrid(np.linspace(-6, 6, 301), np.linspace(-6, 6, 301))
    DENSE = sheet_point(U.ravel(), W.ravel())

    def test_statuses_agree_with_a_dense_sample(self):
        rng = np.random.default_rng(7)
        seen = {status: 0 for status in SearchStatus}
        for _ in range(200):
            rows = random_sheet_system(rng)
            status, point = hyperbola_search(rows, DEFAULT_TOL)
            seen[status] += 1
            if status is SearchStatus.FOUND:
                x, y, z = point.x, point.y, point.z
                assert z > 0 and abs(y * z - x * x - 1.0) <= 1e-9
                assert (rows @ (1.0, x, y, z)).min() >= -DEFAULT_TOL.nonneg
            sampled = (rows[:, :1] + rows[:, 1:] @ self.DENSE).min(axis=0).max()
            if sampled >= 1e-6:
                assert status is not SearchStatus.INFEASIBLE
            perm = rng.permutation(len(rows))
            assert hyperbola_search(rows[perm], DEFAULT_TOL)[0] is status
        assert seen[SearchStatus.FOUND] >= 30 and seen[SearchStatus.INFEASIBLE] >= 30

    @staticmethod
    def outcome(result):
        status, point = result
        return status, None if point is None else np.array([point.x, point.y, point.z]).tobytes()

    def test_mirror_search_reuses_its_twin_to_the_bit(self, monkeypatch):
        # the rows of rotation branch k and of its mirror, whose angle is
        # -angle, are (f, n) and (f, -n); a search on the mirror right after
        # its twin takes the candidates solved in the twin's pass, and must
        # return what a search on it alone returns, to the bit
        solves, sheet_roots = [], embed_mod._sheet_roots
        monkeypatch.setattr(
            embed_mod, "_sheet_roots", lambda *a: solves.append(a) or sheet_roots(*a)
        )

        def alone(rows):
            monkeypatch.setattr(embed_mod, "_mirror", (b"", None))
            return self.outcome(hyperbola_search(rows, DEFAULT_TOL))

        rng = np.random.default_rng(11)
        angles = rng.uniform(0.5, 4.0, 150)
        systems = [random_sheet_system(rng) * (1.0, a, a, a) for a in angles]
        # and the rows of decisions, whose structured entries make sums cancel to 0
        search = embed_mod.hyperbola_search
        monkeypatch.setattr(
            embed_mod, "hyperbola_search", lambda r, tol: systems.append(r) or search(r, tol)
        )
        for ray, f in ((0.372, 0.373, 0.255), 1.7905), ((0.5, 0.3, 0.2), 2.0), ((1.0,) * 3, 1.5):
            decide(lifted_equal_input(ray, f), all_branches=True)
        decide(np.kron(np.eye(2), kendall_block(0.4, 0.60001)), all_branches=True)
        assert len(systems) > 150
        seen = collections.Counter()
        for i, rows in enumerate(systems):
            mirror = rows * (1.0, -1.0, -1.0, -1.0)
            expected = alone(mirror)
            seen[expected[0]] += 1
            alone(rows)
            count = len(solves)
            assert self.outcome(hyperbola_search(mirror, DEFAULT_TOL)) == expected
            assert len(solves) == count
            # permuted or unrelated rows are never served from the memo
            for other in (mirror[np.roll(np.arange(len(rows)), 1)], systems[i - 1]):
                if other.tobytes() == mirror.tobytes():
                    continue  # a decision's twin, or rows that a shift leaves as they are
                expected = alone(other)
                alone(rows)
                count = len(solves)
                assert self.outcome(hyperbola_search(other, DEFAULT_TOL)) == expected
                assert len(solves) == count + 1
        assert seen[SearchStatus.FOUND] >= 10 and seen[SearchStatus.INFEASIBLE] >= 10, seen


class TestRepeatedPairWork:
    """What a repeated-pair decision computes: one SVD per repeated
    eigenvalue in the analysis, one per eigenspace pool in the similarity,
    and one line solve per mirrored pair of rotation branches."""

    @staticmethod
    def counted(monkeypatch):
        """Counters of the SVDs by calling function, and of the two search stages."""
        svds, calls = collections.Counter(), collections.Counter()
        svd, search, sheet_roots = np.linalg.svd, embed_mod.hyperbola_search, embed_mod._sheet_roots

        def counted_svd(*args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "_null_space":  # the rank rule, counted for its caller
                frame = frame.f_back
            svds[frame.f_code.co_name] += 1
            return svd(*args, **kwargs)

        def counted_search(rows, tol):
            calls["hyperbola_search"] += 1
            return search(rows, tol)

        def counted_roots(*args):
            calls["_sheet_roots"] += 1
            return sheet_roots(*args)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(embed_mod, "hyperbola_search", counted_search)
        monkeypatch.setattr(embed_mod, "_sheet_roots", counted_roots)
        return svds, calls

    @pytest.mark.parametrize("ray, f", [((0.372, 0.373, 0.255), 1.7905), ((0.5, 0.3, 0.2), 2.0)])
    def test_svds_of_an_equal_input_block_and_its_lift(self, ray, f, monkeypatch):
        svds, _calls = self.counted(monkeypatch)
        M = lifted_equal_input(ray, f)
        # the lift 1 (+) E has 1 and lambda < 0 double: 5 SVDs (7 with a rank
        # sequence per power); the block E has lambda double: 3 (4)
        for A, pattern, repeated in (
            (M, Pattern.D4_DEG2_DOUBLE_NEG, 2), (M[1:, 1:], Pattern.D3_DEG2_1_L_L_NEG, 1)
        ):
            svds.clear()
            res = decide(A, all_branches=True)
            assert res.case.pattern is pattern and res.verdict is Verdict.EMBEDDABLE
            assert svds == {"_consolidate_multiples": 1, "jordan_structure": repeated, "pool": repeated}
            assert sum(svds.values()) == (5 if len(A) == 4 else 3)

    @pytest.mark.parametrize("lam, searches", [(-0.02, 2), (-1e-5, 4)])
    def test_one_line_solve_per_mirrored_pair_of_branches(self, lam, searches, monkeypatch):
        # two Kendall blocks sharing lambda < 0: branches k = 0, -1, and for
        # |log |lambda|| >= 3 pi also 1, -2; each mirror reuses its twin's lines
        _svds, calls = self.counted(monkeypatch)
        M = np.kron(np.eye(2), kendall_block(0.3 * (1 - lam), 0.7 * (1 - lam)))
        res = decide(M, all_branches=True)
        assert res.case.pattern is Pattern.D4_DEG2_DOUBLE_NEG
        assert calls["hyperbola_search"] == searches
        assert calls["_sheet_roots"] == searches // 2


class TestD4Dispatch:
    def test_possible2_matrix(self):
        x, y, z = 0.2, 0.1, 0.3
        M = np.eye(4)
        M[0, :] = [1 - x - y - z, x, y, z]
        res = decide(M)
        assert res.verdict is Verdict.EMBEDDABLE
        lam = 1 - x - y - z
        expected = (-math.log(lam) / (1 - lam)) * (M - np.eye(4))
        assert np.abs(res.generators[0].matrix - expected).max() < 1e-12

    def test_round_trip_simple(self, rng):
        for _ in range(300):
            Q = random_generator(rng, 4)
            M = mat_exp(Q)
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE
            assert any(np.abs(g.matrix - Q).max() < 1e-7 for g in res.generators)

    def test_planted_jordan_cases(self):
        r, s = 0.8, 0.5
        chains = [
            np.array([[-r, r, 0, 0], [0, -r, r, 0], [0, 0, -r, r], [0, 0, 0, 0.0]]),
            np.array([[-r, r, 0, 0], [0, -s, s, 0], [0, 0, -s, s], [0, 0, 0, 0.0]]),
            np.array([[-s, 0, 0, s], [0, -s, s, 0], [0, 0, -s, s], [0, 0, 0, 0.0]]),
            np.array([[0, 0, 0, 0], [0, -s, s, 0], [0, 0, -s, s], [0, 0, 0, 0.0]]),
        ]
        for Q in chains:
            M = mat_exp(Q)
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE
            assert res.uniqueness is Uniqueness.UNIQUE
            assert np.abs(res.generators[0].matrix - Q).max() < 1e-8

    def test_mixed_negative_double_rejected(self):
        # K2P-type with double eigenvalue below -e^{-pi}
        x, y = 0.5, 0.1
        M = (1 - x - 2 * y) * np.eye(4)
        K1 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0.0]])
        K2 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0.0]])
        K3 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0.0]])
        M = M + x * K1 + y * K2 + y * K3
        tag = classify(M)
        assert tag.pattern is Pattern.D4_DEG3_DOUBLE_L2_NEG
        res = decide(M)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.K_RANGE_EMPTY

    @pytest.mark.parametrize("lam", [1e-4, 1e-3, 1.8e-3])
    def test_triple_eigenvalue_not_certified_unique(self, lam):
        # lam < e^(-2 pi), so rotations by 2 pi fit the generator spectrum;
        # the search scans one plane of the triple eigenspace, and finding
        # no rotation there does not make the principal logarithm unique
        for ray in ((0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1), (0.7, 0.1, 0.1, 0.1)):
            M = lam * np.eye(4) + np.tile((1.0 - lam) * np.array(ray), (4, 1))
            res = decide(M, all_branches=True)
            assert res.case.pattern is Pattern.D4_DEG2_TRIPLE_L
            assert res.verdict is Verdict.EMBEDDABLE
            assert res.uniqueness is Uniqueness.POSSIBLY_MORE, ray
            assert [g.branch for g in res.generators] == [0]

    def test_time_scaling_stays_embeddable(self, rng):
        for _ in range(50):
            Q = random_generator(rng, 4, norm_max=2.0)
            for t in (0.5, 1.0, 2.0):
                assert decide(mat_exp(t * Q)).verdict is Verdict.EMBEDDABLE


class TestNearOne:
    """A double eigenvalue near 1 keeps its pattern: the exact eigenvalue 1
    is deflated before any root is found, so no root near it is split off
    the pair or merged into the 1."""

    @pytest.mark.parametrize("lam", [0.85, 0.9, 0.95])
    def test_kendall_pairs_sharing_lambda(self, lam):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u1, u2 = rng.uniform(0.0, 1.0, 2)
            M = np.zeros((4, 4))
            M[:2, :2] = kendall_block((1 - lam) * u1, (1 - lam) * (1 - u1))
            M[2:, 2:] = kendall_block((1 - lam) * u2, (1 - lam) * (1 - u2))
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE, (u1, u2)
            assert res.case.pattern is Pattern.D4_DEG2_DOUBLE_POS, (u1, u2)

    def test_equal_input_lifts(self):
        rng = np.random.default_rng(1)
        c = 1 - 0.9
        for _ in range(300):
            ray = rng.uniform(0.1, 1.0, 3)
            M = np.eye(4)
            M[1:, 1:] = (1 - c) * np.eye(3) + np.tile(c * ray / ray.sum(), (3, 1))
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE, ray
            assert res.case.pattern is Pattern.D4_DEG2_DOUBLE_POS, ray


class TestNecessaryShortCircuits:
    def test_permutation_matrix_rejected(self):
        # cyclic permutation: complex eigenvalues on the unit circle and a
        # zero diagonal
        P = np.roll(np.eye(3), 1, axis=1)
        res = decide(P)
        assert res.verdict is Verdict.NOT_EMBEDDABLE

    def test_doubly_stochastic_product_transitivity(self):
        a, b = 0.4, 0.3
        M = np.array(
            [
                [(1 - a) * (1 - b), a, (1 - a) * b],
                [a * (1 - b), 1 - a, a * b],
                [b, 0.0, 1 - b],
            ]
        )
        res = decide(M)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.TRANSITIVITY_VIOLATION


class TestUniquenessCertificates:
    def test_large_diagonal(self):
        M = 0.8 * np.eye(3) + np.full((3, 3), 0.2 / 3)
        assert uniqueness_certificates(M) is Uniqueness.UNIQUE

    def test_det_certificate(self, rng):
        done = 0
        while done < 100:
            Q = random_generator(rng, 3, norm_max=2.0)
            M = mat_exp(Q)
            det = float(np.linalg.det(M))
            if det <= math.exp(-math.pi) + 1e-3:
                continue
            res = decide(M)
            assert res.verdict is Verdict.EMBEDDABLE
            assert res.uniqueness is Uniqueness.UNIQUE
            done += 1

    def test_neither_certificate(self):
        # small determinant, small diagonal: no certificate fires
        c = 1.002
        M = constant_input(c)
        res = decide(M)
        assert res.uniqueness is Uniqueness.MULTIPLE_KNOWN
