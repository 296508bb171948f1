import importlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from markovembed import (
    DEFAULT_TOL,
    DimensionError,
    IllConditionedError,
    Reason,
    SpectrumOnCutError,
    Tolerances,
    Verdict,
    as_matrix,
    decide,
    eigenvalues,
    is_generator,
    is_markov,
    jordan_structure,
    mat_exp,
    poly_in,
    principal_log,
)

from conftest import random_generator, random_markov
from test_golden_outputs import near_threshold_spectra
from oracles import (
    match_spectra,
    qr_eigenvalues,
    reference_consolidate_multiples,
    repeated,
    series_log,
)

kernel_mod = importlib.import_module("markovembed.kernel")


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionError):
            as_matrix(np.eye(5))
        with pytest.raises(DimensionError):
            as_matrix(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            Tolerances(nonneg=0.0)
        # NaN passes a "<= 0" test, and an infinite residual would certify the
        # zero generator for every Markov matrix
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("spec_cluster", "nonneg", "rowsum", "residual", "rank"):
                with pytest.raises(ValueError):
                    Tolerances(**{name: bad})


class TestEigenvalues:
    def test_identity_triple(self):
        spec = eigenvalues(np.eye(3))
        assert spec.roots == ((1.0 + 0.0j, 3),)

    def test_k3st_closed_form(self):
        # symmetric 4-state exchange matrix: spectrum in closed form
        x, y, z = 0.11, 0.05, 0.21
        M = np.array(
            [
                [1 - x - y - z, x, y, z],
                [x, 1 - x - y - z, z, y],
                [y, z, 1 - x - y - z, x],
                [z, y, x, 1 - x - y - z],
            ]
        )
        expected = [1.0, 1 - 2 * (x + z), 1 - 2 * (y + z), 1 - 2 * (x + y)]
        got = repeated(eigenvalues(M))
        assert match_spectra(expected, got) < 1e-12

    def test_agrees_with_qr_oracle(self, rng):
        for d in (2, 3, 4):
            for _ in range(1000):
                M = random_markov(rng, d)
                got = repeated(eigenvalues(M))
                want = qr_eigenvalues(M)
                scale = max(1.0, max(abs(z) for z in want))
                assert match_spectra(want, got) <= 1e-9 * scale

    def test_markov_snaps_unit_root(self, rng):
        for _ in range(200):
            M = random_markov(rng, 4)
            assert any(z == 1.0 and m >= 1 for z, m in eigenvalues(M).roots)

    def test_eigenvalue_near_one_against_mpmath(self):
        # a weakly coupled fourth state puts an eigenvalue 5e-7 below 1, so
        # close that the roots of M's full quartic err by about 6e-9 there
        import mpmath as mp

        eps = 1e-7
        Q = np.array(
            [[0, 0.6, 0.3, eps], [0.2, 0, 0.5, 2 * eps], [0.4, 0.1, 0, eps], [eps, 2 * eps, eps, 0]]
        )
        np.fill_diagonal(Q, -Q.sum(axis=1))
        M = mat_exp(Q)
        with mp.workdps(40):
            ref, _ = mp.eig(mp.matrix(M.tolist()))
        assert match_spectra([complex(z) for z in ref], repeated(eigenvalues(M))) <= 1e-9

    def test_conjugate_symmetry(self, rng):
        for _ in range(500):
            M = random_markov(rng, 4)
            roots = eigenvalues(M).roots
            for z, m in roots:
                if z.imag != 0.0:
                    assert (z.conjugate(), m) in roots

    def test_double_root_consolidation(self):
        # block diagonal with a repeated 2x2 block: exact double eigenvalue
        M2 = np.array([[0.4, 0.6], [0.3, 0.7]])
        M = np.zeros((4, 4))
        M[:2, :2] = M2
        M[2:, 2:] = M2
        spec = eigenvalues(M)
        assert sorted(m for _, m in spec.roots) == [2, 2]


def with_spectrum(roots, rng, jordan=False):
    """A real matrix V J V^-1 with the given real roots on J's diagonal; J
    has ones on its superdiagonal where ``jordan`` (one Jordan chain)."""
    d = len(roots)
    J = np.diag(np.asarray(roots, dtype=float)) + (np.eye(d, k=1) if jordan else 0.0)
    V = np.eye(d) + rng.uniform(-0.3, 0.3, (d, d))
    return V @ J @ np.linalg.inv(V)


def consolidation_corpus(seed=20):
    """Cubics (3x3) and quartics (4x4) whose root gaps straddle each
    consolidation radius (0.5x, 1x and 2x, scaled by the spectral radius
    as the kernel scales them), and true multiple roots, whose computed
    roots the consolidation repairs, and well separated roots."""
    rng = np.random.default_rng(seed)
    out = []
    for rho in (0.6, 3.0):
        out += [with_spectrum(rho * np.linspace(-1.0, 1.0, d), rng) for d in (3, 4)]
        for m, radius in ((2, 5e-7), (3, 5e-5), (4, 5e-4)):
            for factor in (0.5, 1.0, 2.0):
                gap = factor * radius * max(1.0, rho)
                for d in {max(m, 3), 4}:
                    r = rho * float(rng.choice([-1.0, 1.0]))
                    cluster = [r - gap * i for i in range(m)]
                    rest = [float(v) for v in rng.uniform(-0.4, 0.4, d - m) * rho]
                    out.append(with_spectrum(cluster + rest, rng))
        for m in (2, 3, 4):
            for d in {max(m, 3), 4}:
                rest = [float(v) for v in rng.uniform(-0.4, 0.4, d - m) * rho]
                for jordan in (False, True):
                    out.append(with_spectrum([0.9 * rho] * m + rest, rng, jordan))
    return out


class TestConsolidationShortcut:
    def test_spectrum_matches_the_reference_loop(self, monkeypatch):
        # _consolidate_multiples returns its input at once when no two roots
        # lie within the widest radius; every spectrum must equal the one the
        # full loop gives, bit for bit
        def bits(spec):
            return [(z.real.hex(), z.imag.hex(), m) for z, m in spec.roots]

        moved, skipped = 0, 0

        def reference(raw, coeffs, radius, A, tol):
            nonlocal moved, skipped
            out = reference_consolidate_multiples(raw, coeffs, radius, A, tol)
            moved += out != list(raw)
            widest = {2: 5e-7, 3: 5e-5, 4: 5e-4}[len(coeffs)] * max(1.0, radius)
            skipped += all(abs(z - w) > widest for i, z in enumerate(raw) for w in raw[:i])
            return out

        for A in consolidation_corpus():
            got = bits(eigenvalues(A))
            with monkeypatch.context() as patch:
                patch.setattr(kernel_mod, "_consolidate_multiples", reference)
                assert got == bits(eigenvalues(A)), A
        # the corpus reaches both the early return and a consolidation
        assert moved >= 5 and skipped >= 5, (moved, skipped)


class TestJordan:
    def test_identity(self):
        js = jordan_structure(np.eye(4))
        assert js.min_poly_degree == 1
        assert js.blocks == ((1.0 + 0.0j, (1, 1, 1, 1)),)

    def test_triple_diagonalizable(self):
        lam = 0.35
        M = (1 - (1 - lam)) * np.eye(4)  # placeholder, rebuilt below
        c = 1 - lam
        M = (1 - c) * np.eye(4) + np.full((4, 4), c / 4)
        js = jordan_structure(M)
        assert js.min_poly_degree == 2
        (one, at_one), (z, at_lam) = js.blocks
        assert one == 1.0 and at_one == (1,)
        assert abs(z - lam) <= 1e-9 and at_lam == (1, 1, 1)

    def test_jordan_chain_block(self):
        # absorbing chain with equal rates: one 3-chain at exp(-r)
        r = 0.8
        Q = np.array([[-r, r, 0, 0], [0, -r, r, 0], [0, 0, -r, r], [0, 0, 0, 0.0]])
        js = jordan_structure(mat_exp(Q))
        assert js.min_poly_degree == 4
        (one, at_one), (z, at_lam) = js.blocks
        assert one == 1.0 and at_one == (1,)
        assert abs(z - math.exp(-r)) <= 1e-9 and at_lam == (3,)

    def test_unit_eigenvalue_never_defective(self, rng):
        for _ in range(300):
            M = random_markov(rng, 3)
            js = jordan_structure(M)
            at_one = [sizes for z, sizes in js.blocks if z == 1.0]
            assert len(at_one) == 1 and set(at_one[0]) == {1}

    # a fixed, well-conditioned similarity (condition number 1.6)
    T = np.eye(4) + 0.25 * np.array([[1, 2, 0, -1], [0, 1, 1, 2], [-1, 0, 2, 1], [2, -1, 0, 1.0]])

    @pytest.mark.parametrize(
        "sizes", [(3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )
    def test_every_partition_from_one_nullity(self, sizes, monkeypatch):
        # T J T^-1, non-Markov, with lambda = 0.6 of multiplicity 3 (beside a
        # simple 0.2) or 4: one SVD of M - lambda I counts the blocks, which
        # fixes every partition of 3; of 4 in two blocks, (2, 2) and (3, 1)
        # take a second SVD, of (M - lambda I)^2
        blocks = [0.6 * np.eye(s) + np.eye(s, k=1) for s in sizes]
        expected = [(0.6, sizes)] + ([(0.2, (1,))] if sum(sizes) == 3 else [])
        J = scipy.linalg.block_diag(*blocks, *([[0.2]] if sum(sizes) == 3 else []))
        M = self.T @ J @ np.linalg.inv(self.T)
        shifts, null_space = [], kernel_mod._null_space
        monkeypatch.setattr(
            kernel_mod, "_null_space", lambda B, t: shifts.append(B) or null_space(B, t)
        )
        js = jordan_structure(M)
        assert [s for _z, s in js.blocks] == [s for _lam, s in expected]
        assert all(abs(z - lam) <= 1e-9 for (z, _), (lam, _) in zip(js.blocks, expected))
        assert js.min_poly_degree == sum(max(s) for _lam, s in expected)
        assert len(shifts) == (2 if sizes in ((2, 2), (3, 1)) else 1)
        assert not any(np.iscomplexobj(B) for B in shifts)  # a real lambda, real arithmetic

    def test_cluster_of_distinct_roots_has_no_block(self):
        # two distinct eigenvalues 10 +- 3e-8 cluster (spec_cluster relative to
        # the radius 10), but M - 10 I has full rank: nullity 0 is no partition
        R = np.array([[1.0, 0.5], [0.25, 1.0]])
        M = R @ np.diag([10.0 + 3e-8, 10.0 - 3e-8]) @ np.linalg.inv(R)
        assert [m for _z, m in eigenvalues(M).roots] == [2]
        with pytest.raises(IllConditionedError, match="nullity 0"):
            jordan_structure(M)

    @staticmethod
    def sparse_round_trip(index):
        """Draw ``index`` of a seeded sparse round-trip corpus: exp(Q) for
        d in {3, 4}, off-diagonal rates U(0, 1) each zeroed with probability
        1/2, all scaled so that the largest is U(0.5, 12)."""
        rng, drawn = np.random.default_rng(2024), -1
        while drawn < index:
            d = int(rng.choice([3, 4]))
            R = rng.uniform(0, 1, (d, d)) * (rng.uniform(size=(d, d)) < 0.5)
            np.fill_diagonal(R, 0.0)
            if R.any():
                drawn, s = drawn + 1, rng.uniform(0.5, 12)
        return scipy.linalg.expm((R - np.diag(R.sum(axis=1))) * (s / R.max()))

    def test_neighbour_in_the_rank_band_raises(self):
        # exp(Q) with Q's eigenvalues 0, -13.1 and -20.1 +- 0.9i: the pair
        # clusters into a double root near 1.1e-9 of nullity 1, and the simple
        # 2e-6 beside it has |mu - lambda|^2 = 4e-12 <= 10 tol.rank, so
        # (M - lambda I)^2 would not have nullity 2.  Read as a Jordan block,
        # the round trip of this generator was declared NotEmbeddable.
        M = self.sparse_round_trip(2248)
        roots = eigenvalues(M).roots
        assert [m for _z, m in roots] == [1, 1, 2] and abs(roots[1][0] - 2e-6) < 1e-7
        with pytest.raises(IllConditionedError, match="rank band"):
            jordan_structure(M)
        res = decide(M)
        assert (res.verdict, res.reason) == (Verdict.UNDECIDED, Reason.ILL_CONDITIONED)


class TestMatExp:
    def test_zero(self):
        assert np.abs(mat_exp(np.zeros((3, 3))) - np.eye(3)).max() == 0.0

    def test_poisson_generator_closed_form(self):
        # rate alpha between two states: exp in closed form
        alpha = 1.7
        Q = np.zeros((3, 3))
        Q[0, 0], Q[0, 2] = -alpha, alpha
        expected = np.eye(3)
        expected[0, 0] = math.exp(-alpha)
        expected[0, 2] = 1 - math.exp(-alpha)
        assert np.abs(mat_exp(Q) - expected).max() < 1e-14

    def test_commuting_pair(self, rng):
        for _ in range(200):
            Q = random_generator(rng, 4, norm_max=2.0)
            A = 0.7 * Q + 0.2 * Q @ Q
            B = -0.3 * Q + 0.05 * Q @ Q
            lhs = mat_exp(A + B)
            rhs = mat_exp(A) @ mat_exp(B)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_generator_exp_is_markov(self, rng):
        for _ in range(10_000):
            d = int(rng.integers(2, 5))
            M = mat_exp(random_generator(rng, d))
            assert M.min() >= -1e-12
            assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12

    def test_det_exp_trace(self, rng):
        for _ in range(500):
            Q = random_generator(rng, 4, norm_max=20.0)
            assert abs(np.linalg.det(mat_exp(Q)) - math.exp(np.trace(Q))) < 1e-10

    def test_against_high_precision_series(self, rng):
        # norms up to 50: compare against 60-digit scaling-and-squaring
        import mpmath as mp

        mp.mp.dps = 60
        for _ in range(10):
            d = int(rng.integers(2, 5))
            Q = random_generator(rng, d, norm_max=50.0)
            G = mp.matrix([[mp.mpf(v) for v in row] for row in Q])
            k = 30
            S = G / mp.mpf(2**k)
            E = mp.eye(d)
            term = mp.eye(d)
            for m in range(1, 40):
                term = term * S / m
                E = E + term
            for _ in range(k):
                E = E * E
            ref = np.array([[float(E[i, j]) for j in range(d)] for i in range(d)])
            assert np.abs(mat_exp(Q) - ref).max() <= 1e-12


class TestPrincipalLog:
    def test_log_identity(self):
        assert np.abs(principal_log(np.eye(3))).max() < 1e-14

    def test_two_state_closed_form(self):
        a, b = 0.3, 0.2
        M = np.array([[1 - a, a], [b, 1 - b]])
        expected = (-math.log1p(-(a + b)) / (a + b)) * (M - np.eye(2))
        assert np.abs(principal_log(M) - expected).max() < 1e-12

    def test_equal_input_closed_form_vs_series(self):
        c = 0.55
        M = (1 - c) * np.eye(4) + np.full((4, 4), c / 4)
        expected = (-math.log1p(-c) / c) * (M - np.eye(4))
        got = principal_log(M)
        assert np.abs(got - expected).max() < 1e-12
        assert np.abs(got - series_log(M)).max() < 1e-10

    def test_no_deprecation_warning(self):
        M = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Q = principal_log(M)
        assert np.abs(mat_exp(Q) - M).max() < 1e-12

    def test_spectrum_on_cut(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalue -1
        with pytest.raises(SpectrumOnCutError):
            principal_log(M)
        with pytest.raises(SpectrumOnCutError):
            principal_log(np.array([[0.5, 0.5], [0.5, 0.5]]))  # singular

    def test_round_trip_with_exp(self, rng):
        done = 0
        while done < 300:
            Q = random_generator(rng, 3, norm_max=3.0)
            lams = np.linalg.eigvals(Q)
            if max(abs(z.imag) for z in lams) > math.pi - 0.1:
                continue
            M = mat_exp(Q)
            assert np.abs(principal_log(M) - Q).max() < 1e-8
            done += 1


class TestPolyIn:
    def test_single_power(self, rng):
        A = random_generator(rng, 3)
        assert np.abs(poly_in([1.0], A) - A).max() == 0.0

    def test_zero_coeffs(self, rng):
        A = random_generator(rng, 4)
        assert np.abs(poly_in([0.0, 0.0, 0.0], A)).max() == 0.0

    def test_too_many_coeffs(self):
        with pytest.raises(ValueError):
            poly_in([1.0, 1.0], np.eye(2))


class TestSimpleSpectrumShortcut:
    def test_spectrum_matches_the_full_clustering(self, monkeypatch):
        # eigenvalues takes each root as its own cluster when no two (the
        # exact 1 included) lie within the clustering threshold; the full
        # path (grouping, per-cluster mean, the cluster nearest 1 set to
        # exactly 1) must give the same spectrum, bit for bit
        def bits(roots):
            return [(z.real.hex(), z.imag.hex(), m) for z, m in roots]

        seen = []
        consolidate = kernel_mod._consolidate_multiples

        def recording(raw, coeffs, radius, A, tol):
            seen.append((consolidate(raw, coeffs, radius, A, tol), radius))
            return seen[-1][0]

        monkeypatch.setattr(kernel_mod, "_consolidate_multiples", recording)
        rng = np.random.default_rng(23)
        corpus = consolidation_corpus() + [M for _key, M in near_threshold_spectra(rng)]
        corpus += [random_markov(rng, d) for d in (2, 3, 4) for _ in range(100)]
        corpus += [scipy.linalg.expm(random_generator(rng, d)) for d in (3, 4) for _ in range(50)]
        # two equal rows: a root at -0.0, which the cluster value 0 + z turns into +0.0
        for d in (3, 4):
            for _ in range(20):
                M = random_markov(rng, d)
                M[1] = M[0]
                corpus += [M, np.round(rng.uniform(-2.0, 2.0, (d, d)))]
        simple = 0
        for A in corpus:
            seen.clear()
            spec = eigenvalues(A)
            ((raw, radius),) = seen
            markov = is_markov(A)
            roots = [1.0 + 0.0j, *raw] if markov else raw
            threshold = DEFAULT_TOL.spec_cluster * max(1.0, radius)
            clusters = []
            for g in kernel_mod._group_by_distance(roots, threshold):
                mean = sum(g) / len(g)
                clusters.append((complex(mean.real, 0.0) if abs(mean.imag) <= threshold else mean, len(g)))
            if markov:
                k = min(range(len(clusters)), key=lambda i: abs(clusters[i][0] - 1.0))
                clusters[k] = (1.0 + 0.0j, clusters[k][1])
            clusters.sort(key=lambda zm: (-zm[0].real, zm[0].imag))
            assert bits(spec.roots) == bits(clusters), A
            simple += len(clusters) == len(A)
        assert simple >= 400 and len(corpus) - simple >= 50, (simple, len(corpus))


class TestSignChecks:
    def test_identity(self):
        assert is_markov(np.eye(3))
        assert not is_generator(np.eye(3))

    def test_zero_matrix(self):
        assert is_generator(np.zeros((3, 3)))

    def test_doubly_stochastic_product(self):
        a, b = 0.4, 0.3
        M = np.array(
            [
                [(1 - a) * (1 - b), a, (1 - a) * b],
                [a * (1 - b), 1 - a, a * b],
                [b, 0.0, 1 - b],
            ]
        )
        assert is_markov(M)

    def test_tolerance_band(self):
        M = np.eye(2)
        M[0, 1] = -5e-11
        M[0, 0] = 1 - M[0, 1]
        assert is_markov(M)
        M[0, 1] = -5e-9
        M[0, 0] = 1 - M[0, 1]
        assert not is_markov(M)
