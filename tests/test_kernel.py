import math
import warnings

import numpy as np
import pytest

from markovembed import (
    DimensionError,
    SpectrumOnCutError,
    Tolerances,
    as_matrix,
    eigenvalues,
    is_generator,
    is_markov,
    jordan_structure,
    mat_exp,
    poly_in,
    principal_log,
)

from conftest import random_generator, random_markov
from oracles import match_spectra, qr_eigenvalues, series_log


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
        got = eigenvalues(M).values()
        assert match_spectra(expected, got) < 1e-12

    def test_agrees_with_qr_oracle(self, rng):
        for d in (2, 3, 4):
            for _ in range(1000):
                M = random_markov(rng, d)
                got = eigenvalues(M).values()
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
        assert match_spectra([complex(z) for z in ref], eigenvalues(M).values()) <= 1e-9

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
