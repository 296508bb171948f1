import math

import numpy as np
import pytest

from markovembed import (
    EqualInputParams,
    InfeasibleParamsError,
    K3STParams,
    Reason,
    TNParams,
    Verdict,
    commutant_basis_d3,
    decide,
    embed_equal_input,
    embed_k3st,
    embed_tn,
    eq_input_extremal_generators,
    equal_input_matrix,
    is_generator,
    is_markov,
    k3st_matrix,
    k3st_spectrum,
    mat_exp,
    model_recognize,
    principal_log,
    recognize_equal_input,
    recognize_k3st,
    recognize_tn,
    tn_condition,
    tn_matrix,
    tn_shaped,
    tn_spectrum,
)
from markovembed.models import k3st_generator

from conftest import random_markov
from oracles import match_spectra


def sample_tn(rng):
    while True:
        a = rng.uniform(0.0, 0.2, 4)
        k1, k2 = rng.uniform(0.0, 3.0, 2)
        p = TNParams(*a, k1, k2)
        try:
            p.validate()
        except InfeasibleParamsError:
            continue
        return p


class TestEqualInput:
    def test_constant_input_is_jukes_cantor(self):
        p = EqualInputParams((0.1, 0.1, 0.1, 0.1))
        M = equal_input_matrix(p)
        assert model_recognize(M) >= {"EQUAL_INPUT", "CONSTANT_INPUT", "TN", "HKY", "K3ST", "K2P"}

    def test_recognize_identity(self):
        p = recognize_equal_input(np.eye(3))
        assert p is not None and p.c == 0.0

    def test_recognize_rejects_non_equal_input(self):
        a, b = 0.4, 0.3
        M = np.array(
            [
                [(1 - a) * (1 - b), a, (1 - a) * b],
                [a * (1 - b), 1 - a, a * b],
                [b, 0.0, 1 - b],
            ]
        )
        assert recognize_equal_input(M) is None

    def test_recognize_markov_input_past_row_feasibility(self):
        # the first diagonal entry is -5e-11: Markov within tolerance, while
        # c <= 1 + c_1 fails by 5e-11, so the parameters must not validate
        c = np.array([0.2, 0.5, 0.5 + 5e-11])
        M = (1.0 - c.sum()) * np.eye(3) + np.outer(np.ones(3), c)
        assert is_markov(M)
        assert recognize_equal_input(M) == EqualInputParams((0.2, 0.5, 0.50000000005))
        assert model_recognize(M) == {"EQUAL_INPUT"}

    def test_embed_d4_below_one(self):
        res = embed_equal_input(EqualInputParams((0.2, 0.3, 0.15, 0.25)))
        assert res.verdict is Verdict.EMBEDDABLE
        Q = res.generators[0].matrix
        c = 0.9
        M = equal_input_matrix(EqualInputParams((0.2, 0.3, 0.15, 0.25)))
        assert np.abs(Q - (-math.log1p(-c) / c) * (M - np.eye(4))).max() < 1e-12

    def test_embed_d4_beyond_one(self):
        res = embed_equal_input(EqualInputParams((0.3, 0.3, 0.2, 0.3)))
        assert res.verdict is Verdict.NOT_EMBEDDABLE

    def test_embed_d3_negative_branch(self):
        c = 1 + math.exp(-math.pi * math.sqrt(3.0))
        res = embed_equal_input(EqualInputParams((c / 3,) * 3))
        assert res.verdict is Verdict.EMBEDDABLE
        assert len(res.generators) == 2

    def test_singular_boundary(self):
        res = embed_equal_input(EqualInputParams((0.5, 0.25, 0.25)))
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.DET_NONPOSITIVE

    def test_infeasible_params(self):
        with pytest.raises(InfeasibleParamsError):
            equal_input_matrix(EqualInputParams((1.2, 0.0, 0.0)))

    def test_exp_of_equal_input_generator_stays_equal_input(self, rng):
        for _ in range(1000):
            c_vec = rng.uniform(0.0, 0.4, 4)
            Q = np.tile(c_vec, (4, 1)) - c_vec.sum() * np.eye(4)
            M = mat_exp(Q)
            assert recognize_equal_input(M) is not None


class TestCommutant:
    def test_left_kernel_property(self, rng):
        for _ in range(100):
            c = rng.uniform(0.1, 1.0, 3)
            C = np.tile(c, (3, 1))
            for B in commutant_basis_d3(*c):
                assert np.abs(C @ B).max() < 1e-12
                assert np.abs(B.sum(axis=1)).max() < 1e-12

    def test_rank_four(self, rng):
        for _ in range(50):
            c = rng.uniform(0.1, 1.0, 3)
            flat = np.stack([B.ravel() for B in commutant_basis_d3(*c)])
            assert np.linalg.matrix_rank(flat, tol=1e-10) == 4

    def test_extremal_generators_in_span(self, rng):
        for _ in range(100):
            c = rng.uniform(0.1, 1.0, 3)
            basis = np.stack([B.ravel() for B in commutant_basis_d3(*c)]).T
            for Q in eq_input_extremal_generators(*c):
                _x, res, _rank, _sv = np.linalg.lstsq(basis, Q.ravel(), rcond=None)
                resid = basis @ _x - Q.ravel()
                assert np.abs(resid).max() < 1e-10


class TestTN:
    def test_spectrum_closed_form(self, rng):
        from markovembed import eigenvalues

        for _ in range(300):
            p = sample_tn(rng)
            M = tn_matrix(p)
            want = [1.0, *tn_spectrum(p)]
            got = eigenvalues(M).values()
            assert match_spectra(want, got) < 1e-10

    def test_kappa_one_reduces_to_equal_input(self):
        p = TNParams(0.1, 0.2, 0.05, 0.15, 1.0, 1.0)
        assert recognize_equal_input(tn_matrix(p)) is not None
        res = embed_tn(p)
        assert res.verdict is Verdict.EMBEDDABLE

    def test_degenerate_hky_routes_to_general_engine(self):
        # equal transversion sums with a shared ratio: a double non-unit
        # eigenvalue, handled by the general case dispatch
        from markovembed import Pattern, classify

        p = TNParams(0.08, 0.02, 0.04, 0.06, 1.8, 1.8)
        lams = tn_spectrum(p)
        assert abs(lams[1] - lams[2]) < 1e-12
        M = tn_matrix(p)
        assert classify(M).pattern in (
            Pattern.D4_DEG3_DOUBLE_L2_POS,
            Pattern.D4_DEG3_DOUBLE_L2_NEG,
        )
        res = embed_tn(p)
        assert res.verdict is decide(M).verdict

    def test_embeddable_generator_is_tn_shaped(self, rng):
        done = 0
        while done < 200:
            p = sample_tn(rng)
            res = embed_tn(p)
            if res.verdict is not Verdict.EMBEDDABLE or not res.generators:
                continue
            assert tn_shaped(res.generators[0].matrix, 1e-9)
            done += 1

    def test_nonpositive_spectrum_rejected(self, rng):
        done = 0
        while done < 100:
            p = sample_tn(rng)
            if min(tn_spectrum(p)) > -1e-6:
                continue
            res = embed_tn(p)
            assert res.verdict is not Verdict.EMBEDDABLE
            done += 1

    def test_published_inequality_sufficient(self, rng):
        # the weighted-rate double inequality implies a positive spectrum
        done = 0
        while done < 200:
            p = sample_tn(rng)
            if not tn_condition(p):
                continue
            assert min(tn_spectrum(p)) > 0
            done += 1

    def test_published_inequality_not_necessary(self):
        # both ratios above 1: spectrum positive, inequality violated,
        # and the matrix is genuinely embeddable
        p = TNParams(0.1, 0.1, 0.1, 0.1, 2.0, 3.0)
        assert min(tn_spectrum(p)) > 0
        assert not tn_condition(p)
        res = embed_tn(p)
        assert res.verdict is decide(tn_matrix(p)).verdict

    def test_positive_spectrum_with_nongenerator_log(self):
        # spectrum in (0,1) yet the unique real logarithm leaves the
        # generator cone: embeddability needs the rate check as well
        p = TNParams(0.18115108, 0.02061883, 0.01853185, 0.0663102,
                     2.813877480603095, 0.09907344443731358)
        assert all(0 < lam < 1 for lam in tn_spectrum(p))
        Q = principal_log(tn_matrix(p))
        assert not is_generator(Q)
        res = embed_tn(p)
        assert res.verdict is Verdict.NOT_EMBEDDABLE
        assert res.reason is Reason.LOG_NOT_GENERATOR
        agree = decide(tn_matrix(p))
        assert agree.verdict is Verdict.NOT_EMBEDDABLE

    def test_exp_of_tn_generator_stays_tn(self, rng):
        for _ in range(1000):
            b = rng.uniform(0.0, 0.5, 4)
            k1, k2 = rng.uniform(0.0, 3.0, 2)
            Q = np.array(
                [
                    [0.0, b[1] * k1, b[2], b[3]],
                    [b[0] * k1, 0.0, b[2], b[3]],
                    [b[0], b[1], 0.0, b[3] * k2],
                    [b[0], b[1], b[2] * k2, 0.0],
                ]
            )
            np.fill_diagonal(Q, -Q.sum(axis=1))
            assert recognize_tn(mat_exp(Q)) is not None

    def test_agreement_with_general_engine(self, rng):
        for _ in range(200):
            p = sample_tn(rng)
            a = embed_tn(p)
            b = decide(tn_matrix(p))
            if Verdict.UNDECIDED in (a.verdict, b.verdict):
                continue
            assert a.verdict is b.verdict


class TestK3ST:
    def test_spectrum_closed_form(self, rng):
        from markovembed import eigenvalues

        for _ in range(300):
            x, y, z = rng.uniform(0.0, 0.33, 3)
            p = K3STParams(x, y, z)
            want = [1.0, *k3st_spectrum(p)]
            got = eigenvalues(k3st_matrix(p)).values()
            assert match_spectra(want, got) < 1e-10

    def test_constant_input_path(self):
        res = embed_k3st(K3STParams(0.1, 0.1, 0.1))
        assert res.verdict is Verdict.EMBEDDABLE

    def test_generator_formula_vs_principal_log(self, rng):
        done = 0
        while done < 200:
            x, y, z = rng.uniform(0.0, 0.3, 3)
            p = K3STParams(x, y, z)
            lams = k3st_spectrum(p)
            if min(lams) <= 1e-4:
                continue
            l1, l2, l3 = lams
            if not (l1 > l2 * l3 and l2 > l1 * l3 and l3 > l1 * l2):
                continue
            if min(abs(x - y), abs(y - z), abs(x - z)) < 1e-6:
                continue
            res = embed_k3st(p)
            assert res.verdict is Verdict.EMBEDDABLE
            M = k3st_matrix(p)
            assert np.abs(res.generators[0].matrix - principal_log(M)).max() < 1e-9
            assert np.abs(mat_exp(res.generators[0].matrix) - M).max() < 1e-10
            done += 1

    def test_product_inequality_boundary(self):
        # pick lam2, lam3 and set lam1 = lam2 lam3 exactly: the generator
        # entry built from (+,-,-)/4 quarter-sums vanishes
        l2, l3 = 0.7, 0.4
        l1 = l2 * l3
        # invert lam1 = 1-2(x+z), lam2 = 1-2(y+z), lam3 = 1-2(x+y)
        A = np.array([[2, 0, 2], [0, 2, 2], [2, 2, 0]], dtype=float)
        x, y, z = np.linalg.solve(A, np.array([1 - l1, 1 - l2, 1 - l3]))
        p = K3STParams(x, y, z)
        assert match_spectra([l1, l2, l3], list(k3st_spectrum(p))) < 1e-12
        res = embed_k3st(p)
        assert res.verdict is Verdict.EMBEDDABLE
        Q = res.generators[0].matrix
        assert abs(Q[0, 2]) < 1e-12  # the (+,-,-)/4 entry
        assert abs(0.25 * (math.log(l1) - math.log(l2) - math.log(l3))) < 1e-12

    def test_violating_parameters_rejected(self, rng):
        done = 0
        while done < 100:
            x, y, z = rng.uniform(0.0, 0.33, 3)
            p = K3STParams(x, y, z)
            lams = k3st_spectrum(p)
            if min(lams) <= 1e-4:
                continue
            l1, l2, l3 = lams
            if l1 >= l2 * l3 - 1e-9 and l2 >= l1 * l3 - 1e-9 and l3 >= l1 * l2 - 1e-9:
                continue
            res = embed_k3st(p)
            assert res.verdict is Verdict.NOT_EMBEDDABLE
            done += 1

    def test_exp_of_k3st_generator_stays_k3st(self, rng):
        for _ in range(1000):
            x, y, z = rng.uniform(0.0, 2.0, 3)
            M = mat_exp(k3st_generator(x, y, z))
            assert recognize_k3st(M) is not None

    def test_agreement_with_general_engine(self, rng):
        for _ in range(200):
            x, y, z = rng.uniform(0.0, 0.33, 3)
            p = K3STParams(x, y, z)
            a = embed_k3st(p)
            b = decide(k3st_matrix(p))
            if Verdict.UNDECIDED in (a.verdict, b.verdict):
                continue
            assert a.verdict is b.verdict


class TestRecognizers:
    def test_generic_k3st_only_k3st(self):
        M = k3st_matrix(K3STParams(0.05, 0.15, 0.25))
        assert model_recognize(M) == {"K3ST"}

    def test_generic_tn_only_tn(self):
        M = tn_matrix(TNParams(0.05, 0.1, 0.15, 0.02, 2.0, 0.5))
        assert model_recognize(M) == {"TN"}

    def test_k2p_tags(self):
        M = k3st_matrix(K3STParams(0.3, 0.1, 0.1))
        tags = model_recognize(M)
        assert "K3ST" in tags and "K2P" in tags

    def test_random_markov_rarely_structured(self, rng):
        hits = 0
        for _ in range(200):
            if model_recognize(random_markov(rng, 4)):
                hits += 1
        assert hits == 0
