import math

import numpy as np
import pytest

from markovembed import (
    GVerdict,
    IllConditionedError,
    NotTotallyPositiveError,
    PoissonFactor,
    Schedule,
    Verdict,
    b_quantity,
    bangbang_product,
    decide,
    evolve,
    g_embed_d3,
    g_necessary,
    is_markov,
    liouville_det,
    mat_exp,
    peano_baker,
    poisson_matrix,
    star_point,
)

from conftest import random_generator


def there_is_more(t, s):
    """Product of two elementary flows with a structural zero."""
    a, b = 1 - math.exp(-t), 1 - math.exp(-s)
    Q1 = np.zeros((3, 3))
    Q1[0, 0], Q1[0, 1] = -1.0, 1.0
    Q2 = np.zeros((3, 3))
    Q2[2, 2], Q2[2, 0] = -1.0, 1.0
    sched = Schedule.piecewise_constant([(Q1, t), (Q2, s)])
    target = np.array([[1 - a, a, 0], [0, 1, 0], [b, 0, 1 - b]])
    return sched, target


def random_schedule(rng, d=3, max_segments=4):
    n = int(rng.integers(1, max_segments + 1))
    parts = [(random_generator(rng, d, norm_max=2.0), float(rng.uniform(0.1, 1.5)))
             for _ in range(n)]
    return Schedule.piecewise_constant(parts)


class TestEvolve:
    def test_single_segment(self, rng):
        Q = random_generator(rng, 3)
        s = Schedule.piecewise_constant([(Q, 0.7)])
        assert np.abs(evolve(s) - mat_exp(0.7 * Q)).max() < 1e-14

    def test_elementary_product_pattern(self):
        sched, target = there_is_more(1.0, 0.5)
        assert np.abs(evolve(sched) - target).max() < 1e-14

    def test_doubly_stochastic_product(self):
        t, s_ = 0.9, 0.6
        a, b = 0.5 * (1 - math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * s_))
        Q1 = np.array([[-1, 1, 0], [1, -1, 0], [0, 0, 0.0]])
        Q2 = np.array([[-1, 0, 1], [0, 0, 0], [1, 0, -1.0]])
        sched = Schedule.piecewise_constant([(Q1, t), (Q2, s_)])
        target = np.array(
            [
                [(1 - a) * (1 - b), a, (1 - a) * b],
                [a * (1 - b), 1 - a, a * b],
                [b, 0.0, 1 - b],
            ]
        )
        assert np.abs(evolve(sched) - target).max() < 1e-14

    def test_rejects_non_generator_segment(self):
        with pytest.raises(ValueError):
            Schedule.piecewise_constant([(np.eye(3), 1.0)])


class TestPeanoBaker:
    def test_constant_matches_exp(self, rng):
        for _ in range(20):
            Q = random_generator(rng, 3, norm_max=2.0)
            s = Schedule.piecewise_constant([(Q, 1.3)])
            assert np.abs(peano_baker(s, 1.3) - mat_exp(1.3 * Q)).max() < 1e-8

    def test_commuting_family_matches_integrated_exp(self):
        # Q(t) = f(t) Q0 sampled on a grid; the solution is
        # exp(int f * Q0)
        from scipy.integrate import simpson

        Q0 = np.array([[-1, 1, 0], [0.5, -1, 0.5], [0, 2, -2.0]])
        h = 0.002
        times = np.arange(0, 1.0 + h / 2, h)
        f = 1.0 + 0.5 * np.sin(3.0 * times)
        samples = np.stack([fi * Q0 for fi in f])
        s = Schedule.sampled(samples, h)
        integral = simpson(f, x=times)
        got = peano_baker(s, 1.0)
        assert np.abs(got - mat_exp(integral * Q0)).max() < 1e-8

    def test_two_segment_matches_product(self, rng):
        for _ in range(10):
            s = Schedule.piecewise_constant(
                [
                    (random_generator(rng, 3, norm_max=2.0), 0.8),
                    (random_generator(rng, 3, norm_max=2.0), 0.6),
                ]
            )
            assert np.abs(peano_baker(s, s.span) - evolve(s)).max() < 1e-8

    def test_output_is_markov(self, rng):
        for _ in range(30):
            s = random_schedule(rng)
            M = peano_baker(s, s.span)
            assert M.min() >= -1e-8
            # the series terms keep zero row sums, so the partial sums and
            # the limit keep unit row sums far below the entry accuracy
            assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-10

    def test_row_sum_drift_raises(self, monkeypatch):
        # the row-sum invariant is a runtime check, kept under python -O
        from markovembed import inhom

        def drifting(times, F):
            out = np.zeros_like(F)
            out[-1] = 1e-3
            return out

        monkeypatch.setattr(inhom, "_cumulative_simpson", drifting)
        Q = np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]])
        s = Schedule.piecewise_constant([(Q, 1.0)])
        with pytest.raises(IllConditionedError, match="row sums"):
            peano_baker(s, 1.0)

    def test_partial_time(self, rng):
        Q1 = random_generator(rng, 4, norm_max=1.0)
        Q2 = random_generator(rng, 4, norm_max=1.0)
        s = Schedule.piecewise_constant([(Q1, 1.0), (Q2, 1.0)])
        got = peano_baker(s, 1.5)
        want = mat_exp(Q1) @ mat_exp(0.5 * Q2)
        assert np.abs(got - want).max() < 1e-8


class TestLiouville:
    def test_zero_generator(self):
        s = Schedule.piecewise_constant([(np.zeros((3, 3)), 1.0)])
        assert liouville_det(s, 1.0) == 1.0

    def test_poisson_rate(self):
        alpha, t = 1.3, 0.8
        Q = np.zeros((3, 3))
        Q[1, 1], Q[1, 0] = -alpha, alpha
        s = Schedule.piecewise_constant([(Q, t)])
        assert abs(liouville_det(s, t) - math.exp(-alpha * t)) < 1e-14

    def test_elementary_product_determinant(self):
        t, s_ = 1.0, 0.7
        sched, target = there_is_more(t, s_)
        a, b = 1 - math.exp(-t), 1 - math.exp(-s_)
        assert abs(liouville_det(sched, sched.span) - (1 - a) * (1 - b)) < 1e-12
        assert abs(np.linalg.det(target) - (1 - a) * (1 - b)) < 1e-12

    def test_matches_product_determinant(self, rng):
        for _ in range(1000):
            s = random_schedule(rng)
            det = liouville_det(s, s.span)
            assert 0.0 < det <= 1.0
            assert abs(det - np.linalg.det(evolve(s))) < 1e-8


class TestPoisson:
    def test_matrix_and_determinant(self):
        f = PoissonFactor(0, 1, 0.4)
        M = poisson_matrix(f, 2)
        assert np.abs(M - np.array([[0.6, 0.4], [0.0, 1.0]])).max() == 0.0
        g = PoissonFactor(1, 0, 0.3)
        prod = bangbang_product([f, g], 2)
        a, b = 0.4, 0.3
        assert abs(np.linalg.det(prod) - (1 - (a + b - a * b))) < 1e-14
        assert decide(prod).verdict is Verdict.EMBEDDABLE

    def test_singular_factor(self):
        M = poisson_matrix(PoissonFactor(0, 2, 1.0), 3)
        assert abs(np.linalg.det(M)) < 1e-15

    def test_empty_product_identity(self):
        assert np.abs(bangbang_product([], 3) - np.eye(3)).max() == 0.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            PoissonFactor(1, 1, 0.5)
        with pytest.raises(ValueError):
            PoissonFactor(0, 1, 1.5)


class TestGNecessary:
    def test_zero_diagonal(self):
        M = np.array([[0.0, 1, 0], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]])
        assert not g_necessary(M)

    def test_identity(self):
        assert g_necessary(np.eye(3))

    def test_flow_outputs_satisfy_it(self, rng):
        for _ in range(1000):
            assert g_necessary(evolve(random_schedule(rng)))


class TestBQuantity:
    def test_constant_input_value(self):
        # frozen with mpmath at 50 digits for c = 0.6: the maximum is the
        # diagonal term 0.6 * det([[0.6, 0.2], [0.2, 0.6]])
        c = 0.6
        M = (1 - c) * np.eye(3) + np.full((3, 3), c / 3)
        assert abs(b_quantity(M) - 0.192) < 1e-12

    def test_permutation_invariance(self, rng):
        perms = [np.eye(3)[list(p)] for p in
                 [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]]
        for _ in range(100):
            M = rng.uniform(0.05, 1.0, (3, 3))
            M /= M.sum(axis=1, keepdims=True)
            b0 = b_quantity(M)
            for P in perms:
                assert abs(b_quantity(P @ M @ P.T) - b0) < 1e-9 * max(1, abs(b0))

    def test_embeddable_large_det_dominates(self, rng):
        done = 0
        while done < 200:
            Q = random_generator(rng, 3, norm_max=1.5)
            if math.exp(np.trace(Q)) < 0.125:
                continue
            M = mat_exp(Q)
            if M.min() <= 1e-10:
                continue
            assert b_quantity(M) >= np.linalg.det(M) - 1e-12
            done += 1

    def test_requires_total_positivity(self):
        M = np.array([[0.5, 0.5, 0.0], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]])
        with pytest.raises(NotTotallyPositiveError):
            b_quantity(M)

    def test_against_high_precision_evaluation(self, rng):
        import mpmath as mp

        mp.mp.dps = 40
        for _ in range(20):
            M = rng.uniform(0.05, 1.0, (3, 3))
            M /= M.sum(axis=1, keepdims=True)
            G = [[mp.mpf(v) for v in row] for row in M]

            def minor(i, j):
                r = [x for x in range(3) if x != i]
                c = [x for x in range(3) if x != j]
                return G[r[0]][c[0]] * G[r[1]][c[1]] - G[r[0]][c[1]] * G[r[1]][c[0]]

            best = mp.mpf("-inf")
            for i in range(3):
                for j in range(3):
                    sign = (-1) ** ((i + 1) + (j + 1) + (1 if i == j else 0) - 1)
                    best = max(best, G[i][i] * G[j][j] / G[i][j] * sign * minor(i, j))
            assert abs(b_quantity(M) - float(best)) < 1e-12


class TestGEmbed:
    def test_zero_offdiagonal_branch(self):
        t, s_ = 0.8, 0.5
        a, b = 0.5 * (1 - math.exp(-2 * t)), 0.5 * (1 - math.exp(-2 * s_))
        M = np.array(
            [
                [(1 - a) * (1 - b), a, (1 - a) * b],
                [a * (1 - b), 1 - a, a * b],
                [b, 0.0, 1 - b],
            ]
        )
        rep = g_embed_d3(M)
        assert rep.verdict is GVerdict.G_EMBEDDABLE
        assert rep.factor_bound == 5

    def test_totally_positive_branch(self, rng):
        done = 0
        while done < 100:
            Q = random_generator(rng, 3, norm_max=1.0)
            if math.exp(np.trace(Q)) < 0.125:
                continue
            M = mat_exp(Q)
            if M.min() <= 1e-8:
                continue
            rep = g_embed_d3(M)
            assert rep.verdict is GVerdict.G_EMBEDDABLE
            assert rep.factor_bound == 6
            done += 1

    def test_singular_rejected(self):
        assert g_embed_d3(star_point(3)).verdict is GVerdict.NOT_G_EMBEDDABLE

    def test_gap_witness(self):
        sched, target = there_is_more(1.0, 1.0)
        M = evolve(sched)
        assert np.abs(M - target).max() < 1e-14
        assert decide(M).verdict is Verdict.NOT_EMBEDDABLE
        assert g_embed_d3(M).verdict is GVerdict.G_EMBEDDABLE


class TestStarPoint:
    def test_idempotent(self):
        J = star_point(3)
        assert np.abs(J - 1.0 / 3.0).max() < 1e-15
        assert np.abs(J @ J - J).max() < 1e-15
        assert is_markov(J)
        assert abs(np.linalg.det(J)) < 1e-15

    def test_segment_toward_center_stays_flagged(self, rng):
        J = star_point(3)
        for _ in range(100):
            P = mat_exp(random_generator(rng, 3, norm_max=2.0))
            c = rng.uniform(0.0, 0.999)
            M = (1 - c) * P + c * J
            assert g_embed_d3(M).verdict is not GVerdict.NOT_G_EMBEDDABLE


class TestModelClosureUnderFlows:
    def test_equal_input_flow_stays_equal_input(self, rng):
        from markovembed import recognize_equal_input

        for _ in range(100):
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                c_vec = rng.uniform(0.0, 0.5, 3)
                Q = np.tile(c_vec, (3, 1)) - c_vec.sum() * np.eye(3)
                parts.append((Q, float(rng.uniform(0.1, 1.0))))
            M = evolve(Schedule.piecewise_constant(parts))
            p = recognize_equal_input(M)
            assert p is not None
            # flows started at the identity keep the summatory parameter
            # below 1 and hence stay classically embeddable
            assert p.c < 1.0
            assert decide(M).verdict is Verdict.EMBEDDABLE

    def test_summatory_parameter_nonincreasing(self, rng):
        from markovembed import recognize_equal_input

        c_vec = rng.uniform(0.1, 0.5, 3)
        Q = np.tile(c_vec, (3, 1)) - c_vec.sum() * np.eye(3)
        s = Schedule.piecewise_constant([(Q, 5.0)])
        last = 1.0
        for t in np.linspace(0.2, 5.0, 20):
            M = peano_baker(s, float(t))
            lam = 1.0 - recognize_equal_input(M).c
            assert lam <= last + 1e-10
            last = lam
