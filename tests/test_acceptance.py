"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from markovembed import (
    K3STParams,
    Pattern,
    Reason,
    Schedule,
    TNParams,
    Uniqueness,
    Verdict,
    classify,
    decide,
    delta_min,
    embed_d2,
    embed_k3st,
    embed_tn,
    eq_input_extremal_generators,
    evolve,
    g_embed_d3,
    is_generator,
    k3st_matrix,
    k3st_spectrum,
    liouville_det,
    mat_exp,
    peano_baker,
    poly_in,
    principal_log,
    smt_coeffs,
    tn_condition,
    tn_matrix,
    tn_shaped,
    tn_spectrum,
)
from markovembed.inhom import GVerdict
from markovembed.models import InfeasibleParamsError

from conftest import random_generator
from oracles import assert_embeds

PI_SQRT3 = math.pi * math.sqrt(3.0)


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS — {text}")


def constant_input(c, d=3):
    return (1 - c) * np.eye(d) + np.full((d, d), c / d)


def test_criterion_1_kendall_grid():
    """Exact dichotomy a+b < 1 on a 200x200 grid, residuals <= 1e-12."""
    start = time.process_time()
    grid = np.linspace(0.0, 1.0, 200)
    worst = 0.0
    for a in grid:
        for b in grid:
            M = np.array([[1 - a, a], [b, 1 - b]])
            res = embed_d2(M)
            assert (res.verdict is Verdict.EMBEDDABLE) == (a + b < 1.0), (a, b)
            if res.verdict is Verdict.EMBEDDABLE:
                worst = max(worst, res.generators[0].residual)
    elapsed = time.process_time() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(1, f"40000 grid points, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_equal_input_extremal_constant():
    """Extremal constant-input bound and the two circulant generators."""
    cmax = 1.0 + math.exp(-delta_min(1.0, 1.0, 1.0))
    target = 1.0 + math.exp(-PI_SQRT3)
    assert abs(cmax - target) <= 1e-12 * target

    s = 2.0 * math.pi / math.sqrt(3.0)
    qp_expected = s * np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1.0]])
    qp, qm = eq_input_extremal_generators(1.0, 1.0, 1.0)
    assert np.abs(qp - qp_expected).max() < 1e-12
    assert np.abs(qm - qp_expected.T).max() < 1e-12

    # the extremal matrix: equal-input at the bound; its diagonal deficit
    # from 1/3 equals (2/3) e^{-pi sqrt 3}
    M_star = constant_input(target)
    delta = (2.0 / 3.0) * math.exp(-PI_SQRT3)
    assert abs((1.0 / 3.0 - M_star[0, 0]) - delta) < 1e-15
    assert np.abs(mat_exp(qp) - M_star).max() <= 1e-10
    assert np.abs(mat_exp(qm) - M_star).max() <= 1e-10

    res = decide(M_star)
    assert res.verdict is Verdict.EMBEDDABLE and len(res.generators) == 2
    report(2, f"c_max = 1 + e^(-pi sqrt 3) to {abs(cmax - target):.1e}; "
              "both circulant generators verified at 1e-10")


def test_criterion_3_round_trip_completeness():
    """decide(exp(Q)) on 10^4 seeded random generators per dimension."""
    start = time.perf_counter()
    rng = np.random.default_rng(31415926)
    undecided = 0
    total = 0
    for d in (2, 3, 4):
        for _ in range(10_000):
            Q = random_generator(rng, d, norm_max=5.0)
            res = decide(mat_exp(Q))
            total += 1
            assert res.verdict is not Verdict.NOT_EMBEDDABLE
            if res.verdict is Verdict.UNDECIDED:
                undecided += 1
            else:
                assert max(g.residual for g in res.generators) <= 1e-8
    elapsed = time.perf_counter() - start
    assert undecided / total < 0.01
    assert elapsed < 300.0
    report(3, f"{total} round trips, {undecided} undecided "
              f"({100 * undecided / total:.3f}%), {elapsed:.0f}s")


def _complex_pair_corpus(rng, count, norm_max=4.0, min_diag=None):
    out = []
    while len(out) < count:
        Q = random_generator(rng, 3, norm_max=norm_max)
        M = mat_exp(Q)
        if min_diag is not None and np.diag(M).min() <= min_diag:
            continue
        tag = classify(M)
        if tag.pattern is Pattern.D3_COMPLEX_PAIR:
            out.append((M, tag))
    return out


def _feasible_branches(M, tag, kmax):
    found = []
    A = M - np.eye(3)
    for k in range(-kmax, kmax + 1):
        R = poly_in(smt_coeffs(tag, k=k), A)
        if is_generator(R) and np.abs(mat_exp(R) - M).max() <= 1e-8:
            found.append(k)
    return found


def test_criterion_4_branch_bound_tightness():
    """No feasible branch outside the determinant bound, widened scan."""
    rng = np.random.default_rng(271828)
    for M, tag in _complex_pair_corpus(rng, 1000):
        det = float(np.linalg.det(M))
        bound = math.floor(1.0 - math.log(det) / (2.0 * math.pi * math.sqrt(3.0)))
        found = _feasible_branches(M, tag, bound + 3)
        assert found, "round-trip instance must embed"
        assert len(found) <= bound
        assert all(abs(k) <= bound for k in found)
    report(4, "1000 complex-pair instances, widened scans stay inside the bound")


def test_criterion_5_uniqueness_certificates():
    """det > e^-pi forces Unique; min diag > 1/2 leaves only branch 0."""
    rng = np.random.default_rng(5772156)
    threshold = math.exp(-math.pi)
    assert abs(threshold - 0.043214) < 5e-7  # printed approximation honored

    done = 0
    while done < 300:
        d = int(rng.integers(2, 5))
        Q = random_generator(rng, d, norm_max=2.5)
        M = mat_exp(Q)
        if np.linalg.det(M) <= threshold:
            continue
        res = decide(M)
        if res.verdict is Verdict.UNDECIDED:
            continue
        assert res.verdict is Verdict.EMBEDDABLE
        assert res.uniqueness is Uniqueness.UNIQUE
        done += 1

    for M, tag in _complex_pair_corpus(rng, 100, norm_max=1.2, min_diag=0.5):
        det = float(np.linalg.det(M))
        bound = math.floor(1.0 - math.log(det) / (2.0 * math.pi * math.sqrt(3.0)))
        assert _feasible_branches(M, tag, bound + 3) == [0]
    report(5, "det certificate on 300 instances; min-diag > 1/2 scans "
              "leave only the principal branch")


def test_criterion_6_k3st_closed_form():
    """Verdict equals the eigenvalue product inequalities; generators match
    the principal log at 1e-9 and exponentiate back at 1e-10."""
    rng = np.random.default_rng(141421)
    done = 0
    while done < 1000:
        x, y, z = rng.uniform(0.0, 1.0 / 3.0, 3)
        if min(abs(x - y), abs(y - z), abs(x - z)) < 1e-7:
            continue
        p = K3STParams(x, y, z)
        l1, l2, l3 = k3st_spectrum(p)
        predicted = (
            min(l1, l2, l3) > 1e-9
            and l1 >= l2 * l3 - 1e-12
            and l2 >= l1 * l3 - 1e-12
            and l3 >= l1 * l2 - 1e-12
        )
        boundary = (
            abs(min(l1, l2, l3)) < 1e-9
            or min(abs(l1 - l2 * l3), abs(l2 - l1 * l3), abs(l3 - l1 * l2)) < 1e-12
        )
        if boundary:
            continue
        res = embed_k3st(p)
        assert (res.verdict is Verdict.EMBEDDABLE) == predicted, (x, y, z)
        if predicted:
            M = k3st_matrix(p)
            Q = res.generators[0].matrix
            assert np.abs(Q - principal_log(M)).max() <= 1e-9
            assert np.abs(mat_exp(Q) - M).max() <= 1e-10
        done += 1
    report(6, "1000 simple instances, verdict == spectrum/product predicate")


def _tn_corpus(rng, count):
    out = []
    while len(out) < count:
        a = rng.uniform(0.0, 0.2, 4)
        k1, k2 = rng.uniform(0.0, 3.0, 2)
        p = TNParams(*a, k1, k2)
        try:
            p.validate()
        except InfeasibleParamsError:
            continue
        vals = [1.0, *tn_spectrum(p)]
        if min(abs(u - v) for i, u in enumerate(vals) for v in vals[i + 1:]) < 1e-6:
            continue
        out.append(p)
    return out


def test_criterion_7_tn_closed_form():
    """TN verdicts are sound and exact: positive closed-form spectrum plus
    the generator property of the principal log; embeddable generators are
    TN-shaped within 1e-9.

    The published double inequality on weighted rate sums is NOT an exact
    embeddability criterion (see the companion xfail test), so the verdict
    is checked against the sound predicate and against the general engine.
    """
    rng = np.random.default_rng(1732050)
    agree_with_inequality = 0
    corpus = _tn_corpus(rng, 1000)
    for p in corpus:
        res = embed_tn(p)
        lams = tn_spectrum(p)
        if min(lams) <= 1e-9:
            assert res.verdict is Verdict.NOT_EMBEDDABLE
        else:
            Q = poly_in(
                smt_coeffs(classify(tn_matrix(p))), tn_matrix(p) - np.eye(4)
            )
            expected = is_generator(Q)
            assert (res.verdict is Verdict.EMBEDDABLE) == expected
        if (res.verdict is Verdict.EMBEDDABLE) == tn_condition(p):
            agree_with_inequality += 1
        if res.verdict is Verdict.EMBEDDABLE:
            assert tn_shaped(res.generators[0].matrix, 1e-9)
            assert res.uniqueness is Uniqueness.UNIQUE
    report(7, f"1000 simple instances sound and TN-shaped; published "
              f"inequality agrees on {agree_with_inequality}/1000 "
              "(the rest are its documented defects)")


@pytest.mark.xfail(
    strict=True,
    reason="the published weighted-rate inequality is neither necessary "
    "(both ratios > 1) nor sufficient (principal log can leave the "
    "generator cone) for embeddability; see decisions ledger",
)
def test_criterion_7_literal_inequality_equivalence():
    rng = np.random.default_rng(1732050)
    for p in _tn_corpus(rng, 1000):
        res = embed_tn(p)
        assert (res.verdict is Verdict.EMBEDDABLE) == tn_condition(p)


def test_criterion_8_peano_baker_consistency():
    """Series solution vs closed forms, products, and the determinant law."""
    rng = np.random.default_rng(6283185)
    for _ in range(20):
        Q = random_generator(rng, 3, norm_max=2.0)
        s = Schedule.piecewise_constant([(Q, 1.1)])
        assert np.abs(peano_baker(s, 1.1) - mat_exp(1.1 * Q)).max() <= 1e-8

    # commuting family: scalar profile times a fixed generator
    from scipy.integrate import simpson

    Q0 = random_generator(rng, 4, norm_max=1.5)
    h = 0.002
    times = np.arange(0.0, 1.0 + h / 2, h)
    f = 1.0 + 0.5 * np.sin(3.0 * times)
    s = Schedule.sampled(np.stack([fi * Q0 for fi in f]), h)
    want = mat_exp(simpson(f, x=times) * Q0)
    assert np.abs(peano_baker(s, 1.0) - want).max() <= 1e-8

    for _ in range(25):
        s = Schedule.piecewise_constant(
            [
                (random_generator(rng, 3, norm_max=2.0), float(rng.uniform(0.2, 1.2))),
                (random_generator(rng, 3, norm_max=2.0), float(rng.uniform(0.2, 1.2))),
            ]
        )
        prod = evolve(s)
        assert np.abs(peano_baker(s, s.span) - prod).max() <= 1e-8
        det = liouville_det(s, s.span)
        assert 0.0 < det <= 1.0
        assert abs(det - np.linalg.det(prod)) <= 1e-8
    report(8, "constant, commuting, and two-segment schedules consistent at 1e-8")


def test_criterion_9_strict_inclusion_witness():
    """A product of two elementary flows is g-embeddable but not embeddable."""
    t = s_ = 1.0
    a = 1.0 - math.exp(-t)
    Q1 = np.zeros((3, 3))
    Q1[0, 0], Q1[0, 1] = -1.0, 1.0
    Q2 = np.zeros((3, 3))
    Q2[2, 2], Q2[2, 0] = -1.0, 1.0
    sched = Schedule.piecewise_constant([(Q1, t), (Q2, s_)])
    M = evolve(sched)
    expected = np.array([[1 - a, a, 0.0], [0.0, 1.0, 0.0], [a, 0.0, 1 - a]])
    assert np.abs(M - expected).max() < 1e-14

    res = decide(M)
    assert res.verdict is Verdict.NOT_EMBEDDABLE
    assert res.reason is Reason.TRANSITIVITY_VIOLATION
    # the cubic-coefficient route shows the negative log coefficient
    R = poly_in(smt_coeffs(classify(M)), M - np.eye(3))
    assert R[~np.eye(3, dtype=bool)].min() < -1e-3

    rep = g_embed_d3(M)
    assert rep.verdict is GVerdict.G_EMBEDDABLE
    assert rep.factor_bound == 5
    assert rep.necessary_ok
    report(9, "flow product rejected classically, accepted generally")


def test_criterion_10_negative_eigenvalue_exclusions():
    """Branch-window emptiness below the odd-rotation moduli bounds."""
    # d=4, JNF diag(1, 1, lam, lam) with lam < -e^{-pi}
    M = np.zeros((4, 4))
    M[:2, :2] = [[0.2, 0.8], [0.6, 0.4]]  # lam = -0.4
    M[2:, 2:] = [[0.3, 0.7], [0.7, 0.3]]
    res = decide(M)
    assert classify(M).pattern is Pattern.D4_DEG2_DOUBLE_NEG
    assert res.verdict is Verdict.NOT_EMBEDDABLE
    assert res.reason is Reason.K_RANGE_EMPTY

    # d=4, JNF diag(1, lam1, lam2, lam2) with lam2 < -e^{-pi}
    x, y = 0.5, 0.1
    M = k3st_matrix(K3STParams(x, y, y))
    tag = classify(M)
    assert tag.pattern is Pattern.D4_DEG3_DOUBLE_L2_NEG
    assert tag.eigen["lambda2"].real < -math.exp(-math.pi)
    res = decide(M)
    assert res.verdict is Verdict.NOT_EMBEDDABLE
    assert res.reason is Reason.K_RANGE_EMPTY

    # d=3 equal-input with lam < -e^{-pi sqrt 3}
    lam = -1.5 * math.exp(-PI_SQRT3)
    res = decide(constant_input(1.0 - lam))
    assert res.verdict is Verdict.NOT_EMBEDDABLE

    # on a skewed ray the constant-ray bound is not the threshold: this
    # block lies beyond 1 + e^(-delta_min) and still embeds
    skewed = np.array([0.55, 0.3, 0.2])
    beyond = 1.0 + 1.5 * math.exp(-delta_min(*skewed))
    M = (1 - beyond) * np.eye(3) + np.tile(beyond * skewed / skewed.sum(), (3, 1))
    res = decide(M)
    assert res.verdict is Verdict.EMBEDDABLE
    for g in res.generators:
        assert_embeds(g.matrix, M)
    report(10, "odd-rotation windows empty below the moduli bounds")
