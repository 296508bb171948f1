"""Algebraic invariants checked with hypothesis-generated inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from markovembed import (
    DEFAULT_TOL,
    Verdict,
    decide,
    delta_min,
    eigenvalues,
    eq_input_extremal_generators,
    is_generator,
    is_markov,
    mat_exp,
)
from markovembed.classify import _sign_flags, sign_screen

from oracles import violates_transitivity

finite = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


# entries on both sides of the sign threshold: zeros, +-tol.nonneg (not
# positive) and positives down to just above it
sign_entries = st.sampled_from(
    [0.0, DEFAULT_TOL.nonneg, -DEFAULT_TOL.nonneg]
) | st.floats(min_value=2 * DEFAULT_TOL.nonneg, max_value=1.0)


@st.composite
def sign_patterns(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    return np.array([[draw(sign_entries) for _ in range(d)] for _ in range(d)])


@st.composite
def markov_rows(draw, d=3):
    rows = []
    for _ in range(d):
        raw = [draw(st.floats(min_value=1e-6, max_value=1.0)) for _ in range(d)]
        total = sum(raw)
        rows.append([v / total for v in raw])
    return np.array(rows)


@given(markov_rows())
@settings(max_examples=200, deadline=None)
def test_markov_rows_recognised(M):
    assert is_markov(M)
    assert any(z == 1.0 for z, _ in eigenvalues(M).roots)


# row-sum offsets on both sides of tol.rowsum, and entries on both sides of -tol.nonneg
row_offsets = st.sampled_from([0.0, 1e-10, -1e-10, 2e-10, -2e-10]) | st.floats(-3e-10, 3e-10)


@given(markov_rows(d=4), st.lists(row_offsets, min_size=4, max_size=4), sign_entries)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_markov_test_matches_every_row(M, offsets, corner):
    # is_markov reads only the extreme row sums; the definition reads each
    M = M.copy()
    M[:, 0] += offsets
    M[3, 2] = corner
    sums = M.sum(axis=1).tolist()
    every_row = M.min() >= -DEFAULT_TOL.nonneg and all(
        abs(s - 1.0) <= DEFAULT_TOL.rowsum for s in sums
    )
    assert is_markov(M) is every_row


@given(positive, positive, positive, st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_delta_min_scale_invariant(c1, c2, c3, t):
    base = delta_min(c1, c2, c3)
    assert abs(delta_min(t * c1, t * c2, t * c3) - base) <= 1e-9 * base
    assert base >= math.pi * math.sqrt(3.0) - 1e-12


@given(positive, positive, positive)
@settings(max_examples=100, deadline=None)
def test_extremal_generators_are_generators(c1, c2, c3):
    qp, qm = eq_input_extremal_generators(c1, c2, c3)
    assert is_generator(qp)
    assert is_generator(qm)


@given(markov_rows(d=2))
@settings(max_examples=100, deadline=None)
def test_d2_dichotomy_matches_entries(M):
    res = decide(M)
    assert (res.verdict is Verdict.EMBEDDABLE) == (M[0, 1] + M[1, 0] < 1.0)


@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_exp_of_poisson_generator(alpha, t):
    Q = np.zeros((3, 3))
    Q[1, 1], Q[1, 0] = -alpha, alpha
    M = mat_exp(t * Q)
    assert is_markov(M)
    assert abs(M[1, 1] - math.exp(-alpha * t)) < 1e-12


@given(sign_patterns())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_vectorised_transitivity_matches_the_definition(A):
    diag_positive, transitive = sign_screen(A)
    assert transitive is (not violates_transitivity(A, DEFAULT_TOL.nonneg))
    assert diag_positive is all(A[i, i] > DEFAULT_TOL.nonneg for i in range(len(A)))
    # the exact pattern that decide's rejections rest on
    diag_positive, transitive = _sign_flags(A > 0.0)
    assert transitive is (not violates_transitivity(A, 0.0))
    assert diag_positive is all(A[i, i] > 0.0 for i in range(len(A)))
