import numpy as np

from markovembed._roots import char_poly, poly_roots, solve_cubic

from oracles import match_spectra, oracle_char_poly


def eval_monic(coeffs_low, z):
    acc = 1.0 + 0.0j
    for c in reversed(list(coeffs_low)):
        acc = acc * z + c
    return acc


class TestCharPoly:
    def test_matches_independent_recursion(self, rng):
        for d in (1, 2, 3, 4):
            for _ in range(200):
                A = rng.normal(size=(d, d))
                got = char_poly(A)
                want = oracle_char_poly(A)[1:][::-1]
                assert np.abs(got - want).max() < 1e-10 * max(1, np.abs(want).max())


class TestClosedForms:
    def test_random_roots_reproduce_polynomial(self, rng):
        for d in (1, 2, 3, 4):
            for _ in range(500):
                coeffs = rng.normal(scale=2.0, size=d)
                roots = poly_roots(np.asarray(coeffs))
                assert len(roots) == d
                for z in roots:
                    assert abs(eval_monic(coeffs, z)) < 1e-8 * max(1.0, abs(z)) ** d

    def test_conjugate_pairs_exact(self, rng):
        for d in (1, 2, 3, 4):
            for _ in range(500):
                coeffs = rng.normal(size=d)
                roots = poly_roots(np.asarray(coeffs))
                nonreal = [z for z in roots if z.imag != 0.0]
                for z in nonreal:
                    assert z.conjugate() in nonreal

    def test_cubic_double_root_exact(self):
        # (x - 2)^2 (x - 5) = x^3 - 9x^2 + 24x - 20
        roots = sorted(solve_cubic(-9.0, 24.0, -20.0), key=lambda z: z.real)
        assert abs(roots[0] - 2.0) < 1e-12 and abs(roots[1] - 2.0) < 1e-12
        assert abs(roots[2] - 5.0) < 1e-12
        assert roots[0] == roots[1]

    def test_cubic_triple_root(self):
        # (x - 1)^3
        roots = solve_cubic(-3.0, 3.0, -1.0)
        assert all(abs(z - 1.0) < 1e-7 for z in roots)

    def test_quartic_known_factorisation(self):
        # (x^2 + 1)(x - 3)(x + 2) = x^4 - x^3 - 5x^2 - x - 6
        roots = poly_roots(np.array([-6.0, -1.0, -5.0, -1.0]))
        want = [1j, -1j, 3.0, -2.0]
        assert match_spectra(want, roots) < 1e-10

    def test_quartic_near_multiple_falls_back(self):
        # (x - 1)^2 (x - 2)^2: QR on the companion matrix splits each
        # double root by about sqrt(eps)
        roots = poly_roots(np.array([4.0, -12.0, 13.0, -6.0]))
        assert match_spectra([1.0, 1.0, 2.0, 2.0], roots) < 1e-6
