"""Tests for the 1-norm condition estimator."""

import numpy as np
import pytest

from scipy.linalg.lapack import dgecon

from repro.linalg import (
    getrf,
    inverse_norm1_estimate,
    inverse_norm1_exact,
    smallest_inverse_norm_from_lu,
)


class TestExact:
    def test_identity(self):
        assert inverse_norm1_exact(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 0.5])
        assert inverse_norm1_exact(a) == pytest.approx(2.0)

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            inverse_norm1_exact(np.zeros((3, 3)))


class TestHager:
    """Hager's estimator as dgecon runs it behind :func:`inverse_norm1_estimate`."""

    def test_estimates_explicit_matrix_norm(self, rng):
        # Estimate ||B||_1 for an explicit B, as ||A^{-1}||_1 with A = B^{-1}:
        # a lower bound (up to rounding), and never far below.
        b = rng.standard_normal((12, 12))
        a = np.linalg.inv(b)
        lu, piv = getrf(a)
        est = inverse_norm1_estimate(lu, piv)
        exact = inverse_norm1_exact(a)
        assert exact == pytest.approx(np.linalg.norm(b, 1), rel=1e-10)
        assert est <= exact * (1.0 + 1e-10)
        assert est >= 0.3 * exact

    def test_exact_for_diagonal(self):
        # A diagonal A is its own packed LU factor; its inverse has 1-norm 10,
        # which the first probe vector already attains.
        d = np.diag([1.0, 0.1, 1.0 / 3.0])
        est = inverse_norm1_estimate(d, np.arange(3))
        assert est == pytest.approx(10.0, rel=1e-10)


class TestInverseNormFromLU:
    def test_close_to_exact_on_random(self, rng):
        for _ in range(10):
            a = rng.standard_normal((10, 10)) + 2.0 * np.eye(10)
            lu, piv = getrf(a)
            est = inverse_norm1_estimate(lu, piv)
            exact = inverse_norm1_exact(a)
            assert est <= exact * (1.0 + 1e-8)
            assert est >= exact / 5.0

    def test_well_conditioned_reciprocal(self, rng):
        a = 3.0 * np.eye(6)
        lu, piv = getrf(a)
        assert smallest_inverse_norm_from_lu(lu, piv) == pytest.approx(3.0, rel=1e-8)

    def test_nearly_singular_gives_small_value(self, rng):
        a = rng.standard_normal((8, 8))
        a[:, 0] = a[:, 1] + 1e-12 * rng.standard_normal(8)  # nearly dependent columns
        lu, piv = getrf(a)
        value = smallest_inverse_norm_from_lu(lu, piv)
        assert value < 1e-8

    def test_ill_conditioned_smaller_than_well_conditioned(self, rng):
        well = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        ill = well.copy()
        ill[:, -1] = ill[:, 0] + 1e-10 * rng.standard_normal(8)
        lu_w, piv_w = getrf(well)
        lu_i, piv_i = getrf(ill)
        assert smallest_inverse_norm_from_lu(lu_i, piv_i) < smallest_inverse_norm_from_lu(
            lu_w, piv_w
        )

    def test_exactly_singular_returns_zero(self):
        # A singular U factor (zero diagonal entry) must yield 0, not raise.
        lu = np.triu(np.ones((4, 4)))
        lu[2, 2] = 0.0
        piv = np.arange(4)
        assert smallest_inverse_norm_from_lu(lu, piv) == 0.0

    def test_non_finite_intermediate_returns_zero(self):
        # Dividing by the tiny pivot overflows the estimate of ||A^{-1}||_1:
        # dgecon reports rcond = 0, i.e. a QR step.
        lu = np.triu(np.full((8, 8), 2.0)) + np.eye(8)
        lu[0, 0] = 1e-308
        assert smallest_inverse_norm_from_lu(lu, np.arange(8)) == 0.0

    def test_non_finite_factor_returns_zero(self):
        lu = np.eye(4)
        lu[3, 1] = np.inf
        assert smallest_inverse_norm_from_lu(lu, np.arange(4)) == 0.0

    def test_tall_factor_is_rejected(self, rng):
        lu, piv = getrf(rng.standard_normal((24, 8)))
        for f in (inverse_norm1_estimate, smallest_inverse_norm_from_lu):
            with pytest.raises(ValueError, match=r"shape \(24, 8\)"):
                f(lu, piv)

    def test_pivots_past_the_square_top_are_rejected(self, rng):
        lu, piv = getrf(rng.standard_normal((24, 8)))
        assert piv.max() >= 8
        for f in (inverse_norm1_estimate, smallest_inverse_norm_from_lu):
            with pytest.raises(ValueError, match=r"shape \(8, 8\)"):
                f(lu[:8], piv)


def _explicit_inverse_norm1_estimate(lu, piv):
    """Hager's estimator spelled out: explicit triangles, one swap per pivot,
    and Higham's alternating vector entry by entry.  ``dgecon`` runs the same
    algorithm on the packed factor; the two agree to rounding."""
    import scipy.linalg as sla

    n = lu.shape[0]
    lo = np.tril(lu[:n, :n], k=-1) + np.eye(n)
    u = np.triu(lu[:n, :n])

    def permute(x, order):
        y = x.copy()
        for j in order:
            p = int(piv[j])
            if p != j:
                y[[j, p]] = y[[p, j]]
        return y

    def solve(x):
        y = permute(x, range(len(piv)))
        y = sla.solve_triangular(lo, y, lower=True, unit_diagonal=True)
        return sla.solve_triangular(u, y, lower=False)

    def solve_t(x):
        y = sla.solve_triangular(u.T, x, lower=True)
        y = sla.solve_triangular(lo.T, y, lower=False, unit_diagonal=True)
        return permute(y, range(len(piv) - 1, -1, -1))

    x = np.full(n, 1.0 / n)
    gamma = 0.0
    for _ in range(5):
        y = solve(x)
        gamma_new = float(np.linalg.norm(y, 1))
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = solve_t(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x) or gamma_new <= gamma:
            gamma = max(gamma, gamma_new)
            break
        gamma = gamma_new
        x = np.zeros(n)
        x[j] = 1.0
    v = np.array([(-1.0) ** i * (1.0 + i / (n - 1.0)) if n > 1 else 1.0 for i in range(n)])
    return max(gamma, 2.0 * float(np.linalg.norm(solve(v), 1)) / (3.0 * n))


class TestEstimatorOnPackedFactors:
    def test_bit_equal_to_dgecon_and_close_to_the_explicit_form_on_50_factors(self):
        rng = np.random.default_rng(2014)
        for trial in range(50):
            n = int(rng.choice([1, 2, 3, 8, 17, 64, 128]))
            # A stacked domain: the estimator sees the top block of a taller
            # panel as a view, with L entries below/beside U in the packing.
            lu, piv = getrf(rng.standard_normal((n * int(rng.integers(1, 4)), n)))
            top, identity = lu[:n, :n], np.arange(n)
            rcond, info = dgecon(np.asfortranarray(top), 1.0, "1")
            assert info == 0 and rcond > 0.0
            for pivots in (identity, np.minimum(piv, n - 1)):
                # Pivots permute the columns of A^{-1}: its 1-norm, and
                # dgecon's estimate of it, do not depend on them.
                estimate = inverse_norm1_estimate(top, pivots)
                assert estimate == 1.0 / rcond, (trial, n)
                expected = _explicit_inverse_norm1_estimate(top, pivots)
                assert estimate == pytest.approx(expected, rel=1e-13, abs=0.0), (trial, n)
            # What analyze_panel feeds the criteria.
            assert smallest_inverse_norm_from_lu(top, identity) == rcond
