"""Tests for the 1-norm condition estimator."""

import numpy as np
import pytest

from repro.linalg import (
    getrf,
    hager_norm1_estimate,
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
    def test_estimates_explicit_matrix_norm(self, rng):
        # Estimate ||B||_1 for an explicit B through matvec callbacks.
        b = rng.standard_normal((12, 12))
        est = hager_norm1_estimate(lambda x: b @ x, lambda x: b.T @ x, 12)
        exact = np.linalg.norm(b, 1)
        assert est <= exact * (1.0 + 1e-10)
        assert est >= 0.3 * exact

    def test_exact_for_diagonal(self):
        d = np.diag([1.0, 10.0, 3.0])
        est = hager_norm1_estimate(lambda x: d @ x, lambda x: d @ x, 3)
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


def _explicit_inverse_norm1_estimate(lu, piv):
    """The estimator spelled out: explicit triangles, one swap per pivot, and
    the alternating vector entry by entry.  :func:`inverse_norm1_estimate`
    solves against the packed ``lu`` and gathers the moved rows instead — the
    same LAPACK calls on the same triangle, so the same bits."""
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
    def test_bit_equal_to_the_explicit_form_on_50_factors(self):
        rng = np.random.default_rng(2014)
        for trial in range(50):
            n = int(rng.choice([1, 2, 3, 8, 17, 64, 128]))
            # A stacked domain: the estimator sees the top block of a taller
            # panel as a view, with L entries below/beside U in the packing.
            lu, piv = getrf(rng.standard_normal((n * int(rng.integers(1, 4)), n)))
            top, identity = lu[:n, :n], np.arange(n)
            for pivots in (identity, np.minimum(piv, n - 1)):
                expected = _explicit_inverse_norm1_estimate(top, pivots)
                assert inverse_norm1_estimate(top, pivots) == expected, (trial, n)
            # What analyze_panel feeds the criteria.
            assert smallest_inverse_norm_from_lu(top, identity) == 1.0 / (
                _explicit_inverse_norm1_estimate(top, identity)
            )
