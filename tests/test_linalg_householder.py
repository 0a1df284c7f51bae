"""Tests for the compact-WY Householder substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from householder import (
    apply_block_q_transpose,
    apply_q,
    apply_q_transpose,
    build_q,
    geqrt,
    house,
    larft,
)


class TestHouse:
    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = house(x)
        h = np.eye(7) - tau * np.outer(v, v)
        y = h @ x
        assert y[0] == pytest.approx(beta, rel=1e-12)
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-12)

    def test_reflector_is_orthogonal(self, rng):
        x = rng.standard_normal(5)
        v, tau, _ = house(x)
        h = np.eye(5) - tau * np.outer(v, v)
        np.testing.assert_allclose(h @ h.T, np.eye(5), atol=1e-12)

    def test_zero_tail_gives_identity(self):
        x = np.array([3.0, 0.0, 0.0])
        v, tau, beta = house(x)
        assert tau == 0.0
        assert beta == 3.0

    def test_length_one(self):
        v, tau, beta = house(np.array([2.5]))
        assert tau == 0.0
        assert beta == 2.5

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(9)
        _, _, beta = house(x)
        assert abs(beta) == pytest.approx(np.linalg.norm(x), rel=1e-12)


class TestGeqrt:
    def test_square_reconstruction(self, rng):
        a = rng.standard_normal((8, 8))
        v, t, r = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(q @ np.vstack([r]), a, atol=1e-10)

    def test_tall_reconstruction(self, rng):
        a = rng.standard_normal((12, 5))
        v, t, r = geqrt(a)
        q = build_q(v, t)
        full_r = np.vstack([r, np.zeros((7, 5))])
        np.testing.assert_allclose(q @ full_r, a, atol=1e-10)

    def test_q_is_orthogonal(self, rng):
        a = rng.standard_normal((10, 6))
        v, t, _ = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(q.T @ q, np.eye(10), atol=1e-10)

    def test_r_upper_triangular(self, rng):
        a = rng.standard_normal((9, 9))
        _, _, r = geqrt(a)
        np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=1e-14)

    def test_r_matches_numpy_up_to_signs(self, rng):
        a = rng.standard_normal((8, 8))
        _, _, r = geqrt(a)
        r_np = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(np.abs(np.diag(r)), np.abs(np.diag(r_np)), rtol=1e-10)

    def test_v_unit_lower_trapezoidal(self, rng):
        a = rng.standard_normal((10, 4))
        v, _, _ = geqrt(a)
        for j in range(4):
            assert v[j, j] == pytest.approx(1.0)
            np.testing.assert_allclose(v[:j, j], 0.0, atol=1e-14)

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            geqrt(rng.standard_normal((3, 5)))

    def test_rank_deficient_column(self):
        a = np.zeros((6, 3))
        a[:, 0] = 1.0
        v, t, r = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(q @ np.vstack([r, np.zeros((3, 3))]), a, atol=1e-12)


class TestApply:
    def test_apply_q_transpose_matches_explicit(self, rng):
        a = rng.standard_normal((10, 6))
        c = rng.standard_normal((10, 4))
        v, t, _ = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(apply_q_transpose(v, t, c), q.T @ c, atol=1e-10)

    def test_apply_q_matches_explicit(self, rng):
        a = rng.standard_normal((7, 7))
        c = rng.standard_normal((7, 3))
        v, t, _ = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(apply_q(v, t, c), q @ c, atol=1e-10)

    def test_apply_roundtrip(self, rng):
        a = rng.standard_normal((9, 5))
        c = rng.standard_normal((9, 2))
        v, t, _ = geqrt(a)
        back = apply_q(v, t, apply_q_transpose(v, t, c))
        np.testing.assert_allclose(back, c, atol=1e-10)

    @pytest.mark.parametrize("ib", [1, 3, 7, 8])
    def test_block_apply_matches_full_t(self, ib, rng):
        """Block-T keeps only ``T``'s diagonal ``ib x ib`` blocks, and they suffice."""
        a = rng.standard_normal((12, 7))
        c = rng.standard_normal((12, 3))
        v, t, _ = geqrt(a)
        block_t = np.zeros((ib, 7))
        for j in range(0, 7, ib):
            b = min(ib, 7 - j)
            block_t[:b, j : j + b] = t[j : j + b, j : j + b]
        np.testing.assert_allclose(
            apply_block_q_transpose(v, block_t, ib, c), apply_q_transpose(v, t, c), atol=1e-10
        )

    def test_larft_consistency(self, rng):
        # Q built from (V, T) equals the product of individual reflectors.
        a = rng.standard_normal((6, 3))
        v, t, _ = geqrt(a)
        taus = np.diag(t)
        q_prod = np.eye(6)
        for j in range(3):
            h = np.eye(6) - taus[j] * np.outer(v[:, j], v[:, j])
            q_prod = q_prod @ h
        np.testing.assert_allclose(build_q(v, t), q_prod, atol=1e-10)

    def test_larft_zero_tau_column(self):
        v = np.zeros((4, 2))
        v[0, 0] = 1.0
        v[1, 1] = 1.0
        t = larft(v, np.array([0.0, 0.5]))
        assert t[0, 0] == 0.0
        assert t[1, 1] == 0.5

    @given(m=st.integers(2, 12), k=st.integers(1, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_property_qr_reconstruction(self, m, k, seed):
        k = min(k, m)
        a = np.random.default_rng(seed).standard_normal((m, k))
        v, t, r = geqrt(a)
        q = build_q(v, t)
        np.testing.assert_allclose(q.T @ q, np.eye(m), atol=1e-9)
        np.testing.assert_allclose(q @ np.vstack([r, np.zeros((m - k, k))]), a, atol=1e-9)
