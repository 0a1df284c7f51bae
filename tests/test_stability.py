"""Tests for the stability metrics (HPL3 & co.) and growth tracking."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stability import (
    GrowthTracker,
    forward_error,
    hpl1,
    hpl2,
    hpl3,
    max_criterion_growth_bound,
    normwise_backward_error,
    partial_pivoting_growth_bound,
    scalar_growth_factor,
    stability_report,
    stability_reports,
    sum_criterion_growth_bound,
)


class TestHPLMetrics:
    def test_exact_solution_gives_tiny_values(self, rng):
        a = rng.standard_normal((32, 32)) + 5 * np.eye(32)
        x = rng.standard_normal(32)
        b = a @ x
        x_solved = np.linalg.solve(a, b)
        assert hpl3(a, x_solved, b) < 10.0
        assert hpl1(a, x_solved, b) < 100.0
        assert hpl2(a, x_solved, b) < 100.0
        assert normwise_backward_error(a, x_solved, b) < 1e-12

    def test_wrong_solution_gives_large_values(self, rng):
        a = rng.standard_normal((16, 16)) + 4 * np.eye(16)
        x = rng.standard_normal(16)
        b = a @ x
        assert hpl3(a, x + 1.0, b) > 1e6

    def test_hpl3_matches_formula(self, rng):
        a = rng.standard_normal((8, 8))
        x = rng.standard_normal(8)
        b = rng.standard_normal(8)
        eps = np.finfo(np.float64).eps
        expected = np.linalg.norm(a @ x - b, np.inf) / (
            np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf) * eps * 8
        )
        assert hpl3(a, x, b) == pytest.approx(expected)

    def test_hpl3_invariant_under_scaling(self, rng):
        """HPL3 is invariant when A and b are scaled by the same factor."""
        a = rng.standard_normal((12, 12)) + 4 * np.eye(12)
        x = rng.standard_normal(12)
        b = a @ x
        x_pert = x * (1 + 1e-12)
        assert hpl3(a, x_pert, b) == pytest.approx(hpl3(1e6 * a, x_pert, 1e6 * b), rel=1e-3)

    def test_forward_error(self):
        x_true = np.array([1.0, 2.0, -4.0])
        x = np.array([1.0, 2.0, -4.4])
        assert forward_error(x, x_true) == pytest.approx(0.1)
        assert forward_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_stability_report_fields(self, rng):
        a = rng.standard_normal((8, 8)) + 3 * np.eye(8)
        x_true = rng.standard_normal(8)
        b = a @ x_true
        x = np.linalg.solve(a, b)
        rep = stability_report(a, x, b, x_true=x_true)
        assert rep.hpl3 < 10
        assert rep.forward_error < 1e-10
        assert rep.backward_error < 1e-13

    def test_relative_to(self, rng):
        a = rng.standard_normal((8, 8)) + 3 * np.eye(8)
        x = np.linalg.solve(a, np.ones(8))
        rep = stability_report(a, x, np.ones(8))
        assert rep.relative_to(rep) == pytest.approx(1.0)


_EPS = float(np.finfo(np.float64).eps)


def _reference_report(a, x, b, x_true=None):
    """The four metrics computed independently — four residuals, four matrix
    norms — exactly as the library did before the single-pass report; the
    reference the single-pass expressions must match bit for bit."""

    def res():
        return float(np.linalg.norm(np.ravel(a @ x - b), np.inf))

    def over(num, denom):
        return num / denom if denom > 0 else np.inf

    n = a.shape[0]
    fwd = None
    if x_true is not None:
        denom = float(np.linalg.norm(np.ravel(x_true), np.inf))
        diff = float(np.linalg.norm(np.ravel(x) - np.ravel(x_true), np.inf))
        fwd = float(np.linalg.norm(np.ravel(x), np.inf)) if denom == 0.0 else diff / denom
    return (
        over(res(), _EPS * np.linalg.norm(a, 1) * n),
        over(res(), _EPS * np.linalg.norm(a, 1) * np.linalg.norm(np.ravel(x), 1)),
        over(res(), np.linalg.norm(a, np.inf) * np.linalg.norm(np.ravel(x), np.inf) * _EPS * n),
        over(
            res(),
            np.linalg.norm(a, np.inf) * np.linalg.norm(np.ravel(x), np.inf)
            + np.linalg.norm(np.ravel(b), np.inf),
        ),
        fwd,
    )


class TestSinglePassReport:
    @given(
        n=st.integers(1, 40),
        nrhs=st.integers(0, 4),  # 0: 1-D vectors
        with_truth=st.booleans(),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_report_matches_independent_metrics_bit_for_bit(
        self, n, nrhs, with_truth, zero, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (n,) if nrhs == 0 else (n, nrhs)
        a = np.zeros((n, n)) if zero else rng.standard_normal((n, n))
        x = np.zeros(shape) if zero else rng.standard_normal(shape)
        b = np.zeros(shape) if zero else rng.standard_normal(shape)
        x_true = rng.standard_normal(shape) if with_truth else None

        report = stability_report(a, x, b, x_true=x_true)
        expected = _reference_report(a, x, b, x_true)
        assert dataclasses.astuple(report) == expected
        assert (
            hpl1(a, x, b),
            hpl2(a, x, b),
            hpl3(a, x, b),
            normwise_backward_error(a, x, b),
        ) == expected[:4]
        if zero:
            assert expected[:4] == (np.inf,) * 4
        # Precomputed norms are a pure pass-through.
        norms = (float(np.linalg.norm(a, 1)), float(np.linalg.norm(a, np.inf)))
        assert stability_report(a, x, b, x_true=x_true, a_norms=norms) == report

    @given(
        n=st.integers(1, 40),
        nrhs=st.integers(1, 6),
        with_truth=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_columns_match_per_column_reports(self, n, nrhs, with_truth, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        x = rng.standard_normal((n + 1, nrhs))[:n]  # a row-sliced view, as the session passes
        b = a @ x + 1e-13 * rng.standard_normal((n, nrhs))
        x_true = rng.standard_normal((n, nrhs)) if with_truth else None

        batched = stability_reports(a, x, b, x_true)
        assert len(batched) == nrhs
        for j, got in enumerate(batched):
            one = stability_report(
                a, x[:, j], b[:, j], x_true=None if x_true is None else x_true[:, j]
            )
            if nrhs == 1:
                assert got == one  # a one-column block is the 1-D path, bit for bit
            # One GEMM may round a column unlike that column's own GEMV; the
            # residual is ~n eps ||A|| ||x||, so HPL3 moves by O(1) at most.
            assert abs(got.hpl3 - one.hpl3) <= 2.0
            assert got.hpl2 == pytest.approx(one.hpl2, abs=2.0 * n)
            assert got.forward_error == one.forward_error

    def test_zero_matrix_block_is_all_inf(self):
        for rep in stability_reports(np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((4, 3))):
            assert dataclasses.astuple(rep) == (np.inf, np.inf, np.inf, np.inf, None)

    def test_mismatched_x_and_b_shapes_raise_instead_of_broadcasting(self, rng):
        """Regression: ``a @ x - b`` with a 1-D ``x`` and an ``(n, 1)`` ``b``
        broadcast to an n x n array and reported HPL3 ~1e14 for a good solve."""
        n = 12
        a = rng.standard_normal((n, n)) + 4 * np.eye(n)
        b = rng.standard_normal(n)
        x = np.linalg.solve(a, b)
        assert hpl3(a, x, b) < 10
        for metric in (hpl1, hpl2, hpl3, normwise_backward_error, stability_report):
            with pytest.raises(ValueError, match=rf"\({n},\).*\({n}, 1\)"):
                metric(a, x, b.reshape(n, 1))
            with pytest.raises(ValueError, match=rf"\({n}, 1\).*\({n},\)"):
                metric(a, x.reshape(n, 1), b)
        with pytest.raises(ValueError, match="A @ x has shape"):
            stability_reports(a, x.reshape(n, 1), b)
        with pytest.raises(ValueError, match=r"\(n, nrhs\) block"):
            stability_reports(a, x, b)

    def test_mismatched_x_true_shape_raises(self, rng):
        x = rng.standard_normal(6)
        with pytest.raises(ValueError, match=r"x has shape \(6,\) but x_true has shape \(1,\)"):
            forward_error(x, np.ones(1))  # used to broadcast silently
        with pytest.raises(ValueError, match="x_true has shape"):
            forward_error(x, x.reshape(6, 1))
        a = rng.standard_normal((6, 6))
        with pytest.raises(ValueError, match="x_true has shape"):
            stability_report(a, x, a @ x, x_true=np.ones(1))
        block = x.reshape(6, 1)
        with pytest.raises(ValueError, match="x_true has shape"):
            stability_reports(a, block, a @ block, np.ones((6, 2)))


class TestGrowth:
    def test_tracker_records_peak(self):
        t = GrowthTracker(initial_max_norm=2.0)
        t.record(3.0)
        t.record(8.0)
        t.record(1.0)
        assert t.growth_factor == pytest.approx(4.0)

    def test_tracker_never_below_one(self):
        t = GrowthTracker(initial_max_norm=5.0)
        t.record(1.0)
        assert t.growth_factor == pytest.approx(1.0)

    def test_tracker_zero_initial(self):
        t = GrowthTracker(initial_max_norm=0.0)
        t.record(1.0)
        assert np.isinf(t.growth_factor)

    def test_bounds(self):
        assert max_criterion_growth_bound(1.0, 11) == pytest.approx(2.0**10)
        assert sum_criterion_growth_bound(17) == 17.0
        assert sum_criterion_growth_bound(17, diagonally_dominant=True) == 2.0
        assert partial_pivoting_growth_bound(5) == 16.0
        with pytest.raises(ValueError):
            max_criterion_growth_bound(-1.0, 4)

    def test_scalar_growth_factor(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        u = np.array([[8.0, 2.0], [0.0, 1.0]])
        assert scalar_growth_factor(a, u) == pytest.approx(2.0)
        assert np.isinf(scalar_growth_factor(np.zeros((2, 2)), u))
