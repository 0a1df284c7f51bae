"""End-to-end tests of the hybrid solver and all baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AlwaysLU,
    AlwaysQR,
    HQRSolver,
    HybridLUQRSolver,
    LUIncPivSolver,
    LUNoPivSolver,
    LUPPSolver,
    MaxCriterion,
    MumpsCriterion,
    ProcessGrid,
    RandomCriterion,
    SumCriterion,
    make_solver,
)
from repro.linalg import SingularPanelError
from repro.matrices.random_gen import (
    block_diagonally_dominant,
    near_singular_leading_tile,
    random_matrix,
)
from repro.runtime.executor import SequentialExecutor

NB = 4
GRID = ProcessGrid(2, 2)


def solvers_under_test():
    return [
        ("hybrid-max", HybridLUQRSolver(NB, MaxCriterion(10.0), grid=GRID)),
        ("hybrid-sum", HybridLUQRSolver(NB, SumCriterion(10.0), grid=GRID)),
        ("hybrid-mumps", HybridLUQRSolver(NB, MumpsCriterion(2.0), grid=GRID)),
        ("hybrid-random", HybridLUQRSolver(NB, RandomCriterion(0.5, seed=0), grid=GRID)),
        ("lu-nopiv", LUNoPivSolver(NB)),
        ("lu-incpiv", LUIncPivSolver(NB)),
        ("lupp", LUPPSolver(NB)),
        ("hqr", HQRSolver(NB, grid=GRID)),
    ]


class TestSolveCorrectness:
    @pytest.mark.parametrize("name,solver", solvers_under_test(), ids=lambda v: v if isinstance(v, str) else "")
    def test_solves_random_system(self, rng, name, solver):
        n = 8 * NB
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        x_true = rng.standard_normal(n)
        b = a @ x_true
        result = solver.solve(a, b, x_true=x_true)
        assert result.hpl3 < 100.0
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)
        assert result.stability.forward_error < 1e-6

    def test_multiple_right_hand_sides(self, rng):
        n = 6 * NB
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal((n, 3))
        solver = HybridLUQRSolver(NB, MaxCriterion(10.0), grid=GRID)
        result = solver.solve(a, b)
        np.testing.assert_allclose(a @ result.x, b, atol=1e-7)

    def test_padding_when_order_not_multiple_of_nb(self, rng):
        n = 6 * NB + 3
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        x_true = rng.standard_normal(n)
        b = a @ x_true
        solver = HybridLUQRSolver(NB, MaxCriterion(10.0), grid=GRID)
        result = solver.solve(a, b)
        assert result.x.shape == (n,)
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)

    def test_rejects_non_square(self, rng):
        solver = HybridLUQRSolver(NB, MaxCriterion(1.0))
        with pytest.raises(ValueError):
            solver.factor(rng.standard_normal((8, 12)))

    def test_rejects_mismatched_rhs(self, rng):
        solver = HybridLUQRSolver(NB, MaxCriterion(1.0))
        with pytest.raises(ValueError):
            solver.factor(rng.standard_normal((8, 8)), rng.standard_normal(12))

    def test_factor_without_rhs_cannot_solve(self, rng):
        solver = HybridLUQRSolver(NB, MaxCriterion(1.0))
        fact = solver.factor(rng.standard_normal((4 * NB, 4 * NB)))
        with pytest.raises(ValueError):
            fact.solve()

    @given(seed=st.integers(0, 200), n_tiles=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_property_hybrid_solves_well_conditioned_systems(self, seed, n_tiles):
        rng = np.random.default_rng(seed)
        n = n_tiles * NB
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        x_true = rng.standard_normal(n)
        solver = HybridLUQRSolver(NB, MaxCriterion(20.0), grid=GRID, track_growth=False)
        result = solver.solve(a, a @ x_true)
        assert np.linalg.norm(result.x - x_true) / np.linalg.norm(x_true) < 1e-6


class TestHybridBehaviour:
    def test_always_lu_and_always_qr_extremes(self, rng, small_system):
        a, b, _ = small_system
        all_lu = HybridLUQRSolver(8, AlwaysLU(), grid=GRID).factor(a, b)
        all_qr = HybridLUQRSolver(8, AlwaysQR(), grid=GRID).factor(a, b)
        assert all_lu.lu_percentage == 100.0
        assert all_qr.lu_percentage == 0.0
        assert all_lu.step_kinds == ["LU"] * all_lu.n_steps
        assert all_qr.step_kinds == ["QR"] * all_qr.n_steps

    def test_alpha_monotonicity_in_lu_steps(self, rng):
        """Larger alpha never yields fewer LU steps (same matrix)."""
        n = 10 * NB
        a = random_matrix(n, seed=5)
        b = np.ones(n)
        fractions = []
        for alpha in (0.5, 5.0, 50.0, float("inf")):
            fact = HybridLUQRSolver(NB, MaxCriterion(alpha), grid=GRID).factor(a, b)
            fractions.append(fact.lu_fraction)
        assert all(f2 >= f1 - 1e-12 for f1, f2 in zip(fractions, fractions[1:]))

    def test_diagonally_dominant_gets_all_lu_steps(self):
        n = 8 * NB
        a = block_diagonally_dominant(n, NB, seed=0)
        b = np.ones(n)
        for criterion in (MaxCriterion(1.0), SumCriterion(1.0)):
            fact = HybridLUQRSolver(NB, criterion, grid=GRID).factor(a, b)
            assert fact.lu_percentage == 100.0

    def test_near_singular_leading_tile_forces_qr_first_step(self):
        n = 6 * NB
        a = near_singular_leading_tile(n, NB, epsilon=1e-14, seed=1)
        b = np.ones(n)
        solver = HybridLUQRSolver(NB, MaxCriterion(1.0), grid=ProcessGrid(1, 1),
                                  domain_pivoting=False)
        fact = solver.factor(a, b)
        assert fact.steps[0].kind == "QR"
        # ... and the solve still succeeds thanks to the QR fallback.
        x = fact.solve()
        np.testing.assert_allclose(a @ x[: n], b, atol=1e-5)

    def test_last_step_records_and_metadata(self, rng, small_system):
        a, b, _ = small_system
        solver = HybridLUQRSolver(8, MaxCriterion(3.0), grid=GRID)
        fact = solver.factor(a, b)
        assert fact.algorithm == "LUQR"
        assert fact.criterion_name == "max"
        assert fact.alpha == 3.0
        assert fact.n_steps == 6
        assert all(s.decision is not None for s in fact.steps)
        assert all(s.decision_overhead for s in fact.steps)
        assert fact.succeeded

    def test_growth_tracking_on_and_off(self, rng, small_system):
        a, b, _ = small_system
        with_growth = HybridLUQRSolver(8, MaxCriterion(50.0), grid=GRID).factor(a, b)
        without = HybridLUQRSolver(8, MaxCriterion(50.0), grid=GRID, track_growth=False).factor(a, b)
        assert with_growth.growth is not None
        assert with_growth.growth_factor >= 1.0
        assert without.growth is None
        assert without.growth_factor == 1.0

    def test_kernel_totals_aggregates_steps(self, rng, small_system):
        a, b, _ = small_system
        fact = HybridLUQRSolver(8, AlwaysLU(), grid=GRID).factor(a, b)
        totals = fact.kernel_totals()
        assert totals["getrf"] == fact.n_steps
        per_step = sum(s.kernel_counts.get("gemm", 0) for s in fact.steps)
        assert totals["gemm"] == per_step

    def test_random_criterion_reset_between_factorizations(self, small_system):
        a, b, _ = small_system
        solver = HybridLUQRSolver(8, RandomCriterion(0.5, seed=7), grid=GRID)
        kinds1 = solver.factor(a, b).step_kinds
        kinds2 = solver.factor(a, b).step_kinds
        assert kinds1 == kinds2


class TestStabilityOrdering:
    def test_lu_nopiv_less_stable_than_lupp_on_random(self):
        """The paper's headline stability ordering on random matrices."""
        n = 12 * NB
        ratios = []
        for seed in range(3):
            a = random_matrix(n, seed=seed)
            b = np.ones(n)
            nopiv = LUNoPivSolver(NB).solve(a, b).hpl3
            lupp = LUPPSolver(NB).solve(a, b).hpl3
            ratios.append(nopiv / lupp)
        assert np.median(ratios) > 1.0

    def test_hqr_and_small_alpha_hybrid_comparable(self):
        n = 10 * NB
        a = random_matrix(n, seed=11)
        b = np.ones(n)
        hqr = HQRSolver(NB, grid=GRID).solve(a, b).hpl3
        hybrid = HybridLUQRSolver(NB, MaxCriterion(0.0), grid=GRID).solve(a, b).hpl3
        assert hybrid < 50 * max(hqr, 1e-10)

    def test_growth_factor_bounded_for_sum_criterion(self):
        n = 10 * NB
        a = random_matrix(n, seed=3)
        b = np.ones(n)
        solver = HybridLUQRSolver(NB, SumCriterion(1.0), grid=GRID)
        fact = solver.factor(a, b)
        bound = solver.criterion.growth_bound(fact.tiles.n)
        assert fact.growth_factor <= bound * 1.01

    def test_domain_pivoting_improves_all_lu_stability(self):
        """Section V-B: domain pivoting is much more stable than tile pivoting."""
        n = 16 * NB
        worst_tile, worst_domain = 0.0, 0.0
        for seed in range(3):
            a = random_matrix(n, seed=seed + 100)
            b = np.ones(n)
            tile = LUNoPivSolver(NB, grid=ProcessGrid(4, 1), domain_pivoting=False).solve(a, b).hpl3
            domain = LUNoPivSolver(NB, grid=ProcessGrid(4, 1), domain_pivoting=True).solve(a, b).hpl3
            worst_tile = max(worst_tile, tile)
            worst_domain = max(worst_domain, domain)
        assert worst_domain <= worst_tile


class TestBreakdowns:
    def test_lu_nopiv_breaks_on_singular_diagonal_tile(self):
        n = 4 * NB
        a = np.eye(n)
        a[:NB, :NB] = 0.0  # singular leading tile, but fixable by QR
        a[:NB, NB : 2 * NB] = np.eye(NB)
        a[NB : 2 * NB, :NB] = np.eye(NB)
        fact = LUNoPivSolver(NB).factor(a, np.ones(n))
        assert not fact.succeeded
        assert "step 0" in fact.breakdown
        with pytest.raises(RuntimeError):
            fact.solve()

    def test_solve_raises_on_breakdown(self):
        n = 4 * NB
        a = np.eye(n)
        a[:NB, :NB] = 0.0
        a[:NB, NB : 2 * NB] = np.eye(NB)
        a[NB : 2 * NB, :NB] = np.eye(NB)
        with pytest.raises(SingularPanelError):
            LUNoPivSolver(NB).solve(a, np.ones(n))

    def test_hybrid_survives_singular_leading_tile(self):
        n = 4 * NB
        a = np.eye(n)
        a[:NB, :NB] = 0.0
        a[:NB, NB : 2 * NB] = np.eye(NB)
        a[NB : 2 * NB, :NB] = np.eye(NB)
        b = np.ones(n)
        solver = HybridLUQRSolver(NB, MaxCriterion(1.0), grid=ProcessGrid(1, 1),
                                  domain_pivoting=False)
        result = solver.solve(a, b)
        np.testing.assert_allclose(a @ result.x, b, atol=1e-8)
        assert result.factorization.steps[0].kind == "QR"


class TestNonFiniteInput:
    """NaN/Inf is rejected once, at ``factor`` entry, naming the argument.

    LAPACK's ``dgetrf``/``dgeqrt`` do not flag NaN, so without the check a
    non-finite entry surfaced only as scipy's "array must not contain infs
    or NaNs" from whichever triangular solve first met it.
    """

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: HybridLUQRSolver(NB, MaxCriterion(10.0), grid=GRID),
            lambda: LUNoPivSolver(NB),
            lambda: LUIncPivSolver(NB),
            lambda: LUPPSolver(NB),
            lambda: HQRSolver(NB, grid=GRID),
        ],
        ids=["hybrid", "lu-nopiv", "lu-incpiv", "lupp", "hqr"],
    )
    def test_factor_and_solve_reject_it(self, rng, make, where, bad):
        n = 4 * NB
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        if where == "A":
            a[n - 1, n - 2] = bad  # last tile row: no early panel meets it
        else:
            b[n - 1] = bad
        message = f"^{where} must not contain NaN or Inf$"
        solver = make()
        with pytest.raises(ValueError, match=message):
            solver.factor(a, b)
        with pytest.raises(ValueError, match=message):
            solver.solve(a, b)
        with pytest.raises(ValueError, match=message):
            solver.solve_many(a, np.stack([b, b], axis=1))

    def test_matrix_alone_is_checked(self, rng):
        a = rng.standard_normal((8, 8))
        a[3, 5] = np.nan
        with pytest.raises(ValueError, match="^A must not contain NaN or Inf$"):
            LUPPSolver(NB).factor(a)


class TestOverflow:
    """A factorization whose values overflow raises ``ValueError``.

    The triangular solves call LAPACK directly, without scipy's finiteness
    check, so no kernel raises on its own: the growth norms of the step
    that first turns non-finite name it, and without growth tracking one
    ``isfinite`` pass over the factors catches it.
    """

    @staticmethod
    def _growing(n=64):
        # Wilkinson's growth matrix: partial pivoting doubles the last
        # column at every row, 2**63 * 1e300 overflows.
        w = np.eye(n) - np.tril(np.ones((n, n)), -1)
        w[:, -1] = 1.0
        return 1e300 * w

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("track_growth", [True, False])
    @pytest.mark.parametrize("executor", [None, "sequential"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: HybridLUQRSolver(8, MaxCriterion(1e300), **kw),
            lambda **kw: LUNoPivSolver(8, **kw),
            lambda **kw: LUIncPivSolver(8, **kw),
            lambda **kw: LUPPSolver(8, **kw),
        ],
        ids=["hybrid", "lu-nopiv", "lu-incpiv", "lupp"],
    )
    def test_factor_and_solve_raise(self, make, executor, track_growth):
        a = self._growing()
        solver = make(executor=executor and SequentialExecutor(), track_growth=track_growth)
        message = "overflowed at step 3" if track_growth else "overflowed"
        with pytest.raises(ValueError, match=message):
            solver.factor(a)
        with pytest.raises(ValueError, match=message):
            solver.solve(a, np.ones(a.shape[0]))

    def test_hqr_does_not_overflow(self):
        a = self._growing()
        result = HQRSolver(8).solve(a, a @ np.ones(a.shape[0]))
        np.testing.assert_allclose(result.x, 1.0, rtol=1e-10)


@pytest.mark.parametrize("executor", [None, "sequential"])
@pytest.mark.parametrize("algorithm", ["hybrid", "lupp", "hqr", "lu_incpiv", "lu_nopiv"])
def test_factorization_path_never_calls_solve_triangular(monkeypatch, algorithm, executor):
    """Every triangular solve on the factor/solve path is a direct
    ``dtrtrs``; scipy's wrapper re-reads both operands for finiteness."""
    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve_triangular was called")

    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    n = 48
    rng = np.random.default_rng(33)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    kw = {"criterion": "max(alpha=30)"} if algorithm == "hybrid" else {}
    solver = make_solver(algorithm, tile_size=8, grid="2x2", executor=executor, **kw)
    assert solver.factor(a, b).succeeded
    np.testing.assert_allclose(a @ solver.solve(a, b).x, b, atol=1e-8)
