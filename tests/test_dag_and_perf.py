"""Tests for the planner-based task graph and the performance model."""

from collections import Counter

import numpy as np
import pytest

from repro import HybridLUQRSolver, MaxCriterion, ProcessGrid
from repro.api.facade import make_criterion, make_solver
from repro.experiments.figure1 import figure1_summary
from repro.kernels.flops import fake_flops, true_flops
from repro.perf import PerformanceModel, dancer_platform
from repro.perf.model import FactorizationSpec, plan_graph, plan_parallelism, planned_steps
from repro.runtime.executor import SequentialExecutor
from repro.runtime.simulator import simulate
from repro.tiles import BlockCyclicDistribution
from repro.trees import FibonacciTree, GreedyTree, HierarchicalTree


GRID = ProcessGrid(2, 2)
GRIDS = [ProcessGrid(1, 1), ProcessGrid(2, 2), ProcessGrid(4, 4)]
ALGORITHMS = ["hybrid", "lu_nopiv", "lupp", "lu_incpiv", "hqr"]

#: StepRecord charges the graph prices as control tasks, not as planned units.
CONTROL_CHARGES = {
    "panel_backup",
    "criterion_allreduce",
    "getrf_discarded",
    "panel_restore",
    "panel_pivot_exchange",
}


def _factor(algorithm, grid, executor=None):
    """Factor a 32x32 system in 8 tiles of 4 (no RHS); the hybrid mixes kinds."""
    a = np.random.default_rng(7).standard_normal((32, 32)) + 8.0 * np.eye(32)
    options = {}
    if algorithm == "hybrid":
        options["criterion"] = make_criterion("random", lu_probability=0.5, seed=3)
    solver = make_solver(algorithm, tile_size=4, grid=grid, executor=executor, **options)
    fact = solver.factor(a)
    assert fact.succeeded
    return solver, fact


class TestFactorizationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FactorizationSpec(n_tiles=3, tile_size=8, step_kinds=["LU"])
        with pytest.raises(ValueError):
            FactorizationSpec(n_tiles=2, tile_size=8, step_kinds=["LU", "XX"])
        with pytest.raises(ValueError, match="plans no 'QR' steps"):
            FactorizationSpec(2, 8, ["LU", "QR"], algorithm="LU NoPiv")
        with pytest.raises(ValueError, match="unknown algorithm"):
            FactorizationSpec(2, 8, ["LU", "LU"], algorithm="LU?")

    def test_lu_fraction(self):
        spec = FactorizationSpec(4, 8, ["LU", "QR", "LU", "LU"])
        assert spec.lu_fraction == pytest.approx(0.75)

    def test_spec_of_a_factorization(self, rng):
        a = rng.standard_normal((32, 32)) + 4 * np.eye(32)
        fact = HybridLUQRSolver(8, MaxCriterion(10.0), grid=GRID).factor(a, np.ones(32))
        spec = FactorizationSpec.of(fact, grid=GRID)
        assert spec.n_tiles == 4
        assert spec.tile_size == 8
        assert spec.step_kinds == fact.step_kinds
        assert spec.decision_overhead
        assert spec.algorithm == "LUQR"


class TestPlanGraph:
    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unit_counts_equal_the_table1_counts(self, algorithm, grid):
        _, fact = _factor(algorithm, grid)
        graph = plan_graph(FactorizationSpec.of(fact, grid))
        for record in fact.steps:
            expected = Counter(
                {k: v for k, v in record.kernel_counts.items() if k not in CONTROL_CHARGES}
            )
            if record.is_lu and record.domain_rows:
                # Table I charges the diagonal domain's TRSMs, which are part
                # of the domain factorization and have no task of their own.
                expected["trsm"] -= len(record.domain_rows) - 1
            # The hybrid's LU steps reuse the factor of LU ON PANEL.
            units = Counter(
                "getrf" if t.kernel == "propagate" else t.kernel
                for t in graph.tasks
                if t.step == record.k and not t.critical
            )
            assert units == +expected, record.k

    @pytest.mark.parametrize("grid", GRIDS, ids=str)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_planned_tasks_are_the_tasks_the_runtime_runs(self, algorithm, grid):
        solver, fact = _factor(algorithm, grid, executor=SequentialExecutor())
        planned = Counter(
            task.kernel
            for _, _, tasks in planned_steps(FactorizationSpec.of(fact, grid))
            for task in tasks
        )
        flushed = Counter(
            kernel for trace in solver.step_traces for kernel in trace.kernel_of_task.values()
        )
        assert planned == flushed
        assert sum(planned.values()) == sum(trace.n_tasks for trace in solver.step_traces)

    def test_hybrid_pays_the_decision_and_lupp_the_pivot_exchange_in_every_step(self):
        kinds = ["LU", "QR", "LU", "QR", "QR"]
        n = len(kinds)
        graph = plan_graph(FactorizationSpec(n, 8, kinds, "LUQR", True, GRID))
        counts = graph.kernel_counts()
        assert counts["panel_backup"] == counts["criterion_allreduce"] == n
        assert counts["getrf"] == n  # LU ON PANEL; the LU steps reuse its factor
        assert counts["propagate"] == kinds.count("LU")
        assert counts["panel_restore"] == kinds.count("QR")
        # Every unit of a step waits for the step's decision (and restore).
        gate = {}
        for task in graph.tasks:
            if task.kernel in ("criterion_allreduce", "panel_restore"):
                gate[task.step] = task.uid
            elif not task.critical:
                assert gate[task.step] in task.deps, task

        lupp = plan_graph(FactorizationSpec(n, 8, ["LU"] * n, "LUPP", False, GRID))
        assert lupp.kernel_counts()["panel_pivot_exchange"] == n
        for name in ("HQR", "LU NoPiv"):
            kind = "QR" if name == "HQR" else "LU"
            graph = plan_graph(FactorizationSpec(n, 8, [kind] * n, name, False, GRID))
            assert not any(t.critical for t in graph.tasks)

    def test_lupp_prices_each_panel_factorization_panel_wide(self):
        # LUPP factors all n - k remaining panel tiles in step k; LU NoPiv
        # factors the diagonal tile alone (2/3 nb^3).
        n, nb = 5, 8
        for name, rows in (("LUPP", lambda k: n - k), ("LU NoPiv", lambda k: 1)):
            graph = plan_graph(FactorizationSpec(n, nb, ["LU"] * n, name, False, GRID))
            priced = {t.step: t.flops for t in graph.tasks if t.kernel == "getrf"}
            assert priced == {k: rows(k) * nb**3 - nb**3 / 3.0 for k in range(n)}
        assert priced[0] == pytest.approx(2.0 / 3.0 * nb**3)

    def test_calibrated_getrf_is_scaled_by_its_panel_flops(self):
        """A calibrated ``getrf`` measures one tile: LUPP's scattered panel
        factor of ``rows`` tiles costs ``d * (rows nb^3 - nb^3/3) / (2/3 nb^3)``."""

        class Stub:
            def kernel_duration(self, kernel, nb):
                return 1e-3 if kernel == "getrf" else None

        n, nb = 5, 8
        graph = plan_graph(FactorizationSpec(n, nb, ["LU"] * n, "LUPP", False, GRID))
        result = simulate(graph, dancer_platform(GRID), nb, calibration=Stub())
        spent = {s.step: s.finish - s.start for s in result.schedule if s.kernel == "getrf"}
        one_tile = 2.0 / 3.0 * nb**3
        assert spent == pytest.approx(
            {k: 1e-3 * ((n - k) * nb**3 - nb**3 / 3.0) / one_tile for k in range(n)}
        )
        assert spent[n - 1] == pytest.approx(1e-3)

    def test_calibrated_getrf_prices_lu_on_panel_panel_wide(self):
        """The hybrid's LU ON PANEL is scaled like LUPP's panel factor;
        LU NoPiv's diagonal-tile ``getrf`` costs the measured duration."""

        class Stub:
            def kernel_duration(self, kernel, nb):
                return 1e-3 if kernel == "getrf" else None

        kinds = ["LU", "QR", "LU", "QR", "QR"]
        n, nb = len(kinds), 8
        one_tile = 2.0 / 3.0 * nb**3
        for name, hybrid in (("LUQR", True), ("LU NoPiv", False)):
            graph = plan_graph(FactorizationSpec(n, nb, kinds if hybrid else ["LU"] * n,
                                                 name, hybrid, GRID))
            result = simulate(graph, dancer_platform(GRID), nb, calibration=Stub())
            flops = {t.uid: t.flops for t in graph.tasks if t.kernel == "getrf"}
            spent = {s.uid: s.duration for s in result.schedule if s.kernel == "getrf"}
            assert len(spent) == n
            expected = {uid: 1e-3 * max(f / one_tile, 1.0) for uid, f in flops.items()}
            assert spent == pytest.approx(expected)
            if hybrid:
                assert max(spent.values()) > 1e-3
            else:
                assert list(spent.values()) == pytest.approx([1e-3] * n)

    @pytest.mark.parametrize("algorithm", ["LU NoPiv", "LU IncPiv", "LUPP", "HQR", "LUQR"])
    def test_owners_follow_block_cyclic(self, algorithm):
        n, grid = 7, ProcessGrid(2, 3)
        kind = "QR" if algorithm == "HQR" else "LU"
        spec = FactorizationSpec(n, 8, [kind] * n, algorithm, algorithm == "LUQR", grid)
        dist = BlockCyclicDistribution(grid, n)
        units = [t for t in plan_graph(spec).tasks if not t.critical]
        assert units
        for task in units:
            owners = {dist.owner(i, j) for i, j in task.writes}
            if len(task.writes) == 1:
                assert {task.owner} == owners, task
            else:
                assert task.owner in owners, task

    def test_total_flops_close_to_formula(self):
        n, nb = 12, 32
        spec = FactorizationSpec(n, nb, ["LU"] * n, algorithm="LU NoPiv",
                                 decision_overhead=False, grid=GRID)
        graph = plan_graph(spec)
        assert graph.total_flops() == pytest.approx(fake_flops(n * nb), rel=0.15)

    def test_graph_is_schedulable(self):
        spec = FactorizationSpec(5, 8, ["LU", "QR", "LU", "QR", "LU"], algorithm="LUQR",
                                 decision_overhead=True, grid=GRID)
        platform = dancer_platform(GRID)
        graph = plan_graph(spec, platform=platform)
        sim = simulate(graph, platform, 8)
        assert sim.makespan > 0.0
        assert len(sim.schedule) == len(graph)


def _parallelism_spec(algorithm, n, nb):
    """All steps of the baseline's one kind; the hybrid takes a QR step every third."""
    kinds = {"HQR": "QR", "LUQR": None}.get(algorithm, "LU")
    steps = n // nb
    return FactorizationSpec(
        n_tiles=steps,
        tile_size=nb,
        step_kinds=[kinds or ("QR" if k % 3 == 2 else "LU") for k in range(steps)],
        algorithm=algorithm,
    )


class TestPlanParallelism:
    """The two-worker ceiling of the executed step graphs, pinned per plan.

    A QR step's trailing update is one chain, so its steps have almost no
    parallelism left on two workers; the LU solvers overlap their column
    ranges.  A change to the planned graphs moves these numbers first.
    """

    @pytest.mark.parametrize(
        "algorithm, n, nb, expected",
        [
            ("LUQR", 512, 16, 1.058383),
            ("LU NoPiv", 512, 16, 1.128763),
            ("LU IncPiv", 512, 16, 1.102335),
            ("LUPP", 512, 16, 1.105019),
            ("HQR", 512, 16, 1.011608),
            ("LUQR", 768, 64, 1.182923),
            ("LU NoPiv", 768, 64, 1.387952),
            ("LU IncPiv", 768, 64, 1.303167),
            ("LUPP", 768, 64, 1.329253),
            ("HQR", 768, 64, 1.030411),
            ("LUQR", 1024, 128, 1.293538),
            ("LU NoPiv", 1024, 128, 1.600000),
            ("LU IncPiv", 1024, 128, 1.462857),
            ("LUPP", 1024, 128, 1.533442),
            ("HQR", 1024, 128, 1.044898),
        ],
    )
    def test_two_worker_parallelism_is_pinned(self, algorithm, n, nb, expected):
        spec = _parallelism_spec(algorithm, n, nb)
        assert plan_parallelism(spec, 2) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("algorithm", ["LUQR", "HQR", "LUPP"])
    def test_one_worker_runs_the_work_serially(self, algorithm):
        assert plan_parallelism(_parallelism_spec(algorithm, 256, 32), 1) == pytest.approx(1.0)

    def test_bounded_by_the_worker_count(self):
        spec = _parallelism_spec("LU NoPiv", 768, 64)
        assert 1.0 < plan_parallelism(spec, 2) <= 2.0
        assert 1.0 < plan_parallelism(spec, 4) <= 4.0


class TestFigure1:
    def test_branch_sizes_on_one_node(self):
        n = 5
        r = n - 1
        summary = figure1_summary(n_tiles=n, grid=ProcessGrid(1, 1))
        # The whole panel is the diagonal domain: the LU branch is the
        # propagate of the reused factor, r SWPTRSM and r*r GEMM.
        assert summary["lu_branch_tasks"] == 1 + r + r * r
        tree = HierarchicalTree(
            BlockCyclicDistribution(ProcessGrid(1, 1), n), GreedyTree(), FibonacciTree()
        )
        elims = tree.eliminations_for_step(0, list(range(n)))
        geqrt = {0} | {e.eliminator for e in elims} | {e.killed for e in elims if e.kind == "TT"}
        assert len(elims) == r
        # QR branch: the restore, then every GEQRT and every coupling
        # kernel, each followed by its r trailing updates.
        assert summary["qr_branch_tasks"] == 1 + (len(geqrt) + len(elims)) * (1 + r)
        assert summary["stage_task_counts"] == {
            "panel_backup": 1, "getrf": 1, "criterion_allreduce": 1, "panel_restore": 1,
            "lu_step": summary["lu_branch_tasks"], "qr_step": summary["qr_branch_tasks"] - 1,
        }

    def test_outcomes_share_the_control_tasks(self):
        n, grid = 6, ProcessGrid(2, 2)
        summary = figure1_summary(n_tiles=n, grid=grid, step=1)
        dist = BlockCyclicDistribution(grid, n)
        owners = len(dist.panel_owners(1))
        # BACKUP PANEL, LU ON PANEL, a criterion task per other panel owner
        # and the all-reduce.
        assert summary["control_tasks"] == 3 + owners - 1
        r = n - 2
        off_domain = r + 1 - len(dist.diagonal_domain_rows(1))
        assert summary["lu_branch_tasks"] == 1 + r + off_domain + r * r
        for kind in ("lu", "qr"):
            assert summary[f"tasks_if_{kind}_selected"] == (
                summary["control_tasks"] + summary[f"{kind}_branch_tasks"]
            )
        assert summary["total_tasks_in_graph"] == (
            summary["control_tasks"] + summary["lu_branch_tasks"] + summary["qr_branch_tasks"]
        )


class TestPerformanceModel:
    @pytest.fixture(scope="class")
    def model(self):
        return PerformanceModel(dancer_platform(ProcessGrid(4, 4)))

    def _spec(self, kinds, algorithm, overhead):
        return FactorizationSpec(
            n_tiles=len(kinds), tile_size=64, step_kinds=list(kinds),
            algorithm=algorithm, decision_overhead=overhead, grid=ProcessGrid(4, 4),
        )

    def test_lu_faster_than_qr(self, model):
        n = 20
        lu = model.simulate_spec(self._spec(["LU"] * n, "LU NoPiv", False))
        qr = model.simulate_spec(self._spec(["QR"] * n, "HQR", False))
        assert lu.execution_time < qr.execution_time
        assert lu.fake_gflops > qr.fake_gflops

    def test_fake_vs_true_gflops(self, model):
        n = 16
        qr = model.simulate_spec(self._spec(["QR"] * n, "HQR", False))
        assert qr.true_gflops == pytest.approx(2.0 * qr.fake_gflops, rel=1e-9)
        lu = model.simulate_spec(self._spec(["LU"] * n, "LU NoPiv", False))
        assert lu.true_gflops == pytest.approx(lu.fake_gflops, rel=1e-9)

    def test_decision_overhead_costs_time(self, model):
        n = 16
        hqr = model.simulate_spec(self._spec(["QR"] * n, "HQR", False))
        luqr0 = model.simulate_spec(self._spec(["QR"] * n, "LUQR", True))
        overhead = luqr0.execution_time / hqr.execution_time - 1.0
        assert 0.0 < overhead < 0.6

    def test_hybrid_interpolates_between_extremes(self, model):
        n = 20
        all_lu = model.simulate_spec(self._spec(["LU"] * n, "LUQR", True))
        half = model.simulate_spec(self._spec((["LU", "QR"] * n)[:n], "LUQR", True))
        all_qr = model.simulate_spec(self._spec(["QR"] * n, "LUQR", True))
        assert all_lu.fake_gflops > half.fake_gflops > all_qr.fake_gflops

    def test_lupp_slower_than_lu_nopiv(self, model):
        n = 20
        nopiv = model.simulate_spec(self._spec(["LU"] * n, "LU NoPiv", False))
        lupp = model.simulate_spec(self._spec(["LU"] * n, "LUPP", False))
        assert lupp.execution_time > nopiv.execution_time

    def test_report_fields_and_row(self, model):
        n = 8
        rep = model.simulate_spec(self._spec(["LU"] * n, "LU NoPiv", False))
        assert rep.n_order == 8 * 64
        assert 0.0 < rep.fake_peak_fraction <= 1.0
        assert rep.platform_peak_gflops == pytest.approx(1091.0, rel=0.01)
        row = rep.as_row()
        assert set(row) >= {"algorithm", "N", "time_s", "fake_gflops", "true_gflops"}
        assert rep.lu_percentage == 100.0

    def test_simulate_factorization_end_to_end(self, rng):
        a = rng.standard_normal((48, 48)) + 4 * np.eye(48)
        fact = HybridLUQRSolver(8, MaxCriterion(20.0), grid=GRID).factor(a, np.ones(48))
        model = PerformanceModel(dancer_platform(GRID))
        rep = model.simulate_factorization(fact, grid=GRID)
        assert rep.algorithm == "LUQR"
        assert rep.n_tiles == 6
        assert rep.lu_fraction == pytest.approx(fact.lu_fraction)

    def test_true_flops_consistency_with_report(self, model):
        n = 10
        kinds = ["LU"] * 7 + ["QR"] * 3
        rep = model.simulate_spec(self._spec(kinds, "LUQR", True))
        expected_ratio = true_flops(rep.n_order, 0.7) / fake_flops(rep.n_order)
        assert rep.true_gflops / rep.fake_gflops == pytest.approx(expected_ratio, rel=1e-9)
