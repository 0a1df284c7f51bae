"""Tests for the static resource analyzer.

Covers the three passes (shape abstract interpretation, tile
liveness / peak-memory certification, placement & communication
analysis), their wiring through ``audit()``, the corruption fixtures,
the registry signature lint, and the distribution validation fixes.
"""

import json

import numpy as np
import pytest

from repro import analysis
from repro.analysis.corruption import (
    corrupt_cross_domain_pivot,
    corrupt_factor_shape,
    corrupt_sweep_range,
    corrupt_wrong_owner,
    run_corruption_suite,
)
from repro.api.cli import main as cli_main
from repro.api.facade import make_solver
from repro.kernels.dispatch import KERNEL_SIGNATURES, KERNELS, KernelSignature, OpEffect
from repro.runtime.graph import TaskGraph
from repro.runtime.schedule import StepPipeline
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

ALGORITHMS = ("lu_nopiv", "lupp", "lu_incpiv", "hqr", "hybrid")
GRIDS = ("1x1", "2x2", "4x1")


def _system(dtype=np.float64, n=16, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + n * np.eye(n)).astype(dtype)
    b = rng.standard_normal(n).astype(dtype)
    return a, b


# --------------------------------------------------------------------- #
# Clean matrix: every solver x lookahead x grid audits clean
# --------------------------------------------------------------------- #
class TestCleanMatrix:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("lookahead", [0, 2])
    @pytest.mark.parametrize("dtype", [np.float64])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_audit_clean(self, algorithm, dtype, lookahead, grid):
        a, b = _system(dtype)
        solver = make_solver(
            algorithm,
            tile_size=4,
            grid=grid,
            executor="threaded(workers=2)",
            lookahead=lookahead,
        )
        report = analysis.audit(solver, a, b, lint=False)
        assert report.ok, [str(v) for v in report.violations]
        # Both passes certified a peak-memory bound.
        assert report.resources["memory[plan]"]["peak_bytes"] > 0
        assert report.resources["memory[executed]"]["peak_bytes"] > 0
        assert "placement[plan]" in report.resources

    def test_float32_input_certifies_as_float64(self):
        """Tiles hold float64 whatever the input dtype, so a float32 system
        certifies exactly the resources of its float64 copy."""
        a, b = _system(np.float32)
        reports = [
            analysis.audit(
                make_solver(
                    "hybrid",
                    tile_size=4,
                    grid="2x2",
                    executor="threaded(workers=2)",
                    lookahead=2,
                ),
                a.astype(dtype),
                b.astype(dtype),
                lint=False,
            )
            for dtype in (np.float32, np.float64)
        ]
        assert all(r.ok for r in reports), [str(v) for r in reports for v in r.violations]
        assert reports[0].resources == reports[1].resources

    @pytest.mark.parametrize("backend", [None, "tracing"])
    @pytest.mark.parametrize("grid", ["2x2", "4x1"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_audit_clean_backends(self, algorithm, backend, grid):
        solver = make_solver(
            algorithm, tile_size=4, grid=grid, kernel_backend=backend
        )
        report = analysis.audit(solver, lint=False)
        assert report.ok, [str(v) for v in report.violations]
        assert report.resources["memory[plan]"]["peak_bytes"] > 0


# --------------------------------------------------------------------- #
# Liveness: certified bound dominates the traced high-water mark
# --------------------------------------------------------------------- #
class TestLiveness:
    @pytest.mark.parametrize(
        "executor", ["sequential", "threaded(workers=2)", "processes(workers=2)"]
    )
    def test_bound_dominates_traced_high_water(self, executor):
        solver = make_solver(
            "hqr", tile_size=4, grid="2x2", executor=executor, lookahead=2
        )
        report = analysis.audit(solver, lint=False)
        assert report.ok, [str(v) for v in report.violations]
        # No peak-bound-violated finding means the certified bound covered
        # the traced overlap; check the numbers directly too.
        solver2 = make_solver(
            "hqr", tile_size=4, grid="2x2", executor=executor, lookahead=2
        )
        solver2.collect_step_graphs = True
        a, b = _system()
        solver2.factor(a, b)
        ctx = analysis.make_context(4, 4, 1)
        intervals = analysis.collect_product_intervals(solver2.step_graphs, ctx)
        cert = analysis.certify_peak_memory(
            solver2.step_graphs, ctx, mode="window", intervals=intervals
        )
        traced = analysis.traced_product_peak(solver2.step_traces, intervals)
        if traced is not None:
            assert cert.product_peak_bytes >= traced

    def test_sequential_mode_and_admission(self):
        solver = make_solver("hqr", tile_size=4)
        graph, ctx, _dist = analysis.capture_plan(solver)
        violations, cert = analysis.analyze_liveness(
            [graph], ctx, mode="sequential"
        )
        assert not violations
        assert cert.peak_bytes == cert.base_bytes + cert.product_peak_bytes
        assert cert.base_bytes == analysis.tile_storage_bytes(ctx)
        # An impossible admission limit is flagged.
        violations, _ = analysis.analyze_liveness(
            [graph], ctx, mode="sequential", max_memory=1
        )
        assert any(v.kind == "memory-admission" for v in violations)
        with pytest.raises(ValueError):
            analysis.certify_peak_memory([graph], ctx, mode="bogus")

    def test_window_bound_at_least_sequential(self):
        # The window (flush-granular) bound is coarser than the
        # position-granular sequential sweep over the same graphs.
        solver = make_solver(
            "hqr", tile_size=4, executor="threaded(workers=2)", lookahead=2
        )
        solver.collect_step_graphs = True
        a, b = _system()
        solver.factor(a, b)
        ctx = analysis.make_context(4, 4, 1)
        seq = analysis.certify_peak_memory(
            solver.step_graphs, ctx, mode="sequential"
        )
        win = analysis.certify_peak_memory(solver.step_graphs, ctx, mode="window")
        assert win.product_peak_bytes >= seq.product_peak_bytes

    def test_audit_admission_check(self):
        solver = make_solver("hqr", tile_size=4)
        report = analysis.audit(solver, lint=False, max_memory=1)
        assert not report.ok
        assert any(v.kind == "memory-admission" for v in report.violations)


# --------------------------------------------------------------------- #
# Placement: LUPP panel-wide pivoting is priced, not flagged
# --------------------------------------------------------------------- #
class TestPlacement:
    def test_lupp_panel_wide_pivot_priced(self):
        solver = make_solver("lupp", tile_size=4, grid="2x2")
        graph, ctx, dist = analysis.capture_plan(solver)
        analysis.assign_owners([graph], dist, ctx)
        violations, summary = analysis.analyze_placement([graph], dist, ctx)
        assert not violations
        assert summary.panel_wide_pivot_steps > 0

    def test_lu_diagonal_domain_invariant(self):
        for algorithm in ("lu_nopiv", "hybrid"):
            solver = make_solver(algorithm, tile_size=4, grid="2x2")
            graph, ctx, dist = analysis.capture_plan(solver)
            analysis.assign_owners([graph], dist, ctx)
            violations, summary = analysis.analyze_placement([graph], dist, ctx)
            assert not violations
            assert summary.diagonal_pivot_steps > 0

    def test_single_node_has_no_cross_traffic(self):
        solver = make_solver("hybrid", tile_size=4, grid="1x1")
        graph, ctx, dist = analysis.capture_plan(solver)
        analysis.assign_owners([graph], dist, ctx)
        violations, summary = analysis.analyze_placement([graph], dist, ctx)
        assert not violations
        assert summary.cross_messages == 0
        assert summary.cross_bytes == 0
        assert summary.product_messages == 0

    def test_comm_volume_priced_by_platform(self):
        from repro.runtime.platform import dancer_platform

        solver = make_solver("hqr", tile_size=4, grid="2x2")
        graph, ctx, dist = analysis.capture_plan(solver)
        analysis.assign_owners([graph], dist, ctx)
        _, summary = analysis.analyze_placement(
            [graph], dist, ctx, platform=dancer_platform(dist.grid)
        )
        assert summary.cross_messages > 0
        assert summary.comm_seconds > 0
        assert summary.critical_path_comm_seconds > 0
        assert summary.critical_path_comm_seconds <= summary.comm_seconds
        edges = summary.as_dict()["edge_messages"]
        assert sum(edges.values()) == summary.cross_messages + summary.product_messages


# --------------------------------------------------------------------- #
# Corruption fixtures: every seeded defect must be flagged
# --------------------------------------------------------------------- #
class TestCorruption:
    def test_wrong_owner_detected(self):
        kinds = {v.kind for v in corrupt_wrong_owner()}
        assert "wrong-owner" in kinds

    def test_cross_domain_pivot_detected(self):
        kinds = {v.kind for v in corrupt_cross_domain_pivot()}
        assert "cross-domain-pivot" in kinds

    def test_sweep_range_detected(self):
        kinds = {v.kind for v in corrupt_sweep_range()}
        assert "read-set-mismatch" in kinds
        assert "write-set-mismatch" in kinds

    def test_factor_shape_detected(self):
        kinds = {v.kind for v in corrupt_factor_shape()}
        assert "shape-mismatch" in kinds

    def test_suite_all_detected(self):
        suite = run_corruption_suite()
        assert suite, "suite must not be empty"
        for name, entry in suite.items():
            assert entry["detected"], f"corruption {name!r} went unnoticed"


# --------------------------------------------------------------------- #
# Registry lint: signature drift in both directions
# --------------------------------------------------------------------- #
class TestSignatureLint:
    def test_registries_clean(self):
        assert analysis.lint_registries() == []

    def test_every_kernel_has_signature(self):
        assert set(KERNELS) == set(KERNEL_SIGNATURES)

    def test_missing_signature_flagged(self):
        KERNELS["fixture.nosig"] = lambda *a: None
        try:
            kinds = {v.kind for v in analysis.lint_registries()}
            assert "missing-kernel-signature" in kinds
        finally:
            del KERNELS["fixture.nosig"]

    def test_orphan_signature_flagged(self):
        KERNEL_SIGNATURES["fixture.orphan"] = KernelSignature(
            effect=lambda call, step, ctx: OpEffect(
                reads=frozenset(), writes=frozenset()
            )
        )
        try:
            kinds = {v.kind for v in analysis.lint_registries()}
            assert "orphan-kernel-signature" in kinds
        finally:
            del KERNEL_SIGNATURES["fixture.orphan"]


# --------------------------------------------------------------------- #
# Distribution validation fixes
# --------------------------------------------------------------------- #
class TestDistributionValidation:
    def test_grid_larger_than_tile_count_rejected(self):
        with pytest.raises(ValueError, match="larger than"):
            BlockCyclicDistribution(ProcessGrid(4, 4), 3)
        with pytest.raises(ValueError, match="larger than"):
            BlockCyclicDistribution(ProcessGrid(1, 5), 4)
        # Equality is fine: every process owns exactly one row/column.
        BlockCyclicDistribution(ProcessGrid(4, 4), 4)

    def test_is_local_rejects_bad_rank(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 4)
        with pytest.raises(ValueError, match="rank"):
            dist.is_local(0, 0, 99)

    def test_rhs_owner(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), 4)
        for i in range(4):
            prow, pcol = dist.grid.coords_of(dist.rhs_owner(i))
            assert prow == i % 2
            assert pcol == 4 % 2
        with pytest.raises(IndexError):
            dist.rhs_owner(4)
        with pytest.raises(IndexError):
            dist.rhs_owner(-1)


# --------------------------------------------------------------------- #
# Runtime hooks: tile_intervals and pipeline window spans
# --------------------------------------------------------------------- #
class TestRuntimeHooks:
    def test_tile_intervals(self):
        graph = TaskGraph()
        graph.add_task("a", step=0, writes={(0, 0)})
        graph.add_task("b", step=0, reads={(0, 0)}, writes={(1, 0)})
        graph.add_task("c", step=1, reads={(1, 0)})
        intervals = graph.tile_intervals()
        assert intervals[(0, 0)] == (0, 1)
        assert intervals[(1, 0)] == (1, 2)
        offset = graph.tile_intervals(offset=10)
        assert offset[(0, 0)] == (10, 11)

    def test_pipeline_window_spans(self, monkeypatch):
        captured = {}
        orig = StepPipeline.flush_all

        def spy(self):
            captured["pipeline"] = self
            return orig(self)

        monkeypatch.setattr(StepPipeline, "flush_all", spy)
        solver = make_solver(
            "lu_nopiv", tile_size=4, executor="threaded(workers=2)", lookahead=2
        )
        solver.collect_step_graphs = True
        a, b = _system()
        solver.factor(a, b)
        pipeline = captured["pipeline"]
        assert len(pipeline.window_spans) == len(pipeline.graphs)
        for lo, hi in pipeline.window_spans:
            assert lo <= hi
            assert hi - lo <= solver.lookahead
        # Flushes drain in step order.
        los = [lo for lo, _ in pipeline.window_spans]
        assert los == sorted(los)


# --------------------------------------------------------------------- #
# Machine-readable output
# --------------------------------------------------------------------- #
class TestJsonOutput:
    def test_report_as_dict_round_trips(self):
        solver = make_solver("hybrid", tile_size=4, grid="2x2")
        report = analysis.audit(solver, lint=False)
        payload = json.loads(json.dumps(report.as_dict(), default=str))
        assert payload["ok"] is True
        assert "memory[plan]" in payload["resources"]
        assert "placement[plan]" in payload["resources"]
        assert payload["checked"]["kernels"] > 0

    def test_cli_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main(
            [
                "--algorithm",
                "hybrid",
                "--tile-size",
                "4",
                "--grid",
                "2x2",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["hybrid"]["ok"] is True
        assert "memory[plan]" in payload["hybrid"]["resources"]

    def test_cli_max_memory_fails(self):
        rc = cli_main(
            [
                "--algorithm",
                "hybrid",
                "--tile-size",
                "4",
                "--max-memory",
                "1",
            ]
        )
        assert rc == 1
