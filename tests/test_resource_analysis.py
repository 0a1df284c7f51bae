"""Tests for the static resource analyzer.

Covers the placement & communication analysis, its wiring through
``audit()`` (including the ranks a distributed executor ran tasks on),
the corruption fixtures, kernel errors reported as audit findings, the
one registration per kernel op, and the distribution validation fixes.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import analysis
from repro.analysis.corruption import (
    corrupt_cross_domain_pivot,
    corrupt_wrong_owner,
    run_corruption_suite,
)
from repro.api.cli import main as cli_main
from repro.api.facade import make_solver
from repro.kernels.dispatch import (
    ACCESS_RULES,
    EFFECT_RULES,
    KERNELS,
    OpEffect,
    kernel_op,
)
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid

ALGORITHMS = ("lu_nopiv", "lupp", "lu_incpiv", "hqr", "hybrid")
GRIDS = ("1x1", "2x2", "4x1")


def _system(dtype=np.float64, n=16, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + n * np.eye(n)).astype(dtype)
    b = rng.standard_normal(n).astype(dtype)
    return a, b


# --------------------------------------------------------------------- #
# Clean matrix: every solver x grid audits clean
# --------------------------------------------------------------------- #
class TestCleanMatrix:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("dtype", [np.float64])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_audit_clean(self, algorithm, dtype, grid):
        a, b = _system(dtype)
        solver = make_solver(
            algorithm, tile_size=4, grid=grid, executor="threaded(workers=2)"
        )
        report = analysis.audit(solver, a, b)
        assert report.ok, [str(v) for v in report.violations]
        # Both passes checked placement.
        assert "placement[plan]" in report.resources
        assert "placement[executed]" in report.resources

    @pytest.mark.parametrize("executor", ["sequential", "processes(workers=2)"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_audit_clean_on_executors_without_ranks(self, algorithm, executor):
        """The executed pass reads the ranks a distributed executor ran tasks
        on; traces of single-node executors carry none, so their tasks keep
        their owner-computes ranks and nothing is flagged."""
        a, b = _system()
        solver = make_solver(algorithm, tile_size=4, grid="2x2", executor=executor)
        report = analysis.audit(solver, a, b)
        assert report.ok, [str(v) for v in report.violations]
        assert "placement[executed]" in report.resources

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
                ),
                a.astype(dtype),
                b.astype(dtype),
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
        report = analysis.audit(solver)
        assert report.ok, [str(v) for v in report.violations]
        assert "placement[plan]" in report.resources


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

    def test_tile_outside_the_matrix_is_reported(self):
        """A sweep widened past the matrix edge is a finding, not an ``IndexError``."""
        solver = make_solver("lu_nopiv", tile_size=4, grid="2x2")
        graph, ctx, dist = analysis.capture_plan(solver)
        widened = [t for t in graph.tasks if t.call and t.call.kernel == "lu.gemm_sweep"]
        assert widened
        for task in widened:
            k, i1, j0, j1 = task.call.args
            task.call = dataclasses.replace(task.call, args=(k, i1 + 1, j0, j1))
        violations, summary = analysis.analyze_placement(
            [graph], dist, ctx, check_declared=False
        )
        assert [v.kind for v in violations] == ["tile-out-of-range"] * len(widened)
        by_task = {v.tasks: v for v in violations}
        for task in widened:
            violation = by_task[(task.uid,)]
            assert violation.tile[0] == dist.n
            assert analysis.task_label(task) in violation.message
        assert summary.tasks == len(graph.tasks)

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

    @pytest.mark.parametrize("executor", [None, "threaded(workers=2)"])
    @pytest.mark.parametrize(
        "corruption, error",
        [
            ("sweep-range", "IndexError"),
            ("factor-shape", "ValueError"),
            ("missing-product", "KeyError"),
        ],
    )
    def test_kernel_error_is_reported(self, monkeypatch, corruption, error, executor):
        """A planner emitting a malformed call fails the audit without raising.

        ``sweep-range`` widens every ``lu.gemm_sweep`` by one tile row past
        the matrix edge; ``factor-shape`` drops the last tile row of every
        ``lu.scatter_factor``'s factor.  The tile accessors reject both.
        ``missing-product`` makes every ``qr.sweep`` consume a factor no task
        produces, which the step's product table rejects.
        """
        from repro.core import lu_step, qr_step

        module = qr_step if corruption == "missing-product" else lu_step
        plan = module.call_task

        def corrupt(kernel, tiles, call, step, products=None, mix=()):
            if corruption == "sweep-range" and call.kernel == "lu.gemm_sweep":
                k, i1, j0, j1 = call.args
                call = dataclasses.replace(call, args=(k, i1 + 1, j0, j1))
            elif corruption == "factor-shape" and call.kernel == "lu.scatter_factor":
                k, rows, factor = call.args
                factor = dataclasses.replace(factor, lu=factor.lu[: -tiles.nb, :])
                call = dataclasses.replace(call, args=(k, rows, factor))
            elif corruption == "missing-product" and call.kernel == "qr.sweep":
                call = dataclasses.replace(call, consumes=call.consumes + (("unproduced", step),))
            return plan(kernel, tiles, call, step, products, mix)

        monkeypatch.setattr(module, "call_task", corrupt)
        algorithm = "hqr" if corruption == "missing-product" else "lu_nopiv"
        solver = make_solver(algorithm, tile_size=4, executor=executor)
        report = analysis.audit(solver)
        assert not report.ok
        (violation,) = report.sections["execution"]
        assert violation.kind == "kernel-error"
        assert error in violation.message

    def test_executor_error_is_reported(self):
        """An exception out of the executor pass fails the audit without
        raising: one ``executor-error`` violation naming the exception."""
        from repro.cluster.executor import ClusterError
        from repro.runtime.executor import SequentialExecutor

        class Failing(SequentialExecutor):
            def run(self, graph):
                raise ClusterError("task 0 consumes a product before any task produced it")

        report = analysis.audit(make_solver("hqr", tile_size=4, executor=Failing()))
        assert not report.ok
        (violation,) = report.sections["execution"]
        assert violation.kind == "executor-error"
        assert "ClusterError" in violation.message
        assert "before any task produced it" in violation.message

    @pytest.mark.parametrize("where", ["reference", "perturbed"])
    def test_determinism_reports_a_raising_kernel(self, monkeypatch, where):
        """A kernel that raises in the inline reference, or only in the
        perturbed threaded rounds, is a finding; the check does not raise."""
        import threading

        sweep = KERNELS["lu.gemm_sweep"]

        def flaky(*args):
            if where == "reference" or threading.current_thread() is not threading.main_thread():
                raise IndexError("sweep ran off the matrix")
            return sweep(*args)

        monkeypatch.setitem(KERNELS, "lu.gemm_sweep", flaky)
        a, b = _system()

        def build(executor=None):
            # "none": inline even when REPRO_EXECUTOR sets a default executor.
            return make_solver("lu_nopiv", tile_size=4, executor=executor or "none")

        violations = analysis.determinism_check(build, a, b, rounds=2)
        assert violations and {v.kind for v in violations} == {"factorization-error"}
        assert all("IndexError: sweep ran off the matrix" in v.message for v in violations)
        if where == "reference":
            (violation,) = violations
            assert "inline reference" in violation.message
        else:
            assert [v.message.split(" raised")[0] for v in violations] == [
                "perturbed schedule round 0 (seed 0)",
                "perturbed schedule round 1 (seed 1)",
            ]
        argv = ["--algorithm", "lu_nopiv", "--tile-size", "4", "--determinism"]
        assert cli_main(argv) != 0

    def test_cli_determinism_reference_is_inline(self, monkeypatch):
        """Under ``REPRO_EXECUTOR`` the CLI still hands the determinism
        check an inline reference; the tool has its own ``--executor``."""
        monkeypatch.setenv("REPRO_EXECUTOR", "sequential")
        builders = []

        def capture(build, a, b, **kwargs):
            builders.append(build)
            return []

        monkeypatch.setattr(analysis, "determinism_check", capture)
        argv = ["--algorithm", "lu_nopiv", "--tile-size", "4", "--determinism"]
        assert cli_main(argv) == 0
        (build,) = builders
        assert build(None).executor is None
        assert build("sequential").executor is not None

    def test_suite_all_detected(self):
        suite = run_corruption_suite()
        assert suite, "suite must not be empty"
        for name, entry in suite.items():
            assert entry["detected"], f"corruption {name!r} went unnoticed"


# --------------------------------------------------------------------- #
# Kernel op registration
# --------------------------------------------------------------------- #
class TestSignatureLint:
    def test_every_kernel_has_signature(self):
        # One kernel_op call registers the body, access rule and effect rule.
        assert set(KERNELS) == set(ACCESS_RULES) == set(EFFECT_RULES)

    def test_missing_signature_flagged(self):
        # The effect rule is a required argument: no op exists without one.
        with pytest.raises(TypeError):
            kernel_op("fixture.nosig", lambda step: (frozenset(), frozenset()))
        assert "fixture.nosig" not in KERNELS

    def test_orphan_signature_flagged(self):
        # An effect rule cannot be swapped in apart from its op: a second
        # registration of a name is refused and the tables stay as they were.
        effect = EFFECT_RULES["lu.gemm_sweep"]
        decorator = kernel_op(
            "lu.gemm_sweep",
            ACCESS_RULES["lu.gemm_sweep"],
            lambda ctx, step, *args: OpEffect(),
        )
        with pytest.raises(ValueError, match="already registered"):
            decorator(lambda *args: None)
        assert EFFECT_RULES["lu.gemm_sweep"] is effect


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
# Machine-readable output
# --------------------------------------------------------------------- #
class TestJsonOutput:
    def test_report_as_dict_round_trips(self):
        solver = make_solver("hybrid", tile_size=4, grid="2x2")
        report = analysis.audit(solver)
        payload = json.loads(json.dumps(report.as_dict(), default=str))
        assert payload["ok"] is True
        assert "placement[plan]" in payload["resources"]
        assert payload["checked"]["tasks"] > 0

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
        assert "placement[plan]" in payload["hybrid"]["resources"]

    @pytest.mark.parametrize("flag", ["--lookahead", "--max-memory"])
    def test_cli_rejects_removed_flags(self, flag, capsys):
        """The old pipeline depth and the memory certificate are gone."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--algorithm", "hybrid", "--tile-size", "4", flag, "1"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
