"""Tests of the correctness-analysis subsystem (`repro.analysis`).

Covers the static plan verifier (clean plans for all five solvers over
the Table III special-matrix registry, plus deliberately corrupted plans
it must flag), the dynamic access-tracing race detector (undeclared
reads/writes raise structured RaceReports; clean factorizations trace
bit-identically to the numpy reference), the registry lint (clean
built-ins, injected drift detected), the schedule-perturbation
determinism check, the `CycleError` / `merge_traces` runtime hardening,
and the `repro-analyze` CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import (
    AuditReport,
    PerturbedThreadedExecutor,
    RaceReport,
    TracingBackend,
    TracingTileMatrix,
    audit,
    determinism_check,
    lint_registries,
    verify_graph,
)
from repro.analysis.abstract import interpret_graph, make_context
from repro.analysis.registry_lint import TASK_KERNELS_OF_OP
from repro.api.registry import KERNEL_BACKENDS, SOLVERS
from repro.core.solver_base import pad_to_tile_multiple
from repro.kernels.backends import KernelBackend, resolve_backend
from repro.kernels import dispatch
from repro.kernels.dispatch import ACCESS_RULES, KERNEL_SIGNATURES, KERNELS, KernelCall
from repro.matrices import registry as matrix_registry
from repro.runtime.executor import ExecutionTrace, ThreadedExecutor
from repro.runtime.graph import CycleError, TaskGraph
from repro.runtime.schedule import KernelTask, build_step_graph, merge_traces
from repro.runtime.task import RHS_COLUMN
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.tile_matrix import TileMatrix

ALGORITHMS = ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]

#: Table III matrices on which all five solvers complete at small orders.
SPECIAL_MATRICES = ["circul", "condex", "lehmer"]


def _system(n=32, seed=0, dominant=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if dominant:
        a += n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def _solver(algorithm, tile_size=8, **kwargs):
    """Construct a solver directly (no facade, no REPRO_EXECUTOR fallback)."""
    return SOLVERS.get(algorithm)(tile_size=tile_size, **kwargs)


def _capture_plan(solver, a, b=None):
    """Plan + execute every step inline; return the cumulative TaskGraph."""
    a_work, b_work, _ = pad_to_tile_multiple(a, b, solver.tile_size)
    tiles = TileMatrix.from_dense(a_work, solver.tile_size, rhs=b_work)
    dist = BlockCyclicDistribution(solver.grid, tiles.n)
    solver._reset()
    graph = TaskGraph()
    for k in range(tiles.n):
        _, tasks = solver._plan_step(tiles, dist, k)
        build_step_graph(tasks, step=k, graph=graph)
        for task in tasks:
            task.fn()
    return graph


# --------------------------------------------------------------------------- #
# CycleError satellite
# --------------------------------------------------------------------------- #
class TestCycleError:
    def test_submission_order_is_topological(self):
        g = TaskGraph()
        g.add_task("a", 0, writes={(0, 0)})
        g.add_task("b", 0, reads={(0, 0)}, writes={(1, 0)})
        assert g.topological_order() == [0, 1]

    def test_forward_edges_fall_back_to_kahn(self):
        g = TaskGraph()
        g.add_task("a", 0, writes={(0, 0)})
        g.add_task("b", 0, writes={(1, 1)})
        g.add_task("c", 0, writes={(2, 2)})
        g.task(0).deps.add(2)  # acyclic, but forward in submission order
        order = g.topological_order()
        assert sorted(order) == [0, 1, 2]
        assert order.index(2) < order.index(0)

    def test_cycle_raises_cycle_error_naming_uids(self):
        g = TaskGraph()
        g.add_task("a", 0, writes={(0, 0)})
        g.add_task("b", 0, reads={(0, 0)}, writes={(1, 1)})
        g.task(0).deps.add(1)  # 0 -> 1 already; now 1 -> 0 too
        with pytest.raises(CycleError) as exc_info:
            g.topological_order()
        assert exc_info.value.task_uids == (0, 1)
        assert isinstance(exc_info.value, ValueError)  # backward compatible

    def test_unknown_dependency_raises(self):
        g = TaskGraph()
        g.add_task("a", 0, writes={(0, 0)})
        g.task(0).deps.add(7)
        with pytest.raises(CycleError, match="unknown task"):
            g.topological_order()

    def test_downstream_of_cycle_is_named(self):
        g = TaskGraph()
        g.add_task("a", 0, writes={(0, 0)})
        g.add_task("b", 0, reads={(0, 0)}, writes={(1, 1)})
        g.add_task("c", 0, reads={(1, 1)}, writes={(2, 2)})
        g.task(0).deps.add(1)
        with pytest.raises(CycleError) as exc_info:
            g.topological_order()
        # The cycle members and the task blocked behind them.
        assert exc_info.value.task_uids == (0, 1, 2)


# --------------------------------------------------------------------------- #
# merge_traces hardening satellite
# --------------------------------------------------------------------------- #
class TestMergeTraceConsistency:
    @staticmethod
    def _trace(kernels, fused=None):
        tr = ExecutionTrace()
        for uid, kernel in kernels.items():
            tr.kernel_of_task[uid] = kernel
            tr.start_times[uid] = 0.0
            tr.finish_times[uid] = 1.0
        for uid, m in (fused or {}).items():
            tr.fused_of_task[uid] = m
        return tr

    def test_consistent_traces_merge_with_offsets(self):
        t1 = self._trace({0: "gemm", 1: "getrf"}, fused={0: 3})
        t2 = self._trace({0: "trsm"})
        merged = merge_traces([t1, t2])
        assert merged.kernel_of_task == {0: "gemm", 1: "getrf", 2: "trsm"}
        assert merged.fused_of_task == {0: 3}

    def test_fused_entry_without_kernel_entry_rejected(self):
        tr = self._trace({0: "gemm"}, fused={0: 2})
        tr.fused_of_task[5] = 4  # task 5 was never recorded as started
        with pytest.raises(ValueError, match=r"\[5\].*kernel_of_task"):
            merge_traces([tr])

    def test_fused_multiplicity_below_two_rejected(self):
        tr = self._trace({0: "gemm"}, fused={0: 1})
        with pytest.raises(ValueError, match="multiplicity"):
            merge_traces([tr])

    def test_real_fused_traces_stay_consistent(self):
        a, b = _system(48, seed=5)
        solver = _solver("lupp", executor=ThreadedExecutor(workers=2))
        solver.factor(a, b)
        merged = merge_traces(solver.step_traces)
        assert set(merged.fused_of_task) <= set(merged.kernel_of_task)
        assert all(m >= 2 for m in merged.fused_of_task.values())


# --------------------------------------------------------------------------- #
# Plan verifier: clean plans
# --------------------------------------------------------------------------- #
class TestVerifierCleanPlans:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("matrix", SPECIAL_MATRICES)
    @pytest.mark.parametrize("n,nb", [(24, 4), (32, 8)])
    def test_special_matrix_plans_verify_clean(self, algorithm, matrix, n, nb):
        a = matrix_registry.build(matrix, n)
        b = np.ones(n)
        solver = _solver(algorithm, tile_size=nb)
        graph = _capture_plan(solver, a, b)
        assert verify_graph(graph) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_audit_clean_inline(self, algorithm):
        solver = _solver(algorithm, tile_size=8)
        report = audit(solver, lint=False)
        assert report.ok, [str(v) for v in report.violations]
        assert report.checked["tasks"] > 0

    @pytest.mark.parametrize("algorithm", ["hybrid", "lupp", "hqr"])
    @pytest.mark.parametrize("lookahead", [0, 2])
    def test_audit_clean_threaded_lookahead(self, algorithm, lookahead):
        solver = _solver(
            algorithm,
            tile_size=8,
            lookahead=lookahead,
            executor=ThreadedExecutor(workers=2),
        )
        report = audit(solver, lint=False)
        assert report.ok, [str(v) for v in report.violations]
        # The executor pass verified at least the flushed pipeline graphs.
        assert report.checked["graphs"] >= 2

    def test_audit_accepts_task_graph_directly(self):
        solver = _solver("lupp", tile_size=8)
        a, b = _system(32, seed=1)
        graph = _capture_plan(solver, a, b)
        report = audit(graph)
        assert isinstance(report, AuditReport)
        assert report.ok
        assert report.checked["tasks"] == len(graph)


# --------------------------------------------------------------------------- #
# Plan verifier: corrupted plans must be flagged
# --------------------------------------------------------------------------- #
class TestVerifierCorruptedPlans:
    @pytest.fixture()
    def lupp_plan(self):
        a, b = _system(32, seed=2)
        return _capture_plan(_solver("lupp", tile_size=8), a, b)

    def test_dropped_read_edge_is_flagged(self, lupp_plan):
        # Find a task that depends on the writer of one of its reads and
        # sever that edge: the classic under-declared dependency.
        graph = lupp_plan
        victim = writer = None
        for t in graph.tasks:
            for d in sorted(t.deps):
                if graph.task(d).writes & t.reads:
                    victim, writer = t, d
                    break
            if victim:
                break
        assert victim is not None
        victim.deps.discard(writer)
        kinds = {v.kind for v in verify_graph(graph)}
        assert "read-write-conflict" in kinds or "write-write-conflict" in kinds

    def test_cycle_is_flagged(self, lupp_plan):
        last = lupp_plan.tasks[-1]
        lupp_plan.task(0).deps.add(last.uid)
        violations = verify_graph(lupp_plan)
        assert [v.kind for v in violations] == ["cycle"]
        assert 0 in violations[0].tasks

    def test_duplicate_unordered_writes_flagged(self):
        g = TaskGraph()
        g.add_task("w1", 0, writes={(0, 0)})
        g.add_task("w2", 0, writes={(0, 0)})
        g.task(1).deps.clear()  # two writers, no ordering edge
        kinds = [v.kind for v in verify_graph(g)]
        assert kinds == ["write-write-conflict"]

    def test_wrong_fused_count_is_flagged(self):
        # A sweep's width is checked by the abstract interpreter: fused and
        # the kernel mix must both count its signature's per-tile units.
        a, b = _system(32, seed=3)
        graph = _capture_plan(_solver("hqr", tile_size=8), a, b)
        victim = next(t for t in graph.tasks if t.fused > 1)
        ctx = make_context(4, 8, 1)
        assert interpret_graph(graph, ctx).violations == []
        victim.fused += 1
        kinds = {v.kind for v in interpret_graph(graph, ctx).violations}
        assert kinds == {"fused-unit-mismatch"}
        victim.fused -= 1
        victim.mix = victim.mix[:-1] + ((victim.mix[-1][0], victim.mix[-1][1] + 1),)
        kinds = {v.kind for v in interpret_graph(graph, ctx).violations}
        assert kinds == {"fused-unit-mismatch"}

    def test_fused_task_without_descriptor_is_flagged(self):
        g = TaskGraph()
        g.add_task("gemm", 0, reads={(1, 0)}, writes={(1, 1)}, fused=3)
        kinds = [v.kind for v in verify_graph(g)]
        assert kinds == ["fused-descriptor-missing"]

    def test_missing_producer_is_flagged(self):
        g = TaskGraph()
        key = ("geqrt", 0, 0)
        g.add_task(
            "unmqr",
            0,
            reads={(0, 0)},
            writes={(0, 1)},
            call=KernelCall("qr.sweep", args=(1, 2, (("unmqr", 0, 0),)), consumes=(key,)),
        )
        kinds = [v.kind for v in verify_graph(g)]
        assert kinds == ["missing-producer"]
        # The same key supplied by an earlier pipeline flush is legal.
        assert verify_graph(g, external_products=frozenset({key})) == []

    def test_unordered_producer_is_flagged(self):
        g = TaskGraph()
        key = ("geqrt", 0, 0)
        g.add_task(
            "geqrt",
            0,
            writes={(0, 0)},
            call=KernelCall("qr.geqrt", args=(0, 0), produces=key),
        )
        g.add_task(
            "unmqr",
            0,
            reads={(1, 1)},
            writes={(1, 2)},
            call=KernelCall("qr.sweep", args=(2, 3, (("unmqr", 1, 0),)), consumes=(key,)),
        )
        # Disjoint tiles: no inferred edge between producer and consumer.
        kinds = [v.kind for v in verify_graph(g)]
        assert kinds == ["unordered-producer"]



# --------------------------------------------------------------------------- #
# Access rules: the one declaration of a task's tile accesses
# --------------------------------------------------------------------------- #
class TestAccessRules:
    @pytest.mark.parametrize("rhs", [True, False])
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_access_rules_equal_the_union_of_signature_units(
        self, monkeypatch, algorithm, grid, rhs
    ):
        units = []
        sweep_effect = dispatch._sweep_effect

        def capture(unit_list, checks=()):
            units.extend(unit_list)
            return sweep_effect(unit_list, checks)

        monkeypatch.setattr(dispatch, "_sweep_effect", capture)
        a, b = _system(40, seed=5)
        solver = _solver(algorithm, grid=ProcessGrid(*grid))
        graph = _capture_plan(solver, a, b if rhs else None)
        ctx = make_context(5, 8, 1 if rhs else 0)
        swept = 0
        for task in graph.tasks:
            units.clear()
            effect = KERNEL_SIGNATURES[task.call.kernel].effect(task.call, task.step, ctx)
            assert (effect.reads, effect.writes) == (task.reads, task.writes)
            if units:  # a sweep: the rule must equal the union of its kernels
                swept += 1
                writes = set().union(*(unit[1] for unit in units))
                reads = set().union(*(unit[0] for unit in units))
                assert task.writes == writes, task
                assert task.reads == reads | writes, task
                assert len(units) == task.fused == sum(count for _, count in task.mix)
        assert swept > 0

    def test_audit_catches_a_rule_that_drops_a_written_column(self, monkeypatch):
        rule = ACCESS_RULES["lu.gemm_sweep"]

        def short(step, k, i1, j0, j1):
            reads, writes = rule(step, k, i1, j0, j1)
            return reads, writes - {(i, j1 - 1) for i in range(k + 1, i1)}

        monkeypatch.setitem(ACCESS_RULES, "lu.gemm_sweep", short)
        report = audit(_solver("lu_nopiv", grid=ProcessGrid(2, 2)), lint=False)
        assert not report.ok
        assert "undeclared-write" in {v.kind for v in report.violations}

# --------------------------------------------------------------------------- #
# Dynamic access tracing
# --------------------------------------------------------------------------- #
class TestTracingBackend:
    @staticmethod
    def _traced_tiles(backend, n=16, nb=8):
        return backend.prepare_tiles(TileMatrix.from_dense(np.eye(n), nb))

    def test_undeclared_tile_write_raises_race_report(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend)

        def bad_kernel():
            tiles.set_tile(0, 1, np.ones((8, 8)))  # only (0, 0) declared

        task = KernelTask(
            "bad_kernel",
            bad_kernel,
            reads=frozenset({(0, 0)}),
            writes=frozenset({(0, 0)}),
        )
        with pytest.raises(RaceReport) as exc_info:
            backend.wrap_task(task, step=0).fn()
        report = exc_info.value
        assert report.kernel == "bad_kernel"
        assert report.tile == (0, 1)
        assert report.access == "write"
        assert backend.reports == [report]
        assert report.as_violation().kind == "undeclared-write"

    def test_undeclared_read_raises_race_report(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend)

        def bad_kernel():
            float(tiles.tile(1, 0).sum())  # not declared at all

        task = KernelTask(
            "bad_reader", bad_kernel, reads=frozenset({(0, 0)}), writes=frozenset()
        )
        with pytest.raises(RaceReport, match="undeclared read"):
            backend.wrap_task(task, step=0).fn()

    def test_inplace_write_through_guarded_view_raises(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend)

        def bad_kernel():
            tiles.tile(1, 1)[...] = 5.0  # declared read-only

        task = KernelTask(
            "bad_writer",
            bad_kernel,
            reads=frozenset({(1, 1)}),
            writes=frozenset(),
        )
        with pytest.raises(RaceReport, match="read-guarded"):
            backend.wrap_task(task, step=0).fn()

    def test_declared_accesses_pass_and_are_recorded(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend)

        def good_kernel():
            tiles.set_tile(0, 1, tiles.tile(0, 0) * 2.0)

        task = KernelTask(
            "good",
            good_kernel,
            reads=frozenset({(0, 0)}),
            writes=frozenset({(0, 1)}),
        )
        backend.wrap_task(task, step=0).fn()
        assert backend.reports == []
        [record] = backend.recorder.records
        assert record.touched == {(0, 0), (0, 1)}
        assert record.written == {(0, 1)}
        assert backend.undeclared_accesses() == []

    def test_out_of_context_access_is_unguarded(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend)
        tiles.tile(1, 0)[...] = 7.0  # planning-time access: no context
        assert float(tiles.tile(1, 0).mean()) == 7.0
        assert backend.recorder.records == []

    def test_undeclared_panel_scatter_raises_race_report(self):
        """The block panel copy records and guards every tile it writes."""
        backend = TracingBackend()
        tiles = self._traced_tiles(backend, n=24, nb=8)

        def scatter():
            tiles.scatter_panel(0, [0, 1], np.ones((16, 8)))

        declared = frozenset({(0, 0)})
        task = KernelTask("scatter", scatter, reads=declared, writes=declared)
        with pytest.raises(RaceReport) as exc_info:
            backend.wrap_task(task, step=0).fn()
        assert exc_info.value.access == "write"
        assert exc_info.value.tile == (1, 0)

    def test_block_views_guard_on_the_whole_range(self):
        backend = TracingBackend()
        tiles = self._traced_tiles(backend, n=24, nb=8)

        def sweep():
            block = tiles.block(1, 3, 0, 1)
            block += 1.0

        task = KernelTask(
            "sweep",
            sweep,
            reads=frozenset({(1, 0), (2, 0)}),
            writes=frozenset({(1, 0)}),  # (2, 0) missing from writes
        )
        with pytest.raises(RaceReport):
            backend.wrap_task(task, step=0).fn()

    def test_column_and_rhs_row_views_guard_the_named_tiles(self):
        backend = TracingBackend()
        tiles = backend.prepare_tiles(
            TileMatrix.from_dense(np.eye(24), 8, rhs=np.ones((24, 2)))
        )
        seen = {}

        def gather():
            seen["column"] = tiles.column_rows(1, 2, [0, 2])
            seen["rhs"] = tiles.rhs_rows([0, 2])

        declared = frozenset({(0, 1), (2, 1), (0, RHS_COLUMN), (2, RHS_COLUMN)})
        backend.wrap_task(KernelTask("gather", gather, reads=declared, writes=declared), 0).fn()
        assert seen["column"].shape == (24, 8) and seen["column"].flags.writeable
        assert seen["rhs"].shape == (24, 2) and seen["rhs"].flags.writeable
        assert backend.recorder.records[-1].written == declared

        # One named tile missing from the write set: the view is read-only.
        short = declared - {(2, 1)}
        backend.wrap_task(KernelTask("gather", gather, reads=declared, writes=short), 0).fn()
        assert not seen["column"].flags.writeable
        # ... and missing from both sets: an undeclared read.
        with pytest.raises(RaceReport, match="undeclared read"):
            backend.wrap_task(KernelTask("gather", gather, reads=short, writes=short), 0).fn()

    def test_swptrsm_with_underdeclared_write_set_is_caught(self):
        """The in-place SWPTRSM gathers through the guarded accessors."""

        class CorruptedLUPP(SOLVERS.get("lupp")):
            def _plan_step(self, tiles, dist, k):
                record, tasks = super()._plan_step(tiles, dist, k)
                return record, [
                    KernelTask(
                        t.kernel, t.fn, reads=t.reads, writes=sorted(t.writes)[1:], call=t.call
                    )
                    if t.kernel == "swptrsm"
                    else t
                    for t in tasks
                ]

        a, b = _system(32, seed=5)
        backend = TracingBackend()
        with pytest.raises(RaceReport) as exc_info:
            CorruptedLUPP(tile_size=8, kernel_backend=backend).factor(a, b)
        assert exc_info.value.kernel == "swptrsm"
        assert exc_info.value.access == "write"

    def test_tracing_backend_is_registered_and_resolves(self):
        assert "tracing" in KERNEL_BACKENDS
        backend = resolve_backend("tracing")
        assert isinstance(backend, TracingBackend)
        assert backend.name == "tracing"

    def test_traced_row_block_keeps_the_bounds(self):
        tiles = self._traced_tiles(TracingBackend(), n=24, nb=8)
        assert tiles.row_block(2, 3).shape == (8, 0)
        for args in [(0, 1, 8), (0, 3, 1), (3, 0)]:
            with pytest.raises(IndexError):
                tiles.row_block(*args)

    def test_traced_factorization_matches_untraced(self):
        a, b = _system(48, seed=7)
        reference = _solver("hybrid").factor(a, b)
        traced_backend = TracingBackend()
        traced = _solver("hybrid", kernel_backend=traced_backend).factor(a, b)
        assert np.array_equal(reference.tiles.array, traced.tiles.array)
        assert np.array_equal(reference.tiles.rhs, traced.tiles.rhs)
        assert traced_backend.reports == []
        assert traced_backend.recorder.records  # kernels were actually traced

    def test_traced_factorization_on_threaded_executor(self):
        a, b = _system(48, seed=8)
        reference = _solver("lupp").factor(a, b)
        traced = _solver(
            "lupp",
            kernel_backend="tracing",
            executor=ThreadedExecutor(workers=2),
        ).factor(a, b)
        assert np.array_equal(reference.tiles.array, traced.tiles.array)

    def test_wrap_preserves_storage_aliasing(self):
        base = TileMatrix.from_dense(np.zeros((16, 16)), 8)
        traced = TracingTileMatrix.wrap(base, TracingBackend().recorder)
        traced.tile(0, 0)[...] = 3.0
        assert float(base.tile(0, 0).mean()) == 3.0

    def test_audit_detects_seeded_undeclared_write(self):
        """End-to-end: a solver whose plan under-declares a write is caught."""

        class CorruptedLUPP(SOLVERS.get("lupp")):
            def _plan_step(self, tiles, dist, k):
                record, tasks = super()._plan_step(tiles, dist, k)
                corrupted = []
                for t in tasks:
                    if t.kernel == "gemm" and t.fused == 1:
                        # Drop one tile from the declared write set while
                        # the kernel body keeps writing it.
                        t = KernelTask(
                            t.kernel,
                            t.fn,
                            reads=t.reads,
                            writes=frozenset(),
                            call=t.call,
                            fused=t.fused,
                        )
                    corrupted.append(t)
                return record, corrupted

        solver = CorruptedLUPP(tile_size=8)
        a, b = _system(32, seed=4)
        report = audit(solver, a, b, lint=False)
        kinds = {v.kind for v in report.violations}
        assert not report.ok
        assert kinds & {"undeclared-write", "read-write-conflict"}


# --------------------------------------------------------------------------- #
# Registry lint
# --------------------------------------------------------------------------- #
class TestRegistryLint:
    def test_builtin_registries_are_clean(self):
        assert lint_registries() == []

    def test_every_registered_kernel_op_is_mapped(self):
        assert set(KERNELS) == set(TASK_KERNELS_OF_OP)

    def test_unmapped_kernel_op_is_flagged(self):
        name = "test.ephemeral_op"

        def op(tiles, inputs):  # pragma: no cover - never executed
            return None

        KERNELS[name] = op
        try:
            kinds = {v.kind for v in lint_registries()}
            assert "unmapped-kernel-op" in kinds
        finally:
            del KERNELS[name]
        assert lint_registries() == []

    def test_protocol_violating_backend_is_flagged(self):
        class BrokenBackend(KernelBackend):
            # Registered under one name, calling itself by another.
            name = "unregistered_name"

        KERNEL_BACKENDS.register("broken_test_backend")(BrokenBackend)
        try:
            violations = [
                v for v in lint_registries() if v.subject == "broken_test_backend"
            ]
            assert [v.kind for v in violations] == ["backend-protocol"]
            assert "unregistered_name" in violations[0].message
        finally:
            KERNEL_BACKENDS.unregister("broken_test_backend")
        assert lint_registries() == []


# --------------------------------------------------------------------------- #
# Schedule-perturbation determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["hybrid", "lupp"])
    def test_randomized_ready_orders_stay_bit_identical(self, algorithm):
        a, b = _system(32, seed=11)
        violations = determinism_check(
            lambda executor: _solver(algorithm, executor=executor),
            a,
            b,
            rounds=2,
            workers=3,
        )
        assert violations == []

    def test_perturbed_executor_overwrites_priorities(self):
        g = TaskGraph()
        done = []
        g.add_task("a", 0, writes={(0, 0)}, fn=lambda: done.append("a"))
        g.add_task("b", 0, reads={(0, 0)}, writes={(1, 1)}, fn=lambda: done.append("b"))
        executor = PerturbedThreadedExecutor(workers=2, seed=0)
        executor.run(g)
        assert done == ["a", "b"]  # dependencies still gate readiness
        priorities = {t.priority for t in g.tasks}
        assert all(0.0 <= p < 1.0 for p in priorities)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def test_cli_audits_one_algorithm(self, capsys):
        from repro.api.cli import main

        rc = main(["--algorithm", "lupp", "--tile-size", "4", "--n", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "AUDIT PASSED" in out

    def test_cli_runs_via_module(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "--algorithm",
                "lu_nopiv",
                "--tile-size",
                "4",
                "--n",
                "16",
                "--skip-lint",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "AUDIT PASSED" in proc.stdout
