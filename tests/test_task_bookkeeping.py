"""Per-task bookkeeping: access sets built on first read, one dependency pass.

The planners hand every task its read and write sets as a builder; only
the consumers of the sets (the lookahead pipeline, the access tracer and
the audit) ever call it, and each call site shares one cached result.
The pipeline infers each task's dependencies once, at submission.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import audit
from repro.api import SOLVERS
from repro.core.panel_analysis import analyze_panel
from repro.runtime import schedule
from repro.runtime.executor import SequentialExecutor
from repro.runtime.graph import TaskGraph
from repro.runtime.schedule import KernelTask, StepPipeline
from repro.tiles import ProcessGrid, TileMatrix
from repro.tiles.distribution import BlockCyclicDistribution

FIVE = ("hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr")


def _system(n=48, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


@pytest.fixture
def builds(monkeypatch):
    """One counter per planned task: how often its access-set builder ran."""
    counts = []
    original = schedule._AccessSets.__init__

    def init(self, build):
        slot = len(counts)
        counts.append(0)

        def counted():
            counts[slot] += 1
            return build()

        original(self, counted)

    monkeypatch.setattr(schedule._AccessSets, "__init__", init)
    return counts


class TestAccessSetsOnFirstRead:
    @pytest.mark.parametrize("name", FIVE)
    def test_inline_factor_builds_no_access_set(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8).factor(a, b)
        assert builds and set(builds) == {0}

    @pytest.mark.parametrize("name", FIVE)
    def test_sequential_pipeline_builds_each_set_once(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8, executor=SequentialExecutor()).factor(a, b)
        assert builds and set(builds) == {1}

    @pytest.mark.parametrize("name", FIVE)
    def test_tracing_backend_builds_each_set_once(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8, kernel_backend="tracing").factor(a, b)
        assert builds and set(builds) == {1}

    @pytest.mark.parametrize("name", FIVE)
    def test_audit_builds_each_set_once_and_stays_clean(self, builds, name):
        solver = SOLVERS.get(name)(
            tile_size=8, grid=ProcessGrid(2, 2), executor=SequentialExecutor()
        )
        report = audit(solver, lint=False)
        assert builds and set(builds) == {1}
        kinds = {v.kind for v in report.violations}
        assert not kinds & {"read-set-mismatch", "write-set-mismatch"}
        assert report.ok, report.violations

    def test_explicit_sets_keep_working_and_replace_shares_the_cache(self):
        calls = []

        def build():
            calls.append(1)
            return [(0, 0), (1, 0)], [(1, 0)]

        task = KernelTask("k", lambda: None, access=build)
        assert calls == []
        wrapped = replace(task, fn=lambda: None)
        assert wrapped.reads == frozenset({(0, 0), (1, 0)})
        assert task.writes == frozenset({(1, 0)})
        assert calls == [1]
        narrowed = replace(task, writes=frozenset())
        assert narrowed.reads == task.reads and narrowed.writes == frozenset()
        eager = KernelTask("k", lambda: None, reads={(2, 2)}, writes=frozenset())
        assert eager.reads == frozenset({(2, 2)}) and eager.writes == frozenset()
        assert KernelTask("k", lambda: None).reads == frozenset()


class TestOneDependencyPass:
    @pytest.mark.parametrize("name", FIVE)
    def test_add_task_runs_once_per_planned_task(self, builds, monkeypatch, name):
        added = []
        original = TaskGraph.add_task

        def add_task(self, *args, **kwargs):
            added.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TaskGraph, "add_task", add_task)
        a, b = _system()
        solver = SOLVERS.get(name)(tile_size=8, executor=SequentialExecutor())
        solver.factor(a, b)
        assert len(added) == len(builds) > 0
        # Every flush ran exactly the edges a fresh inference would give.
        solver.collect_step_graphs = True
        solver.factor(a, b)
        for graph in solver.step_graphs:
            fresh = TaskGraph()
            for t in graph.tasks:
                fresh.add_task(t.kernel, t.step, reads=t.reads, writes=t.writes)
            assert [t.deps for t in graph.tasks] == [t.deps for t in fresh.tasks]

    def test_subgraph_renumbers_and_drops_outside_dependencies(self):
        graph = TaskGraph()
        graph.add_task("a", 0, writes=[(0, 0)])
        graph.add_task("b", 0, reads=[(0, 0)], writes=[(1, 0)])
        graph.add_task("c", 0, reads=[(0, 0)], writes=[(2, 0)])
        graph.add_task("d", 1, reads=[(1, 0), (2, 0)], writes=[(3, 0)])
        sub = graph.subgraph([3, 1, 2])
        assert [t.kernel for t in sub.tasks] == ["b", "c", "d"]
        assert [t.uid for t in sub.tasks] == [0, 1, 2]
        assert [t.deps for t in sub.tasks] == [set(), set(), {0, 1}]
        assert sub.task(2).reads == frozenset({(1, 0), (2, 0)})
        assert graph.task(3).deps == {1, 2}  # the oracle itself is untouched

    def test_pipeline_oracle_keeps_no_closures(self):
        log = []
        pipe = StepPipeline(SequentialExecutor(), tile_size=8, lookahead=1)
        pipe.submit([KernelTask("a", lambda: log.append("a"), writes={(0, 1)})], step=0)
        pipe.submit([KernelTask("b", lambda: log.append("b"), writes={(1, 2)})], step=1)
        assert all(t.fn is None and t.call is None for t in pipe._oracle.tasks)
        pipe.advance(1)  # step 0 writes column 1, which step 1 plans from
        assert log == ["a"] and pipe.pending_count == 1
        pipe.flush_all()
        assert log == ["a", "b"] and pipe.pending_count == 0


class TestPanelAnalysisNormPass:
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("domain_pivoting", [True, False])
    def test_norms_and_maxima_match_the_separate_passes(self, grid, domain_pivoting):
        rng = np.random.default_rng(11)
        n, nb = 7, 8
        tiles = TileMatrix(rng.standard_normal((n * nb, n * nb)) * 10.0 ** rng.integers(-3, 3), nb)
        dist = BlockCyclicDistribution(ProcessGrid(*grid), n)
        for k in range(n):
            info = analyze_panel(tiles, dist, k, domain_pivoting=domain_pivoting).info
            rows = info.domain_rows
            away = [i for i in range(k, n) if i not in rows]
            norms = tiles.region_tile_norms(k + 1, n, k, k + 1)[:, 0].tolist()
            assert info.offdiag_tile_norms == norms
            local = np.max(np.abs(np.vstack([tiles.tile(i, k) for i in rows])), axis=0)
            assert np.array_equal(info.local_max, local)
            if away:
                far = np.max(np.abs(np.vstack([tiles.tile(i, k) for i in away])), axis=0)
            else:
                far = np.zeros(nb)
            assert np.array_equal(info.away_max, far)
