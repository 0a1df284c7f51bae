"""Per-task bookkeeping: access sets built on first read, one dependency pass.

A planned task's read and write sets are its call's access rule
(``repro.kernels.dispatch.ACCESS_RULES``), evaluated on first read; only
the consumers of the sets (the step graphs, the access tracer and
the audit) ever evaluate it, and each task's copies share one cached
result.  A step's graph infers each task's dependencies once, as it is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import audit
from repro.api import SOLVERS
from repro.core.panel_analysis import analyze_panel
from repro.kernels.dispatch import KernelCall
from repro.runtime import schedule
from repro.runtime.executor import SequentialExecutor
from repro.runtime.graph import TaskGraph
from repro.runtime.schedule import KernelTask, call_task
from repro.tiles import ProcessGrid, TileMatrix
from repro.tiles.distribution import BlockCyclicDistribution

FIVE = ("hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr")


def _system(n=48, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)


class _Builds:
    """Planned tasks and how often each one's access rule ran for its sets."""

    def __init__(self) -> None:
        self.planned = 0
        self.calls = []  # keeps every counted call alive, so ids stay unique
        self.per_call = Counter()

    def counts(self):
        return set(self.per_call.values())


@pytest.fixture
def builds(monkeypatch):
    """Count planned tasks and the access-rule evaluations behind their sets.

    The static analyzers evaluate the same rules through the signatures
    (``repro.kernels.dispatch.access_sets``); only the evaluations that
    build a task's own sets are counted here.
    """
    record = _Builds()
    init, rule = schedule._AccessSets.__init__, schedule.access_sets

    def counted_init(self, call=None, step=0, sets=None):
        record.planned += call is not None
        init(self, call, step, sets)

    def counted_rule(call, step):
        record.calls.append(call)
        record.per_call[id(call)] += 1
        return rule(call, step)

    monkeypatch.setattr(schedule._AccessSets, "__init__", counted_init)
    monkeypatch.setattr(schedule, "access_sets", counted_rule)
    return record


class TestAccessSetsOnFirstRead:
    @pytest.mark.parametrize("name", FIVE)
    def test_inline_factor_builds_no_access_set(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8).factor(a, b)
        assert builds.planned > 0 and not builds.per_call

    @pytest.mark.parametrize("name", FIVE)
    def test_sequential_pipeline_builds_each_set_once(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8, executor=SequentialExecutor()).factor(a, b)
        assert len(builds.per_call) == builds.planned > 0 and builds.counts() == {1}

    @pytest.mark.parametrize("name", FIVE)
    def test_tracing_backend_builds_each_set_once(self, builds, name):
        a, b = _system()
        SOLVERS.get(name)(tile_size=8, kernel_backend="tracing").factor(a, b)
        assert len(builds.per_call) == builds.planned > 0 and builds.counts() == {1}

    @pytest.mark.parametrize("name", FIVE)
    def test_audit_builds_each_set_once_and_stays_clean(self, builds, name):
        solver = SOLVERS.get(name)(
            tile_size=8, grid=ProcessGrid(2, 2), executor=SequentialExecutor()
        )
        report = audit(solver)
        assert len(builds.per_call) == builds.planned > 0 and builds.counts() == {1}
        assert report.ok, report.violations

    def test_explicit_sets_keep_working_and_replace_shares_the_cache(self, builds):
        tiles = TileMatrix.from_dense(np.eye(16), 8)
        task = call_task("trsm", tiles, KernelCall("lu.trsm", args=(1, 0, None)), 0)
        assert not builds.per_call
        wrapped = replace(task, fn=lambda: None)
        assert wrapped.reads == frozenset({(0, 0), (1, 0)})
        assert task.writes == frozenset({(1, 0)})
        assert list(builds.per_call.values()) == [1]
        with pytest.raises(TypeError):
            replace(task, writes=frozenset())
        eager = KernelTask("k", lambda: None, reads={(2, 2)}, writes=frozenset())
        assert eager.reads == frozenset({(2, 2)}) and eager.writes == frozenset()
        assert KernelTask("k", lambda: None).reads == frozenset()
        assert list(builds.per_call.values()) == [1]


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
        assert len(added) == builds.planned > 0
        # Every step graph ran exactly the edges a fresh inference would give.
        solver.collect_step_graphs = True
        solver.factor(a, b)
        for graph in solver.step_graphs:
            fresh = TaskGraph()
            for t in graph.tasks:
                fresh.add_task(t.kernel, t.step, reads=t.reads, writes=t.writes)
            assert [t.deps for t in graph.tasks] == [t.deps for t in fresh.tasks]


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
