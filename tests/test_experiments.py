"""Tests for the experiment harnesses (Tables I-III, Figures 1-3, ablations).

These tests run each harness at a deliberately tiny scale and check (i) the
structure of the returned data and (ii) the qualitative relationships the
paper reports (stability ordering, QR/LU cost ratio, decision overhead).
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import ablations, figure1, figure2, figure3, table1, table2, table3
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    make_baseline,
    make_hybrid,
    resample_step_kinds,
    simulate_at_paper_scale,
)
from repro.perf.model import FactorizationSpec, PerformanceModel
from repro.runtime.platform import dancer_platform
from repro.tiles import ProcessGrid

TINY = ExperimentConfig(n_tiles=6, tile_size=4, paper_n_tiles=12, paper_tile_size=64,
                        grid=ProcessGrid(2, 2), samples=2, seed=7)


class TestCommonHelpers:
    def test_make_hybrid_all_criteria(self):
        for name in ("max", "sum", "mumps", "random"):
            solver = make_hybrid(name, 0.5, TINY, seed=0)
            assert solver.criterion.name == name
        with pytest.raises(ValueError):
            make_hybrid("unknown", 1.0, TINY)

    def test_make_baseline_all(self):
        for name in ("LU NoPiv", "LU IncPiv", "LUPP", "HQR"):
            assert make_baseline(name, TINY).algorithm == name
        with pytest.raises(ValueError):
            make_baseline("nope", TINY)

    def test_resample_step_kinds(self):
        kinds = ["LU", "LU", "QR", "QR"]
        up = resample_step_kinds(kinds, 8)
        assert len(up) == 8
        assert up.count("QR") == 4
        down = resample_step_kinds(kinds, 2)
        assert down == ["LU", "QR"]
        assert resample_step_kinds([], 3) == ["LU"] * 3

    def test_simulate_at_paper_scale(self, rng):
        solver = make_hybrid("max", 10.0, TINY)
        a = rng.standard_normal((TINY.n_order, TINY.n_order)) + 3 * np.eye(TINY.n_order)
        fact = solver.factor(a, np.ones(TINY.n_order))
        report = simulate_at_paper_scale(fact, TINY)
        assert report.n_tiles == TINY.paper_n_tiles
        assert report.fake_gflops > 0

    def test_simulation_memo_keys_every_input(self):
        # Each variant differs from the base in one input the simulation
        # reads; a memo key without it would hand back the base's report.
        def fact(kinds, overhead=True, algorithm="LUQR"):
            steps = [SimpleNamespace(decision_overhead=overhead) for _ in kinds]
            return SimpleNamespace(step_kinds=kinds, algorithm=algorithm, steps=steps)

        base = fact(["LU", "QR", "LU"])
        smaller = dataclasses.replace(TINY, paper_n_tiles=TINY.paper_n_tiles - 2)
        wider = dataclasses.replace(TINY, paper_tile_size=2 * TINY.paper_tile_size)
        variants = [
            (base, TINY, None),
            (fact(["LU", "QR", "LU"], overhead=False), TINY, None),
            (fact(["QR", "LU", "LU"]), TINY, None),
            (fact(["QR", "QR", "QR"], algorithm="HQR"), TINY, None),
            (fact(["LU", "LU", "LU"], overhead=False), TINY, "LU NoPiv"),
            (base, smaller, None),
            (base, wider, None),
        ]
        reports = []
        for f, cfg, algorithm in variants:
            spec = FactorizationSpec(
                n_tiles=cfg.paper_n_tiles,
                tile_size=cfg.paper_tile_size,
                step_kinds=resample_step_kinds(f.step_kinds, cfg.paper_n_tiles),
                algorithm=algorithm or f.algorithm,
                decision_overhead=f.steps[0].decision_overhead,
                grid=ProcessGrid(4, 4),
            )
            expected = PerformanceModel(dancer_platform()).simulate_spec(spec)
            report = simulate_at_paper_scale(f, cfg, algorithm=algorithm)
            assert report == expected
            reports.append(report)
        assert len({(r.n_tasks, r.execution_time) for r in reports}) == len(variants)
        # The same spec again is served from the memo.
        assert simulate_at_paper_scale(base, TINY) is reports[0]

    def test_format_table(self):
        out = format_table([{"a": 1, "b": 2.5}, {"a": 30, "b": 1e-9}])
        assert "a" in out and "30" in out
        assert format_table([]) == "(empty)"


class TestTable1:
    def test_rows_structure(self):
        rows = table1.table1_rows(remaining=4)
        assert len(rows) == 5
        total = rows[-1]
        assert total["qr_cost_nb3"] == pytest.approx(2 * total["lu_cost_nb3"], rel=0.1)

    def test_measured_counts_match_expected(self):
        counts = table1.measured_kernel_counts(n_tiles=4, nb=4)
        expected = counts["expected"]
        lu = counts["lu_first_step"]
        assert lu["getrf"] == expected["factor"]
        assert lu["trsm"] == expected["eliminate"]
        assert lu["gemm"] == expected["update"]
        qr = counts["qr_first_step"]
        qr_updates = sum(qr.get(k, 0) for k in ("tsmqr", "ttmqr", "unmqr"))
        assert qr_updates >= expected["update"]


class TestFigure1:
    def test_summary_counts(self):
        summary = figure1.figure1_summary(n_tiles=6, grid=ProcessGrid(2, 2))
        assert summary["lu_branch_tasks"] > 0
        assert summary["qr_branch_tasks"] > 0
        assert (
            summary["tasks_if_lu_selected"] + summary["qr_branch_tasks"]
            == summary["total_tasks_in_graph"]
        )

    def test_edges_format(self):
        edges = figure1.dataflow_edges(n_tiles=3, max_edges=10)
        assert edges and all("->" in e for e in edges)
        assert len(edges) <= 10


class TestFigure2:
    def test_rows_structure_and_shape(self):
        rows = figure2.figure2_rows(
            TINY, criteria=["max"], sizes=[4], include_baselines=True,
            simulate_performance=False,
        )
        labels = {r["label"] for r in rows}
        assert "LU NoPiv" in labels and "LUPP" in labels
        alphas = [r["alpha"] for r in rows if r["criterion"] == "max"]
        assert math.inf in alphas
        for row in rows:
            assert row["N"] == 4 * TINY.tile_size
            assert "relative_hpl3" in row and "lu_steps_pct" in row

    def test_alpha_inf_mostly_lu_and_alpha0_mostly_qr(self):
        rows = figure2.figure2_rows(
            TINY, criteria=["max"], sizes=[6], include_baselines=False,
            simulate_performance=False,
        )
        by_alpha = {r["alpha"]: r for r in rows}
        assert by_alpha[math.inf]["lu_steps_pct"] == pytest.approx(100.0)
        assert by_alpha[0.0]["lu_steps_pct"] < 50.0


class TestFigure3:
    def test_rows_on_subset(self):
        rows = figure3.figure3_rows(
            TINY, matrices=["ris", "orthog"], n_random=1, include_fiedler=True
        )
        names = {r["matrix"] for r in rows}
        assert {"random-1", "ris", "orthog", "fiedler"} <= names
        for row in rows:
            assert "LUQR Max" in row
        # LU NoPiv must be (much) worse than the Max-criterion hybrid on ris.
        ris = next(r for r in rows if r["matrix"] == "ris")
        assert ris["LU NoPiv"] > ris["LUQR Max"]


class TestTable2:
    def test_rows_and_orderings(self):
        cfg = ExperimentConfig(n_tiles=6, tile_size=4, paper_n_tiles=10, paper_tile_size=64,
                               grid=ProcessGrid(2, 2), samples=1, seed=3)
        rows = table2.table2_rows(cfg, alphas=[float("inf"), 5.0, 0.0])
        algos = [r["algorithm"] for r in rows]
        assert algos[:2] == ["LU NoPiv", "LU IncPiv"]
        assert algos[-2:] == ["HQR", "LUPP"]
        by_alpha = {r["alpha"]: r for r in rows if r["algorithm"] == "LUQR (MAX)"}
        assert by_alpha[float("inf")]["lu_steps_pct"] == pytest.approx(100.0)
        # fake GFLOP/s decreases as alpha decreases (more QR steps).
        assert by_alpha[float("inf")]["fake_gflops"] >= by_alpha[0.0]["fake_gflops"]
        nopiv = rows[0]
        assert nopiv["fake_gflops"] >= by_alpha[float("inf")]["fake_gflops"]


class TestTable3:
    def test_rows(self):
        rows = table3.table3_rows(n=16)
        assert len(rows) == 22  # 21 + fiedler
        hilb = next(r for r in rows if r["name"] == "hilb")
        assert hilb["symmetric"] is True
        assert hilb["cond_1"] > 1e8
        fiedler = next(r for r in rows if r["name"] == "fiedler")
        assert fiedler["zero_diagonal"] == 16


class TestAblations:
    def test_decision_overhead(self):
        out = ablations.decision_overhead_ablation(paper_n_tiles=10, paper_tile_size=64)
        assert 0.0 < out["overhead_pct"] < 60.0
        assert out["luqr_alpha0_time_s"] > out["hqr_time_s"]

    def test_tree_shape(self):
        rows = ablations.tree_shape_ablation(n_tiles=12, tile_size=64)
        by_name = {r["intra_tree"]: r for r in rows}
        assert by_name["flat"]["panel_depth"] > by_name["greedy"]["panel_depth"]

    def test_domain_pivoting(self):
        rows = ablations.domain_pivoting_ablation(TINY, samples=2)
        assert len(rows) == 2
        assert {r["pivot_search"] for r in rows} == {"diagonal tile only", "diagonal domain"}
