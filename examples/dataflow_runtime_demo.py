#!/usr/bin/env python
"""Dataflow runtime demo: dynamic task graphs and real threaded execution.

The paper's implementation contribution is an extension of the PaRSEC
dataflow runtime that supports *dynamic* task graphs: both the LU-step and
the QR-step tasks of a panel are present in the graph, and a layer of
propagate tasks forwards the data to whichever branch the robustness
criterion selects.  This example demonstrates the pure-Python substitute:

1. it takes one step of the hybrid's task graph planned both ways (an LU
   and a QR step) and shows how many tasks each decision outcome keeps;
2. it plans the task graph of a full hybrid factorization with the solvers'
   own planners (its step kinds from a numerical run) and simulates it on
   the modelled 16-node platform (makespan, utilisation);
3. it executes a real tiled matrix-multiplication task graph with the
   threaded dataflow executor and reports the achieved concurrency.

Run with ``python examples/dataflow_runtime_demo.py``.
"""

import numpy as np

from repro import HybridLUQRSolver, MaxCriterion, ProcessGrid
from repro.experiments.figure1 import figure1_summary
from repro.matrices.random_gen import random_matrix, random_rhs
from repro.perf.model import FactorizationSpec, plan_graph
from repro.runtime import TaskGraph, ThreadedExecutor, dancer_platform, simulate
from repro.tiles import TileMatrix


def show_dynamic_step_graph() -> None:
    print("1. Dynamic per-step dataflow (Figure 1)")
    summary = figure1_summary(n_tiles=8, tile_size=8, grid=ProcessGrid(2, 2))
    print(f"   stages          : {summary['stage_task_counts']}")
    print(f"   tasks if LU     : {summary['tasks_if_lu_selected']}")
    print(f"   tasks if QR     : {summary['tasks_if_qr_selected']}")
    print()


def simulate_full_factorization() -> None:
    print("2. Simulated distributed execution of a hybrid factorization")
    nb, n_tiles = 8, 16
    n = nb * n_tiles
    a = random_matrix(n, seed=3)
    b = random_rhs(n, seed=4)
    grid = ProcessGrid(4, 4)
    solver = HybridLUQRSolver(nb, MaxCriterion(50.0), grid=grid)
    fact = solver.factor(a, b)

    platform = dancer_platform(grid)
    graph = plan_graph(FactorizationSpec.of(fact, grid=grid), platform=platform)
    sim = simulate(graph, platform, nb)
    print(f"   steps (LU/QR)   : {fact.lu_steps}/{fact.qr_steps}")
    print(f"   tasks           : {len(graph)}")
    print(f"   makespan        : {sim.makespan * 1e3:.3f} ms (simulated)")
    print(f"   critical path   : {sim.critical_path_time * 1e3:.3f} ms")
    print(f"   core utilisation: {100 * sim.utilization(platform):.1f}%")
    print(f"   bytes on network: {sim.communication_bytes / 1e6:.2f} MB")
    print()


def threaded_tile_gemm() -> None:
    print("3. Real threaded dataflow execution (tiled C += A @ B)")
    nb, n_tiles = 64, 6
    n = nb * n_tiles
    rng = np.random.default_rng(0)
    a = TileMatrix(rng.standard_normal((n, n)), nb)
    bmat = TileMatrix(rng.standard_normal((n, n)), nb)
    c = TileMatrix(np.zeros((n, n)), nb)

    graph = TaskGraph()
    for i in range(n_tiles):
        for j in range(n_tiles):
            for k in range(n_tiles):
                def gemm(i=i, j=j, k=k):
                    c.tile(i, j)[...] += a.tile(i, k) @ bmat.tile(k, j)

                graph.add_task(
                    kernel="gemm",
                    step=k,
                    reads={(i, k), (k, j), (i, j)},
                    writes={(i, j)},
                    fn=gemm,
                )

    trace = ThreadedExecutor(workers=4).run(graph)
    error = np.linalg.norm(c.array - a.array @ bmat.array) / np.linalg.norm(a.array @ bmat.array)
    print(f"   tasks executed  : {trace.n_tasks}")
    print(f"   wall time       : {trace.wall_time * 1e3:.1f} ms on 4 worker threads")
    print(f"   max concurrency : {trace.max_concurrency}")
    print(f"   relative error  : {error:.2e}")


def main() -> None:
    show_dynamic_step_graph()
    simulate_full_factorization()
    threaded_tile_gemm()


if __name__ == "__main__":
    main()
