"""Distributed cluster executor: bit-identity, placement, admission, faults.

The contract under test is the ISSUE's acceptance bar for the
owner-computes executor:

- ``cluster(workers=2)`` factors bit-identically to the inline reference
  for all five solvers across special matrices from the Table III
  registry;
- every task executes on exactly the rank
  :func:`repro.analysis.placement.assign_owners` assigns (asserted from
  the execution trace);
- the measured per-edge message counts/bytes equal the static
  placement analysis's prediction wire-for-wire when one worker hosts
  each logical rank;
- over-budget systems are rejected by admission control against the
  workers' advertised memory budgets;
- a worker dying mid-factorization is survived: its ranks remap, the
  in-flight task retries on a survivor, and the result stays
  bit-identical.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from multiprocessing import Pipe
from multiprocessing.connection import Connection, Listener

import numpy as np
import pytest

import repro
from repro.analysis.placement import (
    analyze_placement,
    owner_of_ref,
    task_anchor,
)
from repro.cluster import (
    ClusterError,
    MemoryAdmissionError,
    worker as cluster_worker,
)
from repro.kernels.dispatch import SigContext
from repro.matrices import build as build_matrix
from repro.tiles import BlockCyclicDistribution, ProcessGrid

WORKERS = 2
NB = 8
N = 32  # 4x4 tiles on a 2x2 grid
ALGORITHMS = ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]
SPECIAL_MATRICES = ["circul", "condex", "lehmer"]


@pytest.fixture(scope="module")
def cluster2():
    """One 2-worker cluster shared by the module (spawns are expensive)."""
    executor = repro.ClusterExecutor(workers=WORKERS)
    yield executor
    executor.close()


def _solver(algorithm, executor=None):
    return repro.make_solver(
        algorithm, tile_size=NB, grid="2x2", executor=executor
    )


def _system(rng, n=N):
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


# --------------------------------------------------------------------- #
# Bit-identity to the inline reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("matrix_name", SPECIAL_MATRICES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cluster_bit_identical_to_inline(cluster2, algorithm, matrix_name, rng):
    a = build_matrix(matrix_name, N)
    b = rng.standard_normal(N)

    inline = _solver(algorithm).factor(a, b)
    distributed = _solver(algorithm, cluster2).factor(a, b)

    assert distributed.step_kinds == inline.step_kinds
    np.testing.assert_array_equal(distributed.tiles.array, inline.tiles.array)
    np.testing.assert_array_equal(distributed.tiles.rhs, inline.tiles.rhs)
    assert distributed.growth_factor == inline.growth_factor
    x_inline = inline.solve()
    x_cluster = distributed.solve()
    np.testing.assert_array_equal(x_cluster, x_inline)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cluster_runs_each_step_as_one_graph(cluster2, algorithm, rng):
    """Each step runs as one graph with one trace, and the host mirror holds
    the step's writes when ``run`` returns: the per-step growth read from it
    equals the inline record."""
    a, b = _system(rng)
    inline = _solver(algorithm).factor(a, b)
    solver = _solver(algorithm, cluster2)
    solver.collect_step_graphs = True
    distributed = solver.factor(a, b)

    assert len(solver.step_graphs) == len(solver.step_traces) == distributed.n_steps
    for k, graph in enumerate(solver.step_graphs):
        assert len(graph) > 0
        assert {t.step for t in graph.tasks} == {k}
    assert distributed.step_kinds == inline.step_kinds
    assert distributed.growth.per_step == inline.growth.per_step


def test_cluster_trace_metadata(cluster2, rng):
    a, b = _system(rng)
    _solver("hybrid", cluster2).factor(a, b)
    trace = cluster2.last_trace
    assert trace is not None and trace.n_tasks > 0
    assert set(trace.rank_of_task) == set(trace.finish_times)
    assert all(name.startswith("cluster-w") for name in trace.worker_of_task.values())


# --------------------------------------------------------------------- #
# Placement: execution trace == assign_owners, measured == predicted
# --------------------------------------------------------------------- #
def test_execution_ranks_match_assign_owners(cluster2, rng):
    a, b = _system(rng)
    solver = _solver("hybrid", cluster2)
    solver.collect_step_graphs = True
    solver.factor(a, b)

    ctx = SigContext(n=N // NB, nb=NB, nrhs=1)
    dist = BlockCyclicDistribution(ProcessGrid(2, 2), N // NB)
    checked = 0
    for graph, trace in zip(solver.step_graphs, solver.step_traces):
        for task in graph.tasks:
            anchor = task_anchor(task, ctx)
            assert anchor is not None
            expected = owner_of_ref(anchor, dist)
            assert trace.rank_of_task[task.uid] == expected
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_audit_flags_a_task_run_off_its_owner(cluster2, monkeypatch, algorithm):
    """The audit checks the ranks the cluster ran tasks on, not placement
    against itself: one task per step graph moved to the next rank fails it."""
    import repro.cluster.executor as cluster_executor

    solver = _solver(algorithm, cluster2)
    report = repro.analysis.audit(solver)
    assert report.ok, report.summary()
    place = cluster_executor.assign_owners

    def misplace(graphs, dist, ctx):
        assigned = place(graphs, dist, ctx)
        for graph in graphs:
            task = graph.tasks[0]
            task.owner = (task.owner + 1) % dist.grid.size
        return assigned

    monkeypatch.setattr(cluster_executor, "assign_owners", misplace)
    report = repro.analysis.audit(solver)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"wrong-owner"}
    assert len(report.violations) == report.checked["graphs"] - 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_measured_comm_matches_placement_prediction(algorithm, rng):
    """One worker per rank: payload items == the analyzer's predictions."""
    a, b = _system(rng)
    executor = repro.ClusterExecutor(workers=4)
    try:
        solver = _solver(algorithm, executor)
        solver.collect_step_graphs = True
        solver.factor(a, b)
        measured = executor.last_comm
    finally:
        executor.close()

    ctx = SigContext(n=N // NB, nb=NB, nrhs=1)
    dist = BlockCyclicDistribution(ProcessGrid(2, 2), N // NB)
    violations, predicted = analyze_placement(solver.step_graphs, dist, ctx)

    assert violations == []
    # Trailing-update sweeps span owners; both sides count their cross
    # reads per per-tile constituent, so the counts still agree exactly.
    assert predicted.multi_owner_tasks > 0
    assert measured.cross_messages == predicted.cross_messages
    assert measured.cross_bytes == predicted.cross_bytes
    assert measured.product_messages == predicted.product_messages
    assert measured.product_bytes == predicted.product_bytes
    assert measured.edge_messages == predicted.edge_messages
    assert measured.diagonal_pivot_steps == predicted.diagonal_pivot_steps
    assert measured.panel_wide_pivot_steps == predicted.panel_wide_pivot_steps
    assert measured.retried_tasks == 0


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
def test_admission_rejects_overbudget_system(rng):
    a, b = _system(rng)
    executor = repro.ClusterExecutor(workers=2, memory_budget=1024)
    try:
        with pytest.raises(MemoryAdmissionError) as excinfo:
            _solver("lupp", executor).factor(a, b)
        err = excinfo.value
        assert err.budget == 1024
        assert err.required == N * N * 8 + N * 1 * 8
        # The failed bind must not leave the executor wedged: a system
        # within budget still runs afterwards.
        with pytest.raises(MemoryAdmissionError):
            _solver("hybrid", executor).factor(a, b)
    finally:
        executor.close()


def test_admission_accepts_within_budget(rng):
    budget = 1 << 26
    a, b = _system(rng)
    executor = repro.ClusterExecutor(workers=2, memory_budget=budget)
    try:
        assert executor.min_budget() == budget
        assert _solver("lupp", executor).factor(a, b).succeeded
    finally:
        executor.close()


def test_min_budget_unlimited_is_none(cluster2):
    assert cluster2.min_budget() is None


# --------------------------------------------------------------------- #
# Fault tolerance
# --------------------------------------------------------------------- #
def test_worker_death_retries_bit_identically(rng):
    """Worker 1 dies on its 3rd task: ranks remap, result is unchanged."""
    a, b = _system(rng)
    inline = _solver("lupp").factor(a, b)
    executor = repro.ClusterExecutor(workers=2, fail_worker_after=(1, 3))
    try:
        distributed = _solver("lupp", executor).factor(a, b)
        np.testing.assert_array_equal(distributed.tiles.array, inline.tiles.array)
        np.testing.assert_array_equal(distributed.tiles.rhs, inline.tiles.rhs)
        assert executor.last_comm.retried_tasks >= 1
        assert executor.last_comm.recovery_messages > 0
        # The survivor keeps serving later factorizations.
        inline2 = _solver("hybrid").factor(a, b)
        distributed2 = _solver("hybrid", executor).factor(a, b)
        np.testing.assert_array_equal(distributed2.tiles.array, inline2.tiles.array)
    finally:
        executor.close()


def test_kill_worker_between_runs_is_survived(rng):
    a, b = _system(rng)
    inline = _solver("lu_nopiv").factor(a, b)
    executor = repro.ClusterExecutor(workers=2)
    try:
        _solver("lu_nopiv", executor).factor(a, b)
        executor.kill_worker(0)
        distributed = _solver("lu_nopiv", executor).factor(a, b)
        np.testing.assert_array_equal(distributed.tiles.array, inline.tiles.array)
    finally:
        executor.close()


# --------------------------------------------------------------------- #
# TCP hosts mode
# --------------------------------------------------------------------- #
def test_tcp_hosts_mode_round_trip(rng):
    """Pre-started listener workers, reached via cluster(hosts=[...])."""
    a, b = _system(rng)
    inline = _solver("hybrid").factor(a, b)

    listeners = [Listener(("127.0.0.1", 0), authkey=b"secret") for _ in range(2)]
    threads = []
    for worker_id, listener in enumerate(listeners):
        thread = threading.Thread(
            target=cluster_worker.serve_listener,
            args=(listener,),
            kwargs={"worker_id": worker_id, "memory_budget": 1 << 30},
            daemon=True,
        )
        thread.start()
        threads.append(thread)

    hosts = [f"127.0.0.1:{listener.address[1]}" for listener in listeners]
    executor = repro.ClusterExecutor(hosts=hosts, authkey=b"secret")
    try:
        assert executor.min_budget() == 1 << 30
        distributed = _solver("hybrid", executor).factor(a, b)
        np.testing.assert_array_equal(distributed.tiles.array, inline.tiles.array)
        np.testing.assert_array_equal(distributed.tiles.rhs, inline.tiles.rhs)
        with pytest.raises(ClusterError):
            executor.kill_worker(0)  # remote workers cannot be terminated here
    finally:
        executor.close()
        for listener in listeners:
            listener.close()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def _nagle_off(conn):
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_no_delay_turns_nagle_off_on_tcp_channels():
    """A message above 16 KiB is written as header + body; Nagle held the body."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        with socket.create_connection(server.getsockname()) as client:
            accepted, _ = server.accept()
            with accepted:
                ends = [Connection(os.dup(s.fileno())) for s in (client, accepted)]
                try:
                    assert not any(_nagle_off(conn) for conn in ends)
                    assert all(_nagle_off(cluster_worker.no_delay(conn)) for conn in ends)
                finally:
                    for conn in ends:
                        conn.close()
    left, right = Pipe()  # not TCP: left alone
    try:
        assert cluster_worker.no_delay(left) is left
    finally:
        left.close()
        right.close()


def test_cluster_host_channels_have_nagle_off(cluster2):
    cluster2.min_budget()  # starts the workers
    assert cluster2._nodes and all(_nagle_off(node.conn) for node in cluster2._nodes)


# --------------------------------------------------------------------- #
# Registry / spec / error paths
# --------------------------------------------------------------------- #
def test_cluster_spec_resolves_through_registry():
    executor = repro.make_executor("cluster(workers=3)")
    try:
        assert isinstance(executor, repro.ClusterExecutor)
        assert executor.workers == 3
    finally:
        executor.close()


def test_solve_through_cluster_spec(rng):
    a, b = _system(rng)
    result = repro.solve(
        a, b, algorithm="lupp", tile_size=NB, grid="2x2",
        executor=f"cluster(workers={WORKERS})",
    )
    reference = repro.solve(a, b, algorithm="lupp", tile_size=NB, grid="2x2")
    np.testing.assert_array_equal(result.x, reference.x)


def test_run_requires_binding(cluster2):
    from repro.kernels.dispatch import KernelCall
    from repro.runtime.schedule import KernelTask, build_step_graph

    graph = build_step_graph(
        [KernelTask("x", lambda: None, call=KernelCall("lu.gemm_sweep", args=(0, 2, 1, 2)))]
    )
    with pytest.raises(RuntimeError, match="not bound"):
        cluster2.run(graph)


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError):
        repro.ClusterExecutor(workers=0)


def test_close_is_idempotent():
    executor = repro.ClusterExecutor(workers=1)
    executor.close()
    executor.close()
    with pytest.raises(ClusterError):
        executor.min_budget()


def test_unguarded_script_fails_loudly_instead_of_hanging(tmp_path):
    """Spawned workers re-import the main module; one that starts the
    executor at import time dies before connecting, and start-up must
    name the missing guard instead of waiting in ``accept()`` forever."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import numpy as np\n"
        "import repro\n"
        "executor = repro.ClusterExecutor(workers=2)\n"
        "a = np.eye(16) * 4.0\n"
        "repro.solve(a, np.ones(16), algorithm='lupp', tile_size=4, executor=executor)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "ClusterError" in proc.stderr
    assert 'if __name__ == "__main__":' in proc.stderr


class _AckRefusingConnection:
    """A host end that hung up before the worker acknowledged shutdown."""

    def __init__(self):
        self.sent = []

    def recv(self):
        return ("shutdown",)

    def send(self, msg):
        if msg == ("ack", "shutdown"):
            raise ConnectionResetError("host closed the connection")
        self.sent.append(msg)


def test_worker_treats_a_refused_shutdown_ack_as_a_clean_exit():
    conn = _AckRefusingConnection()
    assert cluster_worker.serve(conn, heartbeat_interval=60.0) is None
    assert [msg[0] for msg in conn.sent] == ["hello"]


def test_workers_exit_cleanly_at_close():
    executor = repro.ClusterExecutor(workers=WORKERS)
    executor.min_budget()  # starts the workers
    processes = [node.process for node in executor._nodes]
    executor.close()
    assert [process.exitcode for process in processes] == [0] * WORKERS


# --------------------------------------------------------------------- #
# Platform message-size model (satellite a)
# --------------------------------------------------------------------- #
def test_platform_prices_actual_message_sizes():
    from repro.runtime.platform import dancer_platform

    platform = dancer_platform()
    assert platform.transfer_time(0) == platform.latency
    assert platform.transfer_time(13) == platform.latency + 13 / platform.bandwidth
    odd = platform.tile_bytes(8, itemsize=3)
    assert odd == 192.0
    with pytest.raises(ValueError):
        platform.transfer_time(-1)
    with pytest.raises(ValueError):
        platform.transfer_time(float("nan"))
    with pytest.raises(ValueError):
        platform.tile_bytes(-1)
    with pytest.raises(ValueError):
        platform.tile_bytes(8, itemsize=0)
    assert platform.allreduce_time(0, 64) == 0.0
    assert platform.allreduce_time(1, 64) == 0.0
    assert platform.allreduce_time(4, 0) > 0.0  # a barrier still pays latency
    with pytest.raises(ValueError):
        platform.allreduce_time(4, -8)
    with pytest.raises(ValueError):
        platform.allreduce_time(-1, 8)


def test_platform_prices_measured_cluster_traffic(rng):
    """The platform prices the executor's *measured* counters directly."""
    from repro.runtime.platform import dancer_platform

    a, b = _system(rng)
    executor = repro.ClusterExecutor(workers=2)
    try:
        _solver("lupp", executor).factor(a, b)
        comm = executor.last_comm
    finally:
        executor.close()
    platform = dancer_platform(ProcessGrid(2, 2))
    priced = (
        (comm.cross_messages + comm.product_messages) * platform.latency
        + (comm.cross_bytes + comm.product_bytes) / platform.bandwidth
    )
    assert priced > 0.0
    # Per-message pricing accepts every measured size, including the
    # 0-byte control traffic of heartbeats/acks.
    for nbytes in (0, comm.cross_bytes, comm.forward_bytes):
        assert platform.transfer_time(nbytes) >= platform.latency
