"""Owner-computes distributed executor over message-passing worker nodes.

:class:`ClusterExecutor` is the multi-node counterpart of
:class:`~repro.runtime.process_executor.ProcessExecutor`: instead of one
shared-memory tile store, every worker node owns the tiles
:meth:`~repro.tiles.distribution.BlockCyclicDistribution.local_tiles`
assigns to its logical ranks, and the host ships exactly the cross-owner
traffic the static placement analyzer predicts.

Placement is *literally* the analyzer's: tasks are placed by
:func:`repro.analysis.placement.assign_owners` (owner-computes on the
effect rule's anchor), cross-owner tile reads are enumerated per constituent
unit via :func:`~repro.analysis.placement.constituent_units` with the
same per-``(ref, dest)`` dedup, products ship once per ``(key, rank)``,
and both are priced in the same :func:`~repro.analysis.placement.ref_bytes`
currency — so the executor's measured :class:`CommStats` are directly
comparable (and, for pure per-tile plans, equal) to the
:class:`~repro.analysis.placement.PlacementSummary` of the same graphs.

The host keeps an authoritative **mirror** of the tile matrix (the
solver's own planning copy): worker ``done`` replies carry the written
tiles back, the mirror is updated immediately, and writes landing on
tiles owned by *another* node are buffered per destination and delivered
with that node's next task message (``forward_*`` counters — physical
traffic the owner-computes model does not charge, reported separately).
Pivot exchanges are gated by the certified diagonal-domain protocol: an
``lu.scatter_factor`` whose rows sit on one non-diagonal rank raises
:class:`PivotProtocolError`; full-panel LUPP exchanges are allowed and
counted.

Fault tolerance: workers heartbeat; on a worker death (EOF or a stale
heartbeat under an in-flight task) its logical ranks are remapped to the
least-loaded survivors, the mirror state they own is re-scattered
(``recovery_*`` counters), and the in-flight task is re-dispatched —
bit-identically, because the mirror still holds the exact pre-task state
and the kernels are deterministic.

Scheduling is the shared :class:`~repro.runtime.executor.DataflowCore`,
with one ready lane per node, picked when a task is pushed; this module is
the transport: connection wait, heartbeats and death recovery.

Admission control: binding a system is rejected with
:class:`MemoryAdmissionError` when the full-size worker tile store
(``order * order * 8 + order * nrhs * 8`` bytes) would exceed any
participating worker's advertised ``memory_budget``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Client, Connection, Listener, wait as conn_wait
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.placement import (
    assign_owners,
    constituent_units,
    owner_of_ref,
    ref_bytes,
    signature_effect,
    task_label,
)
from ..api.registry import register_executor
from ..kernels.dispatch import SigContext
from ..runtime.executor import DataflowCore, ExecutionTrace
from ..runtime.graph import TaskGraph
from ..runtime.process_executor import default_start_method
from ..runtime.task import RHS_COLUMN
from ..tiles.distribution import BlockCyclicDistribution
from ..tiles.tile_matrix import TileMatrix
from . import worker as worker_mod

__all__ = [
    "ClusterExecutor",
    "ClusterError",
    "CommStats",
    "MemoryAdmissionError",
    "PivotProtocolError",
]

TileRef = Tuple[int, int]


class ClusterError(RuntimeError):
    """A cluster-level failure (protocol breach, total worker loss, ...)."""


class MemoryAdmissionError(ClusterError):
    """A system was rejected by admission control.

    Structured: carries the offending worker's name, the bytes the bind
    would require, and the worker's advertised budget.
    """

    def __init__(self, worker: str, required: int, budget: int) -> None:
        super().__init__(
            f"admission control rejected the system: worker {worker!r} advertises "
            f"a budget of {budget} bytes but binding requires {required} bytes"
        )
        self.worker = worker
        self.required = required
        self.budget = budget


class PivotProtocolError(ClusterError):
    """A pivot chain violated the certified diagonal-domain protocol."""

    def __init__(self, message: str, *, step: int, ranks: Sequence[int]) -> None:
        super().__init__(message)
        self.step = step
        self.ranks = tuple(ranks)


@dataclass
class CommStats:
    """Measured communication of one bind/unbind window.

    ``cross_*``/``product_*``/``edge_messages``/``*_pivot_steps`` follow
    the exact counting rules of
    :class:`~repro.analysis.placement.PlacementSummary` (payload items are
    counted as they are serialized, so "predicted == measured" is a real
    wire-level statement).  ``forward_*`` is the write-forwarding traffic
    that keeps owner nodes fresh (kernels writing tiles of other ranks),
    ``recovery_*`` the state re-scattered after a worker death.
    """

    cross_messages: int = 0
    cross_bytes: int = 0
    product_messages: int = 0
    product_bytes: int = 0
    forward_messages: int = 0
    forward_bytes: int = 0
    recovery_messages: int = 0
    recovery_bytes: int = 0
    diagonal_pivot_steps: int = 0
    panel_wide_pivot_steps: int = 0
    retried_tasks: int = 0
    edge_messages: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record_edge(self, src: int, dst: int) -> None:
        self.edge_messages[(src, dst)] = self.edge_messages.get((src, dst), 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cross_messages": self.cross_messages,
            "cross_bytes": self.cross_bytes,
            "product_messages": self.product_messages,
            "product_bytes": self.product_bytes,
            "forward_messages": self.forward_messages,
            "forward_bytes": self.forward_bytes,
            "recovery_messages": self.recovery_messages,
            "recovery_bytes": self.recovery_bytes,
            "diagonal_pivot_steps": self.diagonal_pivot_steps,
            "panel_wide_pivot_steps": self.panel_wide_pivot_steps,
            "retried_tasks": self.retried_tasks,
            "edge_messages": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.edge_messages.items())
            },
        }


@dataclass
class _Node:
    """Host-side view of one worker node."""

    index: int
    conn: Connection
    name: str
    budget: Optional[int]
    process: Any = None  # multiprocessing.Process for locally spawned workers
    alive: bool = True
    last_heartbeat: float = 0.0
    in_flight: Optional[int] = None  # task uid currently executing
    #: Buffered tile updates (write-forwards, recovery state) delivered
    #: with this node's next task message; latest value per ref wins.
    pending_tiles: Dict[TileRef, np.ndarray] = field(default_factory=dict)
    #: Buffered product values (recovery adoption only).
    pending_products: Dict[Any, Any] = field(default_factory=dict)


#: Seconds a starting worker gets to connect and to say hello.
_HELLO_TIMEOUT = 60.0


def _await_worker(listener: Listener, procs: Sequence[Any]) -> None:
    """Wait until a spawned worker connects to ``listener``.

    Raises :class:`ClusterError` as soon as one of ``procs`` exits first,
    or when none connects within the hello timeout; a bare ``accept()``
    would wait forever for a worker that died while starting.  The usual
    death is a main script that starts the executor at import time: the
    forkserver and spawn start methods re-import the main module in every
    worker, where starting processes is refused.
    """
    # Listener has no fileno of its own; wait on its socket and on the
    # workers' exit sentinels together.
    ready = conn_wait(
        [listener._listener._socket] + [proc.sentinel for proc in procs],
        timeout=_HELLO_TIMEOUT,
    )
    if not ready:
        raise ClusterError(f"no cluster worker connected within {_HELLO_TIMEOUT:g}s")
    for proc in procs:
        if proc.exitcode is not None:
            raise ClusterError(
                f"cluster worker {proc.name} exited with code {proc.exitcode} "
                "before connecting; a script that starts a ClusterExecutor "
                'must do so under `if __name__ == "__main__":`, since worker '
                "processes re-import the main module"
            )


def _parse_host(spec: str) -> Tuple[str, int]:
    host, _, port = str(spec).rpartition(":")
    if not host or not port:
        raise ValueError(f"cluster host must be 'HOST:PORT', got {spec!r}")
    return host, int(port)


@register_executor("cluster")
class ClusterExecutor:
    """Distributed owner-computes executor over message-passing workers.

    Parameters
    ----------
    workers:
        Number of worker nodes to spawn locally (ignored when ``hosts``
        is given).  Workers start lazily on first use, so constructing
        the executor — e.g. from a spec — costs nothing.
    hosts:
        TCP endpoints (``"host:port"``) of pre-started
        ``repro-cluster-worker`` processes; connects instead of spawning.
    authkey:
        Connection secret for ``hosts`` mode (must match the workers'
        ``--authkey``).  Locally spawned workers use a random per-executor
        key.
    memory_budget:
        Tile-store budget (bytes) advertised by locally spawned workers;
        drives admission control.  Remote workers advertise their own.
    heartbeat_interval / heartbeat_timeout:
        Worker heartbeat period, and the staleness after which a worker
        with an in-flight task is declared dead and its work retried.
    start_method:
        ``multiprocessing`` start method for local spawns (default:
        forkserver > fork > platform default, matching ProcessExecutor).
    fail_worker_after:
        Fault-injection hook: ``(worker_index, n)`` makes that local
        worker die upon receiving its n-th task, before executing it.
    """

    #: Workers hold (distributed) tile state: the solver binds its tiles
    #: as the host mirror (``bind_tiles``) instead of copying them in.
    distributes_tiles = True

    def __init__(
        self,
        workers: int = 2,
        *,
        hosts: Optional[Sequence[str]] = None,
        authkey: bytes = b"repro-cluster",
        memory_budget: Optional[int] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 10.0,
        start_method: Optional[str] = None,
        fail_worker_after: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.hosts = [str(h) for h in hosts] if hosts else None
        if self.hosts:
            self.workers = len(self.hosts)
        else:
            workers = int(workers)
            if workers < 1:
                raise ValueError(f"cluster needs at least 1 worker, got {workers}")
            self.workers = workers
        self.authkey = bytes(authkey)
        self.memory_budget = memory_budget
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.start_method = start_method
        self.fail_worker_after = fail_worker_after

        self._nodes: List[_Node] = []
        self._started = False
        self._closed = False
        self._bind_lock = threading.Lock()
        self._bound = False
        self._mirror: Optional[TileMatrix] = None
        self._dist: Optional[BlockCyclicDistribution] = None
        self._ctx: Optional[SigContext] = None
        self._rank_node: Dict[int, _Node] = {}
        self._products: Dict[Any, Any] = {}
        self._product_owner: Dict[Any, int] = {}
        self._product_nbytes: Dict[Any, int] = {}
        self._product_shipped: Set[Tuple[Any, int]] = set()
        self.comm = CommStats()
        #: CommStats of the last completed bind/unbind window.
        self.last_comm: Optional[CommStats] = None
        self.last_trace: Optional[ExecutionTrace] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> None:
        if self._closed:
            raise ClusterError("ClusterExecutor is closed")
        if self._started:
            return
        if self.hosts:
            for index, spec in enumerate(self.hosts):
                address = _parse_host(spec)
                conn = worker_mod.no_delay(Client(address, authkey=self.authkey))
                self._nodes.append(self._handshake(index, conn, process=None))
        else:
            authkey = os.urandom(16)
            listener = Listener(("127.0.0.1", 0), authkey=authkey)
            ctx = get_context(self.start_method or default_start_method())
            procs = []
            for index in range(self.workers):
                fail_after = None
                if self.fail_worker_after is not None and index == self.fail_worker_after[0]:
                    fail_after = int(self.fail_worker_after[1])
                proc = ctx.Process(
                    target=worker_mod._spawned_main,
                    args=(
                        listener.address,
                        authkey,
                        index,
                        self.memory_budget,
                        self.heartbeat_interval,
                        fail_after,
                    ),
                    daemon=True,
                    name=f"cluster-w{index}",
                )
                proc.start()
                procs.append(proc)
            nodes: Dict[int, _Node] = {}
            try:
                for _ in range(self.workers):
                    _await_worker(listener, procs)
                    conn = worker_mod.no_delay(listener.accept())
                    node = self._handshake(len(nodes), conn, process=None)
                    nodes[node.index] = node
            except BaseException:
                for node in nodes.values():
                    node.conn.close()
                for proc in procs:
                    proc.terminate()
                    proc.join(timeout=1.0)
                raise
            finally:
                listener.close()
            # Hello order follows connect order, not spawn order: pair
            # each node with its process by the worker id it announced.
            for node in nodes.values():
                node.process = procs[node.index]
            self._nodes = [nodes[i] for i in sorted(nodes)]
        self._started = True

    def _handshake(self, fallback_index: int, conn: Connection, process: Any) -> _Node:
        if not conn.poll(_HELLO_TIMEOUT):
            raise ClusterError(f"cluster worker did not say hello within {_HELLO_TIMEOUT:g}s")
        msg = conn.recv()
        if not (isinstance(msg, tuple) and msg and msg[0] == "hello"):
            raise ClusterError(f"expected a hello from the worker, got {msg!r}")
        _, worker_id, name, budget, _pid = msg
        index = int(worker_id) if self.hosts is None else fallback_index
        return _Node(
            index=index,
            conn=conn,
            name=name if self.hosts is None else f"{name}@{self.hosts[fallback_index]}",
            budget=budget,
            process=process,
            last_heartbeat=time.monotonic(),
        )

    def _live_nodes(self) -> List[_Node]:
        return [node for node in self._nodes if node.alive]

    def min_budget(self) -> Optional[int]:
        """Smallest advertised worker budget, or ``None`` when unlimited.

        Admission at bind time checks the tile store against each
        participating worker's own budget; this is the tightest of them.
        """
        self._ensure_started()
        budgets = [node.budget for node in self._live_nodes() if node.budget is not None]
        return min(budgets) if budgets else None

    def kill_worker(self, index: int) -> None:
        """Terminate a locally spawned worker (fault-injection helper)."""
        self._ensure_started()
        node = self._nodes[index]
        if node.process is None:
            raise ClusterError(
                "kill_worker requires locally spawned workers; remote hosts "
                "must be killed out-of-band"
            )
        node.process.terminate()
        # Join so the death is observable immediately: the next bind's
        # dead-worker sweep (or the run loop's EOF) sees a dead process, not
        # a SIGTERM still in flight.
        node.process.join(timeout=10.0)

    def close(self) -> None:
        """Shut every worker down and drop the connections.  Idempotent."""
        if self._started:
            for node in self._live_nodes():
                try:
                    node.conn.send(("shutdown",))
                except (OSError, ValueError):
                    pass
            for node in self._nodes:
                try:
                    node.conn.close()
                except OSError:
                    pass
                if node.process is not None:
                    node.process.join(timeout=5.0)
                    if node.process.is_alive():
                        node.process.terminate()
                        node.process.join(timeout=1.0)
                node.alive = False
            self._nodes = []
            self._started = False
        self._closed = True

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Binding (scatter + admission control)
    # ------------------------------------------------------------------ #
    def bind_tiles(self, tiles: TileMatrix, dist: BlockCyclicDistribution) -> None:
        """Admit the system, scatter owned tiles, and open a comm window.

        Holds an exclusive bind lock until :meth:`unbind_tiles` so
        concurrent factorizations serialize instead of corrupting each
        other's distributed state (the in-memory executors interleave
        freely; a cluster's tile stores cannot).
        """
        self._bind_lock.acquire()
        try:
            self._ensure_started()
            # Dead-worker sweep: a locally spawned worker killed between runs
            # (kill_worker, OOM, ...) is culled here so the system binds to
            # the survivors instead of timing out on a dead node's ack.
            for node in self._live_nodes():
                if node.process is not None and not node.process.is_alive():
                    node.alive = False
                    try:
                        node.conn.close()
                    except OSError:
                        pass
            live = self._live_nodes()
            if not live:
                raise ClusterError("no live cluster workers to bind to")
            nrhs = int(tiles.rhs.shape[1]) if tiles.has_rhs else 0
            order = tiles.n * tiles.nb
            required = order * order * 8 + order * nrhs * 8
            rank_node = {
                rank: live[rank % len(live)] for rank in range(dist.grid.size)
            }
            used = {node.index: node for node in rank_node.values()}
            for node in used.values():
                if node.budget is not None and required > node.budget:
                    raise MemoryAdmissionError(node.name, required, node.budget)

            for node in used.values():
                payload = self._owned_payload(
                    tiles, dist, [r for r, nd in rank_node.items() if nd is node]
                )
                node.conn.send(("bind", tiles.n, tiles.nb, nrhs, payload))
            for node in used.values():
                self._expect_ack(node, "bind")

            self._mirror = tiles
            self._dist = dist
            self._ctx = SigContext(n=tiles.n, nb=tiles.nb, nrhs=nrhs)
            self._rank_node = rank_node
            self._products = {}
            self._product_owner = {}
            self._product_nbytes = {}
            self._product_shipped = set()
            self.comm = CommStats()
            for node in self._nodes:
                node.pending_tiles = {}
                node.pending_products = {}
                node.in_flight = None
            self._bound = True
        except BaseException:
            self._bind_lock.release()
            raise

    def unbind_tiles(self) -> None:
        """Close the comm window and drop worker-side state."""
        try:
            for node in self._live_nodes():
                try:
                    node.conn.send(("unbind",))
                except (OSError, ValueError):
                    node.alive = False
            for node in self._live_nodes():
                try:
                    self._expect_ack(node, "unbind")
                except ClusterError:
                    node.alive = False
        finally:
            self.last_comm = self.comm
            self._mirror = None
            self._dist = None
            self._ctx = None
            self._rank_node = {}
            self._products = {}
            self._product_owner = {}
            self._product_nbytes = {}
            self._product_shipped = set()
            self._bound = False
            self._bind_lock.release()

    def _owned_payload(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, ranks: Sequence[int]
    ) -> List[Tuple[int, int, np.ndarray]]:
        payload: List[Tuple[int, int, np.ndarray]] = []
        for rank in ranks:
            for (i, j) in dist.local_tiles(rank):
                payload.append((i, j, tiles.tile(i, j)))
            if tiles.has_rhs:
                for i in range(tiles.n):
                    if dist.rhs_owner(i) == rank:
                        payload.append((i, RHS_COLUMN, tiles.rhs_tile(i)))
        return payload

    def _expect_ack(self, node: _Node, what: str) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not node.conn.poll(remaining):
                raise ClusterError(f"worker {node.name} did not ack {what!r}")
            try:
                msg = node.conn.recv()
            except (EOFError, OSError):
                raise ClusterError(
                    f"worker {node.name} died while acking {what!r}"
                ) from None
            if msg[0] == "hb":
                node.last_heartbeat = time.monotonic()
                continue
            if msg == ("ack", what):
                return
            raise ClusterError(f"worker {node.name}: expected ack {what!r}, got {msg!r}")

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, graph: TaskGraph, timeout: Optional[float] = None) -> ExecutionTrace:
        """Execute one step's task graph across the worker nodes."""
        trace = ExecutionTrace()
        self.last_trace = trace
        tasks = graph.tasks
        if not tasks:
            return trace
        if not self._bound:
            raise RuntimeError(
                "ClusterExecutor is not bound to a tile matrix; a tiled "
                "solver calls bind_tiles() before running task graphs"
            )
        flow = DataflowCore(graph, trace, needs_calls="ClusterExecutor")
        ctx = self._ctx
        effects = {task.uid: signature_effect(task, ctx) for task in tasks}
        assign_owners([graph], self._dist, ctx)
        # One ready lane per node, picked when a task is pushed: after a
        # death remaps ranks, re-pushed tasks land on the adopting node.
        flow.start(lane=lambda uid: self._rank_node[tasks[uid].owner].index)
        t_begin = time.perf_counter()
        deadline = time.monotonic() + timeout if timeout is not None else None

        def in_flight() -> List[_Node]:
            return [n for n in self._live_nodes() if n.in_flight is not None]

        def pump() -> None:
            for node in self._live_nodes():
                while node.in_flight is None:
                    uid = flow.pop(node.index)
                    if uid is None:
                        break
                    try:
                        self._dispatch(node, tasks[uid], effects[uid])
                    except (OSError, ValueError, BrokenPipeError):
                        # The worker died mid-send: declare it dead (which
                        # requeues its ranks onto survivors) and retry.
                        self._handle_death(node, flow)
                        flow.retry(uid)
                        self.comm.retried_tasks += 1
                        break

        pump()
        while True:
            flying = in_flight()
            if not flying:
                if flow.settled:
                    break
                if not self._live_nodes():
                    raise ClusterError("all cluster workers died")
                pump()
                if not in_flight():
                    break  # ready tasks exist but none dispatchable
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"cluster execution exceeded the {timeout}s timeout with "
                    f"{len(trace.finish_times)}/{len(tasks)} tasks finished"
                )
            conns = {node.conn: node for node in flying}
            for ready_conn in conn_wait(list(conns), timeout=0.2):
                node = conns[ready_conn]
                try:
                    msg = node.conn.recv()
                except (EOFError, OSError):
                    self._handle_death(node, flow)
                    continue
                kind = msg[0]
                if kind == "hb":
                    node.last_heartbeat = time.monotonic()
                elif kind == "done":
                    self._finish(node, msg, flow, effects)
                else:
                    error = msg[2] if kind == "error" else ClusterError(
                        f"unexpected worker message {msg!r}"
                    )
                    flow.failed(node.in_flight, error)
                    node.in_flight = None
            now = time.monotonic()
            for node in in_flight():
                if now - node.last_heartbeat > self.heartbeat_timeout:
                    self._handle_death(node, flow)
            pump()

        trace.wall_time = time.perf_counter() - t_begin
        flow.check_complete()
        return trace

    # ------------------------------------------------------------------ #
    # Dispatch / completion / recovery
    # ------------------------------------------------------------------ #
    def _mirror_value(self, ref: TileRef) -> np.ndarray:
        if ref[1] == RHS_COLUMN:
            return self._mirror.rhs_tile(ref[0])
        return self._mirror.tile(*ref)

    def _dispatch(self, node: _Node, task, effect) -> None:
        """Ship one task: buffered updates, cross reads, products, run it."""
        ctx = self._ctx
        dist = self._dist
        call = task.call
        exec_rank = task.owner
        if call.kernel == "lu.scatter_factor":
            self._check_pivot_protocol(task, call)

        # Logical cross-owner tile messages — the analyzer's exact rules:
        # per constituent unit, deduplicated per (ref, dest) within the task.
        fetched: Set[Tuple[TileRef, int]] = set()
        payload_refs: List[TileRef] = []
        for unit in constituent_units(task, effect):
            dest = owner_of_ref(unit.anchor, dist)
            for ref in unit.reads:
                if ref == unit.anchor:
                    continue
                src = owner_of_ref(ref, dist)
                if src == dest or (ref, dest) in fetched:
                    continue
                fetched.add((ref, dest))
                payload_refs.append(ref)
                self.comm.cross_messages += 1
                self.comm.cross_bytes += ref_bytes(ref, ctx)
                self.comm.record_edge(src, dest)

        # Physical completeness: a multi-owner sweep executes wholly on
        # `node`, so reads the placement model charged to *other* units'
        # owners must still physically reach this node (forward traffic).
        shipped = set(payload_refs)
        extra_refs: List[TileRef] = []
        for ref in sorted(task.reads):
            if ref in shipped:
                continue
            if self._rank_node[owner_of_ref(ref, dist)] is node:
                continue
            extra_refs.append(ref)
            self.comm.forward_messages += 1
            self.comm.forward_bytes += ref_bytes(ref, ctx)

        # Buffered write-forwards/recovery state ride first so fresher
        # mirror values shipped below win on overlap.
        payload: List[Tuple[int, int, np.ndarray]] = [
            (ref[0], ref[1], value) for ref, value in node.pending_tiles.items()
        ]
        node.pending_tiles = {}
        for ref in itertools.chain(payload_refs, extra_refs):
            payload.append((ref[0], ref[1], np.array(self._mirror_value(ref))))

        # Product flow: one ship per (key, consuming rank), like the analyzer.
        products: List[Tuple[Any, Any]] = [
            (key, value) for key, value in node.pending_products.items()
        ]
        node.pending_products = {}
        for key in call.consumes:
            src = self._product_owner.get(key)
            if src is None:
                raise ClusterError(
                    f"{task_label(task)} consumes {key!r} before any task produced it"
                )
            if src == exec_rank or (key, exec_rank) in self._product_shipped:
                continue
            self._product_shipped.add((key, exec_rank))
            products.append((key, self._products[key]))
            self.comm.product_messages += 1
            self.comm.product_bytes += self._product_nbytes.get(key, 0)
            self.comm.record_edge(src, exec_rank)

        want_writes = tuple(sorted(task.writes))
        node.conn.send(("task", task.uid, call, payload, products, want_writes))
        node.in_flight = task.uid

    def _finish(
        self, node: _Node, msg: Tuple[Any, ...], flow: DataflowCore, effects
    ) -> None:
        """Apply one ``done`` reply and release the task's successors."""
        _, uid, product, writes, start, finish, worker_name = msg
        node.in_flight = None
        task = flow.tasks[uid]
        call = task.call
        trace = flow.trace
        flow.started(uid, start, worker_name)
        trace.rank_of_task[uid] = task.owner

        # The mirror is authoritative: install the written tiles, and buffer
        # forwards for tiles owned by ranks living on other nodes.
        for i, j, value in writes:
            self._mirror_value((i, j))[...] = value
            owner_node = self._rank_node[owner_of_ref((i, j), self._dist)]
            if owner_node is not node and owner_node.alive:
                owner_node.pending_tiles[(i, j)] = value
                self.comm.forward_messages += 1
                self.comm.forward_bytes += ref_bytes((i, j), self._ctx)

        if call.produces is not None:
            self._products[call.produces] = product
            self._product_owner[call.produces] = task.owner
            self._product_nbytes[call.produces] = effects[uid].product_bytes
        flow.finished(uid, finish)

    def _check_pivot_protocol(self, task, call) -> None:
        """Gate pivot exchanges by the certified diagonal-domain protocol."""
        dist = self._dist
        k, rows, _factor = call.args
        rows = list(rows)
        owners = {dist.owner(i, k) for i in rows}
        if len(owners) == 1:
            if owners == {dist.diagonal_owner(k)}:
                self.comm.diagonal_pivot_steps += 1
                return
            raise PivotProtocolError(
                f"{task_label(task)}: pivot chain of step {k} runs on rank "
                f"{next(iter(owners))}, not the diagonal owner {dist.diagonal_owner(k)}",
                step=k,
                ranks=sorted(owners),
            )
        if rows == dist.panel_rows(k):
            # Deliberate panel-wide LUPP exchange: allowed, counted.
            self.comm.panel_wide_pivot_steps += 1
            return
        raise PivotProtocolError(
            f"{task_label(task)}: pivot chain of step {k} spans rows {rows} owned "
            f"by ranks {sorted(owners)} — neither diagonal-domain nor full-panel",
            step=k,
            ranks=sorted(owners),
        )

    def _handle_death(self, node: _Node, flow: DataflowCore) -> None:
        """Declare a node dead; remap its ranks and requeue its work."""
        if not node.alive:
            return
        node.alive = False
        try:
            node.conn.close()
        except OSError:
            pass
        if node.process is not None:
            node.process.terminate()
            node.process.join(timeout=5.0)
        survivors = self._live_nodes()
        if not survivors:
            raise ClusterError(
                "all cluster workers died; nothing left to retry tasks on"
            )

        moved = [rank for rank, nd in self._rank_node.items() if nd is node]
        for rank in moved:
            target = min(
                survivors,
                key=lambda nd: sum(1 for x in self._rank_node.values() if x is nd),
            )
            self._rank_node[rank] = target
        moved_set = set(moved)
        # Products shipped *to* a moved rank lived on the dead node: forget,
        # so the next consume re-ships them to the adopting node.
        self._product_shipped = {
            (key, dst) for (key, dst) in self._product_shipped if dst not in moved_set
        }

        # Adoption: re-scatter the mirror state the moved ranks own (plus
        # the products they produced) to their new homes, buffered onto the
        # next task message like any other forward.
        if self._bound and self._mirror is not None:
            mirror = self._mirror
            for rank in moved:
                target = self._rank_node[rank]
                for ref in self._dist.local_tiles(rank):
                    target.pending_tiles[ref] = np.array(self._mirror_value(ref))
                    self.comm.recovery_messages += 1
                    self.comm.recovery_bytes += ref_bytes(ref, self._ctx)
                if mirror.has_rhs:
                    for i in range(mirror.n):
                        if self._dist.rhs_owner(i) == rank:
                            ref = (i, RHS_COLUMN)
                            target.pending_tiles[ref] = np.array(self._mirror_value(ref))
                            self.comm.recovery_messages += 1
                            self.comm.recovery_bytes += ref_bytes(ref, self._ctx)
                for key, owner in self._product_owner.items():
                    if owner == rank:
                        target.pending_products[key] = self._products[key]
                        self.comm.recovery_messages += 1
                        self.comm.recovery_bytes += self._product_nbytes.get(key, 0)

        # The in-flight task never executed against the mirror (writes apply
        # on `done` only), so re-dispatching it on a survivor is bit-identical.
        if node.in_flight is not None:
            uid = node.in_flight
            node.in_flight = None
            self.comm.retried_tasks += 1
            flow.retry(uid)
        # Ready tasks queued on the dead node re-home to the adopted ranks.
        flow.reroute(node.index)
