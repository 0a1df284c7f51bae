"""Cluster worker: one node of the distributed owner-computes executor.

A worker is a plain process (spawned locally by
:class:`~repro.cluster.executor.ClusterExecutor` or started out-of-band on
a remote host via the ``repro-cluster-worker`` console script) that holds
the *local* tile store of one cluster node and executes the kernel tasks
the host dispatches to it.

The wire protocol is a sequence of picklable tuples over a
:mod:`multiprocessing.connection` channel: an authenticated TCP socket,
over loopback for locally spawned workers, with Nagle's algorithm off
(:func:`no_delay`):

Host → worker
    ``("bind", n, nb, nrhs, tiles)``
        Allocate a full-size zero tile store of ``n`` tiles of order
        ``nb`` (plus an ``n*nb x nrhs`` RHS block when ``nrhs > 0``) and
        scatter the listed owned tiles into it.  Answered by
        ``("ack", "bind")``.
    ``("task", uid, call, tiles, products, want_writes)``
        Refresh the listed tiles/products (cross-owner fetches, buffered
        write-forwards and recovery state ride together here), execute
        ``call`` against the local store, and reply ``done`` with the
        tiles of ``want_writes`` read back out.
    ``("unbind",)``
        Drop the tile store and the product cache.  Answered by
        ``("ack", "unbind")``.
    ``("shutdown",)``
        Acknowledge (when the host is still listening) and return from
        the serve loop.

Worker → host
    ``("hello", worker_id, name, memory_budget, pid)`` once on connect
    (the advertised ``memory_budget`` drives the host's admission
    control), ``("hb",)`` heartbeats from a daemon thread, and per task
    either ``("done", uid, result, writes, start, finish, name)``
    or ``("error", uid, exception)``.

Tile payload entries are ``(i, j, ndarray)`` with ``j ==``
:data:`~repro.runtime.task.RHS_COLUMN` meaning the RHS tile of row
``i``.  The written tiles shipped back in ``done`` keep the host's
mirror current after every task, so the host reads each step's growth
norms from its own mirror once the step's graph has run.

Fault injection: ``fail_after_tasks=N`` makes the worker call
``os._exit`` upon *receiving* its N-th task message, before executing
it.  Dying pre-execution (instead of racing a ``terminate()`` against
the done reply) makes the host's retry path deterministic to test.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from multiprocessing.connection import Client, Connection, Listener
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.dispatch import KERNELS
from ..runtime.task import RHS_COLUMN
from ..tiles.tile_matrix import TileMatrix

__all__ = ["serve", "serve_listener", "main", "no_delay"]

TilePayload = Sequence[Tuple[int, int, np.ndarray]]


def no_delay(conn: Connection) -> Connection:
    """Turn Nagle's algorithm off on a TCP connection and return it.

    :mod:`multiprocessing.connection` writes a message larger than 16 KiB
    as two writes, the length header and then the body.  With Nagle on,
    the body waits for the ACK of the header, which the peer's delayed ACK
    holds back for up to 40 ms, so every task or reply carrying a few tiles
    stalled.  Both ends of every cluster channel call this.
    """
    with socket.socket(fileno=os.dup(conn.fileno())) as sock:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _apply_tiles(tiles: TileMatrix, payload: TilePayload) -> None:
    """Install shipped tile values into the local store."""
    for i, j, value in payload:
        if j == RHS_COLUMN:
            tiles.rhs_tile(i)[...] = value
        else:
            tiles.set_tile(i, j, value)


def _read_writes(
    tiles: TileMatrix, refs: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int, np.ndarray]]:
    """Copy the post-kernel values of the written tiles for the reply."""
    out: List[Tuple[int, int, np.ndarray]] = []
    for i, j in refs:
        if j == RHS_COLUMN:
            out.append((i, j, np.array(tiles.rhs_tile(i))))
        else:
            out.append((i, j, np.array(tiles.tile(i, j))))
    return out


def serve(
    conn: Connection,
    *,
    worker_id: int = 0,
    memory_budget: Optional[int] = None,
    heartbeat_interval: float = 0.25,
    fail_after_tasks: Optional[int] = None,
) -> None:
    """Serve one host connection until ``shutdown`` or EOF.

    Single-threaded with respect to kernel execution; a daemon thread
    emits heartbeats under a send lock so ``done`` replies and ``hb``
    messages never interleave mid-pickle on the wire.
    """
    name = f"cluster-w{worker_id}"
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(msg: Any) -> None:
        with send_lock:
            conn.send(msg)

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send(("hb",))
            except (OSError, ValueError):
                return

    send(("hello", worker_id, name, memory_budget, os.getpid()))
    hb_thread = threading.Thread(target=heartbeat, name=f"{name}-hb", daemon=True)
    hb_thread.start()

    tiles: Optional[TileMatrix] = None
    products: Dict[Any, Any] = {}
    tasks_seen = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "bind":
                _, n, nb, nrhs, payload = msg
                rhs = np.zeros((n * nb, nrhs)) if nrhs else None
                tiles = TileMatrix(np.zeros((n * nb, n * nb)), nb, rhs=rhs)
                products = {}
                _apply_tiles(tiles, payload)
                send(("ack", "bind"))
            elif kind == "unbind":
                tiles = None
                products = {}
                send(("ack", "unbind"))
            elif kind == "shutdown":
                # The host may close its end without reading the ack; a
                # worker told to stop has nothing left to report.
                try:
                    send(("ack", "shutdown"))
                except (OSError, ValueError):
                    pass
                return
            elif kind == "task":
                _, uid, call, tile_payload, product_payload, want_writes = msg
                tasks_seen += 1
                if fail_after_tasks is not None and tasks_seen >= fail_after_tasks:
                    # Simulated crash: die before executing, so the host's
                    # mirror still holds the exact pre-task state and the
                    # retry on a survivor is bit-identical by construction.
                    os._exit(17)
                if tiles is None:
                    send(("error", uid, RuntimeError("worker received a task while unbound")))
                    continue
                try:
                    _apply_tiles(tiles, tile_payload)
                    for key, value in product_payload:
                        products[key] = value
                    op = KERNELS[call.kernel]
                    inputs = tuple(products[key] for key in call.consumes)
                    start = time.perf_counter()
                    result = op(tiles, inputs, *call.args)
                    finish = time.perf_counter()
                    if call.produces is not None:
                        products[call.produces] = result
                    writes = _read_writes(tiles, want_writes)
                    reply = result if call.produces is not None else None
                    send(("done", uid, reply, writes, start, finish, name))
                except Exception as exc:  # noqa: BLE001 - forwarded to the host
                    try:
                        send(("error", uid, exc))
                    except Exception:
                        # The exception itself failed to pickle; ship a
                        # plain summary instead of dying silently.
                        send(("error", uid, RuntimeError(f"{type(exc).__name__}: {exc}")))
            else:
                send(("error", None, RuntimeError(f"unknown cluster message {kind!r}")))
    finally:
        stop.set()


def serve_listener(
    listener: Listener,
    *,
    worker_id: int = 0,
    memory_budget: Optional[int] = None,
    heartbeat_interval: float = 0.25,
) -> None:
    """Accept one host connection on ``listener`` and serve it to completion.

    This is the ``hosts=`` mode entry point: the worker is started first
    (out-of-band), listens on a TCP endpoint, and the
    :class:`~repro.cluster.executor.ClusterExecutor` connects in.
    """
    conn = no_delay(listener.accept())
    try:
        serve(
            conn,
            worker_id=worker_id,
            memory_budget=memory_budget,
            heartbeat_interval=heartbeat_interval,
        )
    finally:
        conn.close()


def _spawned_main(
    address: Any,
    authkey: bytes,
    worker_id: int,
    memory_budget: Optional[int],
    heartbeat_interval: float,
    fail_after_tasks: Optional[int],
) -> None:
    """Entry point of locally spawned workers: connect back to the host."""
    conn = no_delay(Client(address, authkey=authkey))
    try:
        serve(
            conn,
            worker_id=worker_id,
            memory_budget=memory_budget,
            heartbeat_interval=heartbeat_interval,
            fail_after_tasks=fail_after_tasks,
        )
    finally:
        conn.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI of the ``repro-cluster-worker`` console script.

    Starts a worker that listens on ``--listen host:port`` for one
    ClusterExecutor connection, serves it, and exits.  Point the
    executor at it with ``cluster(hosts=["host:port", ...])`` and the
    matching ``--authkey``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="Serve one node of the repro distributed cluster executor.",
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="TCP endpoint to listen on (port 0 picks a free port and prints it)",
    )
    parser.add_argument(
        "--authkey",
        default="repro-cluster",
        help="shared connection secret; must match the executor's authkey",
    )
    parser.add_argument("--worker-id", type=int, default=0, help="advertised worker id")
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="advertised tile-store budget used by the host's admission control",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="SECONDS"
    )
    args = parser.parse_args(argv)

    host, _, port = args.listen.rpartition(":")
    if not host or not port:
        parser.error(f"--listen must be HOST:PORT, got {args.listen!r}")
    listener = Listener((host, int(port)), authkey=args.authkey.encode())
    try:
        bound = listener.address
        print(f"repro-cluster-worker {args.worker_id} listening on {bound[0]}:{bound[1]}")
        serve_listener(
            listener,
            worker_id=args.worker_id,
            memory_budget=args.memory_budget,
            heartbeat_interval=args.heartbeat_interval,
        )
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
