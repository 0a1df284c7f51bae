"""Workload table and the untraced phases that produce the end-to-end metrics.

Every workload is a closed loop with one client: the next op starts when the
previous one has resolved.  All of them run ``algorithm="hybrid"`` under the
Max criterion with an ``alpha`` at which Gaussian matrices take both LU and
QR steps.  Which steps a matrix takes depends on its entries, and a QR step
costs several times an LU step here, so one matrix's solve time says little
about the next one's.  A run therefore measures a **ring** of seeded inputs
(systems, right-hand sides, bursts, schedule positions) round after round for
``--seconds``: every position is timed once per round, i.e. at moments that
lie a whole round apart, and counts with the **best** of its times.  Foreign
load on a shared host only ever adds time, and a burst of it rarely hits the
same position in every round, so the best-of-rounds time of a position is the
program's own; the median over the ring's positions is an estimate of the
population median and is steady from seed to seed.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.runtime.process_executor import shutdown_worker_pools

from e2e_stats import Metrics, tail

#: HPL's own pass threshold for the HPL3 backward error (healthy runs sit near 1e-3).
HPL3_LIMIT = 16.0
#: Largest accepted relative difference to ``numpy.linalg.solve``.
LAPACK_TOLERANCE = 1e-6
#: The churn workload's popularity schedule is part of the workload, not of
#: the seeded input: with the schedule drawn from the run's seed the miss
#: share (and with it requests/s) swings by ~10 % between seeds, which is
#: noise about the schedule, not about the program.
SCHEDULE_SEED = 20140519
SCHEDULE_LENGTH = 6000
ZIPF_EXPONENT = 1.1
BURST = 32


#: Bursts per round of ``serve_warm``'s second phase.
BURST_RING = 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "serve_warm" | "serve_churn"
    n: int
    spec: Dict[str, Any]
    smoke_n: int
    smoke_tile: int
    #: Positions of the measured ring, sized so that about three rounds fit a run.
    ring: int
    why: str
    #: Set-ups per run (their median is ``setup_s``) and warm-up ops per set-up.
    setup_reps: int = 3
    warmups: int = 1
    #: Factorizations the traced phase instruments (fixed, so counts repeat; in
    #: multiples of three where affordable, see ``trace_solve``).
    traced_ops: int = 3
    #: ``repro.solve`` builds the solver on every call (the one-shot facade).
    facade: bool = False
    matrices: int = 1
    capacity: Optional[int] = None

    def sized(self, scale: str):
        if scale == "smoke":
            return self.smoke_n, {**self.spec, "tile_size": self.smoke_tile}
        return self.n, dict(self.spec)


def _hybrid(tile_size: int, alpha: int, **more: Any) -> Dict[str, Any]:
    return dict(
        algorithm="hybrid", tile_size=tile_size, criterion=f"max(alpha={alpha})", **more
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "oneshot_kernel", "solve", 1024, _hybrid(128, 500), 128, 32, 16,
            facade=True, traced_ops=6,
            why="kernel-bound: 8x8 tiles, ~350 tasks, ~80% of the wall inside kernel bodies; "
            "panel-kernel or BLAS-level wins show here, overhead-only changes should not",
        ),
        Workload(
            "oneshot_overhead", "solve", 512, _hybrid(16, 50), 64, 8, 20,
            facade=True, traced_ops=6,
            why="Python-overhead-bound: 32x32 tiles, ~14k planned tasks, ~58k tile accessor "
            "calls, tiny BLAS calls; planner, accessor and task-form changes show here",
        ),
        # The dataflow path with no thread in it.  Every task of the threaded and
        # process executors is handed to a sleeping worker and back, so their solve
        # time follows the host's wake-up latency: on a busy shared host
        # dataflow_threaded ran 20 % slower and spread by 25 % from run to run.
        Workload(
            "dataflow_sequential", "solve", 768,
            _hybrid(64, 200, executor="sequential"), 128, 32, 20, traced_ops=6,
            why="StepPipeline builds TaskGraphs, infers dependencies and assigns priorities, and "
            "the sequential executor runs them in the calling thread; inline workloads bypass it all",
        ),
        # One worker thread, not two: two GIL-bound workers on two virtual cores fall
        # in and out of a ~30 % slower regime for tens of seconds (the OS co-locates
        # threads that hand one lock back and forth), which no run length averages
        # out.  The two-worker cost is tracked as runtime.threads2_vs_1_ratio.
        Workload(
            "dataflow_threaded", "solve", 768,
            _hybrid(64, 200, executor="threaded(workers=1)"), 128, 32, 20, traced_ops=6,
            why="the same graphs on a ready-heap dispatch loop that hands every task to a "
            "worker thread; dataflow_sequential shares the graph building, not the dispatch",
        ),
        Workload(
            "dataflow_procs", "solve", 768,
            _hybrid(64, 200, executor="processes(workers=2)"), 128, 32, 10,
            why="same graphs, other transport: shared-memory tile buffer, KernelCall "
            "pickling, pool IPC; separates scheduler-core gains from transport gains",
        ),
        Workload(
            "offbox_cluster", "solve", 256,
            _hybrid(32, 200, executor="cluster(workers=2)", grid="2x1"), 64, 16, 3,
            setup_reps=2, warmups=0, traced_ops=1,
            why="comm-bound: workers are busy <2% of the wall, message counts and bytes "
            "repeat exactly; nothing else in the suite touches repro.cluster",
        ),
        Workload(
            "serve_warm", "serve_warm", 1024, _hybrid(128, 500), 128, 32, 500, traced_ops=1,
            why="read path of the serving tier: cache hit, transform @ b, back-substitution, "
            "stability report per column; kernels and planners do no work when warm",
        ),
        Workload(
            "serve_churn", "serve_churn", 256, _hybrid(32, 200), 64, 16, 1200,
            matrices=12, capacity=8, traced_ops=400,
            why="working set (12 matrices) exceeds the cache (8): [A|I] factorizations, "
            "inserts and LRU evictions beside hits, on a fixed Zipf(1.1) schedule",
        ),
    )
}


def zipf_schedule(matrices: int) -> np.ndarray:
    """The fixed popularity schedule of ``serve_churn`` (matrix index per request)."""
    weights = 1.0 / np.arange(1, matrices + 1) ** ZIPF_EXPONENT
    rng = np.random.default_rng(SCHEDULE_SEED)
    return rng.choice(matrices, size=SCHEDULE_LENGTH, p=weights / weights.sum())


def children_peak_rss_kb() -> int:
    """Largest resident-set high-water mark among the live child processes."""
    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass  # the child exited between the listing and the read
    return peak


def ring_times(samples: Iterable[Tuple[int, float]]) -> List[List[float]]:
    """The times of every ring position that has any, in ring order."""
    times: Dict[int, List[float]] = {}
    for position, elapsed in samples:
        times.setdefault(position, []).append(elapsed)
    return [times[position] for position in sorted(times)]


def best_times(samples: Iterable[Tuple[int, float]]) -> List[float]:
    return [min(times) for times in ring_times(samples)]


def put_latencies(metrics: Metrics, samples: Iterable[Tuple[int, float]]) -> List[float]:
    """``solve_s`` and its companions from ``(position, time)`` samples; returns
    the positions' best times."""
    times = ring_times(samples)
    best = [min(ts) for ts in times]
    metrics.put_samples("solve_s", best)
    label, value = tail(best)
    metrics.put("solve_tail_s", value, "s")
    metrics["solve_tail_s"].update(percentile=label, n=len(best))
    # How far a position's times lie above its best one: foreign load, or an
    # op that is erratic by itself (which the best-of-rounds metrics cannot see).
    metrics.put(
        "solve_disturbance_share", statistics.median(statistics.mean(ts) / min(ts) - 1.0 for ts in times), "share"
    )
    return best


class Driver:
    """Inputs, op accounting and verification shared by the three kinds, each
    of which adds ``setup()``, ``measure(seconds, metrics)`` and ``teardown()``."""

    def __init__(self, workload: Workload, scale: str, seed: int) -> None:
        self.w = workload
        self.smoke = scale == "smoke"
        self.n, self.spec = workload.sized(scale)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: First result of each set-up: a never-seen matrix on a fresh solver/service.
        self.cold: List[float] = []
        self.child_rss_kb = 0
        self.info: Dict[str, Any] = {}

    # -- inputs -------------------------------------------------------- #
    def matrix(self) -> np.ndarray:
        return self.rng.standard_normal((self.n, self.n))

    def rhs(self) -> np.ndarray:
        return self.rng.standard_normal(self.n)

    def ring_rng(self, position: int, stream: int = 0) -> np.random.Generator:
        """The generator of one ring position: the same inputs in every round."""
        return np.random.default_rng([self.seed, 1 + stream, position])

    # -- accounting ---------------------------------------------------- #
    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def verify(self, a: np.ndarray, bs: Sequence, xs: Sequence, hpl3s: Sequence) -> List[bool]:
        """Check solutions of ``a`` against LAPACK and the HPL3 threshold."""
        ref = np.linalg.solve(a, np.column_stack(bs))
        err = np.linalg.norm(np.column_stack(xs) - ref, axis=0) / np.linalg.norm(ref, axis=0)
        ok = []
        for j, hpl3 in enumerate(hpl3s):
            good = bool(hpl3 < HPL3_LIMIT and err[j] < LAPACK_TOLERANCE)
            if not good:
                self.fail(f"hpl3={hpl3:.3g} lapack_rel_diff={err[j]:.3g}")
            ok.append(good)
        return ok

    def check(self, a: np.ndarray, b: np.ndarray, result) -> bool:
        """Count and verify one single-RHS ``SolveResult``."""
        self.attempted += 1
        return self.verify(a, [b], [result.x], [result.hpl3])[0]

    def rounds(self, ring: int, op: Callable[[int], Any], seconds: float) -> List[Tuple[int, Any]]:
        """Run ``op(0) ... op(ring - 1)`` round after round until ``seconds`` are
        over, and for two full rounds at least (smoke: one), so that every
        position has times to choose from.  Returns ``(position, outcome)`` of
        every op that returned one."""
        done: List[Tuple[int, Any]] = []
        full_rounds = 0
        start = time.perf_counter()
        while True:
            for position in range(ring):
                if full_rounds >= (1 if self.smoke else 2) and time.perf_counter() - start >= seconds:
                    self.info["rounds"] = full_rounds + position / ring
                    return done
                if self.failed > 10 + self.attempted // 2:
                    raise RuntimeError(f"giving up, ops keep failing: {self.failures[:3]}")
                outcome = op(position)
                if outcome is not None:
                    done.append((position, outcome))
            full_rounds += 1

    def stop_workers(self, executor: Any = None) -> None:
        """Stop every worker process and wait for it (sampling its peak RSS first)."""
        self.child_rss_kb = max(self.child_rss_kb, children_peak_rss_kb())
        close = getattr(executor, "close", None)
        if close is not None:
            close()
        shutdown_worker_pools()
        for child in multiprocessing.active_children():
            child.join(30)


class SolveDriver(Driver):
    """``repro.solve(a, b, ...)`` or a prebuilt ``solver.solve(a, b)``."""

    solver = None
    last = None

    def solve(self, a: np.ndarray, b: np.ndarray):
        if self.solver is None:
            return repro.solve(a, b, **self.spec)
        return self.solver.solve(a, b)

    def timed_op(self, rng: Optional[np.random.Generator] = None) -> Optional[float]:
        """One verified solve of a system drawn from ``rng`` (default: a fresh
        one); its wall time, or None if it failed."""
        rng = self.rng if rng is None else rng
        a, b = rng.standard_normal((self.n, self.n)), rng.standard_normal(self.n)
        try:
            start = time.perf_counter()
            result = self.solve(a, b)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            self.attempted += 1
            self.fail(repr(exc))
            return None
        if not self.check(a, b, result):
            return None
        self.last = (a, b, result)
        return elapsed

    def setup(self) -> None:
        if not self.w.facade:
            self.solver = repro.make_solver(**self.spec)
        first = self.timed_op()
        if first is not None:
            self.cold.append(first)
        for _ in range(self.w.warmups):
            self.timed_op()

    def measure(self, seconds: float, metrics: Metrics) -> None:
        lu_pct: Dict[int, float] = {}

        def op(position: int) -> Optional[float]:
            elapsed = self.timed_op(self.ring_rng(position))
            if elapsed is not None:
                lu_pct[position] = self.last[2].factorization.lu_percentage
            return elapsed

        best = put_latencies(metrics, self.rounds(2 if self.smoke else self.w.ring, op, seconds))
        metrics.put("solves_per_s", len(best) / sum(best), "1/s")
        self.info["lu_step_pct"] = float(np.mean(list(lu_pct.values())))
        if self.solver is not None:
            self.check_bit_identity()

    def check_bit_identity(self) -> None:
        """The repo's contract: any executor leaves the very bytes inline leaves."""
        a, b, result = self.last
        self.attempted += 1
        inline = repro.make_solver(**{**self.spec, "executor": "none"}).factor(a, b)
        if not np.array_equal(result.factorization.tiles.array, inline.tiles.array):
            self.fail("executor factors are not bit-identical to the inline factors")

    def teardown(self) -> None:
        self.stop_workers(getattr(self.solver, "executor", None))
        self.solver = None


#: One answered request: latency, right-hand side, ``(x, hpl3)``.
Answered = Tuple[float, np.ndarray, Tuple[np.ndarray, float]]


class ServeDriver(Driver):
    """Requests against a ``SolverService``; answers are verified per matrix
    in one multi-column LAPACK solve after each phase."""

    service = None

    @staticmethod
    def answer(result):
        """What verification needs of a result.  Holding the result itself would
        pin its factorization, evicted or not, and inflate ``peak_rss_mb``."""
        return result.x, result.hpl3

    def verified(self, a: np.ndarray, done: Sequence[Answered]) -> List[bool]:
        return self.verify(
            a, [b for _, b, _ in done], [x for _, _, (x, _) in done], [h for _, _, (_, h) in done]
        )

    def cold_request(self, a: np.ndarray):
        """``register(a)`` plus the first result on it — fingerprint, ``[A | I]``
        factorization, solve — timed as one; returns the handle."""
        b = self.rhs()
        self.attempted += 1
        start = time.perf_counter()
        handle = self.service.register(a)
        result = self.service.submit(handle, b).result()
        elapsed = time.perf_counter() - start
        if self.verified(a, [(elapsed, b, self.answer(result))])[0]:
            self.cold.append(elapsed)
        return handle

    def request(self, service, handle, b: Optional[np.ndarray] = None) -> Optional[Answered]:
        """One blocking single-RHS request (default: a fresh right-hand side);
        None if it raised."""
        b = self.rhs() if b is None else b
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = service.submit(handle, b).result()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            self.fail(repr(exc))
            return None
        return time.perf_counter() - start, b, self.answer(result)

    def best_of_rounds(
        self, ring: int, op: Callable[[int], Any], latencies: Callable[[List[Any]], List[Optional[float]]],
        seconds: float,
    ) -> List[Tuple[int, float]]:
        """``rounds()`` of an op that returns answers: ``(position, latency)`` of
        every right one.  ``latencies(items)`` verifies a batch of what ``op``
        returned (None where wrong).  Batches are a round long and answers are
        dropped once verified, so the runner's memory does not grow with the run."""
        samples: List[Tuple[int, float]] = []
        pending: List[Tuple[int, Any]] = []

        def flush() -> None:
            if pending:
                good = latencies([item for _, item in pending])
                samples.extend((i, lat) for (i, _), lat in zip(pending, good) if lat is not None)
                pending.clear()

        def one(position: int) -> None:
            item = op(position)
            if item is not None:
                pending.append((position, item))
                if len(pending) >= ring:
                    flush()

        self.rounds(ring, one, seconds)
        flush()
        return samples

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        self.stop_workers()


class ServeWarmDriver(ServeDriver):
    def setup(self) -> None:
        self.service = repro.SolverService(**self.spec)
        self.handle = self.cold_request(self.matrix())
        self.closed_loop(self.service, self.handle, 5)

    def good_latencies(self, handle, done: Sequence[Answered]) -> List[Optional[float]]:
        """Latency of each answered request, None where the answer is wrong."""
        return [lat if ok else None for (lat, _, _), ok in zip(done, self.verified(handle.matrix, done))]

    def closed_loop(self, service, handle, count: int) -> List[float]:
        """``count`` fresh single-RHS requests against one registered matrix, one at a time."""
        done = [self.request(service, handle) for _ in range(count)]
        good = self.good_latencies(handle, [d for d in done if d is not None])
        return [lat for lat in good if lat is not None]

    def burst(self, service, handle, bs: Sequence[np.ndarray]) -> Optional[float]:
        """Single-RHS submits resolved together: the seconds it took, None unless
        every column is right."""
        self.attempted += len(bs)
        begin = time.perf_counter()
        futures = [service.submit(handle, b) for b in bs]
        try:
            results = [f.result() for f in futures]
        except Exception as exc:
            self.failed += len(bs) - 1
            self.fail(repr(exc))
            return None
        elapsed = time.perf_counter() - begin
        ok = self.verify(handle.matrix, bs, [r.x for r in results], [r.hpl3 for r in results])
        return elapsed if all(ok) else None

    def bursts(self, service, handle, count: int, size: int) -> None:
        """``count`` fresh bursts (the traced phase reads the service's batch counters)."""
        for _ in range(count):
            self.burst(service, handle, [self.rhs() for _ in range(size)])

    def measure(self, seconds: float, metrics: Metrics) -> None:
        """Half the time one request at a time, half of it in bursts."""
        few = self.smoke
        service, handle = self.service, self.handle
        ring = [self.ring_rng(i).standard_normal(self.n) for i in range(4 if few else self.w.ring)]
        put_latencies(metrics, self.best_of_rounds(
            len(ring), lambda i: self.request(service, handle, ring[i]),
            lambda done: self.good_latencies(handle, done), seconds / 2,
        ))
        self.info["request_rounds"] = self.info["rounds"]

        size = 4 if few else BURST
        bursts = [
            list(self.ring_rng(i, stream=1).standard_normal((size, self.n)))
            for i in range(2 if few else BURST_RING)
        ]
        best = best_times(
            self.rounds(len(bursts), lambda i: self.burst(service, handle, bursts[i]), seconds / 2)
        )
        metrics.put("solves_per_s", size * len(best) / sum(best), "1/s")


class ServeChurnDriver(ServeDriver):
    def setup(self) -> None:
        self.matrices = [self.matrix() for _ in range(self.w.matrices)]
        self.schedule = zipf_schedule(self.w.matrices)
        self.service = repro.SolverService(capacity=self.w.capacity, **self.spec)
        self.cold_request(self.matrices[int(self.schedule[0])])
        self.position = 1
        self.handles = [self.service.register(a) for a in self.matrices]
        self.replay(self.service, 8 if self.smoke else 30)

    def pick(self, position: int) -> int:
        return int(self.schedule[position % len(self.schedule)])

    def good_latencies(self, done: Sequence[Tuple[int, Answered]]) -> List[Optional[float]]:
        """Latency of each ``(matrix index, answered request)``, None where it is wrong."""
        out: List[Optional[float]] = [None] * len(done)
        for pick in {p for p, _ in done}:
            where = [i for i, (p, _) in enumerate(done) if p == pick]
            ok = self.verified(self.matrices[pick], [done[i][1] for i in where])
            for i, good in zip(where, ok):
                if good:
                    out[i] = done[i][1][0]
        return out

    def replay(self, service, count: int) -> List[float]:
        """Walk the schedule from ``self.position``: one fresh request per entry."""
        done = []
        for _ in range(count):
            pick = self.pick(self.position)
            self.position += 1
            outcome = self.request(service, self.handles[pick])
            if outcome is not None:
                done.append((pick, outcome))
        return [lat for lat in self.good_latencies(done) if lat is not None]

    def measure(self, seconds: float, metrics: Metrics) -> None:
        """The ring is a window of the schedule.  LRU contents depend only on the
        requests seen, so from the second round on every position is a hit or a
        miss exactly as it was the round before."""
        before = self.service.session.stats.snapshot()
        first = self.position

        def op(i: int) -> Optional[Tuple[int, Answered]]:
            pick = self.pick(first + i)
            outcome = self.request(
                self.service, self.handles[pick], self.ring_rng(i).standard_normal(self.n)
            )
            return None if outcome is None else (pick, outcome)

        best = put_latencies(
            metrics, self.best_of_rounds(8 if self.smoke else self.w.ring, op, self.good_latencies, seconds)
        )
        after = self.service.session.stats
        metrics.put("solves_per_s", len(best) / sum(best), "1/s")
        self.info["hit_rate"] = (after.hits - before.hits) / max(
            after.requests - before.requests, 1
        )


DRIVERS = {"solve": SolveDriver, "serve_warm": ServeWarmDriver, "serve_churn": ServeChurnDriver}
