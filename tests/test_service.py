"""Tests for the asynchronous ``SolverService`` serving API."""

import asyncio
import threading
import time

import numpy as np
import pytest

import repro
from repro.api.service import MatrixHandle, ServiceClosed, SolveFuture
from repro.api.session import matrix_fingerprint
from repro.linalg.pivoting import SingularPanelError
from repro.stability import stability_report

ALL_SOLVERS = [
    ("hybrid", dict(criterion="max(alpha=50)")),
    ("lupp", {}),
    ("lu_incpiv", {}),
    ("lu_nopiv", {}),
    ("hqr", {}),
]


def _system(rng, n=48):
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    return a


@pytest.fixture
def service():
    svc = repro.SolverService(algorithm="lupp", tile_size=8)
    yield svc
    svc.shutdown(wait=False)


class TestRegister:
    def test_handle_key_is_the_fingerprint(self, rng):
        a = _system(rng)
        with repro.SolverService(algorithm="lupp", tile_size=8) as svc:
            h = svc.register(a)
        assert h.key == matrix_fingerprint(a)
        assert h.n == a.shape[0]
        assert h.shape == a.shape

    def test_handle_matrix_is_a_readonly_copy(self, rng, service):
        a = _system(rng)
        h = service.register(a)
        assert not h.matrix.flags.writeable
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 1.0
        # mutating the caller's array cannot desynchronize the handle
        a[0, 0] += 100.0
        assert h.key == matrix_fingerprint(h.matrix)
        assert h.key != matrix_fingerprint(a)

    def test_handles_compare_by_key(self, rng, service):
        a = _system(rng)
        h1, h2 = service.register(a), service.register(a.copy())
        assert h1 == h2
        assert hash(h1) == hash(h2)

    def test_register_validates_like_the_session(self, service):
        with pytest.raises(ValueError, match="square"):
            service.register(np.ones((4, 5)))

    def test_register_warm_prefactors(self, rng, service):
        a = _system(rng)
        service.register(a, warm=True)
        assert service.session.stats.misses == 1
        assert service.session.cached_factorization(a) is not None


class TestSubmit:
    def test_future_resolves_to_solution(self, rng, service):
        a = _system(rng)
        x_true = rng.standard_normal(a.shape[0])
        fut = service.submit(a, a @ x_true)
        assert isinstance(fut, SolveFuture)
        result = fut.result(timeout=30)
        assert fut.done()
        np.testing.assert_allclose(result.x, x_true, atol=1e-8)

    def test_raw_matrix_registers_on_the_fly(self, rng, service):
        a = _system(rng)
        fut = service.submit(a, rng.standard_normal(a.shape[0]))
        assert fut.result(timeout=30).x.shape == (a.shape[0],)

    def test_two_dimensional_b_resolves_to_column_results(self, rng, service):
        a = _system(rng)
        n = a.shape[0]
        xs = rng.standard_normal((n, 3))
        fut = service.submit(service.register(a), a @ xs)
        results = fut.result(timeout=30)
        assert isinstance(results, list) and len(results) == 3
        for j, r in enumerate(results):
            np.testing.assert_allclose(r.x, xs[:, j], atol=1e-8)

    def test_shape_validation(self, rng, service):
        h = service.register(_system(rng))
        with pytest.raises(ValueError, match="rows"):
            service.submit(h, np.ones(h.n + 1))
        with pytest.raises(ValueError, match="1-D or 2-D"):
            service.submit(h, np.ones((h.n, 1, 1)))
        with pytest.raises(ValueError, match="at least one"):
            service.submit(h, np.ones((h.n, 0)))

    def test_submit_after_shutdown_raises(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8)
        h = svc.register(_system(rng))
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(h, np.ones(h.n))


class TestBitIdentical:
    """SolveFuture results are bit-identical to the synchronous serving path."""

    @pytest.mark.parametrize("algorithm,opts", ALL_SOLVERS)
    def test_singleton_submit_matches_session_solve(self, rng, algorithm, opts):
        a = _system(rng)
        b = rng.standard_normal(a.shape[0])
        session = repro.SolverSession(algorithm=algorithm, tile_size=8, **opts)
        sync = session.solve(a, b)
        hit = session.solve(a, b)
        with repro.SolverService(algorithm=algorithm, tile_size=8, **opts) as svc:
            served = svc.submit(svc.register(a), b).result(timeout=60)
        assert np.array_equal(served.x, sync.x)
        # One-column service batches go through the batched report and session
        # hits through the cached matrix norms: both must report, field for
        # field, what the public function says about the same solution.
        direct = repro.make_solver(algorithm, tile_size=8, **opts).solve(a, b)
        for result in (direct, sync, hit, served):
            assert result.stability == stability_report(a, result.x, b)

    @pytest.mark.parametrize("algorithm,opts", ALL_SOLVERS)
    def test_coalesced_batch_matches_session_solve_many(self, rng, algorithm, opts):
        a = _system(rng)
        n = a.shape[0]
        bs = [rng.standard_normal(n) for _ in range(4)]
        session = repro.SolverSession(algorithm=algorithm, tile_size=8, **opts)
        sync = session.solve_many(a, bs)

        svc = repro.SolverService(algorithm=algorithm, tile_size=8, start=False, **opts)
        h = svc.register(a)
        futs = [svc.submit(h, b) for b in bs]  # queued before the dispatcher runs
        svc.start()
        svc.drain(timeout=60)
        svc.shutdown()
        assert svc.stats.batches == 1  # all four coalesced into one pass
        for fut, s in zip(futs, sync):
            assert np.array_equal(fut.result().x, s.x)
            assert fut.result().stability == s.stability


class TestCoalescing:
    def test_queued_requests_coalesce_into_one_batch(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8, start=False)
        h = svc.register(_system(rng))
        futs = [svc.submit(h, rng.standard_normal(h.n)) for _ in range(6)]
        svc.start()
        svc.drain(timeout=60)
        assert all(f.done() for f in futs)
        assert svc.stats.submitted == 6
        assert svc.stats.completed == 6
        assert svc.stats.batches == 1
        assert svc.stats.coalesced_batches == 1
        assert svc.stats.coalesced_requests == 6
        assert svc.stats.max_batch_requests == 6
        # the whole batch was one cache access and one back-substitution
        assert svc.session.stats.misses == 1
        assert svc.session.stats.hits == 0
        assert svc.session.stats.solves == 1
        svc.shutdown()

    def test_coalescing_speedup_vs_sequential(self):
        """16 queued right-hand sides served coalesced are >= 2x faster than
        16 sequential ``SolverSession.solve`` calls (best of five each)."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((96, 96)) + 4.0 * np.eye(96)
        bs = [rng.standard_normal(96) for _ in range(16)]
        spec = dict(algorithm="hybrid", criterion="max(alpha=50)", tile_size=8)

        session = repro.SolverSession(**spec)
        session.warm(a)
        seq_best = None
        for _ in range(5):
            t0 = time.perf_counter()
            for b in bs:
                session.solve(a, b)
            elapsed = time.perf_counter() - t0
            seq_best = elapsed if seq_best is None else min(seq_best, elapsed)

        service = repro.SolverService(start=False, **spec)
        handle = service.register(a, warm=True)
        svc_best = None
        for _ in range(5):
            t0 = time.perf_counter()
            futures = [service.submit(handle, b) for b in bs]
            service.start()  # no-op after the first round
            for f in futures:
                f.result(timeout=120)
            elapsed = time.perf_counter() - t0
            svc_best = elapsed if svc_best is None else min(svc_best, elapsed)
        service.shutdown()

        speedup = seq_best / svc_best
        assert speedup >= 2.0, (
            f"coalesced serving only {speedup:.2f}x faster than sequential "
            f"({1e3 * svc_best:.2f} ms vs {1e3 * seq_best:.2f} ms)"
        )

    def test_mixed_column_counts_coalesce(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8, start=False)
        h = svc.register(_system(rng))
        f1 = svc.submit(h, rng.standard_normal(h.n))
        f2 = svc.submit(h, rng.standard_normal((h.n, 3)))
        svc.start()
        svc.drain(timeout=60)
        assert svc.stats.batches == 1
        assert svc.stats.max_batch_columns == 4
        assert f1.result().x.shape == (h.n,)
        assert [r.x.shape for r in f2.result()] == [(h.n,)] * 3
        svc.shutdown()

    def test_different_matrices_do_not_coalesce(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8, start=False)
        h1 = svc.register(_system(rng))
        h2 = svc.register(_system(rng))
        futs = [svc.submit(h, rng.standard_normal(h.n)) for h in (h1, h2, h1, h2)]
        svc.start()
        svc.drain(timeout=60)
        assert svc.stats.batches == 2
        assert svc.stats.coalesced_requests == 4
        assert all(f.done() for f in futs)
        assert svc.session.stats.misses == 2
        svc.shutdown()

    def test_priority_orders_batches(self, rng):
        order = []

        class RecordingSolver:
            def __init__(self, inner):
                self.inner = inner
                self.algorithm = inner.algorithm

            def factor(self, a, b=None):
                order.append(a.shape[0])
                return self.inner.factor(a, b)

            def solve(self, a, b, x_true=None):
                return self.inner.solve(a, b, x_true=x_true)

        solver = RecordingSolver(repro.make_solver("lupp", tile_size=8))
        svc = repro.SolverService(solver, start=False)
        low = svc.register(_system(rng, n=16))
        high = svc.register(_system(rng, n=32))
        f_low = svc.submit(low, rng.standard_normal(16), priority=0)
        f_high = svc.submit(high, rng.standard_normal(32), priority=5)
        svc.start()
        svc.drain(timeout=60)
        svc.shutdown()
        assert f_low.done() and f_high.done()
        # the priority-5 batch (order 32) was dispatched first
        assert order == [32, 16]


class TestConcurrency:
    def test_concurrent_submits_same_matrix(self, rng, service):
        a = _system(rng)
        h = service.register(a)
        xs = [rng.standard_normal(h.n) for _ in range(16)]
        futures = [None] * len(xs)

        def submit(i):
            futures[i] = service.submit(h, a @ xs[i])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(xs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.drain(timeout=60)
        for i, fut in enumerate(futures):
            np.testing.assert_allclose(fut.result().x, xs[i], atol=1e-8)
        stats = service.stats
        assert stats.submitted == stats.completed == 16
        # coalescing happened: fewer dispatcher passes than requests, and
        # likewise fewer cache accesses than requests
        assert stats.batches < 16
        assert service.session.stats.requests < 16
        assert (
            stats.coalesced_requests
            + (stats.batches - stats.coalesced_batches)
            == 16
        )

    def test_concurrent_submits_different_matrices(self, rng, service):
        mats = [_system(rng, n=16), _system(rng, n=24), _system(rng, n=32)]
        handles = [service.register(a) for a in mats]
        results = {}
        lock = threading.Lock()

        def worker(idx):
            h = handles[idx % 3]
            a = mats[idx % 3]
            x = np.arange(1.0, h.n + 1.0)
            fut = service.submit(h, a @ x)
            with lock:
                results[idx] = (fut, x)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.drain(timeout=60)
        for fut, x in results.values():
            np.testing.assert_allclose(fut.result().x, x, atol=1e-8)
        assert service.stats.completed == 12
        assert service.session.stats.misses == 3

    def test_futures_resolve_after_clear_mid_flight(self, rng):
        """clear() while a batch is factoring: futures still resolve."""
        started = threading.Event()
        release = threading.Event()

        class StallingSolver:
            def __init__(self, inner):
                self.inner = inner
                self.algorithm = inner.algorithm

            def factor(self, a, b=None):
                started.set()
                assert release.wait(30.0), "clear() never ran"
                return self.inner.factor(a, b)

            def solve(self, a, b, x_true=None):
                return self.inner.solve(a, b, x_true=x_true)

        solver = StallingSolver(repro.make_solver("lupp", tile_size=8))
        svc = repro.SolverService(solver)
        a = _system(rng, n=16)
        h = svc.register(a)
        x = rng.standard_normal(16)
        fut = svc.submit(h, a @ x)
        assert started.wait(30.0)
        svc.clear()  # races the factorization serving the future
        release.set()
        np.testing.assert_allclose(fut.result(timeout=30).x, x, atol=1e-8)
        # the cleared cache was not resurrected by the in-flight miss
        assert len(svc.session) == 0
        assert svc.session.stats.misses == 0
        svc.shutdown()

    def test_shutdown_with_queued_work_serves_it(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8, start=False)
        h = svc.register(_system(rng))
        futs = [svc.submit(h, rng.standard_normal(h.n)) for _ in range(5)]
        svc.shutdown(wait=True)  # never-started dispatcher drains the queue
        assert all(f.done() for f in futs)
        assert svc.stats.completed == 5
        assert all(f.exception() is None for f in futs)

    def test_shutdown_no_wait_fails_queued_futures(self, rng):
        svc = repro.SolverService(algorithm="lupp", tile_size=8, start=False)
        h = svc.register(_system(rng))
        futs = [svc.submit(h, rng.standard_normal(h.n)) for _ in range(3)]
        svc.shutdown(wait=False)
        for f in futs:
            assert isinstance(f.exception(timeout=5), ServiceClosed)
            with pytest.raises(ServiceClosed):
                f.result(timeout=5)
        assert svc.stats.failed == 3
        assert svc.stats.pending == 0

    def test_shutdown_is_idempotent(self, service):
        service.shutdown()
        service.shutdown()


class TestFailures:
    def test_breakdown_resolves_future_with_exception(self, rng):
        svc = repro.SolverService(algorithm="lu_nopiv", tile_size=2)
        bad = svc.submit(np.zeros((8, 8)), np.ones(8))
        assert isinstance(bad.exception(timeout=30), SingularPanelError)
        with pytest.raises(SingularPanelError):
            bad.result(timeout=30)
        # the dispatcher survives and keeps serving
        a = _system(rng, n=8)
        x = rng.standard_normal(8)
        good = svc.submit(a, a @ x)
        np.testing.assert_allclose(good.result(timeout=30).x, x, atol=1e-8)
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1
        svc.shutdown()

    def test_failed_batch_fails_every_coalesced_future(self, rng):
        svc = repro.SolverService(algorithm="lu_nopiv", tile_size=2, start=False)
        h = svc.register(np.zeros((8, 8)))
        futs = [svc.submit(h, np.ones(8)) for _ in range(3)]
        svc.start()
        svc.drain(timeout=30)
        assert all(isinstance(f.exception(), SingularPanelError) for f in futs)
        assert svc.stats.failed == 3
        svc.shutdown()


class TestSolveFuture:
    def test_result_timeout(self, rng):
        fut = SolveFuture()
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            fut.exception(timeout=0.01)

    def test_done_callback_after_resolution_runs_immediately(self):
        fut = SolveFuture()
        fut._resolve(result=42)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [42]

    def test_done_callback_before_resolution(self):
        fut = SolveFuture()
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == []
        fut._resolve(result=7)
        assert seen == [7]

    def test_resolves_exactly_once(self):
        fut = SolveFuture()
        fut._resolve(result=1)
        fut._resolve(result=2)
        fut._resolve(exception=RuntimeError("late"))
        assert fut.result() == 1
        assert fut.exception() is None

    def test_broken_callback_does_not_break_others(self):
        fut = SolveFuture()
        seen = []
        fut.add_done_callback(lambda f: 1 / 0)
        fut.add_done_callback(lambda f: seen.append(True))
        fut._resolve(result=0)
        assert seen == [True]


class TestAsyncio:
    def test_await_solve_future(self, rng, service):
        a = _system(rng)
        h = service.register(a)
        x = rng.standard_normal(h.n)

        async def main():
            return await service.submit(h, a @ x)

        result = asyncio.run(main())
        np.testing.assert_allclose(result.x, x, atol=1e-8)

    def test_await_propagates_exception(self):
        svc = repro.SolverService(algorithm="lu_nopiv", tile_size=2)

        async def main():
            await svc.submit(np.zeros((8, 8)), np.ones(8))

        with pytest.raises(SingularPanelError):
            asyncio.run(main())
        svc.shutdown()

    def test_asolve_with_explicit_service(self, rng, service):
        a = _system(rng)
        x = rng.standard_normal(a.shape[0])

        async def main():
            return await repro.asolve(a, a @ x, service=service)

        np.testing.assert_allclose(asyncio.run(main()).x, x, atol=1e-8)

    def test_asolve_rejects_constructed_spec_objects(self, rng):
        """A per-call constructed spec would leak one service per request."""
        a = _system(rng)

        async def main():
            await repro.asolve(a, np.ones(a.shape[0]),
                               executor=repro.SequentialExecutor())

        with pytest.raises(TypeError, match="declarative spec"):
            asyncio.run(main())

    def test_asolve_rejects_service_plus_spec(self, rng, service):
        a = _system(rng)

        async def main():
            await repro.asolve(a, np.ones(a.shape[0]), service=service,
                               algorithm="lupp")

        with pytest.raises(ValueError, match="explicit service"):
            asyncio.run(main())

    def test_gathered_asolves_share_the_default_service(self, rng):
        a = _system(rng)
        n = a.shape[0]
        xs = [rng.standard_normal(n) for _ in range(4)]

        async def main():
            return await asyncio.gather(
                *[repro.asolve(a, a @ x, algorithm="lupp", tile_size=8)
                  for x in xs]
            )

        results = asyncio.run(main())
        for r, x in zip(results, xs):
            np.testing.assert_allclose(r.x, x, atol=1e-8)
        # same spec → same process-wide service (and one cached matrix)
        from repro.api.service import _DEFAULT_SERVICES

        shared = [
            s for s in _DEFAULT_SERVICES.values()
            if s.session.cached_factorization(a) is not None
        ]
        assert len(shared) == 1


class TestLifecycle:
    def test_context_manager_starts_and_shuts_down(self, rng):
        a = _system(rng)
        with repro.SolverService(algorithm="lupp", tile_size=8, start=False) as svc:
            fut = svc.submit(svc.register(a), rng.standard_normal(a.shape[0]))
            # __enter__ started the dispatcher, so the future resolves
            assert fut.result(timeout=30) is not None
        with pytest.raises(ServiceClosed):
            svc.submit(a, np.ones(a.shape[0]))

    def test_wraps_existing_session(self, rng):
        session = repro.SolverSession(algorithm="lupp", tile_size=8)
        a = _system(rng)
        session.warm(a)
        with repro.SolverService(session) as svc:
            assert svc.session is session
            fut = svc.submit(a, np.ones(a.shape[0]))
            fut.result(timeout=30)
        assert session.stats.misses == 1  # reused the pre-warmed entry
        assert session.stats.hits == 1

    def test_rejects_session_plus_spec_kwargs(self):
        session = repro.SolverSession(algorithm="lupp", tile_size=8)
        with pytest.raises(ValueError):
            repro.SolverService(session, tile_size=16)

    def test_shutdown_closes_owned_executor(self):
        class ClosingExecutor:
            def __init__(self):
                self.closed = 0

            def run(self, graph, timeout=None):  # pragma: no cover - unused
                raise AssertionError("not executed in this test")

            def close(self):
                self.closed += 1

        executor = ClosingExecutor()
        svc = repro.SolverService(
            algorithm="lupp", tile_size=8, executor=executor
        )
        svc.shutdown()
        svc.shutdown()  # idempotent: closed exactly once
        assert executor.closed == 1

    def test_prebuilt_solver_keeps_its_executor(self):
        class ClosingExecutor:
            def __init__(self):
                self.closed = 0

            def run(self, graph, timeout=None):  # pragma: no cover - unused
                raise AssertionError("not executed in this test")

            def close(self):
                self.closed += 1

        executor = ClosingExecutor()
        solver = repro.make_solver("lupp", tile_size=8, executor=executor)
        svc = repro.SolverService(solver)
        svc.shutdown()
        assert executor.closed == 0

    def test_drain_timeout(self, rng):
        release = threading.Event()

        class StallingSolver:
            def __init__(self, inner):
                self.inner = inner
                self.algorithm = inner.algorithm

            def factor(self, a, b=None):
                assert release.wait(30.0)
                return self.inner.factor(a, b)

            def solve(self, a, b, x_true=None):
                return self.inner.solve(a, b, x_true=x_true)

        svc = repro.SolverService(StallingSolver(repro.make_solver("lupp", tile_size=8)))
        a = _system(rng, n=16)
        fut = svc.submit(a, np.ones(16))
        with pytest.raises(TimeoutError):
            svc.drain(timeout=0.05)
        release.set()
        fut.result(timeout=30)
        svc.shutdown()

    def test_repeated_drain_on_idle_service(self, service):
        service.drain(timeout=5)
        service.drain(timeout=5)


class TestStatsSnapshot:
    def test_snapshot_is_detached(self, rng, service):
        a = _system(rng)
        h = service.register(a)
        service.submit(h, np.ones(h.n)).result(timeout=30)
        service.drain(timeout=30)
        snap = service.stats.snapshot()
        service.submit(h, np.ones(h.n)).result(timeout=30)
        service.drain(timeout=30)
        assert snap.completed == 1
        assert service.stats.completed == 2
        assert isinstance(snap, type(service.stats))


def test_service_exported_at_top_level():
    assert repro.SolverService is not None
    assert repro.MatrixHandle is MatrixHandle
    assert repro.SolveFuture is SolveFuture
    assert callable(repro.asolve)
    assert "SolverService" in dir(repro.api)
