"""Tests for the ``SolverSession`` serving layer."""

import hashlib

import numpy as np
import pytest

import repro
import repro.api.session as session_module
import repro.stability.metrics as metrics_module
from repro.api.session import matrix_fingerprint
from repro.linalg.pivoting import SingularPanelError


@pytest.fixture
def session():
    return repro.SolverSession(
        algorithm="hybrid", tile_size=8, criterion="max(alpha=50)"
    )


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self, rng):
        a = rng.standard_normal((16, 16))
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())

    def test_different_content_different_fingerprint(self, rng):
        a = rng.standard_normal((16, 16))
        b = a.copy()
        b[3, 4] += 1e-12
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_non_contiguous_matches_contiguous(self, rng):
        a = rng.standard_normal((16, 16))
        assert matrix_fingerprint(a.T.copy().T) == matrix_fingerprint(a)

    def test_digest_is_the_sha256_of_the_c_ordered_bytes(self, rng):
        base = rng.standard_normal((24, 24))
        inputs = {
            "C": base[:16, :16].copy(),
            "Fortran": np.asfortranarray(base[:16, :16]),
            "strided": base[::2, 1::3],
        }
        for layout, a in inputs.items():
            digest = hashlib.sha256()
            for part in (str(a.shape).encode(), str(a.dtype).encode(), a.tobytes(order="C")):
                digest.update(part)
            assert matrix_fingerprint(a) == digest.hexdigest(), layout


class TestSessionCache:
    def test_same_matrix_factors_exactly_once(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)

        r1 = session.solve(a, a @ x1, x_true=x1)
        r2 = session.solve(a, a @ x2, x_true=x2)

        assert session.stats.misses == 1
        assert session.stats.hits == 1
        assert session.stats.solves == 2
        # both requests share the one factorization object
        assert r1.factorization is r2.factorization
        # and both pass the existing stability checks
        for r in (r1, r2):
            assert r.hpl3 < 50
            assert r.stability.forward_error < 1e-8

    def test_hit_matches_direct_solve(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        session.solve(a, rng.standard_normal(n))  # warm the cache
        served = session.solve(a, b)
        direct = repro.solve(a, b, algorithm="hybrid", tile_size=8,
                             criterion="max(alpha=50)")
        np.testing.assert_allclose(served.x, direct.x, rtol=0, atol=1e-10)

    def test_solution_shapes_mirror_solver(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        assert session.solve(a, rng.standard_normal(n)).x.shape == (n,)
        assert session.solve(a, rng.standard_normal((n, 3))).x.shape == (n, 3)
        assert session.stats.misses == 1

    def test_padded_order_served_correctly(self, rng):
        n = 13
        session = repro.SolverSession(algorithm="hybrid", tile_size=4,
                                      criterion="max(alpha=10)")
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        x_true = rng.standard_normal(n)
        r = session.solve(a, a @ x_true, x_true=x_true)
        assert r.x.shape == (n,)
        np.testing.assert_allclose(r.x, x_true, atol=1e-8)
        assert r.factorization.padding == 3
        # hits on the padded matrix work too
        r2 = session.solve(a, a @ x_true)
        assert session.stats.hits == 1
        np.testing.assert_allclose(r2.x, x_true, atol=1e-8)

    def test_lru_eviction(self, rng):
        session = repro.SolverSession(
            algorithm="lupp", tile_size=8, capacity=1
        )
        n = 16
        a1 = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        a2 = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        session.solve(a1, b)          # miss, cached
        session.solve(a2, b)          # miss, evicts a1
        session.solve(a1, b)          # miss again
        assert session.stats.misses == 3
        assert session.stats.hits == 0
        assert session.stats.evictions == 2
        assert len(session) == 1

    def test_clear_resets_cache_and_stats(self, rng, session):
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        session.solve(a, rng.standard_normal(n))
        session.clear()
        assert len(session) == 0
        assert session.stats.requests == 0
        session.solve(a, rng.standard_normal(n))
        assert session.stats.misses == 1

    def test_warm_prefactors(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        fact = session.warm(a)
        assert fact.succeeded
        assert session.stats.misses == 1
        session.solve(a, rng.standard_normal(n))
        assert session.stats.hits == 1
        assert session.cached_factorization(a) is fact
        assert session.cached_factorization(np.eye(n)) is None

    def test_solve_many_serves_from_cache(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        xs = rng.standard_normal((n, 4))
        results = session.solve_many(a, a @ xs, x_true=xs)
        assert len(results) == 4
        assert session.stats.misses == 1
        for j, r in enumerate(results):
            np.testing.assert_allclose(r.x, xs[:, j], atol=1e-8)
            assert r.hpl3 < 50

    def test_solve_many_x_true_as_sequence_of_vectors(self, rng, session):
        """Regression: a sequence-form x_true must be *column*-stacked.

        It used to go through ``np.asarray`` only, landing as ``(nrhs, n)``
        so the per-column slicing read the wrong axis (or broke outright).
        """
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        xs = [rng.standard_normal(n) for _ in range(3)]
        bs = [a @ x for x in xs]
        results = session.solve_many(a, bs, x_true=xs)
        for r in results:
            assert r.stability.forward_error is not None
            assert r.stability.forward_error < 1e-8

    def test_solve_many_validations_match_base_class(self, rng, session):
        """Regression: the base class's shape validations were missing."""
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            session.solve_many(a, np.ones((n, 2, 2)))
        with pytest.raises(ValueError, match="x_true has shape"):
            session.solve_many(a, np.ones((n, 2)), x_true=np.ones((n, 3)))

    def test_solve_many_matches_direct_solver(self, rng, session):
        n = 24
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        bs = [rng.standard_normal(n) for _ in range(2)]
        direct = repro.make_solver(
            "hybrid", tile_size=8, criterion="max(alpha=50)"
        ).solve_many(a, bs)
        served = session.solve_many(a, bs)
        for d, s in zip(direct, served):
            np.testing.assert_allclose(s.x, d.x, atol=1e-10)

    def test_breakdown_raises_and_is_not_cached(self):
        # A singular matrix breaks the factorization down.
        session = repro.SolverSession(algorithm="lu_nopiv", tile_size=2)
        a = np.zeros((8, 8))
        with pytest.raises(SingularPanelError):
            session.solve(a, np.ones(8))
        assert len(session) == 0

    def test_concurrent_misses_factor_exactly_once(self, rng, session):
        import threading

        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        bs = [rng.standard_normal(n) for _ in range(4)]
        results = []

        def worker(b):
            results.append(session.solve(a, b))

        threads = [threading.Thread(target=worker, args=(b,)) for b in bs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 4
        assert session.stats.misses == 1
        assert session.stats.hits == 3
        fact = results[0].factorization
        assert all(r.factorization is fact for r in results)

    def test_hit_rate(self, rng, session):
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        assert session.stats.hit_rate == 0.0
        session.solve(a, rng.standard_normal(n))
        session.solve(a, rng.standard_normal(n))
        session.solve(a, rng.standard_normal(n))
        assert session.stats.hit_rate == pytest.approx(2 / 3)


class TestPrecomputedKey:
    """The ``key=`` kwarg skips the per-request O(n^2) re-hash."""

    def test_solve_with_key_skips_fingerprint(self, rng, session, monkeypatch):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        key = matrix_fingerprint(a)
        session.warm(a, key=key)

        def boom(_):
            raise AssertionError("matrix_fingerprint called despite key=")

        monkeypatch.setattr("repro.api.session.matrix_fingerprint", boom)
        b = rng.standard_normal(n)
        r = session.solve(a, b, key=key)
        assert session.stats.hits == 1
        np.testing.assert_allclose(a @ r.x, b, atol=1e-8)
        results = session.solve_many(a, rng.standard_normal((n, 2)), key=key)
        assert len(results) == 2
        assert session.stats.hits == 2

    def test_key_and_plain_path_share_the_entry(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        fact = session.warm(a, key=matrix_fingerprint(a))
        r = session.solve(a, rng.standard_normal(n))  # no key: hashes, same entry
        assert r.factorization is fact
        assert session.stats.misses == 1
        assert session.stats.hits == 1

    def test_solve_with_key_matches_plain_solve(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        key = matrix_fingerprint(a)
        plain = session.solve(a, b)
        keyed = session.solve(a, b, key=key)
        np.testing.assert_array_equal(plain.x, keyed.x)


class TestCachedMatrixNorms:
    """The O(n^2) norms of ``A`` are paid once per cache miss, never per hit."""

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        real = metrics_module.matrix_norms

        def counting(a):
            calls.append(a.shape)
            return real(a)

        # The session imports the name; reports without ``a_norms`` look it
        # up in the metrics module.  Both routes must hit the counter.
        monkeypatch.setattr(metrics_module, "matrix_norms", counting)
        monkeypatch.setattr(session_module, "matrix_norms", counting)
        return calls

    def test_one_miss_and_fifty_hits_compute_the_norms_once(self, rng, session, norm_calls):
        n = 32
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        session.solve(a, rng.standard_normal(n))  # the miss
        for i in range(50):
            if i % 2:
                session.solve(a, rng.standard_normal(n))
            else:
                session.solve_many(a, rng.standard_normal((n, 3)))
        assert (session.stats.misses, session.stats.hits) == (1, 50)
        assert len(norm_calls) == 1

        session.clear()
        session.solve(a, rng.standard_normal(n))
        assert len(norm_calls) == 2  # a cleared entry takes its norms with it

    def test_service_submits_compute_the_norms_once(self, rng, norm_calls):
        n = 32
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        with repro.SolverService(algorithm="hybrid", tile_size=8) as svc:
            handle = svc.register(a)
            for _ in range(51):
                assert svc.submit(handle, rng.standard_normal(n)).result(timeout=60).hpl3 < 50
            assert svc.session.stats.misses == 1
            assert len(norm_calls) == 1
            svc.clear()
            svc.submit(handle, rng.standard_normal(n)).result(timeout=60)
            assert len(norm_calls) == 2

    def test_direct_solver_pays_them_once_per_solve(self, rng, norm_calls):
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        solver = repro.make_solver("hybrid", tile_size=8)
        solver.solve(a, rng.standard_normal(n))
        solver.solve_many(a, rng.standard_normal((n, 4)))
        assert len(norm_calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
class TestNonFiniteRhs:
    """A NaN/Inf ``b`` raises ``factor``'s ValueError on every serving route,
    a warm ``key=`` hit included, before any lookup or BLAS call."""

    MESSAGE = "^b must not contain NaN or Inf$"

    @staticmethod
    def _system(rng, bad, n=32):
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal((n, 2))
        b[n - 1, 1] = bad
        return a, b

    def test_session_solve_and_solve_many(self, rng, session, bad):
        a, b = self._system(rng, bad)
        key = matrix_fingerprint(a)
        session.warm(a, key=key)
        for call in (
            lambda: session.solve(a, b[:, 1], key=key),
            lambda: session.solve(a, b[:, 1]),
            lambda: session.solve(a, b),
            lambda: session.solve_many(a, b, key=key),
            lambda: session.solve_many(a, [b[:, 0], b[:, 1]]),
        ):
            with pytest.raises(ValueError, match=self.MESSAGE):
                call()
        # Rejected before the lookup: no hit is counted, nothing is served.
        assert (session.stats.misses, session.stats.hits, session.stats.solves) == (1, 0, 0)
        np.testing.assert_allclose(a @ session.solve(a, b[:, 0], key=key).x, b[:, 0], atol=1e-8)

    def test_cold_session_rejects_it_without_factoring(self, rng, session, bad):
        a, b = self._system(rng, bad)
        with pytest.raises(ValueError, match=self.MESSAGE):
            session.solve_many(a, b)
        assert session.stats.misses == 0 and len(session) == 0

    def test_service_future_raises(self, rng, bad):
        a, b = self._system(rng, bad)
        with repro.SolverService(algorithm="hybrid", tile_size=8) as svc:
            handle = svc.register(a, warm=True)
            future = svc.submit(handle, b[:, 1])
            with pytest.raises(ValueError, match=self.MESSAGE):
                future.result(timeout=60)
            with pytest.raises(ValueError, match=self.MESSAGE):
                svc.submit(handle, b).result(timeout=60)
            # The dispatcher survives and keeps serving the clean column.
            good = svc.submit(handle, b[:, 0]).result(timeout=60)
            np.testing.assert_allclose(a @ good.x, b[:, 0], atol=1e-8)
            assert svc.stats.failed == 2

    def test_facade_solve(self, rng, bad):
        a, b = self._system(rng, bad)
        with pytest.raises(ValueError, match=self.MESSAGE):
            repro.solve(a, b[:, 1], algorithm="hybrid", tile_size=8)


class TestCachedFactorization:
    def test_validates_like_solve(self, rng, session):
        """Regression: it used to bypass ``_check_matrix`` entirely."""
        with pytest.raises(ValueError, match="square"):
            session.cached_factorization(np.ones((4, 5)))

    def test_key_only_lookup(self, rng, session):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        key = matrix_fingerprint(a)
        assert session.cached_factorization(key=key) is None
        fact = session.warm(a)
        assert session.cached_factorization(key=key) is fact

    def test_requires_matrix_or_key(self, session):
        with pytest.raises(ValueError, match="matrix or a key"):
            session.cached_factorization()

    def test_integer_dtype_matrix_matches_solve_path(self, rng, session):
        """dtype coercion now mirrors ``solve``/``warm`` (via _check_matrix)."""
        a = np.eye(16, dtype=np.int64) * 4
        session.warm(a)
        assert session.cached_factorization(a) is not None


class _InstrumentedSolver:
    """Wraps a real solver to observe (and stall) its ``factor`` calls."""

    def __init__(self, inner, before=None, after=None):
        self.inner = inner
        self.algorithm = inner.algorithm
        self._before = before
        self._after = after

    def factor(self, a, b=None):
        if self._before is not None:
            self._before()
        try:
            return self.inner.factor(a, b)
        finally:
            if self._after is not None:
                self._after()

    def solve(self, a, b, x_true=None):
        return self.inner.solve(a, b, x_true=x_true)


class TestClearRace:
    def test_clear_during_factorization_does_not_resurrect_entry(self, rng):
        """An in-flight miss must not re-insert its entry after clear()."""
        import threading

        started = threading.Event()
        cleared = threading.Event()

        def before():
            started.set()
            assert cleared.wait(10.0), "clear() never ran"

        solver = _InstrumentedSolver(
            repro.make_solver("lupp", tile_size=8), before=before
        )
        session = repro.SolverSession(solver)
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        results = []
        t = threading.Thread(target=lambda: results.append(session.solve(a, b)))
        t.start()
        assert started.wait(10.0)
        session.clear()  # races the factorization that is still running
        cleared.set()
        t.join()

        # The solve itself succeeded (the caller keeps its entry) ...
        np.testing.assert_allclose(a @ results[0].x, b, atol=1e-8)
        # ... but the cleared cache was not resurrected, and the reset
        # stats were not charged for pre-clear work.
        assert len(session) == 0
        assert session.stats.misses == 0
        assert session.stats.factor_seconds == 0.0

    def test_concurrent_misses_on_different_matrices(self, rng, session):
        """Regression: different-key misses share one solver instance.

        The solver carries per-factorization state (norm cache, traces),
        so concurrent ``factor`` calls must serialize inside it instead of
        corrupting each other (previously a broadcast error or silently
        wrong growth stats, and with a process executor a racing buffer
        binding).
        """
        import threading

        mats = [
            rng.standard_normal((16, 16)) + 4.0 * np.eye(16),
            rng.standard_normal((32, 32)) + 4.0 * np.eye(32),
        ]
        vecs = [rng.standard_normal(16), rng.standard_normal(32)]
        errors, residuals = [], []

        def solve(i):
            try:
                r = session.solve(mats[i], vecs[i])
                residuals.append(float(np.linalg.norm(mats[i] @ r.x - vecs[i])))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        for _ in range(3):
            session.clear()
            threads = [threading.Thread(target=solve, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors, errors
        assert max(residuals) < 1e-8

    def test_hammered_key_with_concurrent_clear(self, rng):
        """Many threads on one key + clear(): never two factorizations at once."""
        import threading
        import time

        lock = threading.Lock()
        state = {"active": 0, "max_active": 0, "calls": 0}

        def before():
            with lock:
                state["active"] += 1
                state["calls"] += 1
                state["max_active"] = max(state["max_active"], state["active"])
            time.sleep(0.005)  # widen the race window

        def after():
            with lock:
                state["active"] -= 1

        solver = _InstrumentedSolver(
            repro.make_solver("lupp", tile_size=8), before=before, after=after
        )
        session = repro.SolverSession(solver)
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        n_clears = 6
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    np.testing.assert_allclose(a @ session.solve(a, b).x, b, atol=1e-8)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def clearer():
            for _ in range(n_clears):
                time.sleep(0.004)
                session.clear()

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors
        # The per-key lock keeps serializing across clear(): the same
        # matrix never factors twice concurrently, and each clear() allows
        # at most one legitimate re-factorization.
        assert state["max_active"] == 1
        assert state["calls"] <= n_clears + 1
        # Stats stay internally consistent after the interleaved resets.
        assert session.stats.requests == session.stats.hits + session.stats.misses
        assert 0 <= session.stats.misses <= state["calls"]


class TestSessionConstruction:
    def test_accepts_prebuilt_solver(self, rng):
        solver = repro.HybridLUQRSolver(tile_size=8)
        session = repro.SolverSession(solver)
        assert session.solver is solver

    def test_rejects_spec_kwargs_with_prebuilt_solver(self):
        solver = repro.HybridLUQRSolver(tile_size=8)
        with pytest.raises(ValueError):
            repro.SolverSession(solver, tile_size=16)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            repro.SolverSession(algorithm="lupp", tile_size=8, capacity=0)

    def test_unbounded_capacity(self, rng):
        session = repro.SolverSession(algorithm="lupp", tile_size=8,
                                      capacity=None)
        n = 16
        for _ in range(3):
            a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
            session.solve(a, rng.standard_normal(n))
        assert len(session) == 3
        assert session.stats.evictions == 0
