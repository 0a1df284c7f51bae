"""Factors must not depend on the BLAS thread count.

Worker processes of the ``processes`` and ``cluster`` executors start with
one BLAS thread while the host may run two or more, so executor bit-identity
needs every kernel to give the same bits at any thread count.  The tile
kernels were chosen for that: the QR half is LAPACK's tile-QR family
(``dgeqrt``, ``dtpqrt``, ``dgemqrt``, ``dtpmqrt``) at the inner block size
``ib = 8`` (at ``ib = 16`` the wide applies and at ``ib = 32`` ``dtpqrt``
hash differently at 1 and 2 threads), and the LU panel is a recursion over
``dgetrf`` leaves of at most 16 384 elements (OpenBLAS switches to its
parallel LU from 20 000 elements up, and a bare ``dgetrf`` on a 1024x128
panel hashes differently at 1 and 2 threads).  This
is the guard that fails if a thread-sensitive routine is swapped in later —
run at the sizes where it bites, not only at tiles too small to thread.
The QR kernels are hashed one by one, at tile orders up to 128 and on
operands up to 1024 columns wide.
The trailing update is one wide GEMM / TRSM per column range and one QR
chain over the trailing columns and the right-hand side, so the bulk
applies are checked too: on many small tiles (n = 512, nb = 16)
and on a 1024 x 1024 matrix of 256-tiles, where every apply threads.  The
solution is hashed as well: the back-substitution is one ``dtrtrs`` on the
whole factor, checked on every factorization above and on a warm session
hit with 1 and 32 right-hand sides.

The hybrid cases also hash both sides of every step's criterion
(``decision.lhs``/``rhs``).  The left side is ``dgecon``'s estimate on the
host, whose bits hold at any thread count up to tile order 255: from 256
elements OpenBLAS runs the ``dasum`` inside ``dgecon`` on two threads, so
at ``nb >= 256`` an estimate's last bits may differ (the factors do not,
and a decision can move only on an exact tie).  The hybrid cases here run
up to ``nb = 128``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads"
)

_PRELUDE = """
import hashlib
import numpy as np
import repro

def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()
"""

_FACTOR = _PRELUDE + """
n, nb, algorithm, criterion, both_kinds = {n}, {nb}, {algorithm!r}, {criterion!r}, {both_kinds}
rng = np.random.default_rng(7)
a = rng.standard_normal((n, n))
b = rng.standard_normal((n, 2))
options = dict(criterion=criterion) if criterion else dict()
fact = repro.make_solver(algorithm=algorithm, tile_size=nb, **options).factor(a, b)
assert fact.succeeded, fact.breakdown
# The criterion's two sides at every decided step (the hybrid's), so a
# decision that could move with the thread count is caught too.
sides = [(s.decision.lhs, s.decision.rhs) for s in fact.steps if s.decision is not None]
if both_kinds:
    assert fact.qr_steps > 0 and fact.lu_steps > 0, fact.step_kinds
    assert len(sides) == fact.n_steps
print(digest(fact.tiles.array, fact.tiles.rhs, fact.solve(), np.array(sides)))
"""

_SESSION_HIT = _PRELUDE + """
rng = np.random.default_rng(17)
a = rng.standard_normal((1024, 1024))
session = repro.SolverSession(algorithm="hybrid", tile_size=128, criterion="max(alpha=500)")
session.warm(a)
print(1, digest(session.solve(a, rng.standard_normal(1024)).x))
results = session.solve_many(a, rng.standard_normal((1024, 32)))
print(32, digest(*(r.x for r in results)))
assert session.stats.hits == 2
"""

_PANELS = _PRELUDE + """
from repro.linalg import getrf

rng = np.random.default_rng(11)
for shape in [(1024, 128), (2048, 256)]:
    lu, piv = getrf(rng.standard_normal(shape))
    print(shape, digest(lu, piv))
"""


_QR_KERNELS = _PRELUDE + """
from scipy.linalg.lapack import dgemqrt, dgeqrt, dtpmqrt, dtpqrt
from repro.kernels.qr_kernels import IB

F = np.asfortranarray
rng = np.random.default_rng(19)
for nb in (3, 8, 12, 16, 17, 64, 128):
    ib = min(nb, IB)
    a, r = rng.standard_normal((nb, nb)), np.triu(rng.standard_normal((nb, nb)))
    qr, t, info = dgeqrt(ib, F(a))
    assert info == 0
    hashes, pairs = [digest(qr, t)], []
    for l, bottom in ((0, a), (nb, np.triu(a))):  # TSQRT, TTQRT
        top, vb, tb, info = dtpqrt(l, ib, F(r), F(bottom))
        assert info == 0
        hashes.append(digest(top, vb, tb))
        pairs.append((l, vb, tb))
    # Unpadded widths: at ib = 16 the applies already differ at width 300.
    for width in (1, 7, 300, 1024):
        x, y = F(rng.standard_normal((width, nb))), F(rng.standard_normal((width, nb)))
        out = [dgemqrt(qr, t, x, "R", "N")[0]]
        for l, vb, tb in pairs:
            out += dtpmqrt(l, vb, tb, x, y, "R", "N")[:2]
        hashes.append(digest(*out))
    print(nb, *hashes)
"""


_BULK = _PRELUDE + """
from repro.core.factorization import StepRecord
from repro.core.lu_step import lu_step_tasks
from repro.core.panel_analysis import analyze_panel
from repro.core.qr_step import qr_step_tasks
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix
from repro.trees.greedy import GreedyTree

rng = np.random.default_rng(13)
a, b = rng.standard_normal((1024, 1024)), rng.standard_normal((1024, 2))
for kind in ("LU", "QR"):
    tiles = TileMatrix.from_dense(a, 256, rhs=b)
    record = StepRecord(k=0, kind=kind)
    if kind == "LU":
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
        tasks = lu_step_tasks(tiles, 0, analyze_panel(tiles, dist, 0), record)
    else:
        tasks = qr_step_tasks(tiles, 0, GreedyTree().eliminations(range(4)), record)
    for task in tasks:
        task.fn()
    print(kind, digest(tiles.array, tiles.rhs))
"""


_PARTED_CHAIN = _PRELUDE + """
from repro.kernels.qr_kernels import WORKSPACE, apply_chain, geqrt_tile, tsqrt, ttqrt

rng = np.random.default_rng(23)
rows = 6
for nb in (16, 17, 64):
    tiles = [rng.standard_normal((nb, nb)) for _ in range(rows)]
    ops = [(geqrt_tile(a), i, None) for i, a in enumerate(tiles)]
    ops += [(tsqrt(np.triu(tiles[0]), tiles[i]), 0, i) for i in (1, 2)]
    ops += [(tsqrt(np.triu(tiles[3]), tiles[i]), 3, i) for i in (4, 5)]
    ops.append((ttqrt(np.triu(tiles[0]), tiles[3]), 0, 3))
    # A block just over one workspace chunk wide: the chunk boundary falls
    # inside it, so the second chunk carries its tail and the RHS together.
    cols = max(8, WORKSPACE // (rows * nb) // 8 * 8) // nb + 1
    a, b = rng.standard_normal((rows * nb, cols * nb)), rng.standard_normal((rows * nb, 7))
    apply_chain([(a[i * nb : (i + 1) * nb], b[i * nb : (i + 1) * nb]) for i in range(rows)], ops)
    print(nb, digest(a, b))
"""


def _run(script: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "n, nb, algorithm, criterion, both_kinds",
    [
        (256, 64, "hybrid", "max(alpha=5)", True),
        # Small tiles, wide bulk GEMMs and QR chains, both step kinds.
        (512, 16, "hybrid", "max(alpha=50)", True),
        # The kernel-bound benchmark configuration: 1024x128 domain panels,
        # far above the size where a bare dgetrf starts to thread.
        (1024, 128, "hybrid", "max(alpha=500)", True),
        (512, 128, "lu_incpiv", None, False),
        (512, 128, "lupp", None, False),
    ],
    ids=[
        "hybrid-256-64",
        "hybrid-512-16",
        "hybrid-1024-128",
        "lu_incpiv-512-128",
        "lupp-512-128",
    ],
)
def test_factors_identical_for_one_and_two_blas_threads(n, nb, algorithm, criterion, both_kinds):
    script = _FACTOR.format(
        n=n, nb=nb, algorithm=algorithm, criterion=criterion, both_kinds=both_kinds
    )
    one, two = _run(script, 1), _run(script, 2)
    assert len(one) == 64
    assert one == two


def test_session_hit_solution_identical_for_one_and_two_blas_threads():
    """The warm-hit back-substitution (one ``dtrtrs``), with 1 and 32 columns."""
    one, two = _run(_SESSION_HIT, 1), _run(_SESSION_HIT, 2)
    assert len(one.splitlines()) == 2
    assert one == two


def test_panel_lu_identical_for_one_and_two_blas_threads():
    """``getrf`` itself, on panels a bare ``dgetrf`` factors thread-dependently."""
    one, two = _run(_PANELS, 1), _run(_PANELS, 2)
    assert len(one.splitlines()) == 2
    assert one == two


def test_qr_kernels_identical_for_one_and_two_blas_threads():
    """The five tile-QR LAPACK calls at the kernels' ``IB``, per tile order and width."""
    one, two = _run(_QR_KERNELS, 1), _run(_QR_KERNELS, 2)
    assert len(one.splitlines()) == 7
    assert one == two


def test_parted_qr_chain_identical_for_one_and_two_blas_threads():
    """One chain over ``[A | b]`` row parts, with a chunk across the boundary."""
    one, two = _run(_PARTED_CHAIN, 1), _run(_PARTED_CHAIN, 2)
    assert len(one.splitlines()) == 3
    assert one == two


def test_bulk_applies_identical_for_one_and_two_blas_threads():
    """One LU and one QR step of a 1024 x 1024 matrix of 256-tiles."""
    one, two = _run(_BULK, 1), _run(_BULK, 2)
    assert len(one.splitlines()) == 2
    assert one == two
