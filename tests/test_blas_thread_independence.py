"""Factors must not depend on the BLAS thread count.

Worker processes of the ``processes`` and ``cluster`` executors start with
one BLAS thread while the host may run two or more, so executor bit-identity
needs every kernel to give the same bits at any thread count.  The QR tile
kernels were chosen for that (LAPACK ``dgeqrt`` plus GEMM applies; the
``dtpqrt`` family is not thread-stable from nb = 32 up) — this is the guard
that fails if a thread-sensitive routine is swapped in later.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_FACTOR_AND_HASH = """
import hashlib
import numpy as np
import repro

rng = np.random.default_rng(7)
a = rng.standard_normal((256, 256))
b = rng.standard_normal((256, 2))
solver = repro.make_solver(algorithm="hybrid", tile_size=64, criterion="max(alpha=5)")
fact = solver.factor(a, b)
assert fact.qr_steps > 0 and fact.lu_steps > 0, fact.step_kinds
digest = hashlib.sha256()
digest.update(np.ascontiguousarray(fact.tiles.array).tobytes())
digest.update(np.ascontiguousarray(fact.tiles.rhs).tobytes())
print(digest.hexdigest())
"""


def _factor_digest(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FACTOR_AND_HASH],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_factors_identical_for_one_and_two_blas_threads():
    one, two = _factor_digest(1), _factor_digest(2)
    assert len(one) == 64
    assert one == two
