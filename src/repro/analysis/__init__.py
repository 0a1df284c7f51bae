"""Correctness-analysis subsystem for the dataflow runtime.

Three engines behind one entry point, :func:`audit`:

- the **static plan verifier** (:mod:`repro.analysis.verifier`) proves a
  :class:`~repro.runtime.graph.TaskGraph` is an acyclic, conflict-free,
  well-typed dataflow plan;
- the **dynamic race detector** (:mod:`repro.analysis.tracing`) is a
  ``tracing`` kernel backend that write-guards tile views and raises a
  structured :class:`RaceReport` on any access a kernel performs outside
  its declared read/write sets;
- the **registry lint** (:mod:`repro.analysis.registry_lint`) catches
  plugin drift (unpicklable kernel calls, unpriceable kernel names,
  protocol-violating solvers/executors/backends) at import time instead
  of inside a worker process.

A schedule-perturbation determinism check
(:mod:`repro.analysis.determinism`) rounds the set out: randomized
ready-queue orders on the threaded executor must stay bit-identical to
the inline reference.

On top of those, the **static resource analyzer** certifies resource
behaviour of a plan:

- :mod:`repro.analysis.abstract` — abstract interpretation over tile
  shapes: conformability of every kernel and sweep shape consistency;
- :mod:`repro.analysis.liveness` — tile/product liveness intervals and a
  certified peak-memory bound, cross-checked against execution traces;
- :mod:`repro.analysis.placement` — owner-computes placement under the
  block-cyclic distribution, the LU diagonal-domain pivoting invariant,
  and per-edge communication volume priced by the platform model.

Run it from the command line with ``repro-analyze`` (or
``python -m repro.analysis``).
"""

from .abstract import (
    AbstractResult,
    AbstractTile,
    initial_state,
    interpret_graph,
    interpret_graphs,
    make_context,
    signature_effect,
)
from .audit import audit, capture_plan, default_audit_system
from .corruption import run_corruption_suite
from .determinism import PerturbedThreadedExecutor, determinism_check
from .liveness import (
    MemoryCertificate,
    ProductInterval,
    analyze_liveness,
    certify_peak_memory,
    collect_product_intervals,
    tile_storage_bytes,
    traced_product_peak,
)
from .placement import (
    PlacementSummary,
    analyze_placement,
    assign_owners,
    owner_of_ref,
    task_anchor,
)
from .registry_lint import lint_registries
from .report import AuditReport, RaceReport, Violation
from .tracing import AccessRecorder, TracingBackend, TracingTileMatrix
from .verifier import expected_fused_sets, verify_graph

__all__ = [
    "audit",
    "capture_plan",
    "default_audit_system",
    "verify_graph",
    "expected_fused_sets",
    "lint_registries",
    "determinism_check",
    "PerturbedThreadedExecutor",
    "AccessRecorder",
    "TracingBackend",
    "TracingTileMatrix",
    "AuditReport",
    "RaceReport",
    "Violation",
    # static resource analyzer
    "AbstractResult",
    "AbstractTile",
    "initial_state",
    "interpret_graph",
    "interpret_graphs",
    "make_context",
    "signature_effect",
    "MemoryCertificate",
    "ProductInterval",
    "analyze_liveness",
    "certify_peak_memory",
    "collect_product_intervals",
    "tile_storage_bytes",
    "traced_product_peak",
    "PlacementSummary",
    "analyze_placement",
    "assign_owners",
    "owner_of_ref",
    "task_anchor",
    "run_corruption_suite",
]
