"""Correctness-analysis subsystem for the dataflow runtime.

Two engines behind one entry point, :func:`audit`:

- the **static plan verifier** (:mod:`repro.analysis.verifier`) proves a
  :class:`~repro.runtime.graph.TaskGraph` is an acyclic, conflict-free,
  well-typed dataflow plan;
- the **dynamic race detector** (:mod:`repro.analysis.tracing`) is a
  ``tracing`` kernel backend that write-guards tile views and raises a
  structured :class:`RaceReport` on any access a kernel performs outside
  its declared read/write sets.

Plugins are checked where they register (:mod:`repro.api.registry`): a
kernel backend whose ``name`` is not its registry name is refused there.

A kernel that raises during the audit's inline run is reported as a
``kernel-error`` violation; the run-time tile accessors' bounds and shape
checks are what catch a sweep running off the matrix or a factor of the
wrong shape.

A schedule-perturbation determinism check
(:mod:`repro.analysis.determinism`) rounds the set out: randomized
ready-queue orders on the threaded executor must stay bit-identical to
the inline reference.

On top of those, :mod:`repro.analysis.placement` checks where a plan
runs: owner-computes placement under the block-cyclic distribution, the
LU diagonal-domain pivoting invariant, and per-edge communication volume
priced by the platform model.  On a distributed executor the audit also
compares the rank each task ran on with its owner-computes rank.

Run it from the command line with ``repro-analyze`` (or
``python -m repro.analysis``).
"""

from .audit import audit, capture_plan, default_audit_system
from .corruption import run_corruption_suite
from .determinism import PerturbedThreadedExecutor, determinism_check
from .placement import (
    PlacementSummary,
    analyze_placement,
    assign_owners,
    owner_of_ref,
    signature_effect,
    task_anchor,
    task_label,
)
from .report import AuditReport, RaceReport, Violation
from .tracing import AccessRecorder, TracingBackend, TracingTileMatrix
from .verifier import verify_graph

__all__ = [
    "audit",
    "capture_plan",
    "default_audit_system",
    "verify_graph",
    "determinism_check",
    "PerturbedThreadedExecutor",
    "AccessRecorder",
    "TracingBackend",
    "TracingTileMatrix",
    "AuditReport",
    "RaceReport",
    "Violation",
    # placement
    "signature_effect",
    "task_label",
    "PlacementSummary",
    "analyze_placement",
    "assign_owners",
    "owner_of_ref",
    "task_anchor",
    "run_corruption_suite",
]
