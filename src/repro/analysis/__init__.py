"""Correctness-analysis subsystem for the dataflow runtime.

The runtime infers every dependency from the tile accesses each task
declares, so the checks behind the one entry point, :func:`audit`, are
the ones that catch a kernel touching what it did not declare and a task
running where it should not:

- the **dynamic race detector** (:mod:`repro.analysis.tracing`) is a
  ``tracing`` kernel backend that write-guards tile views and raises a
  structured :class:`RaceReport` on any access a kernel performs outside
  its declared read/write sets;
- the **placement analysis** (:mod:`repro.analysis.placement`) checks
  owner-computes placement under the block-cyclic distribution, the LU
  diagonal-domain pivoting invariant, and per-edge communication volume
  priced by the platform model.  On a distributed executor the audit also
  compares the rank each task ran on with its owner-computes rank.

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

__all__ = [
    "audit",
    "capture_plan",
    "default_audit_system",
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
