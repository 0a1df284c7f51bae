"""Structured findings of the correctness-analysis engines.

Every engine (access tracer, placement analysis, determinism check)
reduces its findings to :class:`Violation` records so
one :class:`AuditReport` can aggregate them; the dynamic tracer additionally
raises :class:`RaceReport` — an exception carrying the same structure —
at the exact access that breaks a task's declared read/write sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Violation", "RaceReport", "AuditReport"]


@dataclass(frozen=True)
class Violation:
    """One correctness finding.

    ``kind`` is a stable machine-readable tag (``"undeclared-write"``,
    ``"kernel-error"``, ``"wrong-owner"``, ...);
    ``message`` is the human-readable diagnosis.  ``tasks`` names the
    offending task uids (when the finding is about graph tasks) and
    ``tile`` the tile reference (when it is about one tile).
    """

    kind: str
    message: str
    tasks: Tuple[int, ...] = ()
    tile: Optional[Tuple[int, int]] = None
    subject: Optional[str] = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


class RaceReport(RuntimeError):
    """A kernel touched a tile outside its declared read/write sets.

    Raised by the tracing backend at the offending access.  Carries the
    task uid (when known), the kernel name, the tile reference, and the
    declared sets, so the report pinpoints exactly which declaration in
    which step planner is wrong.
    """

    def __init__(
        self,
        message: str,
        *,
        task_uid: Optional[int] = None,
        kernel: str = "?",
        step: Optional[int] = None,
        tile: Optional[Tuple[int, int]] = None,
        access: str = "read",
        declared_reads: Tuple[Tuple[int, int], ...] = (),
        declared_writes: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        super().__init__(message)
        self.task_uid = task_uid
        self.kernel = kernel
        self.step = step
        self.tile = tile
        self.access = access
        self.declared_reads = tuple(sorted(declared_reads))
        self.declared_writes = tuple(sorted(declared_writes))

    def as_violation(self) -> Violation:
        tasks = () if self.task_uid is None else (self.task_uid,)
        return Violation(
            kind=f"undeclared-{self.access}",
            message=str(self),
            tasks=tasks,
            tile=self.tile,
            subject=self.kernel,
        )


@dataclass
class AuditReport:
    """Aggregated findings of one :func:`repro.analysis.audit` run.

    ``sections`` maps an engine name (``"tracer"``, ``"execution"``,
    ``"placement"``, ``"determinism"``)
    to its findings; ``violations`` flattens them in engine order.
    ``checked`` counts what the engines actually covered (graphs, tasks,
    steps) so an empty report can be told apart from an engine that never
    ran.
    """

    sections: Dict[str, List[Violation]] = field(default_factory=dict)
    checked: Dict[str, int] = field(default_factory=dict)
    #: Placement summaries (comm volume, pivot stats) keyed by analysis
    #: pass — quantities, not findings, so they live outside ``sections``.
    resources: Dict[str, Any] = field(default_factory=dict)

    @property
    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for findings in self.sections.values():
            out.extend(findings)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, section: str, findings: List[Violation]) -> None:
        self.sections.setdefault(section, []).extend(findings)

    def count(self, what: str, n: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + n

    def summary(self) -> str:
        """Multi-line human-readable summary (the CLI prints this)."""
        lines: List[str] = []
        for section, findings in self.sections.items():
            status = "ok" if not findings else f"{len(findings)} violation(s)"
            lines.append(f"{section}: {status}")
            for v in findings:
                lines.append(f"  - {v}")
        for key, value in sorted(self.resources.items()):
            if isinstance(value, dict):
                inner = ", ".join(
                    f"{k}={v}" for k, v in value.items() if not isinstance(v, dict)
                )
                lines.append(f"{key}: {inner}")
            else:
                lines.append(f"{key}: {value}")
        coverage = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
        if coverage:
            lines.append(f"checked: {coverage}")
        lines.append("AUDIT PASSED" if self.ok else "AUDIT FAILED")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the whole report (``repro-analyze --json``)."""

        def violation_dict(v: Violation) -> Dict[str, Any]:
            out: Dict[str, Any] = {"kind": v.kind, "message": v.message}
            if v.tasks:
                out["tasks"] = list(v.tasks)
            if v.tile is not None:
                out["tile"] = list(v.tile)
            if v.subject is not None:
                out["subject"] = v.subject
            return out

        return {
            "ok": self.ok,
            "sections": {
                name: [violation_dict(v) for v in findings]
                for name, findings in self.sections.items()
            },
            "checked": dict(self.checked),
            "resources": self.resources,
        }
