"""Result objects of the tiled factorizations.

Every solver of this library (the hybrid LU-QR algorithm and all the
baselines) produces the same two artefacts:

* a :class:`Factorization` — the factored tile matrix (upper triangle holds
  the triangular factor, the attached right-hand side has been transformed
  along, Section II-D1), plus one :class:`StepRecord` per panel describing
  *what* was done (LU or QR, which kernels, which decision) so that the
  performance model can replay the execution on a simulated platform;
* a :class:`SolveResult` — the solution of ``Ax = b`` together with its
  stability metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..criteria.base import CriterionDecision
from ..linalg.triangular import tiled_back_substitution
from ..runtime.task import kernel_mix
from ..stability.growth import GrowthTracker
from ..stability.metrics import StabilityReport, stability_report
from ..tiles.tile_matrix import TileMatrix
from ..trees.base import Elimination

__all__ = ["StepRecord", "Factorization", "SolveResult", "stack_rhs"]


@dataclass
class StepRecord:
    """What happened at one elimination step ``k``.

    Attributes
    ----------
    k:
        Panel index.
    kind:
        ``"LU"`` or ``"QR"``.
    decision:
        The criterion evaluation that led to this kind (``None`` for
        baselines that never evaluate a criterion).
    kernel_counts:
        Number of invocations of each tile kernel during the step, keyed by
        lower-case kernel name (``"getrf"``, ``"gemm"``, ``"tsqrt"``, ...):
        the sum of the planned tasks' kernel mixes (:meth:`add_tasks`) plus
        the control charges of the hybrid and LUPP drivers.  Table I
        (:mod:`repro.experiments.table1`) and :meth:`Factorization.kernel_totals`
        read it; :func:`repro.perf.model.plan_graph` has one task per
        kernel of the planned tasks' mixes and its own control tasks.
    domain_rows:
        Tile rows of the diagonal domain at this step.
    eliminations:
        For QR steps, the elimination list actually used.
    decision_overhead:
        Whether the step paid the decision-making overhead (backup panel,
        domain factorization, criterion all-reduce, propagate/restore).
        True for the hybrid algorithm, False for the pure baselines.
    """

    k: int
    kind: str
    decision: Optional[CriterionDecision] = None
    kernel_counts: Dict[str, int] = field(default_factory=dict)
    domain_rows: List[int] = field(default_factory=list)
    eliminations: List[Elimination] = field(default_factory=list)
    decision_overhead: bool = False

    def add_kernel(self, name: str, count: int = 1) -> None:
        """Increment the invocation count of kernel ``name``."""
        self.kernel_counts[name] = self.kernel_counts.get(name, 0) + count

    def add_tasks(self, tasks) -> None:
        """Count every logical kernel of the planned ``tasks`` (their mixes)."""
        for task in tasks:
            for name, count in kernel_mix(task):
                self.add_kernel(name, count)

    @property
    def is_lu(self) -> bool:
        return self.kind == "LU"

    @property
    def is_qr(self) -> bool:
        return self.kind == "QR"


@dataclass
class Factorization:
    """Outcome of factoring ``[A | b]`` with a tiled solver.

    The ``tiles`` attribute holds the factored matrix: its upper triangle
    (including upper-triangular diagonal tiles) is the triangular factor
    ``U``/``R`` of the hybrid factorization; entries below the diagonal hold
    multipliers or are zeroed and are never read again.  The attached RHS
    has received every transformation, so solving only requires the final
    tiled back-substitution.
    """

    tiles: TileMatrix
    steps: List[StepRecord]
    algorithm: str
    criterion_name: Optional[str] = None
    alpha: Optional[float] = None
    growth: Optional[GrowthTracker] = None
    breakdown: Optional[str] = None
    #: Rows/columns appended by :func:`~repro.core.solver_base.pad_to_tile_multiple`
    #: to make the order a tile multiple (0 when none were needed).
    padding: int = 0

    # ------------------------------------------------------------------ #
    # Step statistics (the "% of LU steps" columns of the paper)
    # ------------------------------------------------------------------ #
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def lu_steps(self) -> int:
        return sum(1 for s in self.steps if s.is_lu)

    @property
    def qr_steps(self) -> int:
        return sum(1 for s in self.steps if s.is_qr)

    @property
    def lu_fraction(self) -> float:
        """Fraction of elimination steps performed with LU kernels."""
        return self.lu_steps / self.n_steps if self.steps else 0.0

    @property
    def lu_percentage(self) -> float:
        """``100 * lu_fraction`` (the paper's "% LU steps" column)."""
        return 100.0 * self.lu_fraction

    @property
    def step_kinds(self) -> List[str]:
        return [s.kind for s in self.steps]

    @property
    def succeeded(self) -> bool:
        """False when the factorization broke down (e.g. zero pivot in LU NoPiv)."""
        return self.breakdown is None

    def kernel_totals(self) -> Dict[str, int]:
        """Total kernel invocation counts over the whole factorization."""
        totals: Dict[str, int] = {}
        for s in self.steps:
            for name, count in s.kernel_counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    @property
    def growth_factor(self) -> float:
        """Measured tile-norm growth factor (1.0 when tracking was disabled)."""
        return self.growth.growth_factor if self.growth is not None else 1.0

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self) -> np.ndarray:
        """Back-substitute the transformed RHS against the triangular factor.

        One LAPACK ``dtrtrs`` on the factor's upper triangle, read in place
        (:func:`~repro.linalg.triangular.tiled_back_substitution`); the
        factors and the transformed RHS are not written.  Raises
        ``numpy.linalg.LinAlgError`` on an exactly-zero diagonal entry and
        ``ValueError`` on a non-finite solution.
        """
        if not self.succeeded:
            raise RuntimeError(f"cannot solve: factorization broke down ({self.breakdown})")
        if not self.tiles.has_rhs:
            raise ValueError("factorization was computed without a right-hand side")
        x = tiled_back_substitution(self.tiles.array, self.tiles.rhs, self.tiles.nb)
        return x[:, 0] if x.shape[1] == 1 else x


@dataclass
class SolveResult:
    """Solution of ``Ax = b`` plus its stability metrics."""

    x: np.ndarray
    factorization: Factorization
    stability: StabilityReport

    @property
    def hpl3(self) -> float:
        """The paper's HPL3 accuracy value for this solve."""
        return self.stability.hpl3

    @classmethod
    def from_factorization(
        cls,
        a_original: np.ndarray,
        b_original: np.ndarray,
        factorization: Factorization,
        x_true: Optional[np.ndarray] = None,
    ) -> "SolveResult":
        """Solve and evaluate stability against the *original* ``A`` and ``b``."""
        x = factorization.solve()
        report = stability_report(a_original, x, b_original, x_true=x_true)
        return cls(x=x, factorization=factorization, stability=report)


def stack_rhs(
    n: int,
    bs: Union[np.ndarray, Sequence[np.ndarray]],
    x_true: Union[np.ndarray, Sequence[np.ndarray], None] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Normalise the right-hand sides of a ``solve_many`` to an ``(n, nrhs)`` block.

    ``bs`` is an ``(n, nrhs)`` array, one length-``n`` vector, or a sequence
    of length-``n`` vectors (stacked as *columns*); ``x_true``, when given,
    takes the same forms and must stack to the same shape.  Returns the
    float64 blocks ``(b_mat, xt_mat)``, ``xt_mat`` being ``None`` without
    ``x_true``.
    """

    def stack(vs) -> np.ndarray:
        if isinstance(vs, np.ndarray):
            mat = np.asarray(vs, dtype=np.float64)
            return mat.reshape(-1, 1) if mat.ndim == 1 else mat
        return np.column_stack([np.asarray(v, dtype=np.float64).reshape(-1) for v in vs])

    b_mat = stack(bs)
    if b_mat.ndim != 2:
        raise ValueError(
            f"right-hand sides must form a 1-D or 2-D array, got ndim={b_mat.ndim}"
        )
    if b_mat.shape[0] != n:
        raise ValueError(
            f"right-hand sides have {b_mat.shape[0]} rows but A has order {n}"
        )
    xt_mat = None if x_true is None else stack(x_true)
    if xt_mat is not None and xt_mat.shape != b_mat.shape:
        raise ValueError(
            f"x_true has shape {xt_mat.shape} but the right-hand sides "
            f"have shape {b_mat.shape}"
        )
    return b_mat, xt_mat
