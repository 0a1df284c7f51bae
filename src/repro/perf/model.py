"""Performance model: from a step trace to the GFLOP/s numbers of the paper.

Performance in the paper is reported as *normalised* GFLOP/s:

    GFLOP/s = (2/3 N^3) / execution time

i.e. every algorithm is credited the flop count of an LU factorization —
the "fake" rate — so an algorithm that performs QR steps shows a lower rate
even at equal hardware efficiency.  Table II additionally reports the
"true" rate where the numerator is the number of flops actually performed,
``(2/3 f_LU + 4/3 (1 - f_LU)) N^3``.

A run is a :class:`FactorizationSpec` (algorithm, tile counts, per-step
LU/QR kinds).  :func:`plan_graph` plans it with the solver's own step
planner, without numerics
(:meth:`~repro.core.solver_base.TiledSolverBase.plan_kind`), and expands
every planned task into the per-tile kernel units its op's effect rule
declares: one task per unit, owned by its anchor tile's rank, priced at
its kernel's flop count, with dependencies inferred from its tile
accesses.  Each step adds its control tasks (the hybrid's decision, LUPP's
pivot exchange); the graph has no right-hand side.
:class:`PerformanceModel` schedules the graph on a modelled platform with
the discrete-event simulator and converts the makespan into the fake/true
GFLOP/s and %-of-peak columns; a
:class:`~repro.perf.calibrate.Calibration` replaces the platform's rates
with measured per-kernel durations.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.placement import constituent_units, owner_of_ref
from ..baselines import HQRSolver, LUIncPivSolver, LUNoPivSolver, LUPPSolver
from ..core.factorization import Factorization
from ..core.hybrid import HybridLUQRSolver
from ..kernels.dispatch import SigContext, op_effect
from ..kernels.flops import KernelFlops, fake_flops, true_flops
from ..runtime.graph import TaskGraph
from ..runtime.platform import Platform, dancer_platform
from ..runtime.schedule import KernelTask, static_kernel_flops
from ..runtime.simulator import SimulationResult, simulate
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..trees.base import ReductionTree

__all__ = [
    "FactorizationSpec",
    "planned_steps",
    "plan_graph",
    "PerformanceReport",
    "PerformanceModel",
]

#: Solver class of every ``FactorizationSpec.algorithm`` label.
_SOLVERS = {
    cls.algorithm: cls
    for cls in (HybridLUQRSolver, LUNoPivSolver, LUIncPivSolver, LUPPSolver, HQRSolver)
}

#: Bandwidth of the node-local copies behind the panel backup and restore.
_MEMCPY_BANDWIDTH = 5.0e9


@dataclass
class FactorizationSpec:
    """Everything the performance model needs to know about one run.

    Attributes
    ----------
    n_tiles:
        Number of tile rows/columns.
    tile_size:
        Tile order ``nb``.
    step_kinds:
        ``"LU"`` or ``"QR"`` for each of the ``n_tiles`` steps; each must be
        a kind the algorithm's solver plans.
    algorithm:
        Solver label (``"LUQR"``, ``"LU NoPiv"``, ``"LU IncPiv"``,
        ``"LUPP"``, ``"HQR"``): its planner builds the steps, and
        ``"LUPP"`` pays a panel-wide pivot exchange per step.
    decision_overhead:
        Whether each step pays backup / criterion / propagate (hybrid only).
    grid:
        Process grid of the target platform run.
    intra_tree / inter_tree:
        Reduction trees of the QR steps (the solver's defaults when None).
    """

    n_tiles: int
    tile_size: int
    step_kinds: List[str]
    algorithm: str = "LUQR"
    decision_overhead: bool = False
    grid: ProcessGrid = field(default_factory=lambda: ProcessGrid(1, 1))
    intra_tree: Optional[ReductionTree] = None
    inter_tree: Optional[ReductionTree] = None

    def __post_init__(self) -> None:
        if len(self.step_kinds) != self.n_tiles:
            raise ValueError(
                f"expected {self.n_tiles} step kinds, got {len(self.step_kinds)}"
            )
        solver = _SOLVERS.get(self.algorithm)
        if solver is None:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {sorted(_SOLVERS)}"
            )
        for kind in self.step_kinds:
            if kind not in solver.step_kinds:
                raise ValueError(f"{self.algorithm} plans no {kind!r} steps")

    @classmethod
    def of(cls, fact: Factorization, grid: Optional[ProcessGrid] = None) -> "FactorizationSpec":
        """The spec of a numerical factorization's run."""
        return cls(
            n_tiles=fact.tiles.n,
            tile_size=fact.tiles.nb,
            step_kinds=fact.step_kinds,
            algorithm=fact.algorithm,
            decision_overhead=any(s.decision_overhead for s in fact.steps),
            grid=grid if grid is not None else ProcessGrid(1, 1),
        )

    @property
    def lu_fraction(self) -> float:
        if not self.step_kinds:
            return 0.0
        return sum(1 for k in self.step_kinds if k == "LU") / len(self.step_kinds)


#: What a step planner reads of the tile matrix: its shape, and no RHS.
_TileShape = namedtuple("_TileShape", "n nb has_rhs", defaults=(False,))


def planned_steps(spec: FactorizationSpec) -> Iterator[Tuple[int, str, List[KernelTask]]]:
    """``(k, kind, tasks)`` of every step of ``spec``, planned without numerics
    by the algorithm's own solver."""
    solver_class = _SOLVERS[spec.algorithm]
    trees = {}
    if "QR" in solver_class.step_kinds:
        trees = dict(intra_tree=spec.intra_tree, inter_tree=spec.inter_tree)
    solver = solver_class(spec.tile_size, grid=spec.grid, **trees)
    tiles = _TileShape(spec.n_tiles, spec.tile_size)
    dist = BlockCyclicDistribution(spec.grid, spec.n_tiles)
    for k, kind in enumerate(spec.step_kinds):
        _record, tasks = solver.plan_kind(tiles, dist, k, kind)
        yield k, kind, tasks


def plan_graph(spec: FactorizationSpec, platform: Optional[Platform] = None) -> TaskGraph:
    """The per-tile task graph of the run ``spec`` describes.

    Every planned task of :func:`planned_steps` becomes one task per kernel
    unit its effect rule declares, in program order, after the step's
    control tasks.  A unit is priced at its kernel's flop count; the LU
    factor a step scatters is priced as the factorization of all its rows
    (LUPP: the whole remaining panel).  ``platform`` only prices the
    control tasks that communicate (criterion all-reduce, LUPP pivot
    exchange); compute units carry flop counts and are priced by the
    simulator itself.
    """
    nb = spec.tile_size
    dist = BlockCyclicDistribution(spec.grid, spec.n_tiles)
    ctx = SigContext(n=spec.n_tiles, nb=nb, nrhs=0)
    flops = lru_cache(maxsize=None)(partial(static_kernel_flops, nb=nb))
    graph = TaskGraph()
    for k, kind, tasks in planned_steps(spec):
        control = _control_tasks(graph, spec, dist, k, kind, platform)
        for task in tasks:
            factor = task.call.kernel == "lu.scatter_factor"
            # LU ON PANEL already factored (and was charged for) the
            # domain; the LU step reuses it, a zero-cost propagate.
            reuse = spec.decision_overhead and factor
            for unit in constituent_units(task, op_effect(task.call, k, ctx)):
                if reuse:
                    price = 0.0
                elif factor:
                    price = _panel_getrf_flops(len(task.call.args[1]), nb)
                else:
                    price = flops(unit.kernel)
                graph.add_task(
                    kernel="propagate" if reuse else unit.kernel,
                    step=k,
                    reads=unit.reads,
                    writes=unit.writes,
                    owner=owner_of_ref(unit.anchor, dist),
                    flops=price,
                    duration_hint=0.0 if reuse else None,
                    extra_deps=control,
                )
    return graph


def _panel_getrf_flops(rows: int, nb: int) -> float:
    """Flops of the LU factorization of a ``rows * nb`` by ``nb`` panel."""
    return rows * nb**3 - nb**3 / 3.0


def _control_tasks(
    graph: TaskGraph,
    spec: FactorizationSpec,
    dist: BlockCyclicDistribution,
    k: int,
    kind: str,
    platform: Optional[Platform],
) -> List[int]:
    """Add step ``k``'s control tasks; return the uids its units wait for.

    With the decision overhead: BACKUP PANEL, LU ON PANEL (the diagonal
    domain's factorization), the criterion data of every other panel
    owner, the all-reduce of the decision and, for a QR step, the restore
    of the panel.  For LUPP: the panel-wide pivot exchange.  All are marked
    ``critical``; the simulator ignores the flag.
    """
    nb = spec.tile_size
    diag_owner = dist.diagonal_owner(k)
    panel_owners = dist.panel_owners(k)
    deps: List[int] = []
    if spec.decision_overhead:
        domain = [(i, k) for i in dist.diagonal_domain_rows(k)]
        copy_time = len(domain) * 8.0 * nb * nb / _MEMCPY_BANDWIDTH
        backup = graph.add_task(
            "panel_backup", k, reads=domain, owner=diag_owner, critical=True,
            duration_hint=copy_time,
        )
        lu_on_panel = graph.add_task(
            "getrf", k, reads=domain, writes=domain, owner=diag_owner, critical=True,
            flops=_panel_getrf_flops(len(domain), nb), extra_deps=[backup.uid],
        )
        inputs = [lu_on_panel.uid]
        for rank in panel_owners:
            if rank != diag_owner:
                rows = dist.domain_rows(k, rank)
                local = graph.add_task(
                    "criterion_local", k, reads=[(i, k) for i in rows], owner=rank,
                    critical=True, flops=len(rows) * KernelFlops(nb).tile_norm,
                )
                inputs.append(local.uid)
        allreduce = graph.add_task(
            "criterion_allreduce", k, owner=diag_owner, critical=True,
            duration_hint=platform.allreduce_time(len(panel_owners), 8.0 * nb) if platform else 0.0,
            extra_deps=inputs,
        )
        deps = [allreduce.uid]
        if kind == "QR":
            restore = graph.add_task(
                "panel_restore", k, writes=domain, owner=diag_owner, critical=True,
                duration_hint=copy_time, extra_deps=deps,
            )
            deps = [restore.uid]
    if spec.algorithm == "LUPP":
        panel = [(i, k) for i in range(k, spec.n_tiles)]
        pivot = graph.add_task(
            "panel_pivot_exchange", k, reads=panel, writes=panel, owner=diag_owner,
            critical=True,
            duration_hint=platform.pivot_exchange_time(len(panel_owners), nb) if platform else 0.0,
        )
        deps.append(pivot.uid)
    return deps


@dataclass
class PerformanceReport:
    """Performance of one simulated run (one row of Table II)."""

    algorithm: str
    n_order: int
    n_tiles: int
    tile_size: int
    lu_fraction: float
    execution_time: float
    fake_gflops: float
    true_gflops: float
    fake_peak_fraction: float
    true_peak_fraction: float
    n_tasks: int
    communication_bytes: float
    critical_path_time: float
    platform_peak_gflops: float
    per_kernel_time: Dict[str, float]

    @property
    def lu_percentage(self) -> float:
        return 100.0 * self.lu_fraction

    def as_row(self) -> Dict[str, float]:
        """Flat dict representation, convenient for printing tables."""
        return {
            "algorithm": self.algorithm,
            "N": self.n_order,
            "time_s": self.execution_time,
            "lu_steps_pct": self.lu_percentage,
            "fake_gflops": self.fake_gflops,
            "true_gflops": self.true_gflops,
            "fake_peak_pct": 100.0 * self.fake_peak_fraction,
            "true_peak_pct": 100.0 * self.true_peak_fraction,
        }


class PerformanceModel:
    """Simulate runs on a modelled platform and report normalised GFLOP/s.

    Parameters
    ----------
    platform:
        The platform model; defaults to the paper's Dancer cluster
        (16 nodes x 8 cores, 1091 GFLOP/s peak) on a 4x4 grid.
    calibration:
        Optional :class:`~repro.perf.calibrate.Calibration`; kernels it
        has observed use their measured durations, the rest fall back to
        the platform's analytic rates.
    """

    def __init__(
        self, platform: Optional[Platform] = None, calibration=None
    ) -> None:
        self.platform = platform if platform is not None else dancer_platform()
        self.calibration = calibration

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def simulate_spec(self, spec: FactorizationSpec) -> PerformanceReport:
        """Simulate a run described by an explicit spec."""
        graph = plan_graph(spec, platform=self.platform)
        sim = simulate(
            graph,
            self.platform,
            spec.tile_size,
            record_schedule=False,
            calibration=self.calibration,
        )
        return self._report(spec, graph_task_count=len(graph), sim=sim)

    def simulate_factorization(
        self, fact: Factorization, grid: Optional[ProcessGrid] = None
    ) -> PerformanceReport:
        """Simulate the platform execution of an actual numerical run."""
        spec = FactorizationSpec.of(fact, grid=grid if grid is not None else self.platform.grid)
        return self.simulate_spec(spec)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _report(
        self, spec: FactorizationSpec, graph_task_count: int, sim: SimulationResult
    ) -> PerformanceReport:
        n_order = spec.n_tiles * spec.tile_size
        time_s = max(sim.makespan, 1e-12)
        fake = fake_flops(n_order) / time_s / 1.0e9
        true = true_flops(n_order, spec.lu_fraction) / time_s / 1.0e9
        peak = self.platform.peak_gflops
        return PerformanceReport(
            algorithm=spec.algorithm,
            n_order=n_order,
            n_tiles=spec.n_tiles,
            tile_size=spec.tile_size,
            lu_fraction=spec.lu_fraction,
            execution_time=time_s,
            fake_gflops=fake,
            true_gflops=true,
            fake_peak_fraction=fake / peak,
            true_peak_fraction=true / peak,
            n_tasks=graph_task_count,
            communication_bytes=sim.communication_bytes,
            critical_path_time=sim.critical_path_time,
            platform_peak_gflops=peak,
            per_kernel_time=dict(sim.per_kernel_time),
        )
