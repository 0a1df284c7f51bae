"""Discrete-event simulator of a task-graph execution on a modelled platform.

This is the substitute for running the real PaRSEC runtime on the paper's
cluster: given the task graph of an algorithm (built by
:func:`repro.perf.model.plan_graph`) and a :class:`~repro.runtime.platform.Platform`,
the simulator performs greedy earliest-start list scheduling:

* a task becomes *data ready* when every predecessor has finished and the
  tiles it consumes from other nodes have been transferred
  (``latency + bytes/bandwidth`` per remote dependency);
* each node owns ``cores`` identical workers; a ready task starts on the
  earliest available core of its owner node;
* kernel durations come from the explicit ``duration_hint`` of
  control/communication tasks, else from a measured
  :class:`~repro.perf.calibrate.Calibration` when the caller passes one
  (fitted in the same process; none is read from disk), else from the
  platform's analytic per-kernel rates.

The result (makespan, per-node utilisation, communication volume, schedule
trace) is what the performance model converts into the GFLOP/s numbers of
Figure 2 and Table II.  With a calibration the same machinery turns
predictive: a simulated makespan estimates what a *measured* run on this
host would take (``tests/test_calibration.py`` fits one from a run's
traces and checks the prediction).
:func:`~repro.perf.model.plan_graph` builds the graph from the solvers'
own planners: the tasks the runtime executes, each expanded into the
per-tile kernel units its op's effect rule declares.  The simulator ranks
configurations at paper scale; it does not choose a tile size or an
executor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..kernels.flops import KernelFlops
from .graph import TaskGraph
from .platform import Platform
from .task import Task

__all__ = ["ScheduledTask", "SimulationResult", "simulate"]


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task in the simulated schedule."""

    uid: int
    kernel: str
    step: int
    owner: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class SimulationResult:
    """Outcome of simulating one task graph on one platform."""

    makespan: float
    schedule: List[ScheduledTask]
    busy_time_per_node: Dict[int, float]
    communication_bytes: float
    communication_events: int
    critical_path_time: float
    platform_name: str = ""
    per_kernel_time: Dict[str, float] = field(default_factory=dict)

    @property
    def total_busy_time(self) -> float:
        return float(sum(self.busy_time_per_node.values()))

    def utilization(self, platform: Platform) -> float:
        """Average core utilisation over the makespan."""
        capacity = self.makespan * platform.total_cores
        return self.total_busy_time / capacity if capacity > 0 else 0.0


def _task_duration(task: Task, platform: Platform, tile_size: int, calibration) -> float:
    """Duration of one per-tile task (the graphs the simulator prices have
    one task per logical kernel).

    A calibrated ``getrf`` measures one tile; a panel-wide factorization
    (LU ON PANEL, LUPP's scattered panel factor) carries more flops than
    that and is charged the measured duration scaled by the ratio.
    """
    if task.duration_hint is not None:
        return float(task.duration_hint)
    if calibration is not None:
        measured = calibration.kernel_duration(task.kernel, tile_size)
        if measured is not None and measured > 0.0:
            if task.kernel == "getrf":
                return float(measured) * max(task.flops / KernelFlops(tile_size).getrf, 1.0)
            return float(measured)
    return platform.kernel_duration(task.kernel, task.flops)


def _dependency_transfer(task: Task, dep: Task, platform: Platform, nb: int) -> Tuple[float, float]:
    """(transfer time, bytes) for the data ``task`` consumes from ``dep``."""
    if task.owner == dep.owner:
        return 0.0, 0.0
    shared = dep.writes & task.reads
    ntiles = max(1, len(shared))
    nbytes = ntiles * platform.tile_bytes(nb)
    return platform.transfer_time(nbytes), nbytes


def simulate(
    graph: TaskGraph,
    platform: Platform,
    tile_size: int,
    record_schedule: bool = True,
    calibration=None,
) -> SimulationResult:
    """Simulate the execution of ``graph`` on ``platform``.

    ``tile_size`` is needed to convert cross-node tile dependencies into
    message sizes.  Set ``record_schedule=False`` for large graphs when only
    the makespan matters.  ``calibration`` (a
    :class:`~repro.perf.calibrate.Calibration`) replaces the platform's
    analytic rates with per-kernel durations measured on this host for
    every kernel the calibration has observed; unobserved kernels keep the
    analytic fallback, so mixing is safe.
    """
    tasks = graph.tasks
    n_tasks = len(tasks)
    if n_tasks == 0:
        return SimulationResult(
            makespan=0.0,
            schedule=[],
            busy_time_per_node={},
            communication_bytes=0.0,
            communication_events=0,
            critical_path_time=0.0,
            platform_name=platform.name,
        )

    successors = graph.successors()
    remaining = {t.uid: len(t.deps) for t in tasks}
    durations: Dict[int, float] = {}
    data_ready: Dict[int, float] = {t.uid: 0.0 for t in tasks}

    # Per-node heaps of core-available times.
    cores: Dict[int, List[float]] = {}
    for t in tasks:
        cores.setdefault(t.owner, [0.0] * platform.cores)
    for heap in cores.values():
        heapq.heapify(heap)

    ready_heap: List[Tuple[float, int]] = []
    for t in tasks:
        if remaining[t.uid] == 0:
            heapq.heappush(ready_heap, (0.0, t.uid))

    comm_bytes = 0.0
    comm_events = 0
    busy: Dict[int, float] = {node: 0.0 for node in cores}
    per_kernel_time: Dict[str, float] = {}
    schedule: List[ScheduledTask] = []
    makespan = 0.0
    scheduled_count = 0

    while ready_heap:
        ready_time, uid = heapq.heappop(ready_heap)
        task = tasks[uid]
        node_heap = cores[task.owner]
        core_free = heapq.heappop(node_heap)
        start = max(ready_time, core_free)
        duration = durations[uid] = _task_duration(task, platform, tile_size, calibration)
        end = start + duration
        heapq.heappush(node_heap, end)

        busy[task.owner] += duration
        per_kernel_time[task.kernel] = per_kernel_time.get(task.kernel, 0.0) + duration
        makespan = max(makespan, end)
        scheduled_count += 1
        if record_schedule:
            schedule.append(
                ScheduledTask(
                    uid=uid,
                    kernel=task.kernel,
                    step=task.step,
                    owner=task.owner,
                    start=start,
                    finish=end,
                )
            )

        for succ_uid in successors[uid]:
            succ = tasks[succ_uid]
            transfer, nbytes = _dependency_transfer(succ, task, platform, tile_size)
            if nbytes > 0.0:
                comm_bytes += nbytes
                comm_events += 1
            data_ready[succ_uid] = max(data_ready[succ_uid], end + transfer)
            remaining[succ_uid] -= 1
            if remaining[succ_uid] == 0:
                heapq.heappush(ready_heap, (data_ready[succ_uid], succ_uid))

    if scheduled_count != n_tasks:
        raise RuntimeError(
            f"simulation deadlock: scheduled {scheduled_count} of {n_tasks} tasks "
            "(the task graph has a dependency cycle)"
        )

    critical = graph.critical_path_length(durations)

    return SimulationResult(
        makespan=makespan,
        schedule=schedule,
        busy_time_per_node=busy,
        communication_bytes=comm_bytes,
        communication_events=comm_events,
        critical_path_time=critical,
        platform_name=platform.name,
        per_kernel_time=per_kernel_time,
    )
