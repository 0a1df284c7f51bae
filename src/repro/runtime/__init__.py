"""PaRSEC-like dataflow runtime: task graph, executors, platform model, simulator.

Three executors run a task graph for real: ``SequentialExecutor`` (the
correctness reference), ``ThreadedExecutor`` (overlaps tasks while numpy
is inside BLAS, which releases the GIL), and ``ProcessExecutor`` (true
multi-core execution on a worker-process pool, no GIL at all).

**Pickling constraint of the multi-process backend:** worker processes
cannot receive closures, so tasks destined for ``ProcessExecutor`` must
carry a picklable :class:`~repro.kernels.dispatch.KernelCall` descriptor
(``kernel name + tile indices + picklable args``) in ``KernelTask.call`` /
``Task.call``, resolved against the ``repro.kernels.dispatch.KERNELS``
table inside the worker.  The built-in step planners emit both the closure
and the descriptor, so their plans run on any executor; custom tasks that
only carry a closure are rejected by ``ProcessExecutor`` with a clear
error.  Execution-time products (compact-WY factors, pairwise pivot
factors) flow between descriptors through ``produces``/``consumes`` keys
instead of shared Python dicts.
"""

from .dataflow import DataflowStage, StepDataflow
from .executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from .graph import TaskGraph
from .process_executor import ProcessExecutor, shutdown_worker_pools
from .platform import Platform, dancer_platform, laptop_platform
from .schedule import (
    KernelTask,
    StepPipeline,
    assign_task_priorities,
    build_step_graph,
    kernel_cost_fn,
    merge_traces,
    run_step_tasks,
)
from .simulator import ScheduledTask, SimulationResult, simulate
from .task import Task, TileRef

__all__ = [
    "Task",
    "TileRef",
    "TaskGraph",
    "KernelTask",
    "StepPipeline",
    "build_step_graph",
    "run_step_tasks",
    "merge_traces",
    "kernel_cost_fn",
    "assign_task_priorities",
    "Platform",
    "dancer_platform",
    "laptop_platform",
    "simulate",
    "SimulationResult",
    "ScheduledTask",
    "SequentialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "shutdown_worker_pools",
    "ExecutionTrace",
    "StepDataflow",
    "DataflowStage",
]
