#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the hybrid LU-QR stack.

One workload per process::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1 \
        [--scale smoke] [--json OUT]

``--trace 0`` measures the end-to-end metrics with no instrument in place;
``--trace 1`` runs the same workload's traced phase and reports the per-layer
metrics (and, with ``--json OUT``, writes the spans to ``OUT.spans.json``).
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists for that mode.  See ``README.md``.

The process and cluster executors start workers that re-import ``__main__``,
so everything below the definitions is guarded by ``if __name__ == ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
#: Foreign CPU use (share of all cores) above which a run is marked noisy.
NOISY_CPU_SHARE = 0.25


def pin_environment() -> None:
    """As in the paper, kernels are sequential and the runtime supplies the
    parallelism: BLAS is pinned to one thread (before numpy loads).  No
    host calibration file and no ``REPRO_EXECUTOR`` may leak into the run."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs from a checkout of the repo")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_CALIBRATION"] = str(HERE / "no-such-calibration.json")
    os.environ.pop("REPRO_EXECUTOR", None)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def cpu_jiffies() -> Optional[Dict[str, int]]:
    """The machine's CPU time so far, from the first line of ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
        return {"total": sum(fields), "idle": fields[3] + fields[4], "steal": fields[7]}
    except (OSError, ValueError, IndexError):
        return None


def foreign_cpu_share(window: float = 0.2) -> Optional[float]:
    """Share of the machine's CPU time other processes use while this one
    sleeps.  (The 1-minute load average is stamped too, but it cannot gate a
    sweep: each run's own work raises it for the next run.)"""
    before = cpu_jiffies()
    time.sleep(window)
    after = cpu_jiffies()
    if before is None or after is None:
        return None
    return 1.0 - (after["idle"] - before["idle"]) / max(after["total"] - before["total"], 1)


def environment_stamp(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import scipy

    def git_sha() -> str:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    busy = foreign_cpu_share()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "src_lines": src_lines,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "load_average_1min": os.getloadavg()[0],
        "foreign_cpu_share": busy,
        "noisy": bool(busy is not None and busy > NOISY_CPU_SHARE),
    }


@contextlib.contextmanager
def captured_child_stderr(sink: List[str]) -> Iterator[None]:
    """Route file descriptor 2 — which every worker process inherits — into an
    unnamed temporary file next to the benchmark, and hand its text to ``sink``."""
    sys.stderr.flush()
    saved = os.dup(2)
    with tempfile.TemporaryFile(dir=HERE) as spill:
        os.dup2(spill.fileno(), 2)
        crashed = True
        try:
            yield
            crashed = False
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
            spill.seek(0)
            sink.append(spill.read().decode(errors="replace"))
            if crashed:  # no result will carry the text: show it with the traceback
                sys.stderr.write(sink[-1])


def stop_multiprocessing_helpers() -> None:
    """The forkserver and the shared-memory resource tracker outlive the worker
    pools; stop them too, so that the run leaves no process behind.  (Script
    use only: inside a host process, such as pytest, they are not ours to stop.)"""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def run_workload(args: argparse.Namespace, import_s: float = 0.0) -> Dict[str, Any]:
    """Set up (several times), measure, verify, tear down; returns the result.
    ``import_s`` (loading numpy and repro) counts into every set-up."""
    import e2e_layers
    from e2e_spans import SpanRecorder
    from e2e_stats import Metrics
    from e2e_workloads import DRIVERS, WORKLOADS

    stamp = environment_stamp(args)
    workload = WORKLOADS[args.workload]
    smoke = args.scale == "smoke"
    seconds = 0.0 if smoke else float(args.seconds)
    driver = DRIVERS[workload.kind](workload, args.scale, args.seed)
    metrics = Metrics()
    recorder = SpanRecorder()
    stderr_text: List[str] = []

    with captured_child_stderr(stderr_text):
        try:
            setups = []
            reps = 1 if smoke else workload.setup_reps
            for rep in range(reps):
                begin = time.perf_counter()
                driver.setup()
                setups.append(time.perf_counter() - begin)
                if rep + 1 < reps:
                    driver.teardown()
            metrics.put_samples("setup_s", [import_s + s for s in setups])
            metrics.put_samples("cold_first_result_s", driver.cold)
            after = None
            if args.trace:
                after = e2e_layers.TRACERS[workload.kind](driver, metrics, recorder)
            else:
                cpu0 = cpu_jiffies()
                driver.measure(seconds, metrics)
                cpu1 = cpu_jiffies()
                if cpu0 is not None and cpu1 is not None:
                    # What the hypervisor gave to other guests while we measured.
                    stolen = (cpu1["steal"] - cpu0["steal"]) / max(cpu1["total"] - cpu0["total"], 1)
                    driver.info["steal_share"] = stolen
        finally:
            driver.teardown()
        if after is not None:
            after()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + driver.child_rss_kb
    metrics.put("peak_rss_mb", rss_kb / 1024.0, "MB")
    metrics.put("ops_failed_share", driver.failed / max(driver.attempted, 1), "share")
    return {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "config": {"n": driver.n, **{k: str(v) for k, v in driver.spec.items()}},
        "environment": stamp,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "failures": driver.failures,
        "info": {**driver.info, "setup_reps": reps, "import_s": import_s},
        "metrics": metrics,
        "child_stderr": stderr_text[0],
        "spans": recorder,
    }


def contract_line(result: Dict[str, Any]) -> str:
    """The last line of standard output: exactly the metrics ``BENCHMARK.json``
    lists for the mode.  A per-layer metric whose layer did no work on this
    workload reads 0; a missing end-to-end metric is a bug."""
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    measured = result["metrics"]
    metrics = {}
    for spec in benchmark["per_layer" if result["trace"] else "end_to_end"]:
        name = spec["name"]
        if name not in measured and not result["trace"]:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        value = measured[name]["value"] if name in measured else 0.0
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: n <= 128 and two ops per phase (for the test suite)")
    parser.add_argument("--json", metavar="OUT", help="write the full result here (spans to OUT.spans.json)")
    args = parser.parse_args(argv)

    pin_environment()
    started = time.perf_counter()
    from e2e_workloads import WORKLOADS  # loads numpy and repro

    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args, import_s)
    spans = result.pop("spans")

    print(f"# {result['workload']}  seed={args.seed}  trace={args.trace}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"noisy={result['environment']['noisy']}")
    for name, metric in result["metrics"].items():
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        extra = ""
        if "q1" in metric:
            extra = f"  [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n {metric['n']}]"
        elif "percentile" in metric:
            extra = f"  [{metric['percentile']} of {metric['n']}]"
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}{extra}")
    for key, value in result["info"].items():
        print(f"# {key} = {value}")
    for line in result["failures"]:
        print(f"# FAILED op: {line}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
        if args.trace:
            spans.write(args.json + ".spans.json")
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    status = main()
    stop_multiprocessing_helpers()
    sys.exit(status)
