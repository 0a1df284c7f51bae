"""Smoke test of the end-to-end benchmark (collected by the tier-1 ``pytest -x -q``).

Runs every workload of the runner — the ones ``BENCHMARK.json`` hands to the
driver and the ones kept for use by hand — at ``--scale smoke`` (n <= 128, one
round of two ops per phase) in both modes and checks the output contract:
every listed metric is printed with its unit and a finite value, names are
well formed, each listed name is really measured by some workload, and
nothing is written outside ``tmp_path``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run  # the benchmark's CLI module, next to this file
from e2e_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent


def files_in(directory: Path):
    return {
        (str(p), p.stat().st_mtime_ns)
        for p in directory.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    }


def test_every_workload_emits_its_metrics(tmp_path, monkeypatch, capsys):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.main() pins the environment; have monkeypatch restore it afterwards.
    for var in (*run.BLAS_THREAD_VARS, "REPRO_CALIBRATION"):
        monkeypatch.setenv(var, "")
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = files_in(HERE) | {(str(p), p.stat().st_mtime_ns) for p in ROOT.glob("*") if p.is_file()}

    assert {w["name"] for w in benchmark["workloads"]} <= set(WORKLOADS)
    measured = set()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = tmp_path / f"{workload}.{trace}.json"
            argv = ["--workload", workload, "--scale", "smoke", "--trace", str(trace), "--json", str(out)]
            assert run.main(argv) == 0
            last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, (workload, last)
            assert set(last["metrics"]) == {m["name"] for m in benchmark[key]}
            for spec in benchmark[key]:
                metric = last["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert math.isfinite(metric["value"]), (workload, spec["name"])
            full = json.loads(out.read_text())
            assert full["environment"]["seed"] == 0 and "noisy" in full["environment"]
            for name, metric in full["metrics"].items():
                assert run.METRIC_NAME.match(name) and metric["unit"], name
                assert math.isfinite(metric["value"]), (workload, name)
            # Times are listed only where every workload measures them.
            missing = [
                m["name"] for m in benchmark[key] if m["unit"] == "s" and m["name"] not in full["metrics"]
            ]
            assert not missing, (workload, missing)
            measured |= set(full["metrics"])
            if trace:
                assert json.loads(Path(str(out) + ".spans.json").read_text())

    listed = {m["name"] for key in ("end_to_end", "per_layer") for m in benchmark[key]}
    assert listed <= measured, sorted(listed - measured)
    after = files_in(HERE) | {(str(p), p.stat().st_mtime_ns) for p in ROOT.glob("*") if p.is_file()}
    assert after == before
