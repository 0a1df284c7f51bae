#!/usr/bin/env python3
"""Compare two sets of ``run.py --json`` results: a base commit and a head commit.

    python3 benchmarks/e2e/compare.py --base base/*.json --head head/*.json

One row per (workload, end-to-end metric) with both medians and quartiles, the
ratio head/base with its base, and a verdict by the choosing-metrics rule:

``unresolved``  either side's run-to-run spread (IQR / median) is wider than the
                metric's bound in ``BENCHMARK.json`` — nothing can be said;
``regressed``   head's median is worse than base's by more than the bound;
``improved``    head wins at least 9/10 of the run pairs (ties count for neither
                side), the medians differ by more than base's inter-quartile
                distance, and there are at least ten pairs (fewer: ``unresolved``);
``unchanged``   anything else.

Runs are paired in the order given, per workload: run base and head alternately
and pass both lists in run order.  Traced results (``--trace 1``) are listed
beneath as per-layer deltas; counts the program repeats exactly are compared
for equality, seed by seed.  A result stamped ``noisy`` is refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))
from e2e_stats import quartiles  # noqa: E402  (sibling module, needs the path above)

ROOT = Path(__file__).resolve().parents[2]
#: Counts that depend on thread timing, not only on the inputs.
TIMING_DEPENDENT = {
    "api.service.batches", "api.service.coalesced_batches", "api.service.max_batch_columns",
    "api.service.mean_batch_columns", "runtime.max_concurrency",
}


def load(paths: List[str]) -> Dict[tuple, List[dict]]:
    """``{(workload, trace): [result, ...]}`` in the order given."""
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        if not isinstance(result, dict):
            continue  # a spans file caught by the same glob
        if result["environment"]["noisy"]:
            sys.exit(f"{path}: stamped noisy (foreign CPU share "
                     f"{result['environment']['foreign_cpu_share']:.2f}); measure again")
        groups[result["workload"], result["trace"]].append(result)
    return groups


def values(results: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def verdict(base: List[float], head: List[float], better: str, bound: float) -> str:
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    if (bq3 - bq1) / bmed > bound or (hq3 - hq1) / hmed > bound:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (hmed - bmed)  # > 0: head is better
    if -gain > bound * bmed:
        return "regressed"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    if gain > bq3 - bq1 and wins >= 0.9 * len(pairs):
        return "improved" if len(pairs) >= 10 else "unresolved"  # a gain needs ten pairs
    return "unchanged"


def exact_counts(base: List[dict], head: List[dict], name: str) -> str:
    """A count repeats exactly for a seed, so it is compared seed by seed."""
    by_seed = {r["environment"]["seed"]: r["metrics"] for r in head}
    same = [
        r["metrics"][name]["value"] == by_seed[r["environment"]["seed"]].get(name, {}).get("value")
        for r in base
        if r["environment"]["seed"] in by_seed
    ]
    if not same:
        return "no common seed"
    return "equal" if all(same) else "DIFFERS"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--head", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    base, head = load(args.base), load(args.head)

    print(f"{'workload':20s} {'metric':14s} {'base median [q1, q3] (n)':38s} "
          f"{'head median [q1, q3] (n)':38s} {'head/base':>9s}  verdict")
    worst = 0
    for workload in [w for w, trace in base if not trace]:  # also the ones the driver does not run
        for spec in benchmark["end_to_end"]:
            b = values(base.get((workload, 0), []), spec["name"])
            h = values(head.get((workload, 0), []), spec["name"])
            if not b or not h:
                continue
            cells = []
            for side in (b, h):
                q1, med, q3 = quartiles(side)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(side)})")
            outcome = verdict(b, h, spec["better"], spec["bound"])
            worst |= outcome == "regressed"
            ratio = statistics.median(h) / statistics.median(b)
            print(f"{workload:20s} {spec['name']:14s} {cells[0]:38s} {cells[1]:38s} "
                  f"{ratio:9.3f}  {outcome} (bound {spec['bound']}, base {statistics.median(b):.5g} {spec['unit']})")

    for (workload, trace), b_runs in sorted(base.items()):
        h_runs = head.get((workload, trace), [])
        if not trace or not h_runs:
            continue
        print(f"\nper-layer: {workload}  (base {len(b_runs)} run(s), head {len(h_runs)} run(s))")
        for name, metric in b_runs[0]["metrics"].items():
            b, h = values(b_runs, name), values(h_runs, name)
            if not h:
                continue
            bmed, hmed = statistics.median(b), statistics.median(h)
            line = f"  {name:34s} {bmed:12.6g} -> {hmed:12.6g} {metric['unit']:8s}"
            if metric["unit"] in ("count", "flop") and name not in TIMING_DEPENDENT:
                line += "  exact: " + exact_counts(b_runs, h_runs, name)
            elif bmed:
                line += f"  x{hmed / bmed:.3f} of base"
            print(line)
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
