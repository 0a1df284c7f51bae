"""``repro-analyze`` console entry: audit solver plans from the shell.

Runs the correctness-analysis subsystem (:mod:`repro.analysis`) over one
or more solver algorithms: dynamic access tracing, the placement
check of the planned and (with ``--executor``) the executed graphs, and —
on request — the schedule-perturbation determinism check.  Exits non-zero when any
violation is found, so CI can gate on it directly::

    repro-analyze                          # all five solvers, inline
    repro-analyze --algorithm hybrid --executor "threaded(workers=4)"
    repro-analyze --determinism --n 64 --tile-size 8
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

__all__ = ["main"]

#: Algorithms audited by default: the five solvers of the paper.
DEFAULT_ALGORITHMS = ("lu_nopiv", "lupp", "lu_incpiv", "hqr", "hybrid")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Audit solver task plans: dynamic race tracing, the placement "
            "check, and (optionally) the schedule-perturbation "
            "determinism check."
        ),
    )
    parser.add_argument(
        "--algorithm",
        "-a",
        action="append",
        dest="algorithms",
        metavar="NAME",
        help=(
            "solver algorithm to audit (repeatable; default: all five — "
            f"{', '.join(DEFAULT_ALGORITHMS)})"
        ),
    )
    parser.add_argument(
        "--n", type=int, default=None, help="matrix order (default: 4*tile-size)"
    )
    parser.add_argument(
        "--tile-size", type=int, default=8, help="tile order nb (default: 8)"
    )
    parser.add_argument(
        "--kernel-backend",
        default=None,
        metavar="SPEC",
        help="kernel backend to plan with (default numpy)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="SPEC",
        help=(
            "executor spec for the executed-graph placement pass, e.g. "
            "'threaded(workers=4)' (default: inline only)"
        ),
    )
    parser.add_argument(
        "--grid",
        default=None,
        metavar="PxQ",
        help="process grid for the placement analysis, e.g. 2x2 (default 1x1)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=(
            "write the machine-readable audit report to PATH as JSON "
            "('-' for stdout); one object keyed by algorithm"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for the audited system"
    )
    parser.add_argument(
        "--skip-dynamic",
        action="store_true",
        help="skip the dynamic access-tracing pass (placement check only)",
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help=(
            "also factor each system under randomized threaded schedules "
            "and require bit-identical results"
        ),
    )
    parser.add_argument(
        "--determinism-rounds",
        type=int,
        default=3,
        metavar="R",
        help="perturbed schedule rounds per algorithm (default: 3)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    from .. import analysis
    from .facade import make_solver

    algorithms: List[str] = list(args.algorithms or DEFAULT_ALGORITHMS)
    failures = 0
    reports = {}
    for algorithm in algorithms:

        def build(executor=None, algorithm=algorithm):
            # "none", not None: under REPRO_EXECUTOR, None would pick the
            # environment's executor, and this tool has its own --executor.
            return make_solver(
                algorithm,
                tile_size=args.tile_size,
                executor="none" if executor is None else executor,
                kernel_backend=args.kernel_backend,
                grid=args.grid,
            )

        solver = build(args.executor)
        report = analysis.audit(
            solver,
            dynamic=not args.skip_dynamic,
            seed=args.seed,
            n=args.n,
        )
        if args.determinism:
            a, b = analysis.default_audit_system(solver, seed=args.seed, n=args.n)
            report.add(
                "determinism",
                analysis.determinism_check(
                    build, a, b, rounds=args.determinism_rounds, seed=args.seed
                ),
            )
        reports[algorithm] = report.as_dict()
        print(f"== {algorithm} ==")
        print(report.summary())
        if not report.ok:
            failures += 1
    if args.json is not None:
        import json
        import sys

        payload = json.dumps(reports, indent=2, default=str)
        if args.json == "-":
            sys.stdout.write(payload + "\n")
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    if failures:
        print(f"{failures}/{len(algorithms)} algorithm audit(s) FAILED")
        return 1
    print(f"all {len(algorithms)} algorithm audit(s) passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
