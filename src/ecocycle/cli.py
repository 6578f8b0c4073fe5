"""Command-line interface: run experiments, evaluate points, list problems.

Three subcommands:

  run   execute a seeded experiment over a suite and write report files
  eval  evaluate one problem at one point (objective plus constraints)
  list  print the problem catalog

All numbers are printed with 9 significant digits. Exit status is 0 on
success, 2 on a usage error (unknown ids, malformed points, bad flags).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .classic import CLASSIC_IDS, UnknownFunction, make_classic
from .engineering import ENGINEERING_IDS, constraint_report, make_engineering
from .harness import ALGORITHMS, ExperimentSpec, make_problem, resolve_budget, run_experiment
from .problems import DimensionMismatch, violation_of


def _g(v: float) -> str:
    return f"{float(v):.9g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecocycle",
        description="Ecological cycle optimizer benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded experiment")
    run_p.add_argument("--suite", required=True, choices=["classic", "engineering"])
    run_p.add_argument(
        "--alg",
        default="eco",
        help="comma-separated algorithm ids out of: " + ", ".join(ALGORITHMS),
    )
    run_p.add_argument(
        "--problem",
        default=None,
        help="comma-separated problem ids restricting the suite (optional)",
    )
    run_p.add_argument("--dim", type=int, default=30, help="classic function dimension")
    run_p.add_argument("--runs", type=int, default=25, help="independent runs per cell")
    run_p.add_argument("--seed", type=int, default=7, help="base seed; run i uses seed+i")
    run_p.add_argument("--max-fes", type=int, default=None, help="budget override")
    run_p.add_argument("--out", required=True, help="output directory for report files")

    eval_p = sub.add_parser("eval", help="evaluate a problem at a point")
    eval_p.add_argument("--problem", required=True, help="problem id (f1..f23, rc15..rc31)")
    eval_p.add_argument("--point", required=True, help="comma-separated coordinates")
    eval_p.add_argument("--dim", type=int, default=30, help="classic function dimension")

    sub.add_parser("list", help="print the problem catalog")
    return parser


def _cmd_run(args) -> int:
    problems = args.problem.split(",") if args.problem else None
    spec = ExperimentSpec(
        suite=args.suite,
        algorithms=tuple(args.alg.split(",")),
        problems=problems,
        dim=args.dim,
        runs=args.runs,
        max_fes=args.max_fes,
        base_seed=args.seed,
        output_dir=args.out,
    )
    report = run_experiment(spec)
    print(f"wrote {report['output_dir']}")
    print("problem,algorithm,min,ave,std,feasible_rate")
    for row in report["summaries"]:
        print(
            f"{row['problem']},{row['algorithm']},{_g(row['min'])},"
            f"{_g(row['ave'])},{_g(row['std'])},{_g(row['feasible_rate'])}"
        )
    comparison = report["comparison"]
    if "friedman" in comparison:
        ranks = comparison["friedman"]["mean_ranks"]
        ordered = ", ".join(f"{alg}={_g(ranks[alg])}" for alg in comparison["algorithms"])
        print(f"friedman mean ranks: {ordered}")
    return 0


def _cmd_eval(args) -> int:
    pid = args.problem.lower()
    try:
        point = np.array([float(tok) for tok in args.point.split(",")])
    except ValueError:
        print(f"error: malformed point {args.point!r}", file=sys.stderr)
        return 2
    problem = make_problem(pid, dim=args.dim)
    if problem.dim != point.shape[0]:
        print(
            f"error: {pid} expects {problem.dim} coordinates, got {point.shape[0]}",
            file=sys.stderr,
        )
        return 2
    value = float(problem.objective(point))
    print(f"problem: {pid}")
    print(f"value: {_g(value)}")
    if problem.constrained:
        print(f"violation: {_g(violation_of(problem, point))}")
        print("constraints (g <= 0 is satisfied):")
        for idx, gi, ok in constraint_report(pid, point):
            print(f"  g{idx}: {_g(gi)} {'satisfied' if ok else 'VIOLATED'}")
    return 0


def _cmd_list() -> int:
    print("classic functions (variable dimension unless noted):")
    for fid in CLASSIC_IDS:
        entry = make_classic(fid)
        suffix = f"fixed D={entry.fixed_dim}" if entry.fixed_dim else "variable D"
        print(
            f"  {fid}: {entry.modality}, {suffix}, "
            f"optimum {_g(entry.problem.known_optimum)}"
        )
    print("engineering problems (constrained):")
    for pid in ENGINEERING_IDS:
        entry = make_engineering(pid)
        p = entry.problem
        print(
            f"  {pid}: D={p.dim}, "
            f"{len(constraint_report(pid, entry.reference[0]))} constraints, "
            f"budget {resolve_budget(p)}, reference {_g(entry.reference[1])}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_list()
    except (UnknownFunction, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
