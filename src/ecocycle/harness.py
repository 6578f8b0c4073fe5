"""Experiment harness: seeded run batches with machine-readable reports.

An experiment is a grid of (problem, algorithm, run index) cells. Run i of
every cell gets seed base_seed + i. The runs of one (problem, algorithm)
cell are fitted together, as one stack of their seeds (one optimizer fit
with a sequence seed, see base.BaseOptimizer.fit), which gives each run the
same bits as a fit of its seed alone. The cells run sequentially in a fixed
order and land in the output directory as:

  trace_{problem}_{algorithm}_run{i}.csv   per-run convergence trace
  runs.csv                                 one row per run (all cells)
  summary.csv                              Min/Ave/Std per (problem, algorithm)
  comparison.json                          Wilcoxon / win-tie-loss / Friedman
  diversity_{problem}_eco.csv              exploration/exploitation, run 0
  timings.csv                              wall times (informational)

Every file except timings.csv is a pure function of the experiment spec, so
re-running an experiment reproduces them byte for byte. timings.csv gives
each run of a cell the stack's wall time divided by the number of runs.
Floats are written with repr-faithful precision (%.17g); consumers that
want 9-digit display formatting live in the CLI, not here.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Optional, Sequence

import numpy as np

from .analysis import DiversityCurve, friedman, summarize, wilcoxon_rank_sum, win_tie_loss
from .classic import CLASSIC_IDS, make_classic
from .eco import EcoOptimizer
from .engineering import ENGINEERING_IDS, make_engineering
from .problems import TOL_FEAS, Problem
from .pso import PsoOptimizer

ALGORITHMS = {"eco": EcoOptimizer, "pso": PsoOptimizer}

SUITES = ("classic", "engineering", "single")

# Dimension-tiered evaluation budgets for the engineering catalog.
_TIERS = ((10, 100_000), (30, 200_000), (50, 400_000), (150, 800_000))


def resolve_budget(problem: Problem, max_fes: Optional[int] = None) -> int:
    """Evaluation budget for a problem: explicit override, else by family.

    Problems from the engineering catalog (names rc*) use the dimension-
    tiered schedule (1e5 up to D=10, then 2e5/4e5/8e5 at D=30/50/150, 1e6
    beyond); everything else uses 10,000 per dimension.
    """
    if max_fes is not None:
        return int(max_fes)
    if problem.name.startswith("rc"):
        for cap, fes in _TIERS:
            if problem.dim <= cap:
                return fes
        return 1_000_000
    return 10_000 * problem.dim


def make_problem(pid: str, dim: int = 30) -> Problem:
    """Build a catalog problem by id; classic ids take the dim argument."""
    key = pid.lower()
    if key in ENGINEERING_IDS:
        return make_engineering(key).problem
    return make_classic(key, dim=dim).problem


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem set, algorithms, and run-batch settings.

    suite selects a catalog: "classic" (f1..f23), "engineering"
    (rc15..rc31), or "single" (exactly the ids in problems). problems, when
    given, restricts the suite to that subset. dim applies to the classic
    variable-dimension functions.
    """

    suite: str = "classic"
    algorithms: Sequence[str] = ("eco",)
    problems: Optional[Sequence[str]] = None
    dim: int = 30
    runs: int = 25
    max_fes: Optional[int] = None
    base_seed: int = 7
    output_dir: str = "results"

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; expected one of {SUITES}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {alg!r}; expected subset of {tuple(ALGORITHMS)}"
                )
        for pid in self.problem_ids():
            make_problem(pid, self.dim)  # raises UnknownFunction on bad ids

    def problem_ids(self) -> tuple:
        if self.suite == "classic":
            pool = CLASSIC_IDS
        elif self.suite == "engineering":
            pool = ENGINEERING_IDS
        else:
            if not self.problems:
                raise ValueError('suite "single" requires an explicit problem list')
            pool = tuple(p.lower() for p in self.problems)
        if self.suite != "single" and self.problems:
            wanted = tuple(p.lower() for p in self.problems)
            unknown = sorted(set(wanted) - set(pool))
            if unknown:
                raise ValueError(f"problems not in the {self.suite} catalog: {unknown}")
            pool = tuple(p for p in pool if p in wanted)
        return pool


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Outcome of one seeded optimizer run."""

    problem: str
    algorithm: str
    run_index: int
    seed: int
    best_value: float
    best_violation: float
    best_x: np.ndarray
    fes: int
    wall_time: float
    trace_path: str


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_trace(path: pathlib.Path, trace) -> None:
    lines = ["iter,fes,best_value,div"]
    for it, fes, bv, dv in trace.to_rows():
        lines.append(f"{it},{fes},{_fmt(bv)},{_fmt(dv)}")
    path.write_text("\n".join(lines) + "\n")


def _write_diversity(path: pathlib.Path, trace) -> None:
    curve = DiversityCurve.from_div(trace.div)
    lines = ["iter,div,exploration_pct,exploitation_pct"]
    for it, dv, ex, xp in zip(
        trace.iters, curve.div, curve.exploration_pct, curve.exploitation_pct
    ):
        lines.append(f"{int(it)},{_fmt(dv)},{_fmt(ex)},{_fmt(xp)}")
    path.write_text("\n".join(lines) + "\n")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute an experiment and write its report files.

    Returns a dict with the records, the summary rows, and the comparison
    report, mirroring what was written to disk.
    """
    out = pathlib.Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    pids = spec.problem_ids()

    records: list[RunRecord] = []
    for pid in pids:
        problem = make_problem(pid, spec.dim)
        budget = resolve_budget(problem, spec.max_fes)
        seeds = [spec.base_seed + i for i in range(spec.runs)]
        for alg in spec.algorithms:
            opt = ALGORITHMS[alg](max_fes=budget, seed=seeds)
            t0 = time.perf_counter()
            opt.fit(problem)
            wall = (time.perf_counter() - t0) / spec.runs
            for i, seed in enumerate(seeds):
                trace_name = f"trace_{pid}_{alg}_run{i}.csv"
                _write_trace(out / trace_name, opt.trace_[i])
                if alg == "eco" and i == 0:
                    _write_diversity(out / f"diversity_{pid}_eco.csv", opt.trace_[i])
                records.append(
                    RunRecord(
                        problem=pid,
                        algorithm=alg,
                        run_index=i,
                        seed=seed,
                        best_value=float(opt.best_value_[i]),
                        best_violation=float(opt.best_violation_[i]),
                        best_x=opt.best_x_[i],
                        fes=int(opt.n_fes_[i]),
                        wall_time=wall,
                        trace_path=trace_name,
                    )
                )

    _write_runs(out / "runs.csv", records)
    batches: dict = {}
    for r in records:
        batches.setdefault((r.problem, r.algorithm), []).append(r)
    summaries = _summary_rows(pids, spec.algorithms, batches)
    _write_summary(out / "summary.csv", summaries)
    comparison = _comparison_report(pids, spec.algorithms, batches, summaries)
    (out / "comparison.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True) + "\n"
    )
    _write_timings(out / "timings.csv", records)
    return {
        "output_dir": str(out),
        "records": records,
        "summaries": summaries,
        "comparison": comparison,
    }


def _write_runs(path: pathlib.Path, records: Sequence[RunRecord]) -> None:
    lines = ["problem,algorithm,run,seed,best_value,best_violation,fes,trace,best_x"]
    for r in records:
        coords = ";".join(_fmt(v) for v in r.best_x)
        lines.append(
            f"{r.problem},{r.algorithm},{r.run_index},{r.seed},"
            f"{_fmt(r.best_value)},{_fmt(r.best_violation)},{r.fes},"
            f"{r.trace_path},{coords}"
        )
    path.write_text("\n".join(lines) + "\n")


def _summary_rows(pids, algorithms, batches) -> list[dict]:
    """One row per (problem, algorithm); batches maps that pair to its runs."""
    rows = []
    for pid in pids:
        for alg in algorithms:
            batch = batches[pid, alg]
            s = summarize([r.best_value for r in batch])
            feasible = sum(1 for r in batch if r.best_violation <= TOL_FEAS)
            rows.append(
                {
                    "problem": pid,
                    "algorithm": alg,
                    "min": s.min,
                    "ave": s.ave,
                    "std": s.std,
                    "feasible_rate": feasible / len(batch),
                }
            )
    return rows


def _write_summary(path: pathlib.Path, rows: Sequence[dict]) -> None:
    lines = ["problem,algorithm,min,ave,std,feasible_rate"]
    for row in rows:
        lines.append(
            f"{row['problem']},{row['algorithm']},{_fmt(row['min'])},"
            f"{_fmt(row['ave'])},{_fmt(row['std'])},{_fmt(row['feasible_rate'])}"
        )
    path.write_text("\n".join(lines) + "\n")


def _comparison_report(pids, algorithms, batches, summaries) -> dict:
    """Wilcoxon verdicts, win/tie/loss and Friedman ranks; the Friedman keys
    are the Ave, Min and Std columns of the summary rows."""
    report: dict = {"alpha": 0.05, "problems": list(pids), "algorithms": list(algorithms)}
    if len(algorithms) < 2:
        return report

    bests = {
        alg: [[r.best_value for r in batches[pid, alg]] for pid in pids]
        for alg in algorithms
    }
    wilcoxon: dict = {}
    for pi, pid in enumerate(pids):
        cell = {}
        for ai, a in enumerate(algorithms):
            for b in algorithms[ai + 1 :]:
                v = wilcoxon_rank_sum(bests[a][pi], bests[b][pi])
                cell[f"{a}_vs_{b}"] = {"p_value": float(v.p_value), "verdict": v.verdict}
        wilcoxon[pid] = cell
    report["wilcoxon"] = wilcoxon

    reference = algorithms[0]
    report["win_tie_loss"] = {
        "reference": reference,
        "opponents": {
            name: dataclasses.asdict(wtl)
            for name, wtl in win_tie_loss(reference, bests).items()
        },
    }

    cells = {(row["problem"], row["algorithm"]): row for row in summaries}
    ave, mins, stds = (
        np.array([[cells[pid, alg][key] for alg in algorithms] for pid in pids])
        for key in ("ave", "min", "std")
    )
    fr = friedman(ave, mins, stds)
    report["friedman"] = {
        "mean_ranks": {
            alg: float(fr.mean_ranks[ai]) for ai, alg in enumerate(algorithms)
        },
        "statistic": fr.statistic,
        "p_value": fr.p_value,
        "order": [algorithms[int(j)] for j in fr.global_rank],
    }
    return report


def _write_timings(path: pathlib.Path, records: Sequence[RunRecord]) -> None:
    lines = ["problem,algorithm,run,wall_time"]
    for r in records:
        lines.append(f"{r.problem},{r.algorithm},{r.run_index},{_fmt(r.wall_time)}")
    path.write_text("\n".join(lines) + "\n")
