"""Output checks that do not trust the program under test.

Every formula here is written out again in plain Python (``math`` on lists
of floats, no NumPy), from the published statements of the problems, so a
check never compares the program with a stored copy of its own output. The
checks are properties the method must have: the best point lies in the box,
the budget is kept, the best-so-far trace never gets worse and ends at the
reported best, the reported value is the objective at the reported point,
and constrained bests are feasible and not better than the published
optimum.

A check that fails raises ``CheckFailed``; the caller counts the operation
as failed.
"""

from __future__ import annotations

import csv
import decimal
import json
import math
import pathlib
import statistics

# The package's feasibility tolerance on the summed violation, g_i(x) <= 0.
TOL_FEAS = 1e-8
# The same constraint written in another order of operations differs by a few
# ulps of its largest term; the welded beam's shear stress (about 13600, ulp
# 1.8e-12) moves a best that sits on the tolerance by up to 6e-13 here.
ROUNDING_SLACK = 1e-10


class CheckFailed(Exception):
    """An output of the program failed an independent check; ``kind`` names
    the check."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _require(ok: bool, kind: str, message: str) -> None:
    if not ok:
        raise CheckFailed(kind, message)


# --- classic objectives --------------------------------------------------------


def sphere(x):
    return math.fsum(v * v for v in x)


def schwefel(x):
    return -math.fsum(v * math.sin(math.sqrt(abs(v))) for v in x)


def rastrigin(x):
    return math.fsum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in x)


def ackley(x):
    d = len(x)
    s1 = math.fsum(v * v for v in x) / d
    s2 = math.fsum(math.cos(2.0 * math.pi * v) for v in x) / d
    return -20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20.0 + math.e


# id -> (objective, half width of the symmetric box, absolute tolerance of a
# re-evaluation). The absolute terms cover cancellation near a zero optimum:
# Rastrigin and Ackley subtract O(10) and O(20) terms to reach values near 0.
CLASSIC = {
    "f1": (sphere, 100.0, 0.0),
    "f8": (schwefel, 500.0, 1e-9),
    "f9": (rastrigin, 5.12, 1e-9),
    "f10": (ackley, 32.0, 1e-9),
}


# --- engineering problems (CEC-2020-RW statements) -----------------------------


def reducer_objective(x):
    x1, x2, x3, x4, x5, x6, x7 = x
    return (
        0.7854 * x1 * x2 * x2 * (3.3333 * x3 * x3 + 14.9334 * x3 - 43.0934)
        - 1.508 * x1 * (x6 * x6 + x7 * x7)
        + 7.477 * (x6**3 + x7**3)
        + 0.7854 * (x4 * x6 * x6 + x5 * x7 * x7)
    )


def reducer_constraints(x):
    x1, x2, x3, x4, x5, x6, x7 = x
    return [
        27.0 / (x1 * x2 * x2 * x3) - 1.0,
        397.5 / (x1 * x2 * x2 * x3 * x3) - 1.0,
        1.93 * x4**3 / (x2 * x3 * x6**4) - 1.0,
        1.93 * x5**3 / (x2 * x3 * x7**4) - 1.0,
        # First shaft stress: load constant 16.91e6, as the CEC-2020-RW
        # statement whose optimum 2994.42447 the catalog cites.
        math.sqrt((745.0 * x4 / (x2 * x3)) ** 2 + 16.91e6) / (110.0 * x6**3) - 1.0,
        math.sqrt((745.0 * x5 / (x2 * x3)) ** 2 + 157.5e6) / (85.0 * x7**3) - 1.0,
        x2 * x3 / 40.0 - 1.0,
        5.0 * x2 / x1 - 1.0,
        x1 / (12.0 * x2) - 1.0,
        (1.5 * x6 + 1.9) / x4 - 1.0,
        (1.1 * x7 + 1.9) / x5 - 1.0,
    ]


def spring_objective(x):
    x1, x2, x3 = x
    return (x3 + 2.0) * x2 * x1 * x1


def spring_constraints(x):
    x1, x2, x3 = x
    return [
        1.0 - x2**3 * x3 / (71785.0 * x1**4),
        (4.0 * x2 * x2 - x1 * x2) / (12566.0 * (x2 * x1**3 - x1**4))
        + 1.0 / (5108.0 * x1 * x1)
        - 1.0,
        1.0 - 140.45 * x1 / (x2 * x2 * x3),
        (x1 + x2) / 1.5 - 1.0,
    ]


def beam_objective(x):
    x1, x2, x3, x4 = x
    return 1.10471 * x1 * x1 * x2 + 0.04811 * x3 * x4 * (14.0 + x2)


def beam_constraints(x):
    x1, x2, x3, x4 = x
    p, length, e, g = 6000.0, 14.0, 30.0e6, 12.0e6
    tau1 = p / (math.sqrt(2.0) * x1 * x2)
    moment = p * (length + x2 / 2.0)
    r2 = x2 * x2 / 4.0 + ((x1 + x3) / 2.0) ** 2
    polar = 2.0 * math.sqrt(2.0) * x1 * x2 * r2
    tau2 = moment * math.sqrt(r2) / polar
    tau = math.sqrt(tau1 * tau1 + tau1 * tau2 * x2 / math.sqrt(r2) + tau2 * tau2)
    sigma = 6.0 * p * length / (x4 * x3 * x3)
    delta = 4.0 * p * length**3 / (e * x3**3 * x4)
    buckling = (
        4.013 * e * math.sqrt(x3 * x3 * x4**6 / 36.0) / length**2
        * (1.0 - x3 / (2.0 * length) * math.sqrt(e / (4.0 * g)))
    )
    return [
        tau - 13600.0,
        sigma - 30000.0,
        delta - 0.25,
        x1 - x4,
        p - buckling,
        0.125 - x1,
        beam_objective(x) - 5.0,
    ]


def truss_objective(x):
    x1, x2 = x
    return (2.0 * math.sqrt(2.0) * x1 + x2) * 100.0


def truss_constraints(x):
    x1, x2 = x
    load, stress = 2.0, 2.0
    denom = math.sqrt(2.0) * x1 * x1 + 2.0 * x1 * x2
    third = x1 + math.sqrt(2.0) * x2
    if denom == 0.0 or third == 0.0:
        return [math.inf]
    return [
        (math.sqrt(2.0) * x1 + x2) / denom * load - stress,
        x2 / denom * load - stress,
        1.0 / third * load - stress,
    ]


def gear_objective(x):
    # Tooth counts are integers: each variable is rounded (half to even).
    t1, t2, t3, t4 = (round(v) for v in x)
    if t1 * t4 == 0:
        return math.inf
    return (1.0 / 6.931 - t2 * t3 / (t1 * t4)) ** 2


def gear_constraints(x):
    return [12.0 - v for v in x] + [v - 60.0 for v in x]


# id -> (objective, constraints, lower, upper, published optimum as printed)
ENGINEERING = {
    "rc15": (
        reducer_objective,
        reducer_constraints,
        (2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0),
        (3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5),
        "2994.42447",
    ),
    "rc17": (
        spring_objective,
        spring_constraints,
        (0.05, 0.25, 2.0),
        (2.0, 1.3, 15.0),
        "0.01266523",
    ),
    "rc19": (
        beam_objective,
        beam_constraints,
        (0.125, 0.1, 0.1, 0.1),
        (2.0, 10.0, 10.0, 2.0),
        "1.69524716",
    ),
    "rc20": (truss_objective, truss_constraints, (0.0, 0.0), (1.0, 1.0), "263.895843"),
    "rc31": (gear_objective, gear_constraints, (0.01,) * 4, (60.0,) * 4, "2.7009e-12"),
}


def printed_rounding(printed: str) -> float:
    """Half a unit in the last printed digit: how far the true optimum may
    lie from a value printed to these digits."""
    exponent = decimal.Decimal(printed).as_tuple().exponent
    return 0.5 * 10.0**exponent


def optimum_floor(printed: str) -> float:
    """Lowest feasible best that the published optimum allows.

    Below the printed value by its rounding, and by what the feasibility
    tolerance can buy: a best may exceed each limit by TOL_FEAS, which for
    a constraint scaled to its limit moves the objective by about TOL_FEAS
    of its value. On the three-bar truss, whose stress limit is 2, the
    bests sit 5e-9 of the optimum below it on every seed.
    """
    f_star = float(printed)
    return f_star - printed_rounding(printed) - TOL_FEAS * abs(f_star)


def violation(constraints, x) -> float:
    """Summed violation; a NaN constraint value counts as infinite."""
    total = 0.0
    for g in constraints(x):
        total += math.inf if math.isnan(g) else max(g, 0.0)
    return total


def box_of(pid: str, dim: int):
    if pid in CLASSIC:
        half = CLASSIC[pid][1]
        return (-half,) * dim, (half,) * dim
    _, _, lower, upper, _ = ENGINEERING[pid]
    return lower, upper


def objective_of(pid: str):
    return CLASSIC[pid][0] if pid in CLASSIC else ENGINEERING[pid][0]


# --- one fit -------------------------------------------------------------------


def feasibility_key(value: float, viol: float):
    """Feasibility-first order: feasible points by value, others by violation."""
    return (0, value) if viol <= TOL_FEAS else (1, viol)


def check_trace(best_values, best_viols, best_value: float, best_viol: float) -> None:
    """The best-so-far trace never gets worse and ends at the reported best."""
    _require(len(best_values) > 0, "trace", "empty trace")
    keys = [feasibility_key(v, c) for v, c in zip(best_values, best_viols)]
    for k in range(1, len(keys)):
        _require(keys[k] <= keys[k - 1], "trace", f"trace gets worse at row {k}: {keys[k - 1]} -> {keys[k]}")
    _require(
        best_values[-1] == best_value and best_viols[-1] == best_viol,
        "trace",
        f"trace ends at ({best_values[-1]!r}, {best_viols[-1]!r}), "
        f"reported best is ({best_value!r}, {best_viol!r})",
    )


def check_fit(
    pid: str,
    best_x,
    best_value: float,
    best_viol: float,
    n_fes: int,
    max_fes: int,
    trace_values,
    trace_viols,
    sphere_gate: bool = False,
) -> None:
    """Every property one seeded fit must have; raises CheckFailed."""
    x = [float(v) for v in best_x]
    lower, upper = box_of(pid, len(x))
    _require(len(x) == len(lower), "box", f"{pid}: best_x has {len(x)} coordinates")
    for j, (lo, v, hi) in enumerate(zip(lower, x, upper)):
        _require(lo <= v <= hi, "box", f"{pid}: best_x[{j}] = {v!r} outside [{lo}, {hi}]")
    _require(0 < n_fes <= max_fes, "budget", f"{pid}: {n_fes} evaluations against a budget of {max_fes}")
    check_trace(trace_values, trace_viols, best_value, best_viol)
    own = objective_of(pid)(x)
    abs_tol = CLASSIC[pid][2] if pid in CLASSIC else 0.0
    _require(
        math.isclose(own, best_value, rel_tol=1e-9, abs_tol=abs_tol),
        "objective",
        f"{pid}: reported value {best_value!r}, objective at best_x is {own!r}",
    )
    if sphere_gate:
        _require(best_value <= 1e-10, "gate", f"{pid}: best {best_value!r} above 1e-10")
    if pid in ENGINEERING:
        _, constraints, _, _, printed = ENGINEERING[pid]
        viol = violation(constraints, x)
        _require(
            viol <= TOL_FEAS + ROUNDING_SLACK,
            "feasibility",
            f"{pid}: best_x violates the constraints by {viol!r}",
        )
        floor = optimum_floor(printed)
        _require(
            own >= floor,
            "optimum",
            f"{pid}: feasible best {own!r} lies below the published optimum {printed}",
        )


# --- the report files of one `ecocycle run` --------------------------------------


def read_runs(out: pathlib.Path):
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["best_value"] = float(row["best_value"])
        row["best_violation"] = float(row["best_violation"])
        row["fes"] = int(row["fes"])
        row["best_x"] = [float(v) for v in row["best_x"].split(";")]
    return rows


def read_trace_values(path: pathlib.Path):
    with open(path, newline="") as fh:
        return [float(row["best_value"]) for row in csv.DictReader(fh)]


def check_grid_fit(out: pathlib.Path, row, max_fes: int) -> None:
    """One runs.csv row against its own trace file and the problem."""
    trace = read_trace_values(out / row["trace"])
    check_fit(
        row["problem"],
        row["best_x"],
        row["best_value"],
        row["best_violation"],
        row["fes"],
        max_fes,
        trace,
        [0.0] * len(trace),
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def check_grid_reports(out: pathlib.Path, rows, problems, algorithms, runs: int) -> None:
    """summary.csv from runs.csv with `statistics`; the Wilcoxon p-values in
    comparison.json from scipy's Mann-Whitney U (asymptotic, continuity
    corrected), which equals the rank-sum test."""
    from scipy.stats import mannwhitneyu

    expected = [(p, a) for p in problems for a in algorithms for _ in range(runs)]
    got = [(r["problem"], r["algorithm"]) for r in rows]
    _require(got == expected, "report", f"runs.csv rows {got} do not cover the grid {expected}")
    batches = {
        (p, a): [r for r in rows if r["problem"] == p and r["algorithm"] == a]
        for p in problems
        for a in algorithms
    }

    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    _require(len(summary) == len(batches), "report", f"summary.csv has {len(summary)} rows")
    for srow in summary:
        batch = batches[(srow["problem"], srow["algorithm"])]
        values = [r["best_value"] for r in batch]
        want = {
            "min": min(values),
            "ave": statistics.fmean(values),
            "std": statistics.stdev(values),
            "feasible_rate": sum(r["best_violation"] <= TOL_FEAS for r in batch) / len(batch),
        }
        for key, value in want.items():
            _require(
                _close(float(srow[key]), value),
                "report",
                f"summary.csv {srow['problem']}/{srow['algorithm']} {key} = "
                f"{srow[key]}, recomputed {value!r}",
            )

    comparison = json.loads((out / "comparison.json").read_text())
    for p in problems:
        for i, a in enumerate(algorithms):
            for b in algorithms[i + 1 :]:
                xa = [r["best_value"] for r in batches[(p, a)]]
                xb = [r["best_value"] for r in batches[(p, b)]]
                want = mannwhitneyu(
                    xa, xb, use_continuity=True, alternative="two-sided", method="asymptotic"
                ).pvalue
                cell = comparison["wilcoxon"][p][f"{a}_vs_{b}"]
                _require(
                    math.isclose(cell["p_value"], float(want), rel_tol=1e-9, abs_tol=1e-15),
                    "report",
                    f"comparison.json {p} {a}_vs_{b} p = {cell['p_value']!r}, "
                    f"Mann-Whitney gives {float(want)!r}",
                )
                if cell["p_value"] >= 0.05:
                    verdict = "="
                else:
                    ma, mb = statistics.fmean(xa), statistics.fmean(xb)
                    verdict = "+" if ma < mb else "-" if ma > mb else "="
                _require(
                    cell["verdict"] == verdict,
                    "report",
                    f"comparison.json {p} {a}_vs_{b} verdict {cell['verdict']!r}, expected {verdict!r}",
                )
