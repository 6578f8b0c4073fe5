"""Each output check of the benchmark accepts a real output and rejects it
once one value is corrupted.

    python3 -m pytest perfbench -q
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from ecocycle import EcoOptimizer, cli, make_classic, make_engineering  # noqa: E402


def fit_args(pid, opt, max_fes):
    return dict(
        pid=pid,
        best_x=opt.best_x_.tolist(),
        best_value=opt.best_value_,
        best_viol=opt.best_violation_,
        n_fes=opt.n_fes_,
        max_fes=max_fes,
        trace_values=opt.trace_.best_values.tolist(),
        trace_viols=opt.trace_.best_viols.tolist(),
    )


@pytest.fixture(scope="module")
def sphere_fit():
    problem = make_classic("f1", dim=30).problem
    return fit_args("f1", EcoOptimizer(max_fes=3000, seed=3).fit(problem), 3000)


@pytest.fixture(scope="module")
def truss_fit():
    problem = make_engineering("rc20").problem
    return fit_args("rc20", EcoOptimizer(max_fes=20_000, seed=3).fit(problem), 20_000)


def rejects(kind, **args):
    with pytest.raises(oracle.CheckFailed) as info:
        oracle.check_fit(**args)
    assert info.value.kind == kind, info.value


class TestFit:
    def test_real_fits_pass(self, sphere_fit, truss_fit):
        oracle.check_fit(**sphere_fit)
        oracle.check_fit(**truss_fit)

    def test_point_outside_the_box(self, sphere_fit):
        x = list(sphere_fit["best_x"])
        x[2] = 100.5
        rejects("box", **dict(sphere_fit, best_x=x))

    def test_budget_overrun(self, sphere_fit):
        rejects("budget", **dict(sphere_fit, n_fes=3001))

    def test_trace_that_gets_worse(self, sphere_fit):
        values = list(sphere_fit["trace_values"])
        values[1] = values[0] * 2.0 + 1.0
        rejects("trace", **dict(sphere_fit, trace_values=values))

    def test_trace_that_ends_elsewhere(self, sphere_fit):
        values = list(sphere_fit["trace_values"])
        values[-1] = values[-1] * 0.5
        rejects("trace", **dict(sphere_fit, trace_values=values))

    def test_constrained_trace_leaving_feasibility(self, truss_fit):
        viols = list(truss_fit["trace_viols"])
        viols[-2] = 0.0
        viols[-1] = 1.0
        values = list(truss_fit["trace_values"])
        rejects("trace", **dict(truss_fit, trace_values=values, trace_viols=viols))

    def test_value_not_the_objective_at_the_point(self, sphere_fit):
        value = sphere_fit["best_value"] * (1.0 + 1e-6)
        values = sphere_fit["trace_values"][:-1] + [value]
        rejects("objective", **dict(sphere_fit, best_value=value, trace_values=values))

    def test_sphere_gate(self):
        # A run of a few iterations stops far above the 1e-10 that 300,000
        # evaluations reach.
        problem = make_classic("f1", dim=30).problem
        short = fit_args("f1", EcoOptimizer(max_fes=300, seed=3).fit(problem), 300)
        assert short["best_value"] > 1e-10
        oracle.check_fit(**short)
        rejects("gate", **dict(short, sphere_gate=True))

    def test_infeasible_point(self, truss_fit):
        x = [0.5, 0.05]  # stress in the first member is far above its limit
        value = oracle.truss_objective(x)
        values = truss_fit["trace_values"][:-1] + [value]
        rejects("feasibility", **dict(truss_fit, best_x=x, best_value=value, trace_values=values))

    def test_best_below_the_published_optimum(self, truss_fit, monkeypatch):
        entry = list(oracle.ENGINEERING["rc20"])
        entry[4] = "264.0"
        monkeypatch.setitem(oracle.ENGINEERING, "rc20", tuple(entry))
        rejects("optimum", **truss_fit)

    def test_published_optimum_floor(self):
        assert oracle.printed_rounding("2994.42447") == pytest.approx(5e-6)
        assert oracle.printed_rounding("2.7009e-12") == pytest.approx(5e-17)
        assert oracle.optimum_floor("263.895843") == pytest.approx(263.895843 - 5e-7 - 2.63895843e-6)

    def test_speed_reducer_fault(self):
        # The catalog's load constant 1.69e7 lets ECO reach points that are
        # infeasible under the published 16.91e6 (see the README).
        problem = make_engineering("rc15").problem
        opt = EcoOptimizer(max_fes=100_000, seed=7).fit(problem)
        with pytest.raises(oracle.CheckFailed) as info:
            oracle.check_fit(**fit_args("rc15", opt, 100_000))
        assert info.value.kind == "feasibility"
        assert opt.best_value_ < oracle.optimum_floor("2994.42447")


class TestObjectives:
    @pytest.mark.parametrize("fid", ["f1", "f8", "f9", "f10"])
    def test_classic_agrees_with_the_catalog(self, fid):
        problem = make_classic(fid, dim=7).problem
        x = [0.37 * (j - 3) for j in range(7)]
        own = oracle.objective_of(fid)(x)
        assert math.isclose(own, float(problem.objective(np.asarray(x))), rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("pid", ["rc15", "rc17", "rc19", "rc20", "rc31"])
    def test_engineering_reference_points(self, pid):
        x_star, f_star = make_engineering(pid).reference
        own = oracle.objective_of(pid)(x_star.tolist())
        assert own == pytest.approx(f_star, rel=1e-6)


# --- grid reports --------------------------------------------------------------

PROBLEMS = ("f1", "f9")
ALGS = ("eco", "pso")
RUNS = 9
MAX_FES = 600


@pytest.fixture()
def grid(tmp_path):
    argv = [
        "run", "--suite", "classic", "--problem", ",".join(PROBLEMS), "--alg", ",".join(ALGS),
        "--dim", "5", "--max-fes", str(MAX_FES), "--runs", str(RUNS), "--seed", "11",
        "--out", str(tmp_path),
    ]  # fmt: skip
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tmp_path


def check_all(out):
    rows = oracle.read_runs(out)
    for row in rows:
        oracle.check_grid_fit(out, row, MAX_FES)
    oracle.check_grid_reports(out, rows, PROBLEMS, ALGS, RUNS)


def rewrite_csv(path, row_index, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row_index][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


class TestGridReports:
    def test_real_reports_pass(self, grid):
        check_all(grid)

    def test_summary_mean(self, grid):
        path = grid / "summary.csv"
        with open(path, newline="") as fh:
            ave = float(list(csv.DictReader(fh))[1]["ave"])
        rewrite_csv(path, 1, "ave", repr(ave * (1.0 + 1e-6)))
        with pytest.raises(oracle.CheckFailed, match="summary.csv"):
            check_all(grid)

    def test_wilcoxon_p_value(self, grid):
        path = grid / "comparison.json"
        report = json.loads(path.read_text())
        report["wilcoxon"]["f9"]["eco_vs_pso"]["p_value"] *= 1.001
        path.write_text(json.dumps(report))
        with pytest.raises(oracle.CheckFailed, match="Mann-Whitney"):
            check_all(grid)

    def test_wilcoxon_verdict(self, grid):
        path = grid / "comparison.json"
        report = json.loads(path.read_text())
        cell = report["wilcoxon"]["f1"]["eco_vs_pso"]
        cell["verdict"] = "-" if cell["verdict"] != "-" else "+"
        path.write_text(json.dumps(report))
        with pytest.raises(oracle.CheckFailed, match="verdict"):
            check_all(grid)

    def test_trace_last_row(self, grid):
        row = oracle.read_runs(grid)[4]
        path = grid / row["trace"]
        lines = path.read_text().splitlines()
        it, fes, _, div = lines[-1].split(",")
        lines[-1] = ",".join([it, fes, repr(row["best_value"] * 0.5), div])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(oracle.CheckFailed, match="trace ends"):
            check_all(grid)

    def test_runs_point(self, grid):
        rows = oracle.read_runs(grid)
        x = rows[0]["best_x"]
        x[0] += 0.25
        rewrite_csv(grid / "runs.csv", 0, "best_x", ";".join(repr(v) for v in x))
        with pytest.raises(oracle.CheckFailed, match="objective at best_x"):
            check_all(grid)

    def test_missing_row(self, grid):
        path = grid / "runs.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(oracle.CheckFailed, match="do not cover the grid"):
            check_all(grid)

