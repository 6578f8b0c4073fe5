"""Tests for the experiment harness: budgets, specs, and report files."""

import json

import numpy as np
import pytest

from ecocycle.classic import CLASSIC_IDS, UnknownFunction, make_classic
from ecocycle.engineering import ENGINEERING_IDS
from ecocycle.harness import (
    ALGORITHMS,
    ExperimentSpec,
    make_problem,
    resolve_budget,
    run_experiment,
)
from ecocycle.problems import Bounds, Problem


def named_problem(name, dim):
    return Problem(
        name=name,
        dim=dim,
        bounds=Bounds(np.zeros(dim), np.ones(dim)),
        objective=lambda x: np.sum(np.square(x), axis=-1),
    )


class TestResolveBudget:
    def test_override_wins(self):
        assert resolve_budget(make_problem("f1"), max_fes=123) == 123
        assert resolve_budget(make_problem("rc20"), max_fes=50) == 50

    def test_classic_scales_with_dimension(self):
        assert resolve_budget(make_problem("f1", dim=30)) == 300_000
        assert resolve_budget(make_problem("f1", dim=2)) == 20_000

    def test_engineering_tiers(self):
        assert resolve_budget(make_problem("rc20")) == 100_000  # D=2
        assert resolve_budget(make_problem("rc15")) == 100_000  # D=7
        assert resolve_budget(named_problem("rc99", 30)) == 200_000
        assert resolve_budget(named_problem("rc99", 40)) == 400_000
        assert resolve_budget(named_problem("rc99", 150)) == 800_000
        assert resolve_budget(named_problem("rc99", 151)) == 1_000_000


class TestMakeProblem:
    def test_classic_with_dim(self):
        assert make_problem("f1", dim=12).dim == 12

    def test_engineering_ignores_dim(self):
        assert make_problem("rc15", dim=99).dim == 7

    def test_case_insensitive(self):
        assert make_problem("F9").name == make_problem("f9").name

    def test_unknown_id(self):
        with pytest.raises(UnknownFunction):
            make_problem("f99")


class TestExperimentSpec:
    def test_default_is_full_classic_suite(self):
        spec = ExperimentSpec()
        assert spec.problem_ids() == CLASSIC_IDS
        assert len(spec.problem_ids()) == 23

    def test_engineering_suite(self):
        spec = ExperimentSpec(suite="engineering")
        assert spec.problem_ids() == ENGINEERING_IDS

    def test_filter_preserves_catalog_order(self):
        spec = ExperimentSpec(problems=("f3", "f1"))
        assert spec.problem_ids() == ("f1", "f3")

    def test_filter_outside_catalog(self):
        with pytest.raises(ValueError, match="not in the classic catalog"):
            ExperimentSpec(problems=("f1", "rc15"))

    def test_single_requires_problems(self):
        with pytest.raises(ValueError, match="explicit problem list"):
            ExperimentSpec(suite="single")

    def test_single_takes_any_catalog_mix(self):
        spec = ExperimentSpec(suite="single", problems=("f1", "rc20"))
        assert spec.problem_ids() == ("f1", "rc20")

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            ExperimentSpec(suite="cec2020")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentSpec(algorithms=("eco", "ga"))

    def test_bad_runs(self):
        with pytest.raises(ValueError):
            ExperimentSpec(runs=0)

    def test_empty_algorithms(self):
        with pytest.raises(ValueError):
            ExperimentSpec(algorithms=())

    def test_unknown_problem_id_caught_at_construction(self):
        with pytest.raises(UnknownFunction):
            ExperimentSpec(suite="single", problems=("f99",))

    def test_known_algorithms(self):
        assert set(ALGORITHMS) == {"eco", "pso"}


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    spec = ExperimentSpec(
        suite="single",
        problems=("f1",),
        algorithms=("eco", "pso"),
        dim=2,
        runs=2,
        max_fes=600,
        base_seed=3,
        output_dir=str(out),
    )
    return spec, run_experiment(spec)


class TestRunExperiment:
    def test_expected_files(self, tiny_experiment, ):
        spec, result = tiny_experiment
        import pathlib

        out = pathlib.Path(result["output_dir"])
        expected = {
            "runs.csv",
            "summary.csv",
            "comparison.json",
            "timings.csv",
            "diversity_f1_eco.csv",
            "trace_f1_eco_run0.csv",
            "trace_f1_eco_run1.csv",
            "trace_f1_pso_run0.csv",
            "trace_f1_pso_run1.csv",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_record_grid_and_seeds(self, tiny_experiment):
        spec, result = tiny_experiment
        records = result["records"]
        assert len(records) == 4
        assert [(r.algorithm, r.run_index) for r in records] == [
            ("eco", 0),
            ("eco", 1),
            ("pso", 0),
            ("pso", 1),
        ]
        assert all(r.seed == spec.base_seed + r.run_index for r in records)
        assert all(r.fes <= 600 for r in records)

    def test_trace_files_match_iteration_counts(self, tiny_experiment):
        import pathlib

        spec, result = tiny_experiment
        out = pathlib.Path(result["output_dir"])
        # eco: 30 init + 10 full sweeps of 54 = 570 evaluations, rows 0..10
        eco_lines = (out / "trace_f1_eco_run0.csv").read_text().splitlines()
        assert eco_lines[0] == "iter,fes,best_value,div"
        assert len(eco_lines) == 1 + 11
        assert eco_lines[1].startswith("0,30,")
        assert eco_lines[-1].startswith("10,570,")
        # pso: 30 init + 19 sweeps of 30 land exactly on 600
        pso_lines = (out / "trace_f1_pso_run0.csv").read_text().splitlines()
        assert len(pso_lines) == 1 + 20
        assert pso_lines[-1].startswith("19,600,")

    def test_runs_csv_cross_checks_summary_csv(self, tiny_experiment):
        import pathlib

        from ecocycle.analysis import summarize

        spec, result = tiny_experiment
        out = pathlib.Path(result["output_dir"])
        runs_rows = [
            line.split(",")
            for line in (out / "runs.csv").read_text().splitlines()[1:]
        ]
        summary_rows = [
            line.split(",")
            for line in (out / "summary.csv").read_text().splitlines()[1:]
        ]
        assert len(summary_rows) == 2
        for prow in summary_rows:
            pid, alg = prow[0], prow[1]
            values = [
                float(r[4]) for r in runs_rows if r[0] == pid and r[1] == alg
            ]
            s = summarize(values)
            assert float(prow[2]) == pytest.approx(s.min, abs=1e-12)
            assert float(prow[3]) == pytest.approx(s.ave, abs=1e-12)
            assert float(prow[4]) == pytest.approx(s.std, abs=1e-12)
            assert float(prow[5]) == 1.0  # box-only problem: always feasible

    def test_best_x_reevaluates_to_best_value(self, tiny_experiment):
        import pathlib

        spec, result = tiny_experiment
        out = pathlib.Path(result["output_dir"])
        problem = make_problem("f1", dim=2)
        for line in (out / "runs.csv").read_text().splitlines()[1:]:
            cols = line.split(",")
            x = np.array([float(v) for v in cols[8].split(";")])
            assert float(problem.objective(x)) == pytest.approx(
                float(cols[4]), abs=1e-9
            )

    def test_comparison_report_structure(self, tiny_experiment):
        spec, result = tiny_experiment
        comp = result["comparison"]
        assert comp["alpha"] == 0.05
        assert comp["problems"] == ["f1"]
        assert comp["algorithms"] == ["eco", "pso"]
        cell = comp["wilcoxon"]["f1"]["eco_vs_pso"]
        assert 0.0 < cell["p_value"] <= 1.0
        assert cell["verdict"] in {"+", "-", "="}
        wtl = comp["win_tie_loss"]
        assert wtl["reference"] == "eco"
        tallies = wtl["opponents"]["pso"]
        assert tallies["wins"] + tallies["ties"] + tallies["losses"] == 1
        fr = comp["friedman"]
        assert sum(fr["mean_ranks"].values()) == pytest.approx(3.0)
        assert sorted(fr["order"]) == ["eco", "pso"]

    def test_comparison_json_round_trips(self, tiny_experiment):
        import pathlib

        spec, result = tiny_experiment
        out = pathlib.Path(result["output_dir"])
        on_disk = json.loads((out / "comparison.json").read_text())
        assert on_disk == result["comparison"]

    def test_rerun_is_byte_identical(self, tiny_experiment, tmp_path):
        import dataclasses
        import pathlib

        spec, result = tiny_experiment
        out1 = pathlib.Path(result["output_dir"])
        spec2 = dataclasses.replace(spec, output_dir=str(tmp_path / "again"))
        out2 = pathlib.Path(run_experiment(spec2)["output_dir"])
        names1 = {p.name for p in out1.iterdir()}
        names2 = {p.name for p in out2.iterdir()}
        assert names1 == names2
        for name in sorted(names1 - {"timings.csv"}):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_single_algorithm_skips_comparisons(self, tmp_path):
        spec = ExperimentSpec(
            suite="single",
            problems=("f1",),
            algorithms=("eco",),
            dim=2,
            runs=1,
            max_fes=150,
            output_dir=str(tmp_path),
        )
        result = run_experiment(spec)
        comp = result["comparison"]
        assert set(comp) == {"alpha", "problems", "algorithms"}
        assert result["summaries"][0]["std"] == 0.0
        assert not (tmp_path / "comparison.json").read_text().count("wilcoxon")

    def test_constrained_problem_reports_feasible_rate(self, tmp_path):
        spec = ExperimentSpec(
            suite="single",
            problems=("rc20",),
            algorithms=("eco",),
            runs=2,
            max_fes=2000,
            output_dir=str(tmp_path),
        )
        result = run_experiment(spec)
        row = result["summaries"][0]
        assert 0.0 <= row["feasible_rate"] <= 1.0
        assert row["min"] > 263.0


class TestStackedCells:
    """run_experiment fits the runs of each (problem, algorithm) cell as one
    stack of their seeds. Every report row and trace file must equal what a
    fit of that cell's problem with the row's seed alone gives."""

    SPEC = dict(
        suite="single",
        problems=("f7", "rc17"),  # noisy, and constrained
        algorithms=("eco", "pso"),
        dim=3,
        runs=3,
        max_fes=400,
        base_seed=5,
    )

    def test_rows_and_traces_match_per_seed_fits(self, tmp_path):
        import csv
        import pathlib

        from ecocycle.harness import _write_trace

        spec = ExperimentSpec(output_dir=str(tmp_path / "out"), **self.SPEC)
        run_experiment(spec)
        out = pathlib.Path(spec.output_dir)
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            problem = make_problem(row["problem"], spec.dim)
            alone = ALGORITHMS[row["algorithm"]](max_fes=400, seed=int(row["seed"])).fit(problem)
            assert row["best_value"] == "%.17g" % alone.best_value_
            assert row["best_violation"] == "%.17g" % alone.best_violation_
            assert row["fes"] == str(alone.n_fes_)
            assert row["best_x"] == ";".join("%.17g" % v for v in alone.best_x_)
            _write_trace(tmp_path / "alone.csv", alone.trace_)
            assert (out / row["trace"]).read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_each_run_gets_the_stack_wall_time_over_runs(self, tmp_path, monkeypatch):
        import types

        from ecocycle import harness

        ticks = iter(range(0, 1000, 6))  # each timed stack lasts 6 s
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        spec = ExperimentSpec(output_dir=str(tmp_path), **self.SPEC)
        result = run_experiment(spec)
        assert {r.wall_time for r in result["records"]} == {2.0}
        lines = (tmp_path / "timings.csv").read_text().splitlines()
        assert lines[0] == "problem,algorithm,run,wall_time"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["2"] * 12
