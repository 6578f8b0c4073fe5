"""Tests for the particle swarm baseline."""

import dataclasses

import numpy as np
import pytest

from ecocycle.classic import make_classic
from ecocycle.engineering import make_engineering
from ecocycle.pso import PsoOptimizer
from ecocycle.problems import Bounds, BudgetExhausted, Problem
from fit_contract import FitContract
from oracles import contains


class TestDefaults:
    def test_parameter_values(self):
        opt = PsoOptimizer()
        assert dataclasses.asdict(opt) == {
            "pop_size": 30,
            "c1": 2.0,
            "c2": 2.0,
            "w": 0.8,
            "max_fes": None,
            "seed": None,
        }

    def test_replace_roundtrip(self):
        opt = dataclasses.replace(PsoOptimizer(), w=0.5, max_fes=900, seed=4)
        assert opt.w == 0.5
        clone = PsoOptimizer(**dataclasses.asdict(opt))
        assert dataclasses.asdict(clone) == dataclasses.asdict(opt)


class TestFitMechanics(FitContract):
    optimizer = PsoOptimizer
    invalid_pop = 0
    seeded_repr = (
        "PsoOptimizer(pop_size=30, c1=2.0, c2=2.0, w=0.8, max_fes=None, seed=7)"
    )
    field_names = ("pop_size", "c1", "c2", "w", "max_fes", "seed")

    def test_single_particle_is_stationary(self):
        # with one particle, pbest and gbest coincide with x, so every
        # velocity term vanishes and the swarm never moves
        problem = make_classic("f1", dim=3).problem
        opt = PsoOptimizer(pop_size=1, max_fes=50, seed=8).fit(problem)
        assert opt.n_fes_ == 50
        first = opt.trace_.best_values[0]
        assert np.all(opt.trace_.best_values == first)
        assert np.all(opt.trace_.div == 0.0)

    def test_deterministic_given_seed(self):
        problem = make_classic("f5", dim=4).problem
        a = PsoOptimizer(max_fes=600, seed=17).fit(problem)
        b = PsoOptimizer(max_fes=600, seed=17).fit(problem)
        assert np.array_equal(a.best_x_, b.best_x_)
        assert a.best_value_ == b.best_value_
        assert np.array_equal(a.trace_.best_values, b.trace_.best_values)

    def test_trace_monotone(self):
        problem = make_classic("f10", dim=5).problem
        opt = PsoOptimizer(max_fes=3000, seed=2).fit(problem)
        assert np.all(np.diff(opt.trace_.best_values) <= 0)

    def test_partial_sweep_spends_budget_exactly(self):
        # 30 init + 2 full sweeps = 90, then a 5-evaluation partial sweep
        problem = make_classic("f1", dim=3).problem
        opt = PsoOptimizer(max_fes=95, seed=1).fit(problem)
        assert opt.n_fes_ == 95
        assert opt.trace_.fes.tolist() == [30, 60, 90]
        assert opt.n_iters_ == 2

    def test_partial_sweep_that_improves_is_recorded(self):
        # The budget ends 10 evaluations into a sweep that lowers the best
        # from 206.83813221583816 (at 9,990 evaluations) to 206.83812311673634.
        problem = make_classic("f9", dim=30).problem
        opt = PsoOptimizer(max_fes=10000, seed=4).fit(problem)
        assert opt.n_fes_ == 10000
        assert opt.trace_.fes[-2:].tolist() == [9990, 10000]
        assert opt.trace_.best_values[-1] == opt.best_value_
        assert opt.trace_.best_values[-2] > opt.best_value_
        assert opt.n_iters_ == opt.trace_.iters[-1] == 333

    def test_full_sweeps_land_on_budget(self):
        problem = make_classic("f1", dim=3).problem
        opt = PsoOptimizer(max_fes=300, seed=1).fit(problem)
        assert opt.n_fes_ == 300
        assert opt.trace_.fes[-1] == 300

    def test_budget_below_swarm_raises_before_evaluating(self):
        calls = []
        problem = make_classic("f1", dim=3).problem
        wrapped = dataclasses.replace(
            problem,
            objective=lambda x: (calls.append(1), problem.objective(x))[1],
        )
        with pytest.raises(BudgetExhausted):
            PsoOptimizer(max_fes=29, seed=0).fit(wrapped)
        assert calls == []

    def test_nan_incumbents_are_replaced(self):
        # Personal and global bests that start NaN give way to the first
        # finite evaluation; a bare `<` kept them NaN for the whole run.
        problem = Problem(
            "sphere_nan",
            3,
            Bounds.symmetric(10.0, 3),
            lambda x: np.where(x[..., 0] > -5, np.nan, np.sum(np.square(x), axis=-1)),
        )
        opt = PsoOptimizer(pop_size=4, max_fes=2000, seed=5).fit(problem)
        assert np.isnan(opt.trace_.best_values[0])
        assert np.isfinite(opt.best_value_)
        assert opt.trace_.best_values[-1] == opt.best_value_

    def test_invalid_pop_size(self):
        with pytest.raises(ValueError):
            PsoOptimizer(pop_size=0).fit(make_classic("f1", dim=2).problem)

    def test_population_stays_in_box(self):
        problem = make_classic("f6", dim=6).problem
        opt = PsoOptimizer(max_fes=1500, seed=5).fit(problem)
        assert contains(problem.bounds, opt.best_x_[None, :]).all()


class TestConvergence:
    def test_sphere_2d_reliably_solved(self):
        problem = make_classic("f1", dim=2).problem
        worst = max(
            PsoOptimizer(max_fes=10_000, seed=s).fit(problem).best_value_
            for s in range(25)
        )
        assert worst <= 1e-3

    def test_constrained_problem_reaches_feasibility(self):
        spec = make_engineering("rc20")
        opt = PsoOptimizer(max_fes=5000, seed=3).fit(spec.problem)
        assert opt.best_violation_ <= 1e-6
        assert 263.0 < opt.best_value_ < 320.0

    def test_constrained_trace_monotone_in_compare_order(self):
        spec = make_engineering("rc17")
        opt = PsoOptimizer(max_fes=4000, seed=6).fit(spec.problem)
        values, viols = opt.trace_.best_values, opt.trace_.best_viols
        prev_feas = (viols <= 1e-8)[:-1]
        assert np.all(np.diff(values)[prev_feas] <= 0.0)
        assert np.all(np.diff(viols)[~prev_feas] <= 0.0)
        assert not np.any(prev_feas & (viols[1:] > 1e-8))


class TestBoxOnlyPathEquivalence:
    """The swarm takes no box-only branch of its own: a box-only problem and
    the same problem with a constraint satisfied everywhere take the same
    decisions in the feasibility-first helpers, so both runs match to the
    last bit."""

    @staticmethod
    def _always_satisfied(problem):
        return dataclasses.replace(
            problem,
            name=problem.name + "_g",
            constraint_values=lambda x: np.full((1,) + x.shape[:-1], -1.0),
        )

    @pytest.mark.parametrize(
        "fid, dim, max_fes, seed",
        [("f1", 30, 6000, 7), ("f8", 5, 3000, 3), ("f9", 10, 4000, 5)],
    )
    def test_identical_runs(self, fid, dim, max_fes, seed):
        problem = make_classic(fid, dim=dim).problem
        constrained_problem = self._always_satisfied(problem)
        assert not problem.constrained and constrained_problem.constrained
        box = PsoOptimizer(max_fes=max_fes, seed=seed).fit(problem)
        constrained = PsoOptimizer(max_fes=max_fes, seed=seed).fit(constrained_problem)
        assert np.array_equal(box.best_x_, constrained.best_x_)
        assert box.best_value_ == constrained.best_value_
        assert box.best_violation_ == constrained.best_violation_ == 0.0
        assert box.n_fes_ == constrained.n_fes_
        for name in ("iters", "fes", "best_values", "best_viols", "div"):
            assert np.array_equal(
                getattr(box.trace_, name), getattr(constrained.trace_, name)
            ), name
