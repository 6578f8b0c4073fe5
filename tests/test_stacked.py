"""A stacked fit (one sequence seed) against one fit per seed, bit for bit.

fit(problem) with seed=[s0, s1, ...] moves the runs in lockstep, one array
pass for the whole stack, and each run must end with exactly the bits of
cls(seed=s).fit(problem): the best, its violation, the evaluation and step
counts, and every trace column.
"""

import numpy as np
import pytest

from ecocycle.classic import CLASSIC_IDS, make_classic
from ecocycle.eco import EcoOptimizer
from ecocycle.engineering import ENGINEERING_IDS, make_engineering
from ecocycle.pso import PsoOptimizer
from test_golden import CASES

OPTIMIZERS = {"eco": EcoOptimizer, "pso": PsoOptimizer}
TRACE_COLUMNS = ("iters", "fes", "best_values", "best_viols", "div")


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def assert_stack_matches_separate(cls, problem, seeds, **params):
    stack = cls(seed=list(seeds), **params).fit(problem)
    runs = len(seeds)
    assert stack.best_x_.shape == (runs, problem.dim)
    for name in ("best_value_", "best_violation_", "n_fes_", "n_iters_"):
        assert getattr(stack, name).shape == (runs,), name
    assert len(stack.trace_) == runs
    for r, seed in enumerate(seeds):
        # A Generator seed is consumed by its fit, so the lone fit gets a
        # fresh one from the same seed.
        if isinstance(seed, np.random.Generator):
            seed = np.random.default_rng(seed.bit_generator.seed_seq)
        one = cls(seed=seed, **params).fit(problem)
        assert same(stack.best_x_[r], one.best_x_), r
        assert same(stack.best_value_[r], one.best_value_), r
        assert same(stack.best_violation_[r], one.best_violation_), r
        assert stack.n_fes_[r] == one.n_fes_
        assert stack.n_iters_[r] == one.n_iters_
        for column in TRACE_COLUMNS:
            assert same(getattr(stack.trace_[r], column), getattr(one.trace_, column)), (r, column)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
@pytest.mark.parametrize("fid", CLASSIC_IDS)
def test_every_classic_function(alg, fid):
    problem = make_classic(fid, dim=5).problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, (3, 1, 4), max_fes=400)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_every_engineering_problem(alg, pid):
    problem = make_engineering(pid).problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, (0, 1, 2), max_fes=1500)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
@pytest.mark.parametrize(
    "case_id", ["nan_start", "nan_near_optimum", "inf_band", "neg_inf_band", "offset_sphere"]
)
def test_golden_region_cases(alg, case_id):
    _, factory, max_fes, seeds = next(case for case in CASES if case[0] == case_id)
    assert_stack_matches_separate(OPTIMIZERS[alg], factory(), seeds + (5,), max_fes=max_fes)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
def test_smallest_population_in_one_dimension(alg):
    problem = make_classic("f1", dim=1).problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, (0, 1, 2), pop_size=4, max_fes=300)


# ECO on 30 members: 30 initial evaluations, then 9 herbivores, 9 carnivores,
# 6 omnivores and 30 decompositions per iteration.
@pytest.mark.parametrize(
    "max_fes",
    [
        pytest.param(35, id="herbivore-sweep"),
        pytest.param(45, id="carnivore-sweep"),
        pytest.param(83, id="decomposition-sweep"),
        pytest.param(300, id="iteration-5"),
    ],
)
def test_eco_budget_runs_dry_inside_a_step(max_fes):
    problem = make_classic("f1", dim=5).problem
    assert_stack_matches_separate(EcoOptimizer, problem, (1, 2, 7), max_fes=max_fes)


def test_pso_budget_runs_dry_mid_sweep():
    problem = make_classic("f1", dim=5).problem
    assert_stack_matches_separate(PsoOptimizer, problem, (1, 2, 7), max_fes=100)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
def test_generator_seeds(alg):
    seeds = [np.random.default_rng(seed) for seed in (11, 12)]
    problem = make_engineering("rc17").problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, seeds, max_fes=600)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
@pytest.mark.parametrize("runs", [1, 2, 9])
def test_stack_sizes(alg, runs):
    problem = make_classic("f9", dim=4).problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, tuple(range(runs)), max_fes=700)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
def test_noisy_objective_draws_per_run(alg):
    # f7 adds one noise draw per evaluation from the run's own stream.
    problem = make_classic("f7", dim=3).problem
    assert_stack_matches_separate(OPTIMIZERS[alg], problem, (5, 6), max_fes=500)


@pytest.mark.parametrize("alg", sorted(OPTIMIZERS))
def test_empty_seed_sequence_is_rejected(alg):
    with pytest.raises(ValueError, match="at least one seed"):
        OPTIMIZERS[alg](seed=[], max_fes=300).fit(make_classic("f1", dim=2).problem)


def test_scalar_seed_keeps_scalar_attributes():
    opt = EcoOptimizer(seed=3, max_fes=300).fit(make_classic("f1", dim=2).problem)
    assert isinstance(opt.best_value_, float) and isinstance(opt.best_violation_, float)
    assert isinstance(opt.n_fes_, int) and isinstance(opt.n_iters_, int)
    assert opt.best_x_.shape == (2,)


def test_int_of_stacked_counts_is_their_total():
    opt = PsoOptimizer(seed=[1, 2, 3], max_fes=90).fit(make_classic("f1", dim=2).problem)
    assert opt.n_fes_.tolist() == [90, 90, 90]
    assert int(opt.n_fes_) == 270
    assert int(opt.n_iters_) == sum(opt.n_iters_.tolist())
