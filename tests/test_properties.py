"""Run-level properties of both optimizers on small, hostile problems.

Each example fits ECO or PSO on a random box in one to three dimensions
(often one), with a sphere-like objective that is NaN, +inf or -inf on part
of the box, and sometimes with a constraint that is itself NaN somewhere.
The population is often 4, ECO's minimum, and budgets run from the
population size to a few iterations, so runs that stop mid-sweep are
common. A wrapping objective logs every evaluation, and the fitted run must
agree with that log:

- `n_fes_` never exceeds the budget and equals the number of rows logged;
- `best_x_` lies in the box;
- the trace never gets worse under the feasibility-first order, and its
  last row is (`best_value_`, `best_violation_`);
- the best is the compare-minimum over every evaluation, and `best_x_` is
  the first evaluated point that reaches it.

A budget below the population size raises BudgetExhausted out of `fit`
before anything is evaluated, in both optimizers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocycle.eco import EcoOptimizer, fes_per_iteration, partition_counts
from ecocycle.problems import (
    Bounds,
    BudgetExhausted,
    Problem,
    argsort_by_compare,
    violation_of,
)
from ecocycle.pso import PsoOptimizer
from oracles import Evaluation, compare, contains

FILLS = {"none": None, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}
OPTIMIZERS = {"eco": EcoOptimizer, "pso": PsoOptimizer}


@st.composite
def problems(draw):
    """A factory that builds the drawn problem around a given log list."""
    dim = draw(st.one_of(st.just(1), st.integers(1, 3)))
    lower = np.array([draw(st.floats(-10.0, 0.0)) for _ in range(dim)])
    width = np.array([draw(st.floats(0.5, 20.0)) for _ in range(dim)])
    bounds = Bounds(lower, lower + width)
    fill = FILLS[draw(st.sampled_from(sorted(FILLS)))]
    # The region is x_j > cut for one coordinate j; a cut inside the box
    # can cover anything from none to all of it. Cuts low in the box are
    # drawn often, so that a whole initial population can lie in the region
    # while later evaluations leave it.
    axis = draw(st.integers(0, dim - 1))
    share = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.25]), st.floats(0.0, 1.0)))
    cut = lower[axis] + share * width[axis]
    center = lower + draw(st.floats(0.0, 1.0)) * width
    constrained = draw(st.booleans())
    # The constraint x_k >= floor, NaN where x_k exceeds its own cut.
    k = draw(st.integers(0, dim - 1))
    floor = lower[k] + draw(st.floats(0.0, 0.8)) * width[k]
    nan_above = lower[k] + draw(st.floats(0.0, 1.5)) * width[k]

    def make(log):
        def objective(x):
            values = np.sum(np.square(x - center), axis=-1)
            if fill is not None:
                values = np.where(x[..., axis] > cut, fill, values)
            log.append((np.array(x, ndmin=2), np.array(values, ndmin=1)))
            return values

        def constraint_values(x):
            g = floor - x[..., k]
            return np.where(x[..., k] > nan_above, np.nan, g)[None]

        return Problem(
            "hostile",
            dim,
            bounds,
            objective,
            constraint_values=constraint_values if constrained else None,
        )

    return make


@st.composite
def fits(draw):
    alg = draw(st.sampled_from(sorted(OPTIMIZERS)))
    pop = draw(st.one_of(st.just(4), st.integers(4, 8)))
    per_iter = fes_per_iteration(partition_counts(pop)) if alg == "eco" else pop
    max_fes = draw(st.integers(pop, pop + 3 * per_iter))
    seed = draw(st.integers(0, 2**16))
    return OPTIMIZERS[alg](pop_size=pop, max_fes=max_fes, seed=seed), max_fes


def not_worse(a_value, a_viol, b_value, b_viol) -> bool:
    return compare(Evaluation(a_value, a_viol), Evaluation(b_value, b_viol)) <= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(make=problems(), fit=fits())
def test_run_agrees_with_its_evaluations(make, fit):
    opt, max_fes = fit
    log = []
    problem = make(log)
    opt.fit(problem)

    xs = np.concatenate([x for x, _ in log])
    values = np.concatenate([v for _, v in log])
    viols = violation_of(problem, xs)
    assert opt.n_fes_ <= max_fes
    assert opt.n_fes_ == xs.shape[0]
    assert contains(problem.bounds, opt.best_x_)

    trace = opt.trace_
    for i in range(1, len(trace)):
        assert not_worse(
            trace.best_values[i], trace.best_viols[i],
            trace.best_values[i - 1], trace.best_viols[i - 1],
        ), i
    assert np.array_equal(trace.best_values[-1], opt.best_value_, equal_nan=True)
    assert trace.best_viols[-1] == opt.best_violation_

    first = argsort_by_compare(values, viols)[0]
    assert np.array_equal(opt.best_value_, values[first], equal_nan=True)
    assert opt.best_violation_ == viols[first]
    assert np.array_equal(opt.best_x_, xs[first])


@settings(max_examples=30, deadline=None)
@given(
    make=problems(),
    alg=st.sampled_from(sorted(OPTIMIZERS)),
    pop=st.integers(4, 12),
    data=st.data(),
)
def test_budget_below_population_raises_before_evaluating(make, alg, pop, data):
    max_fes = data.draw(st.integers(1, pop - 1))
    log = []
    with pytest.raises(BudgetExhausted):
        OPTIMIZERS[alg](pop_size=pop, max_fes=max_fes, seed=0).fit(make(log))
    assert log == []
