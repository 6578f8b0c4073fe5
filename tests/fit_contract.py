"""The fit contract of base.BaseOptimizer.fit, as one set of tests.

A test class mixes FitContract in and names its optimizer class, so every
optimizer runs the same checks under its own test ids.
"""

import re

import pytest

from ecocycle.classic import make_classic
from ecocycle.problems import BudgetExhausted


def budget_message(max_fes, pop):
    return re.escape(
        f"budget of {max_fes} evaluations cannot cover an initial population of {pop}"
    )


class FitContract:
    optimizer = None  # the optimizer class under test
    invalid_pop = None  # a pop_size that its fit rejects with ValueError

    def test_budget_below_population_raises_from_fit(self):
        # No run starts without one evaluation per member, and the
        # BudgetExhausted raised before evaluating reaches the caller.
        problem = make_classic("f1", dim=5).problem
        with pytest.raises(BudgetExhausted, match=budget_message(29, 30)):
            self.optimizer(max_fes=29, seed=0).fit(problem)
        with pytest.raises(BudgetExhausted, match=budget_message(3, 4)):
            self.optimizer(pop_size=4, max_fes=3, seed=0).fit(problem)
        # An invalid pop_size is reported before the budget is checked.
        with pytest.raises(ValueError, match="pop_size"):
            self.optimizer(pop_size=self.invalid_pop, max_fes=1, seed=0).fit(problem)

    def test_default_budget_scales_with_dimension(self):
        problem = make_classic("f1", dim=2).problem
        opt = self.optimizer(seed=0).fit(problem)
        assert opt.n_fes_ <= 20_000
        assert opt.n_fes_ > 19_000  # only a partial step may be left unused
