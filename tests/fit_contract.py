"""The fit contract of base.BaseOptimizer.fit, as one set of tests.

A test class mixes FitContract in and names its optimizer class, so every
optimizer runs the same checks under its own test ids.
"""

import dataclasses
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
    seeded_repr = None  # repr(optimizer(seed=7))
    field_names = None  # the hyperparameters, in keyword order

    def test_repr_names_every_hyperparameter(self):
        assert repr(self.optimizer(seed=7)) == self.seeded_repr

    def test_fields_keep_keyword_order(self):
        assert [f.name for f in dataclasses.fields(self.optimizer)] == list(self.field_names)
        # Positional arguments bind in that order too.
        values = dataclasses.astuple(self.optimizer(seed=7))
        assert dataclasses.astuple(self.optimizer(*values)) == values

    @pytest.mark.parametrize("seed", [3, [3, 4]])
    def test_fit_leaves_fields_unchanged(self, seed):
        opt = self.optimizer(max_fes=200, seed=seed)
        before = dataclasses.asdict(opt)
        opt.fit(make_classic("f1", dim=2).problem)
        assert dataclasses.asdict(opt) == before

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
