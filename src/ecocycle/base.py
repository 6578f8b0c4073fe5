"""Estimator plumbing and the one fit loop shared by the optimizers.

Optimizers follow the familiar estimator shape: hyperparameters are plain
keyword arguments stored verbatim on the instance, get_params/set_params
round-trip them, and fit(problem) runs the search. Every optimizer inherits
BaseOptimizer.fit, which holds the run protocol:

- The budget is max_fes evaluations, or 10_000 * problem.dim when max_fes
  is None; n_fes_ never exceeds it.
- An invalid pop_size raises ValueError. A budget below the initial
  population then raises BudgetExhausted before anything is evaluated
  (initial_population).
- Trace row 0 is the state after the initial population, and row k the
  state after step k (an ECO iteration or a PSO sweep). A budget that runs
  dry inside a step ends the run after the evaluations it could still
  afford; that partial step gets a row only when it moved the best, so the
  trace always ends at best_value_.
- After fit: best_x_, best_value_, best_violation_, trace_, n_fes_ and
  n_iters_, the step of the last trace row.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Iterator, Tuple

import numpy as np

from .problems import (
    BudgetExhausted,
    EvalBudget,
    Problem,
    best_index,
    improves,
    is_better,
    sample_uniform,
)


@dataclasses.dataclass(frozen=True)
class RunTrace:
    """Per-iteration history of one optimization run.

    Row 0 describes the state right after initialization (iteration 0);
    each later row describes the state after one full completed iteration.
    best_values is the running best objective seen so far (best_viols its
    constraint violation, zero throughout on box-only problems), div the
    population diversity at that point, fes the cumulative evaluation count.
    """

    iters: np.ndarray
    fes: np.ndarray
    best_values: np.ndarray
    best_viols: np.ndarray
    div: np.ndarray

    def __post_init__(self):
        n = len(self.iters)
        if not (
            len(self.fes)
            == len(self.best_values)
            == len(self.best_viols)
            == len(self.div)
            == n
        ):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.iters)

    def to_rows(self) -> Iterator[Tuple[int, int, float, float]]:
        """Yield (iter, fes, best_value, div) tuples, one per row."""
        for k in range(len(self.iters)):
            yield (
                int(self.iters[k]),
                int(self.fes[k]),
                float(self.best_values[k]),
                float(self.div[k]),
            )


class TraceRecorder:
    """Accumulates trace rows during a run and freezes them at the end."""

    def __init__(self):
        self._iters = []
        self._fes = []
        self._best = []
        self._viol = []
        self._div = []

    def record(
        self, iteration: int, fes: int, best_value: float, best_viol: float, div: float
    ):
        self._iters.append(int(iteration))
        self._fes.append(int(fes))
        self._best.append(float(best_value))
        self._viol.append(float(best_viol))
        self._div.append(float(div))

    def freeze(self) -> RunTrace:
        return RunTrace(
            iters=np.asarray(self._iters, dtype=np.int64),
            fes=np.asarray(self._fes, dtype=np.int64),
            best_values=np.asarray(self._best, dtype=float),
            best_viols=np.asarray(self._viol, dtype=float),
            div=np.asarray(self._div, dtype=float),
        )


class BaseOptimizer:
    """Parameter handling and the shared fit for population optimizers.

    Subclasses declare hyperparameters as explicit __init__ keywords and
    store each under its own name (pop_size, max_fes and seed among them);
    get_params/set_params then work by signature introspection, the usual
    estimator contract. A subclass supplies three hooks to fit:

    - _start(problem, budget, rng) -> (run, n_steps) evaluates the initial
      population. run exposes best_x, best_value and best_viol.
    - _step(problem, run, budget, rng, k) makes step k, and raises
      BudgetExhausted when the budget ran dry inside it.
    - _diversity(run) is the population diversity for a trace row.

    The hooks make every evaluation, repair and diversity call themselves, so
    an outside tracer that patches those names in the optimizer's module
    sees each of them. They keep candidates through accept and move the
    best through track_best (both below), reading problem.constrained.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseOptimizer":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def fit(self, problem: Problem):
        """Run the search on problem, under the contract in the module docstring."""
        rng = rng_from(self.seed)
        max_fes = self.max_fes if self.max_fes is not None else 10_000 * problem.dim
        budget = EvalBudget(int(max_fes))
        run, n_steps = self._start(problem, budget, rng)
        recorder = TraceRecorder()
        recorder.record(0, budget.used, run.best_value, run.best_viol, self._diversity(run))
        try:
            for k in range(1, n_steps + 1):
                best = run.best_value, run.best_viol
                self._step(problem, run, budget, rng, k)
                div = self._diversity(run)
                recorder.record(k, budget.used, run.best_value, run.best_viol, div)
        except BudgetExhausted:
            if is_better(run.best_value, run.best_viol, *best):
                div = self._diversity(run)
                recorder.record(k, budget.used, run.best_value, run.best_viol, div)
        self.trace_ = recorder.freeze()
        self.best_x_ = run.best_x.copy()
        self.best_value_ = float(run.best_value)
        self.best_violation_ = float(run.best_viol)
        self.n_fes_ = budget.used
        self.n_iters_ = int(self.trace_.iters[-1])
        return self


def accept(run, candidates, incumbents, constrained: bool) -> bool:
    """The acceptance step: keep each candidate row that strictly beats its
    incumbent row under feasibility-first rules, then track the run's best.

    candidates and incumbents are aligned (xs, values, viols) triples; the
    incumbent arrays are overwritten in place. Returns whether any row
    improved. When none did, nothing is written and the best is left alone:
    the best never ranks below an incumbent, so a candidate that cannot beat
    its row cannot beat the best either.
    """
    xs, values, viols = candidates
    old_xs, old_values, old_viols = incumbents
    better = improves(values, viols, old_values, old_viols, constrained)
    if not better.item(better.argmax()):  # most late-run sweeps keep nothing
        return False
    # Box-only violations are all zero on both sides.
    if constrained:
        np.copyto(old_viols, viols, where=better)
    np.copyto(old_xs, xs, where=better[:, None])
    np.copyto(old_values, values, where=better)
    track_best(run, xs, values, viols, constrained)
    return True


def track_best(run, xs, values, viols, constrained: bool) -> None:
    """Move run's best to the feasibility-first minimum of the rows (xs,
    values, viols) when that strictly beats it."""
    b = best_index(values, viols, constrained)
    # Python floats compare faster than NumPy scalars.
    value, viol = values.item(b), viols.item(b)
    if is_better(value, viol, run.best_value, run.best_viol):
        run.best_x = xs[b].copy()
        run.best_value = value
        run.best_viol = viol


def initial_population(
    problem: Problem, n: int, budget: EvalBudget, rng: np.random.Generator
) -> np.ndarray:
    """n uniform points in the box, after checking that the budget can
    evaluate all of them; raises BudgetExhausted before drawing otherwise."""
    if budget.remaining < n:
        raise BudgetExhausted(
            f"budget of {budget.max_fes} evaluations cannot cover an initial population of {n}"
        )
    return sample_uniform(problem.bounds, n, rng)


def rng_from(seed) -> np.random.Generator:
    """Build a fresh Generator from a seed or pass one through untouched."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
