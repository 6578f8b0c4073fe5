"""Estimator plumbing and the one fit loop shared by the optimizers.

Each optimizer is a dataclass whose fields are its hyperparameters, in the
order its keywords take them (dataclasses.replace copies one with new
values), and fit(problem) runs the search. Every optimizer inherits
BaseOptimizer.fit, which holds the run protocol:

- seed is one seed (an int, None or a Generator) for one run, or a sequence
  of them for one run per seed. The runs of a sequence move in lockstep as
  one stack: every array carries a leading run axis, each run draws from its
  own Generator, and each run gets the same bits as a lone fit with its seed.
  An empty sequence raises ValueError.
- The budget is max_fes evaluations per run, or 10_000 * problem.dim when
  max_fes is None; n_fes_ never exceeds it.
- An invalid pop_size raises ValueError. A budget below the initial
  population then raises BudgetExhausted before anything is evaluated
  (initial_population).
- Trace row 0 is the state after the initial population, and row k the
  state after step k (an ECO iteration or a PSO sweep). A budget that runs
  dry inside a step ends the run after the evaluations it could still
  afford; that partial step gets a row only in a run whose best it moved,
  so each trace ends at its run's best value.
- After fit: best_x_, best_value_, best_violation_, trace_, n_fes_ and
  n_iters_, the step of the last trace row. For a sequence of seeds they
  hold one entry per run: best_x_ is (R, D), the others length-R arrays,
  and trace_ a tuple of R RunTraces.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

import numpy as np

from .problems import (
    BudgetExhausted,
    EvalBudget,
    Problem,
    RunStreams,
    best_index,
    improves,
    is_better,
    run_count,
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


class RunCounts(np.ndarray):
    """Per-run integer counts of a stacked fit (n_fes_, n_iters_). int()
    gives their total, so code that adds up one count per fit also adds up
    the runs of a stack."""

    def __int__(self) -> int:
        return int(self.view(np.ndarray).sum())


class TraceRecorder:
    """Accumulates the trace rows of a stack of runs, one row per run and
    step, and freezes them into one RunTrace per run."""

    def __init__(self):
        self._iters = []
        self._fes = []
        self._best = []  # run-major within a row, rows one after another
        self._viol = []
        self._div = []
        self._last_runs = None

    def record(self, iteration: int, fes: int, best_value, best_viol, div, runs=None):
        """Add a row for every run, or, for a partial last step, only for the
        runs where the boolean mask runs holds."""
        self._iters.append(int(iteration))
        self._fes.append(int(fes))
        self._best += best_value
        self._viol += best_viol
        self._div += div.tolist()
        self._last_runs = runs

    def last_best(self) -> tuple[list, list]:
        """The best values and violations of the runs in the last row."""
        n_runs = len(self._best) // len(self._iters)
        return self._best[-n_runs:], self._viol[-n_runs:]

    def freeze(self) -> tuple:
        iters = np.asarray(self._iters, dtype=np.int64)
        fes = np.asarray(self._fes, dtype=np.int64)
        rows = len(iters)
        best = np.asarray(self._best, dtype=float).reshape(rows, -1)
        viol = np.asarray(self._viol, dtype=float).reshape(rows, -1)
        div = np.asarray(self._div, dtype=float).reshape(rows, -1)
        traces = []
        for r in range(best.shape[1]):
            k = rows - (self._last_runs is not None and not self._last_runs[r])
            traces.append(
                RunTrace(
                    iters=iters[:k],
                    fes=fes[:k],
                    best_values=best[:k, r].copy(),
                    best_viols=viol[:k, r].copy(),
                    div=div[:k, r].copy(),
                )
            )
        return tuple(traces)


class BaseOptimizer:
    """The shared fit for population optimizers.

    A subclass is a dataclass holding its hyperparameters (pop_size, max_fes
    and seed among them) and supplies three hooks to fit:

    - _start(problem, budget, rng) -> (run, n_steps) evaluates the initial
      population of each run; rng is the one run's Generator, or the
      RunStreams of a stack. run exposes the per-run bests: best_x (R, D),
      and best_value and best_viol, lists of R floats.
    - _step(problem, run, budget, rng, k) makes step k of every run, and
      raises BudgetExhausted when the budget ran dry inside it.
    - _diversity(run) is the population diversity of each run, (R,), for a
      trace row.

    The hooks make every evaluation, repair and diversity call themselves,
    once for the whole stack, so an outside tracer that patches those names
    in the optimizer's module sees each of them. They keep candidates
    through accept and move the bests through track_best (both below),
    reading problem.constrained.
    """

    def fit(self, problem: Problem):
        """Run the search on problem, under the contract in the module docstring."""
        stacked = np.ndim(self.seed) == 1
        rngs = [rng_from(s) for s in self.seed] if stacked else [rng_from(self.seed)]
        if not rngs:
            raise ValueError("a sequence of seeds must hold at least one seed")
        max_fes = self.max_fes if self.max_fes is not None else 10_000 * problem.dim
        budget = EvalBudget(int(max_fes))
        rng = RunStreams.of(rngs)
        run, n_steps = self._start(problem, budget, rng)
        recorder = TraceRecorder()
        recorder.record(0, budget.used, run.best_value, run.best_viol, self._diversity(run))
        try:
            for k in range(1, n_steps + 1):
                self._step(problem, run, budget, rng, k)
                div = self._diversity(run)
                recorder.record(k, budget.used, run.best_value, run.best_viol, div)
        except BudgetExhausted:
            before = zip(run.best_value, run.best_viol, *recorder.last_best())
            moved = [is_better(value, viol, *old) for value, viol, *old in before]
            if any(moved):
                div = self._diversity(run)
                recorder.record(k, budget.used, run.best_value, run.best_viol, div, moved)
        traces = recorder.freeze()
        n_iters = [int(trace.iters[-1]) for trace in traces]
        if stacked:
            self.trace_ = traces
            self.best_x_ = run.best_x.copy()
            self.best_value_ = np.array(run.best_value)
            self.best_violation_ = np.array(run.best_viol)
            self.n_fes_ = np.full(len(rngs), budget.used).view(RunCounts)
            self.n_iters_ = np.array(n_iters).view(RunCounts)
        else:
            self.trace_ = traces[0]
            self.best_x_ = run.best_x[0].copy()
            self.best_value_ = run.best_value[0]
            self.best_violation_ = run.best_viol[0]
            self.n_fes_ = budget.used
            self.n_iters_ = n_iters[0]
        return self


def accept(run, candidates, incumbents, constrained: bool) -> bool:
    """The acceptance step: keep each candidate row that strictly beats its
    incumbent row under feasibility-first rules, then track each run's best.

    candidates and incumbents are aligned (xs, values, viols) triples of a
    stack, (R, n, D), (R, n) and (R, n); the incumbent arrays are
    overwritten in place. Returns whether any row of any run improved. When
    none did, nothing is written and the bests are left alone: a best never
    ranks below an incumbent of its run, so a candidate that cannot beat its
    row cannot beat the best either.
    """
    xs, values, viols = candidates
    old_xs, old_values, old_viols = incumbents
    better = improves(values, viols, old_values, old_viols, constrained)
    if not better.item(better.argmax()):  # most late-run sweeps keep nothing
        return False
    # Box-only violations are all zero on both sides.
    if constrained:
        np.copyto(old_viols, viols, where=better)
    np.copyto(old_xs, xs, where=better[..., None])
    np.copyto(old_values, values, where=better)
    track_best(run, xs, values, viols, constrained)
    return True


def track_best(run, xs, values, viols, constrained: bool) -> None:
    """Move each run's best to the feasibility-first minimum of its rows of
    (xs, values, viols), in a run where that strictly beats it."""
    best_value, best_viol = run.best_value, run.best_viol
    for r, b in enumerate(best_index(values, viols, constrained)):
        # Python floats compare faster than NumPy scalars.
        value, viol = values.item(r, b), viols.item(r, b)
        if is_better(value, viol, best_value[r], best_viol[r]):
            run.best_x[r] = xs[r, b]
            best_value[r] = value
            best_viol[r] = viol


def initial_population(problem: Problem, n: int, budget: EvalBudget, rng) -> np.ndarray:
    """n uniform points in the box for each run drawing from rng (a
    Generator, or the RunStreams of a stack), as an (R, n, D) stack, after
    checking that the budget can evaluate all of them; raises
    BudgetExhausted before drawing otherwise."""
    if budget.remaining < n:
        raise BudgetExhausted(
            f"budget of {budget.max_fes} evaluations cannot cover an initial population of {n}"
        )
    n_runs = run_count(rng)
    return sample_uniform(problem.bounds, n_runs * n, rng).reshape(n_runs, n, problem.dim)


def rng_from(seed) -> np.random.Generator:
    """Build a fresh Generator from a seed or pass one through untouched."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
