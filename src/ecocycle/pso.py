"""Global-best particle swarm baseline.

The canonical velocity/position update with fixed inertia: one particle is
one candidate, one function evaluation per particle per iteration, and the
swarm shares a single global best. Constrained problems use the same
feasibility-first helpers as ECO (`improves`, `best_index`, `is_better`), so
the baseline is runnable on every shipped problem and ranks a NaN objective
last when it picks a best.

Two choices the update rule leaves open are pinned here: velocities start at
zero, and are clamped per dimension to 20% of the box span (unclamped swarms
diverge on wide boxes, spending the whole budget on repair resamples).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .analysis import population_diversity
from .base import BaseOptimizer, RunTrace, TraceRecorder, rng_from
from .problems import (
    BudgetExhausted,
    EvalBudget,
    Problem,
    best_index,
    evaluate_batch,
    improves,
    is_better,
    resample_outside,
    sample_uniform,
)


class PsoOptimizer(BaseOptimizer):
    """Particle swarm optimizer with an estimator-style interface.

    Parameters
    ----------
    pop_size : swarm size (default 30).
    c1 : cognitive learning factor (default 2.0).
    c2 : social learning factor (default 2.0).
    w : inertia weight (default 0.8).
    max_fes : evaluation budget; defaults to 10_000 * problem dimension at
        fit time when left unset.
    seed : integer seed or numpy Generator for the run's random stream.

    After fit(problem): best_x_, best_value_, best_violation_, trace_,
    n_fes_, n_iters_.
    """

    def __init__(
        self,
        pop_size: int = 30,
        c1: float = 2.0,
        c2: float = 2.0,
        w: float = 0.8,
        max_fes: Optional[int] = None,
        seed=None,
    ):
        self.pop_size = pop_size
        self.c1 = c1
        self.c2 = c2
        self.w = w
        self.max_fes = max_fes
        self.seed = seed

    def fit(self, problem: Problem) -> "PsoOptimizer":
        rng = rng_from(self.seed)
        pop = int(self.pop_size)
        if pop < 1:
            raise ValueError("pop_size must be >= 1")
        max_fes = self.max_fes if self.max_fes is not None else 10_000 * problem.dim
        budget = EvalBudget(int(max_fes))
        if budget.remaining < pop:
            raise BudgetExhausted(
                f"budget {budget.max_fes} cannot evaluate an initial swarm of {pop}"
            )

        x = sample_uniform(problem.bounds, pop, rng)
        _, values, viols = evaluate_batch(problem, x, budget, rng)
        constrained = problem.constrained
        v = np.zeros_like(x)
        v_max = 0.2 * problem.bounds.span
        neg_v_max = -v_max

        pbest_x = x.copy()
        pbest_values = values.copy()
        pbest_viols = viols.copy()
        b = best_index(values, viols, constrained)
        gbest_x = x[b].copy()
        gbest_value = float(values[b])
        gbest_viol = float(viols[b])

        recorder = TraceRecorder()
        recorder.record(0, budget.used, gbest_value, gbest_viol, population_diversity(x))
        k = 0
        try:
            while budget.remaining > 0:
                k += 1
                # One draw for both: Generator.random fills in order.
                r1, r2 = rng.random((2,) + x.shape)
                v = self.w * v + self.c1 * r1 * (pbest_x - x) + self.c2 * r2 * (gbest_x - x)
                # np.clip's bits (NaN included) without its Python wrapper.
                v = np.minimum(np.maximum(v, neg_v_max), v_max)
                x = resample_outside(x + v, problem.bounds, rng)
                granted, values, viols = evaluate_batch(problem, x, budget, rng)

                better = improves(
                    values, viols, pbest_values[:granted], pbest_viols[:granted], constrained
                )
                new_best = False
                if better.item(better.argmax()):  # some row improved
                    # Box-only violations are all zero on both sides.
                    if constrained:
                        np.copyto(pbest_viols[:granted], viols, where=better)
                    np.copyto(pbest_x[:granted], x[:granted], where=better[:, None])
                    np.copyto(pbest_values[:granted], values, where=better)
                    rows = better.nonzero()[0]
                    cand = rows[best_index(values[rows], viols[rows], constrained)]
                    value, viol = values.item(cand), viols.item(cand)
                    if is_better(value, viol, gbest_value, gbest_viol):
                        gbest_x = x[cand].copy()
                        gbest_value = value
                        gbest_viol = viol
                        new_best = True

                if granted < pop:
                    # A partial last sweep that moved the global best gets
                    # its own row, so the trace ends at the reported best.
                    if new_best:
                        recorder.record(
                            k, budget.used, gbest_value, gbest_viol, population_diversity(x)
                        )
                    raise BudgetExhausted("budget ran dry mid-sweep")
                recorder.record(
                    k, budget.used, gbest_value, gbest_viol, population_diversity(x)
                )
        except BudgetExhausted:
            pass

        self.trace_ = recorder.freeze()
        self.best_x_ = gbest_x.copy()
        self.best_value_ = gbest_value
        self.best_violation_ = gbest_viol
        self.n_fes_ = budget.used
        self.n_iters_ = int(self.trace_.iters[-1])
        return self


def run_pso(problem: Problem, config=None, **params) -> tuple[np.ndarray, float, RunTrace]:
    """One-call form: fit a PsoOptimizer and return (x, value, trace).

    config may be a mapping of parameter overrides; keyword arguments win
    over it.
    """
    merged = dict(config or {})
    merged.update(params)
    opt = PsoOptimizer(**merged).fit(problem)
    return opt.best_x_, opt.best_value_, opt.trace_
