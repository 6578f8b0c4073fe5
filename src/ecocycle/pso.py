"""Global-best particle swarm baseline.

The canonical velocity/position update with fixed inertia: one particle is
one candidate, one function evaluation per particle per iteration, and the
swarm shares a single global best. Constrained problems use the same
feasibility-first comparison as the rest of the package, so the baseline is
runnable on every shipped problem.

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
    argsort_by_compare,
    compare_batch,
    evaluate_batch,
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
        v = np.zeros_like(x)
        v_max = 0.2 * problem.bounds.span

        pbest_x = x.copy()
        pbest_values = values.copy()
        pbest_viols = viols.copy()
        b = int(argsort_by_compare(pbest_values, pbest_viols)[0])
        gbest_x = pbest_x[b].copy()
        gbest_value = float(pbest_values[b])
        gbest_viol = float(pbest_viols[b])

        recorder = TraceRecorder()
        recorder.record(0, budget.used, gbest_value, gbest_viol, population_diversity(x))
        k = 0
        try:
            while budget.remaining > 0:
                k += 1
                r1 = rng.random(x.shape)
                r2 = rng.random(x.shape)
                v = self.w * v + self.c1 * r1 * (pbest_x - x) + self.c2 * r2 * (gbest_x - x)
                v = np.clip(v, -v_max, v_max)
                x = resample_outside(x + v, problem.bounds, rng)
                granted, values, viols = evaluate_batch(problem, x, budget, rng)

                improved = np.flatnonzero(
                    compare_batch(
                        values[:granted],
                        viols[:granted],
                        pbest_values[:granted],
                        pbest_viols[:granted],
                    )
                    < 0
                )
                pbest_x[improved] = x[improved]
                pbest_values[improved] = values[improved]
                pbest_viols[improved] = viols[improved]
                new_best = False
                if improved.size:
                    sub = argsort_by_compare(
                        pbest_values[improved], pbest_viols[improved]
                    )
                    cand = int(improved[sub[0]])
                    if compare_batch(
                        pbest_values[cand], pbest_viols[cand], gbest_value, gbest_viol
                    ) < 0:
                        gbest_x = pbest_x[cand].copy()
                        gbest_value = float(pbest_values[cand])
                        gbest_viol = float(pbest_viols[cand])
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
