"""Global-best particle swarm baseline.

The canonical velocity/position update with fixed inertia: one particle is
one candidate, one function evaluation per particle per iteration, and the
swarm shares a single global best. Personal bests are kept by the same
acceptance step as ECO's consumers (`base.accept`: strict feasibility-first
improvement, then the global best tracked over the sweep), so the baseline
is runnable on every shipped problem and ranks a NaN objective last when it
picks a best.

PsoOptimizer holds the swarm size, c1, c2 and w as dataclass fields next
to the budget and the seed.

Two choices the update rule leaves open are pinned here: velocities start at
zero, and are clamped per dimension to 20% of the box span (unclamped swarms
diverge on wide boxes, spending the whole budget on repair resamples).

A fit with a sequence of seeds sweeps the swarms of all its runs in one
array pass, with a leading run axis on every array; each run draws its
r1, r2 block, its repairs and any objective noise from its own Generator.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .analysis import population_diversity
from .base import BaseOptimizer, accept, initial_population
from .problems import BudgetExhausted, best_index, evaluate_batch, resample_outside


@dataclasses.dataclass
class SwarmState:
    """The swarms of a stack of runs between sweeps: positions, velocities
    and personal bests with a leading run axis ((R, n, D) and (R, n)), and
    each run's global best (best_x (R, D); best_value and best_viol, lists
    of R floats)."""

    x: np.ndarray
    v: np.ndarray
    v_max: np.ndarray
    pbest_x: np.ndarray
    pbest_values: np.ndarray
    pbest_viols: np.ndarray
    best_x: np.ndarray
    best_value: list
    best_viol: list


@dataclasses.dataclass(eq=False)
class PsoOptimizer(BaseOptimizer):
    """Particle swarm optimizer; its hyperparameters are its fields.

    Parameters
    ----------
    pop_size : swarm size (default 30).
    c1 : cognitive learning factor (default 2.0).
    c2 : social learning factor (default 2.0).
    w : inertia weight (default 0.8).
    max_fes : evaluation budget per run; defaults to 10_000 * problem
        dimension at fit time when left unset.
    seed : integer seed or numpy Generator for one run's random stream, or a
        sequence of them for one run per seed, fitted as one stack.

    fit(problem) follows the contract of base.BaseOptimizer.fit; one step is
    one sweep of every swarm.
    """

    pop_size: int = 30
    c1: float = 2.0
    c2: float = 2.0
    w: float = 0.8
    max_fes: Optional[int] = None
    seed: object = None

    def _start(self, problem, budget, rng):
        pop = int(self.pop_size)
        if pop < 1:
            raise ValueError("pop_size must be >= 1")
        x = initial_population(problem, pop, budget, rng)
        _, values, viols = evaluate_batch(problem, x, budget, rng)
        b = best_index(values, viols, problem.constrained)
        runs = np.arange(x.shape[0])
        swarm = SwarmState(
            x=x,
            v=np.zeros_like(x),
            v_max=0.2 * problem.bounds.span,
            pbest_x=x.copy(),
            pbest_values=values.copy(),
            pbest_viols=viols.copy(),
            best_x=x[runs, b],
            best_value=values[runs, b].tolist(),
            best_viol=viols[runs, b].tolist(),
        )
        # Sweeps until the budget is spent, the last one possibly partial.
        return swarm, -(-budget.remaining // pop)

    def _diversity(self, swarm) -> np.ndarray:
        return population_diversity(swarm.x)

    def _step(self, problem, swarm, budget, rng, k) -> None:
        x, pbest_x = swarm.x, swarm.pbest_x
        n_runs, n, dim = x.shape
        # One draw per run for both: Generator.random fills in order.
        r = rng.random((n_runs, 2, n, dim))
        r1, r2 = r[:, 0], r[:, 1]
        v = (
            self.w * swarm.v
            + self.c1 * r1 * (pbest_x - x)
            + self.c2 * r2 * (swarm.best_x[:, None, :] - x)
        )
        # np.clip's bits (NaN included) without its Python wrapper.
        swarm.v = v = np.minimum(np.maximum(v, -swarm.v_max), swarm.v_max)
        x = resample_outside((x + v).reshape(-1, dim), problem.bounds, rng)
        swarm.x = x = x.reshape(n_runs, n, dim)
        granted, values, viols = evaluate_batch(problem, x, budget, rng)
        accept(
            swarm,
            (x[:, :granted], values, viols),
            (pbest_x[:, :granted], swarm.pbest_values[:, :granted], swarm.pbest_viols[:, :granted]),
            problem.constrained,
        )
        if granted < n:
            raise BudgetExhausted("budget ran dry mid-sweep")
