"""The ecological cycle optimizer.

The population is partitioned into producers, herbivores, carnivores, and
omnivores (20/30/30/20 by default). Each iteration runs four phases:

1. Producers are re-selected as the best rows of the previous producers
   stacked with the previous iteration's decomposer output (no evaluations;
   skipped on the first iteration).
2. The three consumer groups move in turn. Each consumer draws prey by
   roulette from its prey pools (herbivores hunt producers, carnivores hunt
   the just-updated herbivores, omnivores take one producer, one herbivore,
   and two carnivores) and steps along the weighted prey differences scaled
   by the shared per-iteration predation factor. Candidates falling outside
   the box are resampled whole, evaluated, and accepted only on strict
   improvement.
3. Every individual is decomposed: with probability 1/2 toward a scaled
   neighborhood of the iteration best, else radially within the distance to
   the iteration best, or by a decaying global random walk. The decomposed
   positions are evaluated and buffered; they re-enter the population only
   through the next producer re-selection.
4. The global best tracks the feasibility-first minimum over every evaluation made.

The iteration ceiling is derived from the evaluation budget. The run loop,
the budget rules and the trace live in base.BaseOptimizer.fit; this module
supplies its start, step and diversity hooks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Sequence

import numpy as np

from .analysis import population_diversity
from .base import BaseOptimizer, accept, initial_population, track_best
from .problems import (
    TOL_FEAS,
    Bounds,
    BudgetExhausted,
    EvalBudget,
    Problem,
    argsort_by_compare,
    best_index,
    evaluate_batch,
    resample_outside,
)

DEFAULT_PROPORTIONS = (0.2, 0.3, 0.3, 0.2)


def partition_counts(pop_size: int, proportions=DEFAULT_PROPORTIONS) -> tuple[int, int, int, int]:
    """Split pop_size into (producers, herbivores, carnivores, omnivores).

    The first three groups round half-up from their proportions and the
    omnivores absorb the remainder; any group left empty borrows one member
    from the currently largest group, so all four counts are at least 1.
    """
    if pop_size < 4:
        raise ValueError("pop_size must be at least 4 (one member per group)")
    props = [float(p) for p in proportions]
    if len(props) != 4 or any(p < 0 for p in props):
        raise ValueError("proportions must be four nonnegative reals")
    if abs(sum(props) - 1.0) > 1e-9:
        raise ValueError("proportions must sum to 1")
    counts = [int(math.floor(p * pop_size + 0.5)) for p in props[:3]]
    counts.append(pop_size - sum(counts))
    while min(counts) < 1:
        needy = counts.index(min(counts))
        donor = counts.index(max(counts))
        counts[donor] -= 1
        counts[needy] += 1
    return tuple(counts)


def fes_per_iteration(counts: Sequence[int]) -> int:
    """Evaluations per full iteration: the three consumer sweeps plus one
    decomposition per population member (producer re-selection is free)."""
    n_pro, n_her, n_car, n_omn = counts
    return n_her + n_car + n_omn + (n_pro + n_her + n_car + n_omn)


def iteration_ceiling(max_fes: int, counts: Sequence[int]) -> int:
    """Iterations affordable after initialization, floored at one attempt."""
    pop_size = int(sum(counts))
    return max(1, (int(max_fes) - pop_size) // fes_per_iteration(counts))


def predation_factor(k: int, k_max: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Per-dimension predation factor for iteration k.

    Each component is 1 + 2u * exp(-9 (k/k_max)^3) * (-1)^s with fresh
    u ~ U[0,1) and s ~ {1,2} per dimension, hence always within [-1, 3] and
    contracting toward 1 as the run matures.
    """
    u = rng.random(dim)
    sign = rng.integers(1, 3, size=dim) * 2.0 - 3.0
    damp = 2.0 * math.exp(-9.0 * (k / k_max) ** 3)
    return 1.0 + damp * u * sign


def roulette_probabilities(values, viols=None) -> np.ndarray:
    """Selection probabilities favoring better individuals.

    Feasible pools weight by the reciprocal of the shifted fitness
    f - min(f) + 0.1 (max(f) - min(f)) + 1e-12. A pool holding an infeasible
    member (a NaN violation counts as one), a NaN or an infinity is instead
    ordered feasibility-first and weighted by reciprocal rank, keeping
    "better gets picked more" meaningful when values are not comparable
    across the pool. So is a degenerate pool, one whose best shifted value
    rounds to zero or below: a nearly constant pool at |f| above 2^14 loses
    the range term and the 1e-12 guard to rounding.
    """
    values = np.asarray(values, dtype=float)
    if viols is not None:
        viols = np.asarray(viols, dtype=float)
    weights, _ = _roulette_weights(values, viols)
    return weights / weights.sum()


def _roulette_weights(values, viols) -> tuple[np.ndarray, bool]:
    """Unnormalized weights of roulette_probabilities, and whether they are
    reciprocal ranks. The shift is summed as f + (0.1 (max - min) - min +
    1e-12). hi - lo is not finite when some value is NaN or infinite
    (argmin and argmax stop at the first NaN). lo + shift is the smallest
    shifted value, since rounded addition is monotone."""
    lo, hi = values.item(values.argmin()), values.item(values.argmax())
    infeasible = viols is not None and not viols.item(viols.argmax()) <= TOL_FEAS
    if not infeasible and math.isfinite(hi - lo):
        shift = 0.1 * (hi - lo) - lo + 1e-12
        if lo + shift > 0.0:
            return 1.0 / (values + shift), False
    order = argsort_by_compare(values, np.zeros_like(values) if viols is None else viols)
    ranks = np.empty(values.shape[0], dtype=float)
    ranks[order] = np.arange(1, values.shape[0] + 1, dtype=float)
    return 1.0 / ranks, True


def _roulette_cum(values, viols) -> np.ndarray:
    """Cumulative roulette distribution of roulette_probabilities, ending at
    exactly 1.0, so that a uniform draw in [0, 1) always searches to a
    valid index."""
    weights, by_rank = _roulette_weights(values, viols)
    if by_rank:
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0  # a rounding shortfall would map the top draws past the end
        return cum
    cum = weights.cumsum()
    cum /= cum[-1]
    return cum


def _predation_candidates(x, pools, g, rng: np.random.Generator) -> np.ndarray:
    """The batched predation move behind the three consumer updates.

    pools is a list of ((pool_x, cum), draws): every consumer draws `draws`
    prey indices per pool from the pool's cumulative roulette distribution,
    then one fresh scalar per prey term weights that prey's difference
    vector. All index draws happen pool by pool before the weight block is
    drawn, all from one rng.random call (Generator.random fills in order).
    """
    n = x.shape[0]
    width = sum(draws for _, draws in pools)
    u = rng.random(2 * n * width)
    gathered, start = [], 0
    for (pool_x, cum), draws in pools:
        stop = start + n * draws
        index = cum.searchsorted(u[start:stop].reshape(n, draws), side="left")
        gathered.append(pool_x.take(index, axis=0))  # (n, draws, D)
        start = stop
    prey = gathered[0] if len(gathered) == 1 else np.concatenate(gathered, axis=1)
    rands = u[start:].reshape(n, width)
    # sum_t r_t (prey_t - x) = sum_t r_t prey_t - (sum_t r_t) x, which
    # avoids materializing the (n, draws, D) difference tensor.
    step = np.einsum("nt,ntd->nd", rands, prey)
    step -= np.add.reduce(rands, axis=1, keepdims=True) * x
    # x + g * step, computed in place (IEEE products and sums commute).
    step *= g
    step += x
    return step


def _group_pool(state: "EcoState", sl: slice):
    """A prey pool: the group's rows and their cumulative roulette
    distribution, which is cached until one of the rows changes."""
    cum = state.pool_cums.get(sl.start)
    if cum is None:
        cum = state.pool_cums[sl.start] = _roulette_cum(state.values[sl], state.viols[sl])
    return (state.x[sl], cum)


# Each decomposition strategy works on an (n, D) batch of rows.
# decompose_candidates feeds them its routed sub-batches and lets each one
# overwrite its own rows (out may alias xs).


def decompose_optimal(xs, x_bestk, rng: np.random.Generator, out=None) -> np.ndarray:
    """Decompose toward a randomly scaled neighborhood of the iteration best.

    The neighbor scales each best coordinate by a fresh uniform, then the
    result lands within +/-0.2 of the neighbor-to-individual gap (one scalar
    offset draw per individual).
    """
    n, d = xs.shape
    x_nei = rng.random((n, d)) * x_bestk
    offset = 0.4 * rng.random((n, 1)) - 0.2
    return np.add(x_nei, offset * (x_nei - xs), out=out)


def decompose_local(xs, x_bestk, rng: np.random.Generator, out=None) -> np.ndarray:
    """Decompose radially: a uniform-length step along a random direction,
    never farther than the individual's distance to the iteration best."""
    n, d = xs.shape
    v = 2.0 * rng.random((n, d)) - 1.0
    sq = np.einsum("nd,nd->n", v, v)
    while sq.item(sq.argmin()) == 0.0:  # sq >= 0, so this finds any zero
        rows = sq == 0.0
        v[rows] = 2.0 * rng.random((int(rows.sum()), d)) - 1.0
        sq = np.einsum("nd,nd->n", v, v)
    diff = x_bestk - xs
    radius = np.sqrt(np.einsum("nd,nd->n", diff, diff))[:, None]
    return np.add(xs, rng.random((n, 1)) * radius * (v / np.sqrt(sq)[:, None]), out=out)


def decompose_global(
    xs, k: int, k_max: int, scale: float, rng: np.random.Generator, out=None
) -> np.ndarray:
    """Decompose by a decaying global random walk.

    The walk amplitude H = cos(u pi) (1 - k/(1.5 k_max))^(5k/k_max) starts
    wide and shrinks to at most (1/3)^5 of scale, the smallest box span, by
    the final iteration; the result blends the individual with the walk
    point under one scalar weight.
    """
    n, d = xs.shape
    h = np.cos(rng.random(n) * np.pi) * (1.0 - k / (1.5 * k_max)) ** (5.0 * k / k_max)
    w = (2.0 / 3.0) * rng.random((n, d)) * h[:, None] * scale
    weight = rng.random((n, 1))
    return np.add(weight * xs, (1.0 - weight) * w, out=out)


def decompose_candidates(
    x: np.ndarray,
    x_bestk: np.ndarray,
    k: int,
    k_max: int,
    bounds: Bounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """One decomposition candidate per population row.

    Per row: u1 < 0.5 selects optimal decomposition; otherwise u2 < 0.5
    selects the local random walk, else the global one. Both uniforms are
    drawn for every row up front, then each strategy processes its rows as
    one batch, in row order.
    """
    x = np.asarray(x, dtype=float)
    x_bestk = np.asarray(x_bestk, dtype=float)
    n = x.shape[0]
    u1 = rng.random(n)
    u2 = rng.random(n)
    # Route 0 is optimal, 1 local, 2 global. A stable sort by route gathers
    # each strategy's rows into one contiguous block that keeps row order.
    route = (u1 >= 0.5) * (1 + (u2 >= 0.5))
    order = route.argsort(kind="stable")
    n_opt, n_loc, n_glo = np.bincount(route, minlength=3).tolist()
    moved = x.take(order, axis=0)
    a, b = n_opt, n_opt + n_loc
    if n_opt:
        decompose_optimal(moved[:a], x_bestk, rng, out=moved[:a])
    if n_loc:
        decompose_local(moved[a:b], x_bestk, rng, out=moved[a:b])
    if n_glo:
        scale = float(np.minimum.reduce(bounds.span))
        decompose_global(moved[b:], k, k_max, scale, rng, out=moved[b:])
    out = np.empty_like(x)
    out[order] = moved
    return out


@dataclasses.dataclass
class EcoState:
    """Mutable run state: the partitioned population plus bookkeeping.

    Rows of x are ordered producers, herbivores, carnivores, omnivores. The
    decomposer buffer holds the latest decomposition output until the next
    producer re-selection consumes it. pool_cums caches each prey group's
    roulette distribution by the group's first row; whatever changes a
    group's rows drops its entry.
    """

    x: np.ndarray
    values: np.ndarray
    viols: np.ndarray
    counts: tuple[int, int, int, int]
    best_x: np.ndarray
    best_value: float
    best_viol: float
    k_max: int = 0
    dec_x: Optional[np.ndarray] = None
    dec_values: Optional[np.ndarray] = None
    dec_viols: Optional[np.ndarray] = None
    pool_cums: dict = dataclasses.field(default_factory=dict)

    @functools.cached_property
    def sl_pro(self) -> slice:
        return slice(0, self.counts[0])

    @functools.cached_property
    def sl_her(self) -> slice:
        n_pro, n_her = self.counts[0], self.counts[1]
        return slice(n_pro, n_pro + n_her)

    @functools.cached_property
    def sl_car(self) -> slice:
        start = self.counts[0] + self.counts[1]
        return slice(start, start + self.counts[2])

    @functools.cached_property
    def sl_omn(self) -> slice:
        start = self.counts[0] + self.counts[1] + self.counts[2]
        return slice(start, start + self.counts[3])


def init_state(
    problem: Problem,
    pop_size: int,
    proportions,
    budget: EvalBudget,
    rng: np.random.Generator,
) -> EcoState:
    """Sample, evaluate, and partition the initial population.

    Raises BudgetExhausted before evaluating anything when the budget cannot
    cover one evaluation per member.
    """
    counts = partition_counts(pop_size, proportions)
    x = initial_population(problem, pop_size, budget, rng)
    _, values, viols = evaluate_batch(problem, x, budget, rng)
    b = best_index(values, viols, problem.constrained)
    return EcoState(
        x=x,
        values=values,
        viols=viols,
        counts=counts,
        best_x=x[b].copy(),
        best_value=float(values[b]),
        best_viol=float(viols[b]),
    )


def producer_update(state: EcoState) -> None:
    """Re-select producers from the old producers plus the decomposer buffer.

    Stacks the current producer rows above the buffered decomposers, orders
    feasibility-first (stable, so producers win ties), and keeps the best
    N_Pro rows. Costs no evaluations; every row carries a cached value.
    """
    if state.dec_x is None:
        raise RuntimeError("producer re-selection requires a decomposer buffer")
    n_pro = state.counts[0]
    stack_values = np.concatenate((state.values[:n_pro], state.dec_values))
    stack_viols = np.concatenate((state.viols[:n_pro], state.dec_viols))
    keep = argsort_by_compare(stack_values, stack_viols)[:n_pro]
    if keep.tolist() == list(range(n_pro)):
        return  # the producers are still the best rows, already in order
    state.pool_cums.pop(state.sl_pro.start, None)
    state.viols[:n_pro] = stack_viols.take(keep)
    state.x[:n_pro] = np.concatenate((state.x[:n_pro], state.dec_x)).take(keep, axis=0)
    state.values[:n_pro] = stack_values.take(keep)


class EcoOptimizer(BaseOptimizer):
    """Ecological cycle optimizer with an estimator-style interface.

    Parameters
    ----------
    pop_size : population size (default 30).
    proportions : producer/herbivore/carnivore/omnivore fractions, summing
        to 1 (default 0.2/0.3/0.3/0.2).
    max_fes : evaluation budget; defaults to 10_000 * problem dimension at
        fit time when left unset.
    seed : integer seed or numpy Generator for the run's random stream.

    fit(problem) follows the contract of base.BaseOptimizer.fit and also
    leaves the final run state in state_.
    """

    def __init__(
        self,
        pop_size: int = 30,
        proportions=DEFAULT_PROPORTIONS,
        max_fes: Optional[int] = None,
        seed=None,
    ):
        self.pop_size = pop_size
        self.proportions = proportions
        self.max_fes = max_fes
        self.seed = seed

    def _start(self, problem, budget, rng):
        state = init_state(problem, int(self.pop_size), self.proportions, budget, rng)
        state.k_max = iteration_ceiling(budget.max_fes, state.counts)
        self.state_ = state
        return state, state.k_max

    def _diversity(self, state) -> float:
        return population_diversity(state.x)

    def _step(self, problem, state, budget, rng, k) -> None:
        if k != 1:
            producer_update(state)
        g = predation_factor(k, state.k_max, problem.dim, rng)
        # Prey pools are built right before each sweep needs them, so every
        # pool reflects that group's state after its own update: carnivores
        # see post-update herbivores, omnivores see post-update everything.
        # Producers never move mid-iteration, so their pool is shared.
        pool_pro = _group_pool(state, state.sl_pro)
        cand = _predation_candidates(state.x[state.sl_her], [(pool_pro, 3)], g, rng)
        self._consumer_sweep(problem, state, budget, rng, state.sl_her, cand)
        pool_her = _group_pool(state, state.sl_her)
        cand = _predation_candidates(state.x[state.sl_car], [(pool_her, 3)], g, rng)
        self._consumer_sweep(problem, state, budget, rng, state.sl_car, cand)
        pool_car = _group_pool(state, state.sl_car)
        cand = _predation_candidates(
            state.x[state.sl_omn],
            [(pool_pro, 1), (pool_her, 1), (pool_car, 2)],
            g,
            rng,
        )
        self._consumer_sweep(problem, state, budget, rng, state.sl_omn, cand)
        b = best_index(state.values, state.viols, problem.constrained)  # the iteration best
        candidates = decompose_candidates(state.x, state.x[b], k, state.k_max, problem.bounds, rng)
        candidates = resample_outside(candidates, problem.bounds, rng)
        granted, values, viols = evaluate_batch(problem, candidates, budget, rng)
        state.dec_x = candidates[:granted]
        state.dec_values = values
        state.dec_viols = viols
        track_best(state, state.dec_x, values, viols, problem.constrained)
        if granted < candidates.shape[0]:
            raise BudgetExhausted("budget ran dry during the decomposition sweep")

    def _consumer_sweep(self, problem, state, budget, rng, sl, candidates) -> None:
        n = sl.stop - sl.start
        candidates = resample_outside(candidates, problem.bounds, rng)
        granted, values, viols = evaluate_batch(problem, candidates, budget, rng)
        rows = slice(sl.start, sl.start + granted)
        kept = accept(
            state,
            (candidates[:granted], values, viols),
            (state.x[rows], state.values[rows], state.viols[rows]),
            problem.constrained,
        )
        if kept:
            state.pool_cums.pop(sl.start, None)
        if granted < n:
            raise BudgetExhausted("budget ran dry during a consumer sweep")
