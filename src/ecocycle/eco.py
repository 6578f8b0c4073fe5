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

EcoOptimizer holds the paper's hyperparameters, the population size and
the four group proportions, as dataclass fields next to the budget and the
seed. The iteration ceiling is derived from the evaluation budget. The run
loop, the budget rules and the trace live in base.BaseOptimizer.fit; this
module supplies its start, step and diversity hooks.

The hooks step a stack of R runs at once (R = 1 for one seed): every state
array has a leading run axis, each run draws from its own Generator in the
order a lone run would, and the arithmetic, the evaluations and the
acceptance run once for the whole stack. Data-dependent choices (which rows
to repair, how rows are routed among the decomposition strategies, which
run's producers or prey pools changed) are made per run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .analysis import population_diversity
from .base import BaseOptimizer, accept, initial_population, track_best
from .problems import (
    TOL_FEAS,
    Bounds,
    BudgetExhausted,
    Problem,
    argsort_by_compare,
    best_index,
    evaluate_batch,
    resample_outside,
    select_rows,
    split_rows,
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


def predation_factor(k: int, k_max: int, dim, rng) -> np.ndarray:
    """Per-dimension predation factor for iteration k.

    Each component is 1 + 2u * exp(-9 (k/k_max)^3) * (-1)^s with fresh
    u ~ U[0,1) and s ~ {1,2} per dimension, hence always within [-1, 3] and
    contracting toward 1 as the run matures. dim is the dimension D for one
    run's Generator, or the (R, D) shape of a stack's factors, drawn from
    its RunStreams one run after another.
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


def _predation_candidates(x, pools, g, rng) -> np.ndarray:
    """The batched predation move behind the three consumer updates, for a
    stack of runs: x is (R, n, D), g the (R, 1, D) predation factors and rng
    the one run's Generator or the stack's RunStreams.

    pools is a list of ((rows, cums), draws), rows the (R, m, D) pool rows
    and cums each run's cumulative roulette distribution: every
    consumer draws `draws` prey indices per pool from its run's
    distribution, then one fresh scalar per prey term weights that prey's
    difference vector. Each run's index draws happen pool by pool before
    its weight block is drawn, all from one rng.random call
    (Generator.random fills in order).
    """
    n_runs, n = x.shape[:2]
    width = sum(draws for _, draws in pools)
    u = rng.random((n_runs, 2 * n * width))
    prey = []
    for r in range(n_runs):
        u_r, gathered, start = u[r], [], 0
        for (rows, cums), draws in pools:
            stop = start + n * draws
            index = cums[r].searchsorted(u_r[start:stop].reshape(n, draws), side="left")
            gathered.append(rows[r].take(index, axis=0))  # (n, draws, D)
            start = stop
        prey.append(gathered[0] if len(gathered) == 1 else np.concatenate(gathered, axis=1))
    prey = prey[0][None] if n_runs == 1 else np.array(prey)
    rands = u[:, start:].reshape(n_runs, n, width)
    # sum_t r_t (prey_t - x) = sum_t r_t prey_t - (sum_t r_t) x, which
    # avoids materializing the (R, n, draws, D) difference tensor.
    step = np.einsum("rnt,rntd->rnd", rands, prey)
    step -= np.add.reduce(rands, axis=-1, keepdims=True) * x
    # x + g * step, computed in place (IEEE products and sums commute).
    step *= g
    step += x
    return step


def _group_pool(state: "EcoState", sl: slice, constrained: bool):
    """A prey pool: each run's rows of the group and their cumulative
    roulette distribution, cached until a row of the group changes in some
    run (rebuilding an unchanged run's distribution gives the same bits).
    Box-only pools skip the violation scan."""
    pool = state.pool_cums.get(sl.start)
    if pool is None:
        values = state.values[:, sl]
        if constrained:
            cums = [_roulette_cum(v, w) for v, w in zip(values, state.viols[:, sl])]
        else:
            cums = [_roulette_cum(v, None) for v in values]
        pool = state.pool_cums[sl.start] = (state.x[:, sl], cums)
    return pool


# Each decomposition strategy works on an (n, D) batch of rows, drawing from
# rng: one run's Generator, or the RunStreams of the runs owning the rows.
# decompose_candidates feeds them its routed rows of all runs and lets each
# one overwrite its own rows (out may alias xs).


def decompose_optimal(xs, x_bestk, rng, out=None) -> np.ndarray:
    """Decompose toward a randomly scaled neighborhood of the iteration best.

    The neighbor scales each best coordinate by a fresh uniform, then the
    result lands within +/-0.2 of the neighbor-to-individual gap (one scalar
    offset draw per individual).
    """
    n, d = xs.shape
    x_nei = rng.random((n, d)) * x_bestk
    offset = 0.4 * rng.random((n, 1)) - 0.2
    return np.add(x_nei, offset * (x_nei - xs), out=out)


def decompose_local(xs, x_bestk, rng, out=None) -> np.ndarray:
    """Decompose radially: a uniform-length step along a random direction,
    never farther than the individual's distance to the iteration best."""
    n, d = xs.shape
    v = 2.0 * rng.random((n, d)) - 1.0
    sq = np.einsum("nd,nd->n", v, v)
    while sq.item(sq.argmin()) == 0.0:  # sq >= 0, so this finds any zero
        rows = sq == 0.0
        v[rows] = 2.0 * select_rows(rng, rows).random((int(rows.sum()), d)) - 1.0
        sq = np.einsum("nd,nd->n", v, v)
    diff = x_bestk - xs
    radius = np.sqrt(np.einsum("nd,nd->n", diff, diff))[:, None]
    return np.add(xs, rng.random((n, 1)) * radius * (v / np.sqrt(sq)[:, None]), out=out)


def decompose_global(xs, k: int, k_max: int, scale: float, rng, out=None) -> np.ndarray:
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
    rng,
) -> np.ndarray:
    """One decomposition candidate per population row of each run: x is
    (R, n, D), x_bestk the (R, D) iteration bests and rng the one run's
    Generator or the stack's RunStreams.

    Per row: u1 < 0.5 selects optimal decomposition; otherwise u2 < 0.5
    selects the local random walk, else the global one. Both uniforms are
    drawn for every row up front, then each strategy processes the rows it
    got, of all runs, as one batch in run and row order.
    """
    n_runs, n, dim = x.shape
    u1 = rng.random(n_runs * n)
    u2 = rng.random(n_runs * n)
    # Route 0 is optimal, 1 local, 2 global. A stable sort by route, then
    # run, gathers each strategy's rows into one contiguous block in run and
    # row order.
    route = (u1 >= 0.5) * (1 + (u2 >= 0.5))
    if n_runs > 1:
        route = route * n_runs + np.arange(n_runs).repeat(n)
    order = route.argsort(kind="stable")
    counts = np.bincount(route, minlength=3 * n_runs).tolist()
    opt, loc, glo = counts[:n_runs], counts[n_runs : 2 * n_runs], counts[2 * n_runs :]
    a = sum(opt)
    b = a + sum(loc)
    moved = x.reshape(-1, dim).take(order, axis=0)
    # One run's best broadcasts over its rows; a stack's is repeated.
    stacked = n_runs > 1
    if a:
        best = x_bestk.repeat(opt, axis=0) if stacked else x_bestk
        decompose_optimal(moved[:a], best, split_rows(rng, opt), out=moved[:a])
    if b > a:
        best = x_bestk.repeat(loc, axis=0) if stacked else x_bestk
        decompose_local(moved[a:b], best, split_rows(rng, loc), out=moved[a:b])
    if b < moved.shape[0]:
        scale = float(np.minimum.reduce(bounds.span))
        decompose_global(moved[b:], k, k_max, scale, split_rows(rng, glo), out=moved[b:])
    out = np.empty_like(moved)
    out[order] = moved
    return out.reshape(x.shape)


@dataclasses.dataclass
class EcoState:
    """Mutable state of a stack of runs: the partitioned populations plus
    bookkeeping, with a leading run axis on every array.

    x is (R, n, D) and values and viols (R, n); the rows of a run are
    ordered producers, herbivores, carnivores, omnivores, counts[i] rows in
    group i, at the slice groups[i] of the run's rows. k_max is the
    iteration ceiling. best_x (R, D) and the float lists best_value and
    best_viol are each run's best. problem is the problem being solved. The
    decomposer buffer holds the latest decomposition output until the next
    producer re-selection consumes it. pool_cums caches each prey group's
    pool (per-run rows and roulette distributions) by the group's first row;
    whatever changes a group's rows in some run drops its entry.
    """

    problem: Problem
    x: np.ndarray
    values: np.ndarray
    viols: np.ndarray
    counts: tuple[int, int, int, int]
    groups: tuple[slice, slice, slice, slice]
    k_max: int
    best_x: np.ndarray
    best_value: list
    best_viol: list
    dec_x: Optional[np.ndarray] = None
    dec_values: Optional[np.ndarray] = None
    dec_viols: Optional[np.ndarray] = None
    pool_cums: dict = dataclasses.field(default_factory=dict)


def producer_update(state: EcoState) -> None:
    """Re-select producers from the old producers plus the decomposer buffer.

    Per run, stacks the current producer rows above the buffered decomposers,
    orders feasibility-first (stable, so producers win ties), and keeps the
    best N_Pro rows; box-only problems order by value alone. Costs no
    evaluations; every row carries a cached value.
    """
    if state.dec_x is None:
        raise RuntimeError("producer re-selection requires a decomposer buffer")
    n_pro = state.counts[0]
    stack_values = np.concatenate((state.values[:, :n_pro], state.dec_values), axis=1)
    constrained = state.problem.constrained
    if constrained:
        stack_viols = np.concatenate((state.viols[:, :n_pro], state.dec_viols), axis=1)
        keep = argsort_by_compare(stack_values, stack_viols)[:, :n_pro]
    else:
        keep = stack_values.argsort(kind="stable")[:, :n_pro]
    if keep.tolist() == [list(range(n_pro))] * keep.shape[0]:
        return  # in every run the producers are still the best rows, in order
    # A run whose producers stay rewrites them with the same rows.
    state.pool_cums.pop(0, None)
    n_runs, width = stack_values.shape
    if n_runs > 1:
        keep += np.arange(0, n_runs * width, width)[:, None]  # rows of the flattened stacks
    if constrained:
        state.viols[:, :n_pro] = stack_viols.take(keep)
    stack_x = np.concatenate((state.x[:, :n_pro], state.dec_x), axis=1)
    state.x[:, :n_pro] = stack_x.reshape(n_runs * width, -1).take(keep, axis=0)
    state.values[:, :n_pro] = stack_values.take(keep)


@dataclasses.dataclass(eq=False)
class EcoOptimizer(BaseOptimizer):
    """Ecological cycle optimizer; its hyperparameters are its fields.

    Parameters
    ----------
    pop_size : population size (default 30).
    proportions : producer/herbivore/carnivore/omnivore fractions, summing
        to 1 (default 0.2/0.3/0.3/0.2).
    max_fes : evaluation budget per run; defaults to 10_000 * problem
        dimension at fit time when left unset.
    seed : integer seed or numpy Generator for one run's random stream, or a
        sequence of them for one run per seed, fitted as one stack.

    fit(problem) follows the contract of base.BaseOptimizer.fit and also
    leaves the final state of the runs in state_, with its leading run axis.
    """

    pop_size: int = 30
    proportions: Sequence[float] = DEFAULT_PROPORTIONS
    max_fes: Optional[int] = None
    seed: object = None

    def _start(self, problem, budget, rng):
        """Sample, evaluate and partition the initial population of each run
        drawing from rng. Raises BudgetExhausted before evaluating anything
        when the budget cannot cover one evaluation per member."""
        pop_size = int(self.pop_size)
        counts = partition_counts(pop_size, self.proportions)
        x = initial_population(problem, pop_size, budget, rng)
        _, values, viols = evaluate_batch(problem, x, budget, rng)
        b = best_index(values, viols, problem.constrained)
        runs = np.arange(x.shape[0])
        k_max = iteration_ceiling(budget.max_fes, counts)
        self.state_ = EcoState(
            problem=problem,
            x=x,
            values=values,
            viols=viols,
            counts=counts,
            groups=tuple(slice(sum(counts[:i]), sum(counts[: i + 1])) for i in range(4)),
            k_max=k_max,
            best_x=x[runs, b],
            best_value=values[runs, b].tolist(),
            best_viol=viols[runs, b].tolist(),
        )
        return self.state_, k_max

    def _diversity(self, state) -> np.ndarray:
        return population_diversity(state.x)

    def _step(self, problem, state, budget, rng, k) -> None:
        if k != 1:
            producer_update(state)
        constrained = problem.constrained
        pro, her, car, omn = state.groups
        g = predation_factor(k, state.k_max, (state.x.shape[0], problem.dim), rng)[:, None, :]
        # Prey pools are built right before each sweep needs them, so every
        # pool reflects that group's state after its own update: carnivores
        # see post-update herbivores, omnivores see post-update everything.
        # Producers never move mid-iteration, so their pool is shared.
        pool_pro = _group_pool(state, pro, constrained)
        cand = _predation_candidates(state.x[:, her], [(pool_pro, 3)], g, rng)
        self._consumer_sweep(problem, state, budget, rng, her, cand)
        pool_her = _group_pool(state, her, constrained)
        cand = _predation_candidates(state.x[:, car], [(pool_her, 3)], g, rng)
        self._consumer_sweep(problem, state, budget, rng, car, cand)
        pool_car = _group_pool(state, car, constrained)
        cand = _predation_candidates(
            state.x[:, omn], [(pool_pro, 1), (pool_her, 1), (pool_car, 2)], g, rng
        )
        self._consumer_sweep(problem, state, budget, rng, omn, cand)
        # The iteration bests.
        n_runs, n, dim = state.x.shape
        rows = state.x.reshape(-1, dim)
        b = best_index(state.values, state.viols, constrained)
        x_bestk = rows.take([i + n * r for r, i in enumerate(b)], axis=0)
        candidates = decompose_candidates(state.x, x_bestk, k, state.k_max, problem.bounds, rng)
        flat = candidates.reshape(-1, dim)
        repaired = resample_outside(flat, problem.bounds, rng)
        if repaired is not flat:
            candidates = repaired.reshape(candidates.shape)
        granted, values, viols = evaluate_batch(problem, candidates, budget, rng)
        state.dec_x = candidates[:, :granted]
        state.dec_values = values
        state.dec_viols = viols
        track_best(state, state.dec_x, values, viols, constrained)
        if granted < candidates.shape[1]:
            raise BudgetExhausted("budget ran dry during the decomposition sweep")

    def _consumer_sweep(self, problem, state, budget, rng, sl, candidates) -> None:
        n = sl.stop - sl.start
        # The repair sees the stack as its run-major (R * n, D) rows.
        flat = candidates.reshape(-1, problem.dim)
        repaired = resample_outside(flat, problem.bounds, rng)
        if repaired is not flat:
            candidates = repaired.reshape(candidates.shape)
        granted, values, viols = evaluate_batch(problem, candidates, budget, rng)
        rows = slice(sl.start, sl.start + granted)
        kept = accept(
            state,
            (candidates[:, :granted], values, viols),
            (state.x[:, rows], state.values[:, rows], state.viols[:, rows]),
            problem.constrained,
        )
        if kept:
            state.pool_cums.pop(sl.start, None)
        if granted < n:
            raise BudgetExhausted("budget ran dry during a consumer sweep")

