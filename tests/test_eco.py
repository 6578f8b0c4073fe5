"""Tests for the ecological cycle optimizer and its building blocks."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocycle.classic import make_classic
from ecocycle.eco import (
    DEFAULT_PROPORTIONS,
    EcoOptimizer,
    EcoState,
    _group_pool,
    _predation_candidates,
    _roulette_cum,
    _stack_roulette_cums,
    decompose_candidates,
    decompose_global,
    decompose_local,
    decompose_optimal,
    fes_per_iteration,
    iteration_ceiling,
    partition_counts,
    predation_factor,
    producer_update,
    roulette_probabilities,
)
from ecocycle.engineering import make_engineering
from ecocycle.problems import (
    TOL_FEAS,
    Bounds,
    BudgetExhausted,
    EvalBudget,
    Problem,
    argsort_by_compare,
    best_index,
    improves,
    is_better,
)
from fit_contract import FitContract
from oracles import compare_batch, contains, predation_step, roulette_select


class QueuedRng:
    """Stand-in generator that replays preset draws in order.

    Each call to random/integers pops the next queued array after checking
    that the requested shape matches, which pins down the exact draw order
    a function under test performs.
    """

    def __init__(self, *draws):
        self._queue = [np.asarray(d, dtype=float) for d in draws]

    def _pop(self, size):
        if not self._queue:
            raise AssertionError("more draws requested than queued")
        out = self._queue.pop(0)
        if size is None:
            expected = ()
        elif isinstance(size, int):
            expected = (size,)
        else:
            expected = tuple(size)
        assert out.shape == expected, f"draw shape {out.shape} != requested {expected}"
        return out

    def random(self, size=None):
        return self._pop(size).copy()

    def integers(self, low, high, size=None):
        return self._pop(size).astype(np.int64)

    def exhausted(self):
        return not self._queue


def sphere(dim, lo=-10.0, hi=10.0):
    return Problem(
        name="sphere",
        dim=dim,
        bounds=Bounds(np.full(dim, lo), np.full(dim, hi)),
        objective=lambda x: np.sum(np.square(x), axis=-1),
    )


class TestPartitionCounts:
    def test_default_pop_30(self):
        assert partition_counts(30) == (6, 9, 9, 6)

    def test_pop_10(self):
        assert partition_counts(10) == (2, 3, 3, 2)

    def test_pop_4_one_each(self):
        assert partition_counts(4) == (1, 1, 1, 1)

    def test_sum_and_floor_over_range(self):
        for pop in range(4, 101):
            counts = partition_counts(pop)
            assert sum(counts) == pop
            assert min(counts) >= 1

    def test_pop_below_four_rejected(self):
        with pytest.raises(ValueError):
            partition_counts(3)

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            partition_counts(30, proportions=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            partition_counts(30, proportions=(0.2, 0.3, 0.5))
        with pytest.raises(ValueError):
            partition_counts(30, proportions=(-0.2, 0.7, 0.3, 0.2))


class TestBudgetArithmetic:
    def test_fes_per_iteration_default(self):
        assert fes_per_iteration((6, 9, 9, 6)) == 54

    def test_fes_per_iteration_small(self):
        # 3 herbivore + 3 carnivore + 2 omnivore moves plus 10 decompositions
        assert fes_per_iteration((2, 3, 3, 2)) == 18

    def test_iteration_ceiling_exact_budget(self):
        counts = (6, 9, 9, 6)
        k_max = iteration_ceiling(300_000, counts)
        assert k_max == 5555
        assert 30 + k_max * fes_per_iteration(counts) == 300_000

    def test_iteration_ceiling_floors_at_one(self):
        assert iteration_ceiling(31, (6, 9, 9, 6)) == 1
        assert iteration_ceiling(84, (6, 9, 9, 6)) == 1
        assert iteration_ceiling(137, (6, 9, 9, 6)) == 1
        assert iteration_ceiling(138, (6, 9, 9, 6)) == 2


class TestPredationFactor:
    def test_exact_values_from_queued_draws(self):
        # k=0 gives damping 2, so each entry is 1 + 2*u*sign
        rng = QueuedRng(np.array([0.5, 0.25]), np.array([2, 1]))
        g = predation_factor(0, 100, 2, rng)
        assert g == pytest.approx([2.0, 0.5])
        assert rng.exhausted()

    def test_contracts_to_one_at_final_iteration(self):
        rng = np.random.default_rng(3)
        g = predation_factor(500, 500, 1000, rng)
        assert np.all(np.abs(g - 1.0) <= 2.0 * math.exp(-9.0) + 1e-15)

    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        for k in (0, 10, 400):
            g = predation_factor(k, 400, 5000, rng)
            assert g.shape == (5000,)
            assert np.all(g >= -1.0) and np.all(g <= 3.0)


class TestRoulette:
    def test_exact_probabilities(self):
        # values (0,1,2) shift to (0.2,1.2,2.2); reciprocals normalize to
        # (66, 11, 6)/83 up to the 1e-12 positivity guard
        p = roulette_probabilities(np.array([0.0, 1.0, 2.0]))
        assert p == pytest.approx([66 / 83, 11 / 83, 6 / 83], abs=1e-9)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_better_value_gets_larger_share(self):
        p = roulette_probabilities(np.array([3.0, 1.0, 2.0]))
        assert p[1] > p[2] > p[0]

    def test_feasible_viols_equivalent_to_none(self):
        values = np.array([4.0, 7.0, 5.5])
        p_none = roulette_probabilities(values)
        p_zero = roulette_probabilities(values, np.zeros(3))
        assert p_none == pytest.approx(p_zero, abs=1e-15)

    def test_constant_pool_is_uniform(self):
        p = roulette_probabilities(np.array([2.5, 2.5, 2.5, 2.5]))
        assert p == pytest.approx([0.25] * 4, abs=1e-12)

    @given(
        offset=st.floats(-1e12, 1e12),
        spread=st.floats(0.0, 1e6),
        unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_cumulative_is_a_distribution_at_any_scale(self, offset, spread, unit):
        cum = _roulette_cum(offset + spread * np.array(unit), None)
        assert np.all(np.isfinite(cum))
        assert np.all(np.diff(cum) >= 0.0)
        assert cum[-1] == 1.0

    def test_infeasible_pool_uses_reciprocal_ranks(self):
        # feasible row 0 ranks first despite its worse objective
        p = roulette_probabilities(np.array([5.0, 1.0]), np.array([0.0, 1.0]))
        assert p == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_nan_violation_counts_as_infeasible(self):
        # The NaN-violation row ranks second, as an infeasible row would.
        values, viols = np.array([1.0, 0.0]), np.array([0.0, np.nan])
        p = roulette_probabilities(values, viols)
        assert p == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        # The cumulative form agrees: a draw of 0.5 lands on row 0.
        assert roulette_select(values, viols, 2, QueuedRng([0.5, 0.7])).tolist() == [0, 1]

    @pytest.mark.parametrize(
        "values, ranks",
        [
            ([5.0, 1.0, 2.0, np.inf], [3, 1, 2, 4]),
            ([5.0, 1.0, 2.0, np.nan], [3, 1, 2, 4]),
            ([5.0, -np.inf, 2.0], [3, 1, 2]),
            ([np.nan, 1.0, np.nan], [2, 1, 3]),
            ([np.inf, np.inf], [1, 2]),
            ([2e4, 2e4, 2e4, 2e4], [1, 2, 3, 4]),
        ],
    )
    def test_non_finite_pool_uses_reciprocal_ranks(self, values, ranks):
        # One infinity or NaN used to turn the whole distribution into NaN,
        # so every draw picked row 0. So did a constant pool at 2e4, whose
        # best shifted value rounds to 0 and whose weight was infinite.
        weights = 1.0 / np.array(ranks, dtype=float)
        want = weights / weights.sum()
        for viols in (None, np.zeros(len(values))):
            p = roulette_probabilities(np.array(values), viols)
            assert p.tolist() == want.tolist()
        rng = np.random.default_rng(3)
        idx = roulette_select(np.array(values), None, 20_000, rng)
        counts = np.bincount(idx, minlength=len(values))
        sigma = np.sqrt(want * (1 - want) / 20_000)
        assert np.all(np.abs(counts / 20_000 - want) < 4.0 * sigma), counts

    def test_select_matches_probabilities(self):
        values = np.array([0.0, 1.0, 2.0])
        rng = np.random.default_rng(0)
        idx = roulette_select(values, None, 20_000, rng)
        freq = np.bincount(idx, minlength=3) / 20_000
        expected = np.array([66 / 83, 11 / 83, 6 / 83])
        sigma = np.sqrt(expected * (1 - expected) / 20_000)
        assert np.all(np.abs(freq - expected) < 3.5 * sigma)

    def test_select_with_replacement(self):
        rng = np.random.default_rng(1)
        idx = roulette_select(np.array([1.0, 2.0]), None, 50, rng)
        assert idx.shape == (50,)
        assert set(np.unique(idx)) <= {0, 1}
        assert len(np.unique(idx)) == 2  # both appear: sampling replaces


class TestPredationStep:
    def test_herbivore_style_move(self):
        # x + g * sum r_t (prey_t - x) with everything at 1
        out = predation_step(
            np.array([0.0]),
            [np.array([1.0]), np.array([2.0]), np.array([3.0])],
            [1.0, 1.0, 1.0],
            1.0,
        )
        assert out == pytest.approx([6.0])

    def test_carnivore_style_move(self):
        out = predation_step(
            np.array([10.0]),
            [np.array([0.0]), np.array([0.0]), np.array([0.0])],
            [1.0, 1.0, 1.0],
            1.0,
        )
        assert out == pytest.approx([-20.0])

    def test_omnivore_style_move(self):
        out = predation_step(
            np.array([0.0]),
            [np.array([1.0])] * 4,
            [1.0] * 4,
            1.0,
        )
        assert out == pytest.approx([4.0])

    def test_factor_scales_the_step(self):
        out = predation_step(
            np.array([0.0]),
            [np.array([1.0]), np.array([2.0]), np.array([3.0])],
            [1.0, 1.0, 1.0],
            0.5,
        )
        assert out == pytest.approx([3.0])

    def test_per_dimension_factor(self):
        out = predation_step(
            np.array([0.0, 0.0]),
            [np.array([2.0, 2.0])],
            [1.0],
            np.array([1.0, 0.0]),
        )
        assert out == pytest.approx([2.0, 0.0])

    def test_batched_rows_move_independently(self):
        x = np.array([[0.0, 0.0], [10.0, 10.0]])
        prey = np.array([[2.0, 2.0], [0.0, 0.0]])
        out = predation_step(x, [prey], np.array([[1.0], [0.5]]), 1.0)
        assert out == pytest.approx(np.array([[2.0, 2.0], [5.0, 5.0]]))

    def test_zero_rands_is_identity(self):
        x = np.array([1.5, -2.5])
        out = predation_step(x, [np.array([9.0, 9.0])], [0.0], 1.0)
        assert out == pytest.approx(x)


def pool_of(x, values, viols=None):
    """The prey pool _group_pool builds from a stack's (R, m, D) rows and
    (R, m) values (and violations, for a constrained pool)."""
    state = SimpleNamespace(pool_cums={}, x=x, values=values, viols=viols)
    return _group_pool(state, slice(0, values.shape[1]), viols is not None)


@st.composite
def roulette_stacks(draw):
    """(R, m) values and violations (None for a box-only pool), each run's
    row drawn as ordinary values, values holding NaN or infinities, or a
    nearly constant pool above 2^14 whose shift rounds away; each run's
    violations are zero, feasible, or drawn with infeasible and NaN
    entries."""
    n_runs, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    row = lambda elements: st.lists(elements, min_size=m, max_size=m)  # noqa: E731
    values, viols = [], []
    for _ in range(n_runs):
        kind = draw(st.sampled_from(("finite", "special", "flat")))
        if kind == "finite":
            values.append(draw(row(st.floats(-1e9, 1e9))))
        elif kind == "special":
            special = st.sampled_from((math.nan, math.inf, -math.inf))
            values.append(draw(row(st.one_of(st.floats(-10.0, 10.0), special))))
        else:
            base = draw(st.floats(2.0**14, 2.0**40)) * draw(st.sampled_from((1.0, -1.0)))
            steps = draw(row(st.integers(0, 2)))
            values.append([base + k * float(np.spacing(base)) for k in steps])
        kind = draw(st.sampled_from(("zero", "feasible", "mixed")))
        if kind == "zero":
            viols.append([0.0] * m)
        elif kind == "feasible":
            viols.append(draw(row(st.floats(0.0, TOL_FEAS))))
        else:
            viols.append(draw(row(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.just(math.nan)))))
    constrained = draw(st.booleans())
    return np.array(values), np.array(viols) if constrained else None


class TestStackedRoulette:
    """Every run's row of a stack's roulette distributions has the bits of
    _roulette_cum on that run's pool alone, and building them raises no
    floating-point warning."""

    @given(stack=roulette_stacks())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_lone_builds(self, stack):
        values, viols = stack
        n_runs, m = values.shape
        x = np.arange(n_runs * m * 2, dtype=float).reshape(n_runs, m, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cums = _stack_roulette_cums(values, viols)
            rows, pool_cums, offsets = pool_of(x, values, viols)
            want = [_roulette_cum(values[r], None if viols is None else viols[r]) for r in range(n_runs)]
        assert cums.shape == pool_cums.shape == (n_runs, m)
        for r in range(n_runs):
            assert cums[r].tobytes() == want[r].tobytes(), r
            assert pool_cums[r].tobytes() == want[r].tobytes(), r
            assert want[r][-1] == 1.0
        # The pool's flat rows hold each run's rows from its offset on.
        assert rows.shape == (n_runs * m, 2)
        starts = [0] if offsets is None else offsets[:, 0].tolist()
        assert starts == [r * m for r in range(n_runs)]
        for r, start in enumerate(starts):
            assert rows[start : start + m].tolist() == x[r].tolist()

    def test_all_runs_ranked(self):
        values = np.array([[1.0, np.nan], [np.inf, 2.0]])
        cums = _stack_roulette_cums(values, None)
        for r in range(2):
            assert cums[r].tolist() == _roulette_cum(values[r], None).tolist()


class TestPreyIndex:
    """The stack's prey indices (one compare for all runs, or a lone run's
    search) against searchsorted(side="left") per run, read off candidates
    that land exactly on their prey: x = 0, one prey term of weight 1, g = 1,
    and pool row j of every run holding j."""

    @staticmethod
    def indices(cums, u):
        n_runs, m = cums.shape
        x_pool = np.broadcast_to(np.arange(m, dtype=float)[:, None], (n_runs, m, 1)).copy()
        rows, _, offsets = pool_of(x_pool, np.zeros((n_runs, m)))
        n = u.shape[1]
        draws = np.concatenate((u, np.ones((n_runs, n))), axis=1)
        got = _predation_candidates(
            np.zeros((n_runs, n, 1)), [((rows, cums, offsets), 1)], np.ones((n_runs, 1, 1)), QueuedRng(draws)
        )
        return got[..., 0]

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_edge_draws(self, n_runs):
        base = [
            [0.25, 0.5, 0.5, 1.0],  # a zero-weight row: 0.5 twice
            [0.1, 0.2, 0.9, 1.0],
            [1e-300, 1e-300, 0.75, 1.0],
        ]
        cums = np.array(base[:n_runs])
        u = []
        for cum in cums:
            entries = cum[:-1].tolist()
            u.append(
                [0.0, math.nextafter(1.0, 0.0)]
                + entries
                + [math.nextafter(c, 0.0) for c in entries]
                + [math.nextafter(c, 1.0) for c in entries]
            )
        u = np.array(u)
        got = self.indices(cums, u)
        for r in range(n_runs):
            assert got[r].tolist() == cums[r].searchsorted(u[r], side="left").tolist(), r

    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_one_row_pool(self, n_runs):
        u = np.array([[0.0, 0.5, math.nextafter(1.0, 0.0)]] * n_runs)
        assert self.indices(np.ones((n_runs, 1)), u).tolist() == [[0.0] * 3] * n_runs

    @given(n_runs=st.integers(1, 5), m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_pools(self, n_runs, m, seed):
        rng = np.random.default_rng(seed)
        cums = np.array([_roulette_cum(rng.normal(size=m), None) for _ in range(n_runs)])
        # Half of the draws sit exactly on an entry of their run's distribution.
        u = rng.random((n_runs, 8))
        u[:, ::2] = cums.take(rng.integers(0, m, size=(n_runs, 4)))
        u[u >= 1.0] = 0.0
        got = self.indices(cums, u)
        for r in range(n_runs):
            assert got[r].tolist() == cums[r].searchsorted(u[r], side="left").tolist(), r


class TestPredationCandidates:
    """The batched move, which computes sum r prey - (sum r) x in one pass
    for a stack of runs, against the plain step per run on the same queued
    draws."""

    def check(self, layout, seed, n_runs):
        rng = np.random.default_rng(seed)
        n, d = 9, 7
        x = rng.uniform(-5.0, 5.0, size=(n_runs, n, d))
        g = predation_factor(1, 10, (n_runs, d), rng)[:, None, :]
        sources, pools = [], []
        for draws in layout:
            m = int(rng.integers(1, 10))
            pool_x = rng.uniform(-5.0, 5.0, size=(n_runs, m, d))
            pool = pool_of(pool_x, rng.normal(size=(n_runs, m)))
            sources.append(pool_x)
            pools.append((pool, draws))
        width = sum(layout)
        u = rng.random((n_runs, 2 * n * width))
        got = _predation_candidates(x, pools, g, QueuedRng(u))
        assert got.shape == x.shape
        for r in range(n_runs):
            # The index draws come pool by pool, then one weight per prey term.
            preys, start = [], 0
            for pool_x, ((_, cums, _), draws) in zip(sources, pools):
                index = cums[r].searchsorted(u[r, start : start + n * draws].reshape(n, draws))
                preys += [pool_x[r][index[:, t]] for t in range(draws)]
                start += n * draws
            want = predation_step(x[r], preys, u[r, start:].reshape(n, width), g[r])
            np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_pool_drawn_three_times(self, seed):
        # herbivores and carnivores, for one run and for a stack of three
        for n_runs in (1, 3):
            self.check((3,), seed, n_runs)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_pools_drawn_one_one_two(self, seed):
        # omnivores: one producer, one herbivore, two carnivores
        for n_runs in (1, 3):
            self.check((1, 1, 2), seed, n_runs)


class TestDecomposeOptimal:
    def test_hand_oracle_single(self):
        # neighbor = 0.5*10 = 5; offset = 0.4*1 - 0.2 = 0.2; 5 + 0.2*(5-3)
        rng = QueuedRng(np.array([[0.5]]), np.array([[1.0]]))
        out = decompose_optimal(np.array([[3.0]]), np.array([10.0]), rng)
        assert out == pytest.approx(np.array([[5.4]]))
        assert rng.exhausted()

    def test_hand_oracle_batch(self):
        rng = QueuedRng(np.array([[0.5], [0.1]]), np.array([[1.0], [0.0]]))
        out = decompose_optimal(
            np.array([[3.0], [0.0]]), np.array([10.0]), rng
        )
        # row 1: neighbor 1.0, offset -0.2, 1 - 0.2*(1-0) = 0.8
        assert out == pytest.approx(np.array([[5.4], [0.8]]))

    def test_offset_stays_within_band(self):
        # result is always within 0.2|neighbor - x| of the neighbor
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, size=(200, 4))
        best = rng.uniform(-5, 5, size=4)
        probe = np.random.default_rng(6)
        nei_draw = probe.random((200, 4))
        off_draw = probe.random((200, 1))
        out = decompose_optimal(x, best, QueuedRng(nei_draw, off_draw))
        nei = nei_draw * best
        assert np.all(np.abs(out - nei) <= 0.2 * np.abs(nei - x) + 1e-12)


class TestDecomposeLocal:
    def test_hand_oracle(self):
        # unit direction (1,0), radius 5, scalar 0.6: x + 3 along dim 0
        rng = QueuedRng(np.array([[1.0, 0.5]]), np.array([[0.6]]))
        out = decompose_local(
            np.array([[0.0, 0.0]]), np.array([3.0, 4.0]), rng
        )
        assert out == pytest.approx(np.array([[3.0, 0.0]]))
        assert rng.exhausted()

    def test_zero_direction_redrawn(self):
        rng = QueuedRng(
            np.array([[0.5, 0.5]]),  # maps to the zero vector
            np.array([[1.0, 0.5]]),  # redraw: direction (1, 0)
            np.array([[1.0]]),
        )
        out = decompose_local(
            np.array([[0.0, 0.0]]), np.array([3.0, 4.0]), rng
        )
        assert out == pytest.approx(np.array([[5.0, 0.0]]))
        assert rng.exhausted()

    def test_step_never_exceeds_distance_to_best(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, size=(500, 6))
        best = rng.uniform(-5, 5, size=6)
        out = decompose_local(x, best, np.random.default_rng(8))
        step = np.linalg.norm(out - x, axis=1)
        radius = np.linalg.norm(best - x, axis=1)
        assert np.all(step <= radius + 1e-9)


class TestDecomposeGlobal:
    def test_hand_oracle(self):
        # amplitude h = cos(0) * (1 - 1/3)^2.5; walk uses the smaller span
        rng = QueuedRng(
            np.array([0.0]), np.array([[1.0, 0.5]]), np.array([[0.25]])
        )
        x = np.array([[1.0, 2.0]])
        out = decompose_global(x, 1, 2, 10.0, rng)  # spans (10, 20)
        h = (2.0 / 3.0) ** 2.5
        w = (2.0 / 3.0) * np.array([1.0, 0.5]) * h * 10.0
        expected = 0.25 * x[0] + 0.75 * w
        assert out[0] == pytest.approx(expected)
        assert rng.exhausted()

    def test_amplitude_decays_with_iteration(self):
        # late-run walk points collapse toward the origin blend
        x = np.zeros((2000, 1))
        early = decompose_global(x, 0, 100, 10.0, np.random.default_rng(1))
        late = decompose_global(x, 100, 100, 10.0, np.random.default_rng(1))
        assert np.abs(late).max() < np.abs(early).max()
        assert np.abs(late).max() <= (2.0 / 3.0) * (1.0 / 3.0) ** 5 * 10.0 + 1e-12


class TestDecomposeCandidates:
    def test_routing_and_values(self):
        # u1 routes row 0 optimal; u2 routes row 1 local, row 2 global
        rng = QueuedRng(
            np.array([0.4, 0.6, 0.7]),  # u1
            np.array([0.9, 0.3, 0.8]),  # u2
            np.array([[0.5]]),  # optimal: neighbor scale
            np.array([[1.0]]),  # optimal: offset
            np.array([[1.0]]),  # local: direction
            np.array([[0.5]]),  # local: step fraction
            np.array([0.0]),  # global: amplitude angle
            np.array([[0.75]]),  # global: walk coordinates
            np.array([[0.2]]),  # global: blend weight
        )
        bounds = Bounds(np.array([0.0]), np.array([10.0]))
        x = np.array([[[3.0], [0.0], [1.0]]])  # one run of three rows
        out = decompose_candidates(x, np.array([[10.0]]), 1, 2, bounds, rng)[0]
        h = (2.0 / 3.0) ** 2.5
        assert out[0] == pytest.approx([5.4])
        assert out[1] == pytest.approx([5.0])
        assert out[2] == pytest.approx([0.2 + 0.8 * 0.5 * h * 10.0])
        assert rng.exhausted()

    def test_single_strategy_when_all_route_same_way(self):
        rng = QueuedRng(
            np.array([0.1, 0.2]),  # u1: both optimal
            np.array([0.9, 0.9]),  # u2: drawn but unused
            np.array([[0.5], [0.5]]),
            np.array([[0.5], [0.5]]),
        )
        out = decompose_candidates(
            np.array([[[0.0], [4.0]]]),
            np.array([[8.0]]),
            0,
            10,
            Bounds(np.array([0.0]), np.array([10.0])),
            rng,
        )
        assert out.shape == (1, 2, 1)
        assert rng.exhausted()


class TestProducerUpdate:
    @staticmethod
    def _state(counts, x, values, dec_x, dec_values):
        """A one-run state: every array gets a leading run axis of length 1."""
        x = np.asarray(x, dtype=float)[None]
        values = np.asarray(values, dtype=float)[None]
        viols = np.zeros_like(values)
        state = EcoState(
            problem=sphere(1),
            x=x,
            values=values,
            viols=viols,
            counts=counts,
            groups=tuple(slice(sum(counts[:i]), sum(counts[: i + 1])) for i in range(4)),
            k_max=1,
            best_x=x[:, 0].copy(),
            best_value=[float(values.min())],
            best_viol=[0.0],
        )
        state.dec_x = np.asarray(dec_x, dtype=float)[None]
        state.dec_values = np.asarray(dec_values, dtype=float)[None]
        state.dec_viols = np.zeros((1, len(dec_values)))
        return state

    def test_keeps_best_of_producers_and_buffer(self):
        values = np.array([5.0, 9.0, 50, 51, 52, 53, 54, 55, 56, 57])
        x = values[:, None].copy()
        state = self._state(
            (2, 3, 3, 2), x, values, [[1.0], [7.0], [20.0], [30.0]], [1, 7, 20, 30]
        )
        producer_update(state)
        assert state.values[0, :2].tolist() == [1.0, 5.0]
        assert state.x[0, :2].tolist() == [[1.0], [5.0]]
        # non-producer rows untouched
        assert state.values[0, 2:].tolist() == values[2:].tolist()

    def test_stable_ties_prefer_incumbent_producer(self):
        values = np.array([5.0, 9.0, 50, 51, 52, 53, 54, 55, 56, 57])
        x = values[:, None].copy()
        x[0, 0] = 100.0  # distinguish the incumbent from the tied candidate
        state = self._state(
            (2, 3, 3, 2), x, values, [[200.0], [300.0], [301.0], [302.0]], [5, 60, 61, 62]
        )
        producer_update(state)
        assert state.values[0, :2].tolist() == [5.0, 5.0]
        assert state.x[0, 0, 0] == 100.0

    def test_requires_buffer(self):
        values = np.arange(10, dtype=float)
        state = self._state((2, 3, 3, 2), values[:, None], values, [[0.0]], [0.0])
        state.dec_x = None
        with pytest.raises(RuntimeError):
            producer_update(state)


class TestInitState:
    def test_budget_checked_before_any_evaluation(self):
        calls = []

        def counting(x):
            calls.append(np.atleast_2d(x).shape[0])
            return np.sum(np.square(x), axis=-1)

        problem = Problem(
            name="counting",
            dim=2,
            bounds=Bounds(np.zeros(2), np.ones(2)),
            objective=counting,
        )
        with pytest.raises(BudgetExhausted):
            EcoOptimizer(pop_size=30)._start(problem, EvalBudget(29), np.random.default_rng(0))
        assert calls == []

    def test_charges_exactly_pop_size(self):
        budget = EvalBudget(1000)
        state, k_max = EcoOptimizer(pop_size=30)._start(sphere(3), budget, np.random.default_rng(0))
        assert budget.used == 30
        assert state.x.shape == (1, 30, 3)
        assert state.counts == (6, 9, 9, 6)
        assert state.groups == (slice(0, 6), slice(6, 15), slice(15, 24), slice(24, 30))
        assert k_max == state.k_max == iteration_ceiling(1000, state.counts)

    def test_best_matches_population_minimum(self):
        state, _ = EcoOptimizer(pop_size=30)._start(
            sphere(4), EvalBudget(100), np.random.default_rng(1)
        )
        i = int(np.argmin(state.values[0]))
        assert state.best_value == [state.values[0, i]]
        assert state.best_x[0] == pytest.approx(state.x[0, i])

    def test_initial_sample_roughly_uniform(self):
        problem = sphere(1, lo=0.0, hi=10.0)
        state, _ = EcoOptimizer(pop_size=3000)._start(
            problem, EvalBudget(3000), np.random.default_rng(2)
        )
        assert abs(state.x.mean() - 5.0) < 0.2  # se of the mean is ~0.053
        assert state.x.min() >= 0.0 and state.x.max() <= 10.0


class TestEcoOptimizerFit(FitContract):
    optimizer = EcoOptimizer
    invalid_pop = 3  # with max_fes=1 this also fails the budget check
    seeded_repr = (
        "EcoOptimizer(pop_size=30, proportions=(0.2, 0.3, 0.3, 0.2), max_fes=None, seed=7)"
    )
    field_names = ("pop_size", "proportions", "max_fes", "seed")

    def test_deterministic_given_seed(self):
        problem = make_classic("f1", dim=5).problem
        a = EcoOptimizer(max_fes=300, seed=11).fit(problem)
        b = EcoOptimizer(max_fes=300, seed=11).fit(problem)
        assert np.array_equal(a.best_x_, b.best_x_)
        assert a.best_value_ == b.best_value_
        assert a.n_fes_ == b.n_fes_
        assert np.array_equal(a.trace_.best_values, b.trace_.best_values)
        assert np.array_equal(a.trace_.div, b.trace_.div)

    def test_seeds_differ(self):
        problem = make_classic("f1", dim=5).problem
        a = EcoOptimizer(max_fes=300, seed=1).fit(problem)
        b = EcoOptimizer(max_fes=300, seed=2).fit(problem)
        assert not np.array_equal(a.best_x_, b.best_x_)

    def test_exact_fe_accounting(self):
        # 30 init + 2 iterations * 54 = 138
        problem = make_classic("f1", dim=4).problem
        opt = EcoOptimizer(max_fes=138, seed=0).fit(problem)
        assert opt.n_fes_ == 138
        assert opt.n_iters_ == 2
        assert opt.trace_.iters.tolist() == [0, 1, 2]
        assert opt.trace_.fes.tolist() == [30, 84, 138]
        assert opt.trace_.best_values[-1] == opt.best_value_

    def test_budget_never_exceeded_mid_sweep(self):
        problem = make_classic("f1", dim=4).problem
        for max_fes in (95, 130, 200):
            opt = EcoOptimizer(max_fes=max_fes, seed=3).fit(problem)
            assert opt.n_fes_ <= max_fes

    def test_partial_iteration_that_improves_is_recorded(self):
        # The budget runs dry inside iteration 1; its row used to be
        # dropped, so the trace ended at 7544.64 above the reported best.
        problem = make_classic("f1", dim=5).problem
        opt = EcoOptimizer(max_fes=83, seed=1).fit(problem)
        assert opt.trace_.iters.tolist() == [0, 1]
        assert opt.trace_.fes.tolist() == [30, 83]
        assert opt.best_value_ == 80.88381508327848
        assert opt.trace_.best_values[-1] == opt.best_value_
        assert opt.n_iters_ == 1

    def test_partial_iteration_without_improvement_adds_no_row(self):
        problem = make_classic("f1", dim=5).problem
        opt = EcoOptimizer(max_fes=31, seed=0).fit(problem)
        assert opt.n_fes_ == 31
        assert opt.trace_.iters.tolist() == [0]
        assert opt.trace_.best_values[-1] == opt.best_value_

    def test_trace_monotone_and_fes_increasing(self):
        problem = make_classic("f9", dim=6).problem
        opt = EcoOptimizer(max_fes=3000, seed=4).fit(problem)
        best = opt.trace_.best_values
        assert np.all(np.diff(best) <= 0)
        assert np.all(np.diff(opt.trace_.fes) > 0)

    def test_improves_on_sphere(self):
        problem = make_classic("f1", dim=10).problem
        opt = EcoOptimizer(max_fes=20_000, seed=5).fit(problem)
        assert opt.best_value_ < 1e-3
        assert opt.best_violation_ == 0.0

    def test_population_stays_in_box(self):
        problem = make_classic("f6", dim=8).problem
        opt = EcoOptimizer(max_fes=2000, seed=6).fit(problem)
        assert contains(problem.bounds, opt.state_.x).all()
        assert contains(problem.bounds, opt.best_x_[None, :]).all()

    def test_constrained_problem_smoke(self):
        spec = make_engineering("rc20")
        opt = EcoOptimizer(max_fes=3000, seed=9).fit(spec.problem)
        assert opt.best_violation_ <= 1e-6
        assert 263.0 < opt.best_value_ < 300.0

    def test_constrained_trace_monotone_in_compare_order(self):
        # while the best is infeasible its violation never rises; once it
        # turns feasible it stays feasible and the value never rises
        spec = make_engineering("rc15")
        opt = EcoOptimizer(max_fes=3000, seed=1).fit(spec.problem)
        values, viols = opt.trace_.best_values, opt.trace_.best_viols
        assert viols[-1] == opt.best_violation_
        prev_feas = (viols <= 1e-8)[:-1]
        assert np.all(np.diff(values)[prev_feas] <= 0.0)
        assert np.all(np.diff(viols)[~prev_feas] <= 0.0)
        assert not np.any(prev_feas & (viols[1:] > 1e-8))

    def test_unconstrained_trace_has_zero_viol_column(self):
        problem = make_classic("f1", dim=4).problem
        opt = EcoOptimizer(max_fes=500, seed=2).fit(problem)
        assert np.all(opt.trace_.best_viols == 0.0)

    def test_best_is_minimum_over_all_evaluations(self):
        # the reported best can never be worse than any traced value
        problem = make_classic("f10", dim=5).problem
        opt = EcoOptimizer(max_fes=1500, seed=12).fit(problem)
        assert opt.best_value_ <= opt.trace_.best_values.min()


class TestEstimatorContract:
    def test_asdict_replace_roundtrip(self):
        opt = EcoOptimizer(pop_size=40, max_fes=500, seed=2)
        params = dataclasses.asdict(opt)
        assert params == {
            "pop_size": 40,
            "proportions": DEFAULT_PROPORTIONS,
            "max_fes": 500,
            "seed": 2,
        }
        clone = dataclasses.replace(EcoOptimizer(), **params)
        assert dataclasses.asdict(clone) == params

    def test_clone_reproduces_fit(self):
        problem = make_classic("f1", dim=3).problem
        opt = EcoOptimizer(max_fes=300, seed=21)
        clone = EcoOptimizer(**dataclasses.asdict(opt))
        assert opt.fit(problem).best_value_ == clone.fit(problem).best_value_

    def test_invalid_param_rejected(self):
        with pytest.raises(TypeError, match="population"):
            EcoOptimizer(population=10)
        with pytest.raises(TypeError, match="population"):
            dataclasses.replace(EcoOptimizer(), population=10)


def reference_best_index(values, viols):
    """Best-index selection by the full feasibility-first sort."""
    return int(argsort_by_compare(values, viols)[0])


class TestFeasibilityFastPaths:
    """The argmin and one-compare shortcuts against the full
    feasibility-first ordering, on rows mixing every non-finite case."""

    VALUES = np.array([-1.5, 0.0, 2.0, 2.0, 7.25, np.inf, -np.inf, np.nan])
    VIOLS = np.array([0.0, 1e-9, TOL_FEAS, 1e-3, 1e-3, 4.0, np.inf, np.nan])

    def draw(self, rng, n):
        # Rows drawn from a few random pool entries make ties, all-feasible,
        # all-infeasible and all-non-finite batches common.
        values = rng.choice(rng.choice(self.VALUES, size=rng.integers(1, 5), replace=False), n)
        viols = rng.choice(rng.choice(self.VIOLS, size=rng.integers(1, 5), replace=False), n)
        return values, viols

    def test_best_index_agrees_with_sorted_order(self):
        # A stack of one to four runs; best_index picks one index per run.
        rng = np.random.default_rng(11)
        for _ in range(5000):
            n = int(rng.integers(1, 13))
            runs = [self.draw(rng, n) for _ in range(int(rng.integers(1, 5)))]
            values = np.array([v for v, _ in runs])
            viols = np.array([w for _, w in runs])
            for constrained in (True, False):
                if not constrained:
                    viols = np.zeros_like(viols)
                want = [reference_best_index(v, w) for v, w in zip(values, viols)]
                assert best_index(values, viols, constrained) == want, (values, viols, constrained)

    def test_best_index_ranks_nan_violation_infeasible(self):
        values = np.array([[1.0, 0.0]])
        viols = np.array([[0.0, np.nan]])
        assert int(argsort_by_compare(values[0], viols[0])[0]) == 0
        assert best_index(values, viols, True) == [0]

    def test_best_index_ranks_nan_objective_last(self):
        values = np.array([[np.nan, 1.0, 0.5, np.nan]])
        for constrained in (True, False):
            assert best_index(values, np.zeros((1, 4)), constrained) == [2]
        assert best_index(np.full((1, 3), np.nan), np.zeros((1, 3)), False) == [0]

    def test_improves_agrees_with_compare_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(5000):
            n = int(rng.integers(1, 10))
            values, viols = self.draw(rng, n)
            old_values, old_viols = self.draw(rng, n)
            want = compare_batch(values, viols, old_values, old_viols) < 0
            got = improves(values, viols, old_values, old_viols, True)
            assert np.array_equal(got, want), (values, viols, old_values, old_viols)

    def test_box_only_improves_agrees_with_compare_batch(self):
        rng = np.random.default_rng(14)
        for _ in range(5000):
            n = int(rng.integers(1, 10))
            values, _ = self.draw(rng, n)
            old_values, _ = self.draw(rng, n)
            zeros = np.zeros(n)
            want = compare_batch(values, zeros, old_values, zeros) < 0
            got = improves(values, zeros, old_values, zeros, False)
            assert np.array_equal(got, want), (values, old_values)

    def test_is_better_agrees_with_compare_batch(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            (a, b), (va, vb) = self.draw(rng, 2)
            want = bool(compare_batch(a, va, b, vb) < 0)
            assert is_better(float(a), float(va), float(b), float(vb)) == want, (a, va, b, vb)

    def test_nan_incumbent_loses(self):
        # Every non-NaN key beats a NaN incumbent in its class; NaN beats nothing.
        old = np.array([np.nan, np.nan, 1.0, np.nan])
        new = np.array([np.inf, np.nan, np.nan, -1.0])
        zeros = np.zeros(4)
        for constrained in (True, False):
            assert improves(new, zeros, old, zeros, constrained).tolist() == [
                True, False, False, True
            ]
        assert is_better(5.0, 0.0, math.nan, 0.0)
        assert not is_better(math.nan, 0.0, 5.0, 0.0)
        assert not is_better(math.nan, 0.0, math.nan, 0.0)


def sphere_nan_where(region, dim=5, half_width=100.0):
    """Sphere whose objective is NaN inside region."""
    return Problem(
        "sphere_nan",
        dim,
        Bounds.symmetric(half_width, dim),
        lambda x: np.where(region(x), np.nan, np.sum(np.square(x), axis=-1)),
    )


class TestNanObjective:
    """Best selection and acceptance rank a NaN objective last, so a NaN
    region of the box can neither become the best, nor hide a better point
    evaluated beside it, nor keep a NaN incumbent in place."""

    def test_nan_in_initial_population(self):
        # argmin used to pick the initial NaN and keep best_value_ = nan.
        # Initial rows that are NaN now give way to any finite candidate,
        # which moved this run from 7.471910442364105e-72 to
        # 7.247813278521219e-72, and prey pools that hold a NaN are drawn by
        # rank rather than always at their first row, which moved it here.
        problem = sphere_nan_where(lambda x: x[..., 0] > 4)
        opt = EcoOptimizer(max_fes=5000, seed=3).fit(problem)
        assert opt.best_value_ == 2.4897895789743247e-76
        assert opt.trace_.best_values[-1] == opt.best_value_

    def test_nan_incumbent_is_replaced(self):
        # Acceptance used to compare with a bare `<`, so a NaN row or best
        # was never replaced: with the whole initial population NaN, this
        # fit reported nan while its final population held 25.23.
        problem = sphere_nan_where(lambda x: x[..., 0] > -5, dim=3, half_width=10.0)
        opt = EcoOptimizer(pop_size=4, max_fes=2000, seed=5).fit(problem)
        assert math.isnan(opt.trace_.best_values[0])
        assert math.isfinite(opt.best_value_)
        assert opt.best_value_ <= np.nanmin(opt.state_.values)
        assert opt.trace_.best_values[-1] == opt.best_value_

    def test_nan_beside_an_improvement(self):
        # A batch holding a NaN used to drop its real improvement, ending at
        # 0.25162, above the population's own minimum.
        problem = sphere_nan_where(lambda x: np.abs(x[..., 0]) < 0.5)
        opt = EcoOptimizer(max_fes=5000, seed=0).fit(problem)
        assert opt.best_value_ == 0.2502469763868306
        assert opt.best_value_ == np.nanmin(opt.state_.values)


class TestBoxOnlyPathEquivalence:
    """The box-only shortcuts must agree with the feasibility-first path.

    Adding a constraint that is satisfied everywhere routes every ordering
    through the feasibility-first code without changing which point is
    better, so both runs must match to the last bit.
    """

    @staticmethod
    def _always_satisfied(problem):
        return Problem(
            name=problem.name + "_g",
            dim=problem.dim,
            bounds=problem.bounds,
            objective=problem.objective,
            constraint_values=lambda x: np.full((1,) + x.shape[:-1], -1.0),
        )

    @pytest.mark.parametrize(
        "fid, dim, max_fes, seed",
        [("f1", 30, 6000, 7), ("f8", 5, 3000, 3), ("f9", 10, 4000, 5)],
    )
    def test_identical_runs(self, fid, dim, max_fes, seed):
        problem = make_classic(fid, dim=dim).problem
        constrained_problem = self._always_satisfied(problem)
        assert not problem.constrained and constrained_problem.constrained
        box = EcoOptimizer(max_fes=max_fes, seed=seed).fit(problem)
        constrained = EcoOptimizer(max_fes=max_fes, seed=seed).fit(constrained_problem)
        assert np.array_equal(box.best_x_, constrained.best_x_)
        assert box.best_value_ == constrained.best_value_
        assert box.n_fes_ == constrained.n_fes_
        for name in ("iters", "fes", "best_values", "best_viols", "div"):
            assert np.array_equal(
                getattr(box.trace_, name), getattr(constrained.trace_, name)
            ), name
