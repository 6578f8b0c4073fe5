"""Problem-layer tests: bounds, budgets, comparison, repair, violation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocycle.problems import (
    TOL_FEAS,
    Bounds,
    BudgetExhausted,
    DimensionMismatch,
    EvalBudget,
    Problem,
    RunStreams,
    as_point,
    argsort_by_compare,
    evaluate_batch,
    resample_outside,
    sample_uniform,
    select_rows,
    violation_of,
)
from oracles import Evaluation, compare, compare_batch, contains


def sphere_problem(dim=2, half=5.0):
    return Problem(
        name="sphere",
        dim=dim,
        bounds=Bounds.symmetric(half, dim),
        objective=lambda x: np.sum(np.square(x), axis=-1),
    )


class TestBounds:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0]), np.array([0.0]))

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 0.0]), np.array([1.0]))

    def test_rejects_non_finite(self):
        # Both optimizers end at nan on an infinite box.
        with pytest.raises(ValueError):
            Bounds.symmetric(np.inf, 2)
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, -np.inf]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Bounds(np.array([0.0]), np.array([np.inf]))

    def test_span_and_dim(self):
        b = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        assert b.dim == 2
        assert np.array_equal(b.span, [2.0, 4.0])

    def test_contains_batches(self):
        b = Bounds.symmetric(1.0, 2)
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [1.1, 0.0]])
        assert np.array_equal(contains(b, xs), [True, True, False])


class TestAsPoint:
    def test_roundtrip(self):
        assert np.array_equal(as_point([1, 2], 2), [1.0, 2.0])

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            as_point([1.0, 2.0, 3.0], 2)

    def test_wrong_ndim(self):
        with pytest.raises(DimensionMismatch):
            as_point([[1.0, 2.0]], 2)


class TestEvalBudget:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EvalBudget(0)

    def test_charge_up_to_partial_grant(self):
        b = EvalBudget(5)
        assert b.charge_up_to(3) == 3
        assert b.charge_up_to(10) == 2  # only 2 left
        with pytest.raises(BudgetExhausted):
            b.charge_up_to(1)

    def test_never_overspends(self):
        b = EvalBudget(7)
        total = 0
        rng = np.random.default_rng(0)
        while True:
            try:
                total += b.charge_up_to(int(rng.integers(1, 4)))
            except BudgetExhausted:
                break
        assert total == 7 == b.used


class TestEvaluate:
    def test_single_point(self):
        p = sphere_problem()
        b = EvalBudget(3)
        granted, values, viols = evaluate_batch(p, np.array([[1.0, 2.0]]), b)
        assert (granted, values.tolist(), viols.tolist()) == (1, [5.0], [0.0])
        assert b.used == 1

    def test_batch_truncates_to_budget(self):
        p = sphere_problem()
        b = EvalBudget(2)
        granted, values, viols = evaluate_batch(p, np.zeros((5, 2)), b)
        assert granted == 2
        assert values.shape == (2,) and viols.shape == (2,)
        assert b.used == 2

    def test_batch_shape_check(self):
        p = sphere_problem()
        with pytest.raises(DimensionMismatch):
            evaluate_batch(p, np.zeros((3, 5)), EvalBudget(10))

    def test_noisy_requires_rng(self):
        p = Problem(
            name="noisy",
            dim=1,
            bounds=Bounds.symmetric(1.0, 1),
            objective=lambda x: np.sum(x, axis=-1),
            noise=lambda rng, n: rng.random(n),
        )
        with pytest.raises(ValueError):
            evaluate_batch(p, np.zeros((1, 1)), EvalBudget(5))
        _, values, _ = evaluate_batch(p, np.zeros((3, 1)), EvalBudget(5), np.random.default_rng(0))
        assert np.all((0.0 <= values) & (values < 1.0))


class TestViolation:
    def test_sums_positive_parts(self):
        p = Problem(
            name="c",
            dim=1,
            bounds=Bounds.symmetric(10.0, 1),
            objective=lambda x: np.sum(x, axis=-1),
            constraint_values=lambda x: np.stack(
                (
                    x[..., 0] - 1.0,   # x <= 1
                    -x[..., 0] - 1.0,  # x >= -1
                )
            ),
        )
        assert violation_of(p, np.array([0.5])) == 0.0
        assert violation_of(p, np.array([3.0])) == pytest.approx(2.0)
        assert violation_of(p, np.array([-4.0])) == pytest.approx(3.0)

    def test_nan_becomes_infinite(self):
        p = Problem(
            name="n",
            dim=1,
            bounds=Bounds.symmetric(1.0, 1),
            objective=lambda x: np.sum(x, axis=-1),
            constraint_values=lambda x: (x[..., 0] / x[..., 0] - 1.0)[None],  # nan at 0
        )
        with np.errstate(invalid="ignore"):
            v = violation_of(p, np.array([0.0]))
        assert np.isinf(v)


    @pytest.mark.parametrize("batch", [(), (1,), (7,), (30,), (2, 3)])
    def test_row_fold_matches_loop(self, batch):
        # Oracle: fold the clipped rows one by one from +0.0, as a loop.
        def loop_violation(g):
            total = np.zeros(g.shape[1:])
            for part in np.maximum(g, 0.0):
                total += part
            return np.where(np.isnan(total), np.inf, total)

        rng = np.random.default_rng(len(batch) * 100 + sum(batch))
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300])
        for _ in range(200):
            m = int(rng.integers(1, 12))
            g = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(m,) + batch)
            mask = rng.random(g.shape) < 0.1
            g[mask] = rng.choice(specials, size=int(mask.sum()))
            p = Problem(
                name="g",
                dim=2,
                bounds=Bounds.symmetric(1.0, 2),
                objective=lambda x: np.sum(x, axis=-1),
                constraint_values=lambda x, g=g: g,
            )
            with np.errstate(invalid="ignore"):
                got = violation_of(p, np.zeros(batch + (2,)))
                want = loop_violation(g)
            assert type(got) is np.ndarray and got.shape == batch
            assert got.tobytes() == want.tobytes(), g


class TestCompare:
    def e(self, value, viol=0.0):
        return Evaluation(value=value, violation=viol)

    def test_feasible_beats_infeasible(self):
        assert compare(self.e(100.0), self.e(0.0, viol=1.0)) == -1
        assert compare(self.e(0.0, viol=1.0), self.e(100.0)) == 1

    def test_feasible_by_value(self):
        assert compare(self.e(1.0), self.e(2.0)) == -1
        assert compare(self.e(2.0), self.e(1.0)) == 1
        assert compare(self.e(1.0), self.e(1.0)) == 0

    def test_infeasible_by_violation(self):
        assert compare(self.e(0.0, 2.0), self.e(100.0, 3.0)) == -1
        assert compare(self.e(0.0, 3.0), self.e(0.0, 2.0)) == 1

    def test_tolerance_counts_as_feasible(self):
        # A violation at TOL_FEAS competes on objective value.
        assert compare(self.e(1.0, TOL_FEAS), self.e(2.0, 0.0)) == -1

    def test_both_infinitely_violated(self):
        assert compare(self.e(0.0, np.inf), self.e(1.0, np.inf)) == 0

    def test_nan_key_ranks_last_in_its_class(self):
        nan = float("nan")
        assert compare(self.e(np.inf), self.e(nan)) == -1
        assert compare(self.e(nan), self.e(np.inf)) == 1
        assert compare(self.e(nan), self.e(nan)) == 0
        assert compare(self.e(nan), self.e(0.0, viol=1.0)) == -1
        assert compare(self.e(0.0, np.inf), self.e(0.0, nan)) == -1
        assert compare(self.e(0.0, nan), self.e(0.0, nan)) == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6),
                st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.just(np.inf)),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_compare_batch_matches_scalar(self, pairs):
        values = np.array([v for v, _ in pairs])
        viols = np.array([w for _, w in pairs])
        a_idx = np.arange(len(pairs))
        b_idx = np.roll(a_idx, 1)
        batch = compare_batch(values[a_idx], viols[a_idx], values[b_idx], viols[b_idx])
        for i, j, out in zip(a_idx, b_idx, batch):
            expected = compare(
                Evaluation(values[i], viols[i]), Evaluation(values[j], viols[j])
            )
            assert out == expected

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]),
                    st.floats(allow_nan=True),
                ),
                st.sampled_from([0.0, -0.0, 1e-9, TOL_FEAS]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_all_feasible_order_matches_lexsort(self, pairs):
        # The all-feasible shortcut sorts by value alone.
        values = np.array([v for v, _ in pairs])
        viols = np.array([w for _, w in pairs])
        feasible = viols <= TOL_FEAS
        want = np.lexsort((np.where(feasible, values, viols), ~feasible))
        assert argsort_by_compare(values, viols).tolist() == want.tolist()

    def test_argsort_matches_pairwise_order(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=30)
        viols = np.where(rng.random(30) < 0.5, 0.0, rng.random(30))
        order = argsort_by_compare(values, viols)
        for a, b in zip(order[:-1], order[1:]):
            assert (
                compare(Evaluation(values[a], viols[a]), Evaluation(values[b], viols[b]))
                <= 0
            )


class TestRepair:
    def test_inside_point_untouched(self):
        b = Bounds.symmetric(1.0, 3)
        xs = np.array([[0.1, -0.5, 0.9]])
        assert resample_outside(xs, b, np.random.default_rng(0)) is xs

    def test_outside_point_resampled_inside(self):
        # One coordinate out of range redraws the whole row.
        b = Bounds.symmetric(1.0, 3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = resample_outside(np.array([[2.0, 0.0, 0.0]]), b, rng)
            assert bool(contains(b, y[0]))
            assert y[0, 1] != 0.0 and y[0, 2] != 0.0

    def test_batch_keeps_inside_rows(self):
        b = Bounds.symmetric(1.0, 2)
        xs = np.array([[0.0, 0.0], [5.0, 0.0], [0.3, -0.3]])
        out = resample_outside(xs, b, np.random.default_rng(2))
        assert np.array_equal(out[0], xs[0])
        assert np.array_equal(out[2], xs[2])
        assert bool(contains(b, out[1]))

    @pytest.mark.parametrize(
        "b",
        [
            Bounds.symmetric(1.0, 3),
            Bounds(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0])),
        ],
    )
    def test_batch_test_agrees_with_rowwise_contains(self, b):
        # faces are inside; one ulp beyond a face, or a NaN, is outside
        lo, hi = b.lower, b.upper
        batches = [
            np.vstack([lo, hi]),
            np.vstack([lo, np.nextafter(hi, np.inf)]),
            np.vstack([np.nextafter(lo, -np.inf), hi]),
            np.vstack([lo, np.where(np.arange(3) == 1, np.nan, hi)]),
            np.empty((0, 3)),
        ]
        rng = np.random.default_rng(4)
        for xs in batches:
            inside = contains(b, xs)
            out = resample_outside(xs, b, rng)
            assert (out is xs) == bool(inside.all())
            assert np.array_equal(out[inside], xs[inside])
            assert contains(b, out).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_sample_uniform_inside(self, seed):
        b = Bounds(np.array([-3.0, 10.0]), np.array([-1.0, 11.0]))
        xs = sample_uniform(b, 40, np.random.default_rng(seed))
        assert xs.shape == (40, 2)
        assert contains(b, xs).all()


class TestRunStreams:
    """A stack's streams against each run's Generator drawn on its own."""

    @staticmethod
    def streams(seeds, counts=None):
        return RunStreams([np.random.default_rng(s) for s in seeds], counts)

    @pytest.mark.parametrize("size", [(12, 5), 12, (6, 2, 3)])
    def test_equal_shares_match_per_run_draws(self, size):
        seeds = (4, 0, 9)
        got = self.streams(seeds).random(size)
        shape = (size,) if isinstance(size, int) else size
        block = (shape[0] // 3,) + tuple(shape[1:])
        want = np.concatenate([np.random.default_rng(s).random(block) for s in seeds])
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_split_counts_skip_runs_owning_no_rows(self):
        seeds, counts = (4, 0, 9, 2), [2, 0, 3, 0]
        streams = self.streams(seeds, counts)
        got = streams.random((5, 4))
        want = np.concatenate(
            [np.random.default_rng(s).random((c, 4)) for s, c in zip(seeds, counts) if c]
        )
        assert got.tobytes() == want.tobytes()
        # A run owning no rows drew nothing: its next draw is its first.
        for rng, s, c in zip(streams.rngs, seeds, counts):
            if not c:
                assert rng.random() == np.random.default_rng(s).random()

    def test_integers_match_per_run_draws(self):
        seeds, counts = (1, 2, 3), [1, 0, 2]
        got = self.streams(seeds, counts).integers(1, 3, size=(3, 7))
        want = np.concatenate(
            [np.random.default_rng(s).integers(1, 3, size=(c, 7)) for s, c in zip(seeds, counts) if c]
        )
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "counts, size",
        [([1, 2], (4, 3)), ([3, 2], 4), (None, (4, 3)), (None, 5)],
    )
    def test_rows_not_owned_raise(self, counts, size):
        # counts that miss the batch's rows (or an uneven equal share) would
        # leave part of the preallocated block unfilled.
        streams = self.streams((0, 1) if counts else (0, 1, 2), counts)
        with pytest.raises(ValueError, match="rows"):
            streams.random(size)

    @given(
        n_runs=st.integers(1, 6),
        n=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_share_selection_matches_split_path(self, n_runs, n, seed):
        mask = np.random.default_rng(seed).random(n_runs * n) < 0.4
        rngs = [np.random.default_rng(r) for r in range(n_runs)]
        equal = select_rows(RunStreams(rngs), mask)
        split = select_rows(RunStreams(rngs, [n] * n_runs), mask)
        assert equal.counts == split.counts
        assert equal.counts == [int(m.sum()) for m in mask.reshape(n_runs, n)]
        assert all(type(c) is int for c in equal.counts)

    def test_lone_generator_selects_itself(self):
        rng = np.random.default_rng(0)
        assert select_rows(rng, np.array([True, False])) is rng


class TestProblemValidation:
    def test_dim_bounds_mismatch(self):
        with pytest.raises(ValueError):
            Problem(
                name="bad",
                dim=3,
                bounds=Bounds.symmetric(1.0, 2),
                objective=lambda x: np.sum(x, axis=-1),
            )

    def test_noisy_flag(self):
        assert not sphere_problem().noisy
