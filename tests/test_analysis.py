"""Tests for the statistics and diversity module.

The Wilcoxon tests are checked against a brute-force oracle that enumerates
every assignment of pooled mid-ranks with itertools.combinations, computed
here without touching the implementation's ranking helpers.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ecocycle.analysis import (
    DiversityCurve,
    _midranks,
    _row_ranks,
    EmptySample,
    FriedmanResult,
    InsufficientGroups,
    PairwiseVerdict,
    RunSummary,
    WinTieLoss,
    friedman,
    population_diversity,
    summarize,
    wilcoxon_rank_sum,
    win_tie_loss,
)
from oracles import row_ranks_loop


def midranks(values):
    """Mid-ranks of a sequence, computed from first principles."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mid
        i = j + 1
    return ranks


def brute_force_p(a, b):
    """Two-sided rank-sum p by full enumeration of C(n, n1) subsets."""
    pooled = list(a) + list(b)
    ranks = midranks(pooled)
    n1 = len(a)
    w_obs = sum(ranks[:n1])
    n_le = n_ge = n_total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        w = sum(ranks[i] for i in combo)
        n_total += 1
        if w <= w_obs + 1e-9:
            n_le += 1
        if w >= w_obs - 1e-9:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le / n_total, n_ge / n_total))


class TestSummarize:
    def test_hand_oracle(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.min == 1.0
        assert s.ave == 2.5
        assert s.std == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-15)
        assert s.n == 4

    def test_single_observation(self):
        s = summarize([7.5])
        assert s == RunSummary(min=7.5, ave=7.5, std=0.0, n=1)

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            summarize([])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_permutation_invariant(self, values):
        a = summarize(values)
        b = summarize(sorted(values))
        assert a.min == b.min
        assert a.n == b.n
        assert a.ave == pytest.approx(b.ave, rel=1e-9, abs=1e-9)
        assert a.std == pytest.approx(b.std, rel=1e-9, abs=1e-9)


class TestWilcoxonExact:
    CASES = [
        ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]),  # fully separated
        ([1, 3, 5, 7, 9], [2, 4, 6, 8, 10]),  # interleaved
        ([1, 2, 2, 3], [2, 3, 3, 4]),  # cross-sample ties
        ([5, 5, 5], [5, 5, 5]),  # all tied
        ([1, 2, 3], [1, 2, 3, 10, 11, 12, 13, 14]),  # unequal sizes
        ([42], [1, 2, 3, 50, 60]),  # singleton sample
        ([0.1, 0.2, 0.2, 0.9, 1.4], [0.2, 0.2, 0.3]),  # repeated mid-ranks
        ([3, 1, 4, 1, 5, 9, 2], [2, 7, 1, 8, 2, 8, 1]),  # 7 + 7
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_matches_brute_force(self, a, b):
        expected = brute_force_p(a, b)
        got = wilcoxon_rank_sum(a, b).p_value
        assert got == pytest.approx(expected, abs=1e-12)

    def test_fully_separated_p_value(self):
        # most extreme split of 10 ranks into 5+5: p = 2 / C(10,5)
        res = wilcoxon_rank_sum([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert res.p_value == pytest.approx(2.0 / 252.0, abs=1e-15)
        assert res.verdict == "+"

    def test_identical_samples_tie(self):
        res = wilcoxon_rank_sum([5, 5, 5], [5, 5, 5])
        assert res.p_value == 1.0
        assert res.verdict == "="

    def test_symmetry(self):
        a, b = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
        ab = wilcoxon_rank_sum(a, b)
        ba = wilcoxon_rank_sum(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-15)
        assert ab.verdict == "+"
        assert ba.verdict == "-"

    def test_alpha_threshold(self):
        a, b = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
        p = wilcoxon_rank_sum(a, b).p_value
        assert wilcoxon_rank_sum(a, b, alpha=p / 2).verdict == "="
        assert wilcoxon_rank_sum(a, b, alpha=p * 2).verdict == "+"

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            wilcoxon_rank_sum([], [1.0])
        with pytest.raises(EmptySample):
            wilcoxon_rank_sum([1.0], [])

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 20, size=rng.integers(1, 8))
            b = rng.integers(0, 20, size=rng.integers(1, 8))
            p = wilcoxon_rank_sum(a, b).p_value
            assert 0.0 < p <= 1.0


class TestWilcoxonApprox:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_close_to_exhaustive_beyond_cutoff(self, seed):
        # 18 distinct values force the approximation; enumeration of all
        # C(18,9) splits bounds its error
        rng = np.random.default_rng(seed)
        pooled = rng.permutation(100)[:18].astype(float)
        a, b = pooled[:9], pooled[9:]
        approx = wilcoxon_rank_sum(a, b).p_value
        exact = brute_force_p(a, b)
        assert approx == pytest.approx(exact, abs=0.02)

    def test_large_sample_direction(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, size=25)
        b = rng.normal(5.0, 1.0, size=25)
        res = wilcoxon_rank_sum(a, b)
        assert res.p_value < 1e-6
        assert res.verdict == "+"

    def test_same_distribution_usually_tied(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=30)
        b = rng.normal(0.0, 1.0, size=30)
        res = wilcoxon_rank_sum(a, b)
        assert res.p_value > 0.05
        assert res.verdict == "="


class TestWinTieLoss:
    def test_crafted_tallies(self):
        better = [1.0, 2.0, 3.0, 4.0, 5.0]
        worse = [101.0, 102.0, 103.0, 104.0, 105.0]
        samples = {
            "ref": [better, worse, better],
            "opp": [worse, better, better],
        }
        out = win_tie_loss("ref", samples)
        assert out == {"opp": WinTieLoss(wins=1, ties=1, losses=1)}

    def test_multiple_opponents(self):
        better = [1.0, 2.0, 3.0, 4.0, 5.0]
        worse = [11.0, 12.0, 13.0, 14.0, 15.0]
        samples = {
            "ref": [better, better],
            "a": [worse, worse],
            "b": [better, worse],
        }
        out = win_tie_loss("ref", samples)
        assert out["a"] == WinTieLoss(wins=2, ties=0, losses=0)
        assert out["b"] == WinTieLoss(wins=1, ties=1, losses=0)

    def test_missing_reference(self):
        with pytest.raises(KeyError):
            win_tie_loss("nope", {"a": [[1.0]]})

    def test_misaligned_rows(self):
        with pytest.raises(ValueError, match="misaligned"):
            win_tie_loss("ref", {"ref": [[1.0], [2.0]], "opp": [[1.0]]})


class TestMidranks:
    """The NumPy mid-ranks against SciPy's rankdata, byte for byte."""

    POOL = np.array([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, np.inf, -np.inf])

    def test_matches_rankdata(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            if rng.random() < 0.5:
                sample = rng.choice(rng.choice(self.POOL, size=int(rng.integers(1, 5))), n)
            else:
                sample = rng.standard_normal(n)
            want = sps.rankdata(sample, method="average")
            assert _midranks(sample).tobytes() == want.tobytes(), sample

    def test_nan_makes_every_rank_nan(self):
        ranks = _midranks(np.array([1.0, np.nan, 0.0, 1.0]))
        assert np.isnan(ranks).all()
        assert np.isnan(sps.rankdata([1.0, np.nan, 0.0, 1.0])).all()

    def test_row_ranks_match_pairwise_loop(self):
        # Friedman's tie-break rows: NaN, -0.0 and repeated key tuples.
        pool = np.append(self.POOL, np.nan)
        rng = np.random.default_rng(8)
        for _ in range(3000):
            m, n_keys = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            keys = rng.choice(rng.choice(pool, size=int(rng.integers(1, 4))), (m, n_keys))
            assert _row_ranks(keys).tobytes() == row_ranks_loop(keys).tobytes(), keys


class TestFriedman:
    def test_p_value_matches_chi2_survival(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n, m = int(rng.integers(1, 12)), int(rng.integers(2, 7))
            ave = rng.integers(0, 4, size=(n, m)).astype(float)
            res = friedman(ave)
            assert res.p_value == float(sps.chi2.sf(res.statistic, m - 1))

    def test_perfect_ordering_statistic(self):
        # ten rows all ranking the three algorithms 1,2,3 give mean ranks
        # (1,2,3) and statistic 12*10/(3*4) * (14 - 12) = 20
        ave = np.tile([1.0, 2.0, 3.0], (10, 1))
        res = friedman(ave)
        assert res.mean_ranks == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)
        assert res.statistic == pytest.approx(20.0, abs=1e-12)
        assert res.p_value == pytest.approx(float(sps.chi2.sf(20.0, 2)), rel=1e-12)
        assert res.global_rank.tolist() == [0, 1, 2]

    def test_two_algorithm_ranks_sum_to_three(self):
        rng = np.random.default_rng(4)
        ave = rng.normal(size=(12, 2))
        res = friedman(ave)
        assert res.mean_ranks.sum() == pytest.approx(3.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        ave = rng.uniform(-3, 3, size=(8, 4))
        base = friedman(ave)
        warped = friedman(np.exp(ave))
        assert base.mean_ranks == pytest.approx(warped.mean_ranks, abs=1e-15)
        assert base.statistic == pytest.approx(warped.statistic, abs=1e-12)

    def test_tie_break_chain(self):
        ave = np.array([[1.0, 1.0]])
        # min breaks the ave tie
        res = friedman(ave, min_matrix=np.array([[0.5, 0.7]]))
        assert res.mean_ranks.tolist() == [1.0, 2.0]
        # std breaks a tie surviving ave and min
        res = friedman(
            ave,
            min_matrix=np.array([[2.0, 2.0]]),
            std_matrix=np.array([[0.1, 0.0]]),
        )
        assert res.mean_ranks.tolist() == [2.0, 1.0]
        # a full tie shares mid-ranks
        res = friedman(ave)
        assert res.mean_ranks.tolist() == [1.5, 1.5]

    def test_mid_ranks_within_row(self):
        res = friedman(np.array([[2.0, 1.0, 2.0]]))
        assert res.mean_ranks.tolist() == [2.5, 1.0, 2.5]
        assert res.global_rank[0] == 1

    def test_insufficient_groups(self):
        with pytest.raises(InsufficientGroups):
            friedman(np.ones((5, 1)))

    def test_empty_rows(self):
        with pytest.raises(EmptySample):
            friedman(np.empty((0, 3)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            friedman(np.ones(4))
        with pytest.raises(ValueError, match="shape"):
            friedman(np.ones((3, 2)), min_matrix=np.ones((2, 2)))

    def test_result_type(self):
        res = friedman(np.array([[1.0, 2.0]]))
        assert isinstance(res, FriedmanResult)


class TestPopulationDiversity:
    def test_hand_oracle_odd(self):
        assert population_diversity([[0.0], [1.0], [2.0]]) == pytest.approx(2.0 / 3.0)

    def test_hand_oracle_even(self):
        assert population_diversity([[0.0], [1.0], [2.0], [3.0]]) == pytest.approx(1.0)

    def test_hand_oracle_two_dims(self):
        x = [[0.0, 0.0], [2.0, 4.0]]
        assert population_diversity(x) == pytest.approx(1.5)

    def test_coincident_population_is_zero(self):
        assert population_diversity(np.ones((8, 3))) == 0.0

    def test_matches_median_based_reference(self):
        rng = np.random.default_rng(6)
        for n in (5, 6, 31, 40):
            x = rng.normal(size=(n, 7))
            expected = float(np.mean(np.abs(x - np.median(x, axis=0))))
            assert population_diversity(x) == pytest.approx(expected, rel=1e-12)

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            population_diversity(np.ones(5))


class TestDiversityCurve:
    def test_hand_oracle(self):
        curve = DiversityCurve.from_div([2.0, 4.0, 1.0])
        assert curve.div_max == 4.0
        assert curve.exploration_pct == pytest.approx([50.0, 100.0, 25.0])
        assert curve.exploitation_pct == pytest.approx([50.0, 0.0, 75.0])
        assert len(curve) == 3

    def test_peak_diversity_is_pure_exploration(self):
        curve = DiversityCurve.from_div([1.0, 3.0, 2.0])
        k = int(np.argmax(curve.div))
        assert curve.exploration_pct[k] == 100.0

    def test_zero_diversity_run_is_pure_exploitation(self):
        curve = DiversityCurve.from_div([0.0, 0.0])
        assert np.all(curve.exploration_pct == 0.0)
        assert np.all(curve.exploitation_pct == 100.0)

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            DiversityCurve.from_div([])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60)
    def test_percentages_sum_to_100(self, div):
        curve = DiversityCurve.from_div(div)
        assert curve.exploration_pct + curve.exploitation_pct == pytest.approx(
            np.full(len(div), 100.0), abs=1e-9
        )
        assert np.all(curve.exploration_pct >= 0.0)
        assert np.all(curve.exploration_pct <= 100.0 + 1e-9)

    # A run's curve is built from one population_diversity value per
    # population snapshot, as the optimizers record it in trace_.div.
    def test_from_history(self):
        history = np.array(
            [
                [[0.0], [1.0], [2.0]],
                [[1.0], [1.0], [1.0]],
            ]
        )
        curve = DiversityCurve.from_div([population_diversity(x) for x in history])
        assert curve.div == pytest.approx([2.0 / 3.0, 0.0])

    def test_history_shape_validated(self):
        # Snapshots of a (4, 3) history are vectors, not populations.
        with pytest.raises(ValueError):
            DiversityCurve.from_div([population_diversity(x) for x in np.ones((4, 3))])


class TestVerdictDataclass:
    def test_fields(self):
        v = PairwiseVerdict(p_value=0.01, verdict="+", alpha=0.05)
        assert v.p_value == 0.01
        assert v.alpha == 0.05
