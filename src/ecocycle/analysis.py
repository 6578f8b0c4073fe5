"""Run statistics, nonparametric comparisons, and diversity metrics.

Everything here is a pure function of its inputs: per-batch Min/Ave/Std
summaries, a two-sided Wilcoxon rank-sum test (exact enumeration for small
samples, tie-corrected normal approximation otherwise), the Friedman
mean-rank procedure over a functions-by-algorithms table, win/tie/loss
tallies, and the population-diversity measure used to split a run into
exploration and exploitation phases.

Only the Friedman p-value needs SciPy; ``friedman`` imports it on its first
call, so importing this module (and the package) loads NumPy alone.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Optional, Sequence

import numpy as np


class EmptySample(ValueError):
    """Raised when a statistic is requested over zero observations."""


class InsufficientGroups(ValueError):
    """Raised when a group comparison has fewer than two groups."""


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """Min / Ave / Std triple over a batch of run results."""

    min: float
    ave: float
    std: float
    n: int


def summarize(values) -> RunSummary:
    """Min, mean, and sample (n-1 denominator) standard deviation."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySample("cannot summarize an empty sample")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return RunSummary(
        min=float(np.min(arr)), ave=float(np.mean(arr)), std=std, n=int(arr.size)
    )


@dataclasses.dataclass(frozen=True)
class PairwiseVerdict:
    """Outcome of one two-sample comparison.

    verdict is "+" when the first sample is significantly better (smaller
    mean), "-" when significantly worse, "=" when the test finds no
    significant difference at the given alpha.
    """

    p_value: float
    verdict: str
    alpha: float


def _midranks(combined: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D sample, tied values sharing the mean of their
    positions; any NaN makes every rank NaN (SciPy's rankdata defaults)."""
    if np.isnan(combined).any():
        return np.full(combined.shape[0], np.nan)
    order = np.argsort(combined, kind="stable")
    ordered = combined[order]
    return _tie_midranks(order, ordered[1:] != ordered[:-1])


def _tie_midranks(order: np.ndarray, differs: np.ndarray) -> np.ndarray:
    """1-based mid-ranks of items sorted into `order`, where differs[i] says
    whether sorted positions i and i + 1 hold different items; each run of
    equal items shares the mean of its positions."""
    n = order.shape[0]
    starts = np.flatnonzero(np.concatenate(([True], differs)))
    ends = np.append(starts[1:], n)
    # A tie group covering sorted positions start..end-1 holds ranks
    # start+1..end, whose mean is (start + end + 1) / 2, exact in floats.
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _exact_two_sided_p(doubled: np.ndarray, n1: int, w_doubled: int) -> float:
    """Exact two-sided p for the rank-sum W of the first sample.

    doubled holds 2x the mid-ranks of the combined sample (integers even with
    ties), w_doubled the observed doubled rank sum. Counts subsets by dynamic
    programming over (subset size, doubled rank sum), which enumerates all
    C(n, n1) assignments implicitly.
    """
    total = int(np.sum(doubled))
    # dp[c][s] = number of c-subsets of the processed prefix with sum s
    dp = np.zeros((n1 + 1, total + 1), dtype=np.int64)
    dp[0, 0] = 1
    for r in doubled:
        r = int(r)
        for c in range(n1, 0, -1):
            dp[c, r:] += dp[c - 1, : total + 1 - r]
    counts = dp[n1]
    n_subsets = counts.sum()
    p_le = counts[: w_doubled + 1].sum() / n_subsets
    p_ge = counts[w_doubled:].sum() / n_subsets
    return float(min(1.0, 2.0 * min(p_le, p_ge)))


def _approx_two_sided_p(ranks: np.ndarray, n1: int, n2: int, w: float) -> float:
    """Normal approximation with tie correction and 0.5 continuity shift."""
    n = n1 + n2
    mu = n1 * (n + 1) / 2.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return 1.0
    diff = w - mu
    if diff == 0.0:
        return 1.0
    z = (diff - 0.5 * math.copysign(1.0, diff)) / math.sqrt(var)
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def wilcoxon_rank_sum(a, b, alpha: float = 0.05) -> PairwiseVerdict:
    """Two-sided Wilcoxon rank-sum comparison of two independent samples.

    Uses the exact null distribution (all C(n, n1) rank splits) when the
    combined size is at most 16 and the tie-corrected normal approximation
    with continuity correction beyond that. The verdict sign goes to the
    sample with the smaller mean when the difference is significant.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be nonempty")
    n1, n2 = a.size, b.size
    combined = np.concatenate([a, b])
    ranks = _midranks(combined)
    w = float(np.sum(ranks[:n1]))
    if n1 + n2 <= 16:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        p = _exact_two_sided_p(doubled, n1, int(round(2.0 * w)))
    else:
        p = _approx_two_sided_p(ranks, n1, n2, w)
    if p < alpha:
        mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
        if mean_a < mean_b:
            verdict = "+"
        elif mean_a > mean_b:
            verdict = "-"
        else:
            verdict = "="
    else:
        verdict = "="
    return PairwiseVerdict(p_value=p, verdict=verdict, alpha=alpha)


@dataclasses.dataclass(frozen=True)
class WinTieLoss:
    wins: int
    ties: int
    losses: int


def win_tie_loss(
    reference: str,
    samples: Mapping[str, Sequence],
    alpha: float = 0.05,
) -> dict[str, WinTieLoss]:
    """Per-opponent win/tie/loss tallies for the reference algorithm.

    samples maps algorithm name to a list of per-problem result arrays,
    aligned by position. A win means the reference is significantly better
    on that problem under wilcoxon_rank_sum.
    """
    if reference not in samples:
        raise KeyError(f"reference {reference!r} missing from samples")
    ref_rows = samples[reference]
    out = {}
    for name, rows in samples.items():
        if name == reference:
            continue
        if len(rows) != len(ref_rows):
            raise ValueError(
                f"sample lists misaligned: {reference} has {len(ref_rows)} "
                f"problems, {name} has {len(rows)}"
            )
        w = t = l = 0
        for ref_sample, opp_sample in zip(ref_rows, rows):
            verdict = wilcoxon_rank_sum(ref_sample, opp_sample, alpha).verdict
            if verdict == "+":
                w += 1
            elif verdict == "-":
                l += 1
            else:
                t += 1
        out[name] = WinTieLoss(wins=w, ties=t, losses=l)
    return out


@dataclasses.dataclass(frozen=True)
class FriedmanResult:
    """Friedman mean-rank comparison over a functions-by-algorithms table."""

    mean_ranks: np.ndarray
    statistic: float
    p_value: float
    global_rank: np.ndarray  # algorithm indices, best (lowest mean rank) first


def _row_ranks(keys: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks for one row of lexicographic key tuples.

    Rows equal on the full key receive the mid-rank of their positions; a
    key holding NaN equals nothing, itself included.
    """
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    return _tie_midranks(order, (ordered[1:] != ordered[:-1]).any(axis=1))


def friedman(
    ave_matrix,
    min_matrix=None,
    std_matrix=None,
) -> FriedmanResult:
    """Friedman mean ranks with chi-square statistic and p-value.

    ave_matrix is (functions x algorithms); smaller Ave gets the better
    (lower) rank. When min_matrix/std_matrix are supplied they break Ave
    ties in that order; rows still equal after the full chain share
    mid-ranks.
    """
    ave = np.asarray(ave_matrix, dtype=float)
    if ave.ndim != 2:
        raise ValueError("ave_matrix must be 2-dimensional (functions x algorithms)")
    n, m = ave.shape
    if m < 2:
        raise InsufficientGroups("friedman needs at least two algorithms")
    if n < 1:
        raise EmptySample("friedman needs at least one function row")
    keys = [ave[..., None]]
    for extra in (min_matrix, std_matrix):
        if extra is not None:
            extra = np.asarray(extra, dtype=float)
            if extra.shape != ave.shape:
                raise ValueError("tie-break matrices must match ave_matrix's shape")
            keys.append(extra[..., None])
    stacked = np.concatenate(keys, axis=-1)  # (n, m, n_keys)
    ranks = np.vstack([_row_ranks(stacked[i]) for i in range(n)])
    mean_ranks = ranks.mean(axis=0)
    statistic = 12.0 * n / (m * (m + 1)) * (
        float(np.sum(mean_ranks**2)) - m * (m + 1) ** 2 / 4.0
    )
    # Imported at its only use so that importing the package and fitting
    # never load SciPy. chdtrc is the chi-square survival function; it
    # returns NaN below zero, where the survival probability is 1.
    from scipy.special import chdtrc

    p_value = float(chdtrc(m - 1, max(statistic, 0.0)))
    return FriedmanResult(
        mean_ranks=mean_ranks,
        statistic=float(statistic),
        p_value=p_value,
        global_rank=np.argsort(mean_ranks, kind="stable"),
    )


def population_diversity(x):
    """Mean absolute deviation from the per-dimension median.

    For a population matrix (individuals x dimensions) this averages, over
    dimensions, the mean distance of the individuals from that dimension's
    median: the diversity measure driving the exploration/exploitation
    split. A stack of populations, (runs x individuals x dimensions), gives
    one diversity per run, each with the bits of its matrix on its own.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError("expected a (individuals, dimensions) matrix or a stack of them")
    n = x.shape[-2]
    # Median from a column sort and the mean as a bare sum over size: this
    # sits on the optimizer's per-iteration hot path, where np.median and
    # np.mean cost more in dispatch than in arithmetic on a 30 x 30 matrix.
    half = n // 2
    ordered = x.swapaxes(-1, -2).copy()  # one contiguous row per dimension
    ordered.sort()
    if n % 2:
        med = ordered[..., half]
    else:
        med = 0.5 * (ordered[..., half - 1] + ordered[..., half])
    dev = np.abs(x - med[..., None, :])
    if x.ndim == 2:
        return float(np.add.reduce(dev, axis=None) / dev.size)
    return np.add.reduce(dev.reshape(x.shape[0], -1), axis=1) / (n * x.shape[2])


@dataclasses.dataclass(frozen=True)
class DiversityCurve:
    """Diversity trajectory with exploration/exploitation percentages.

    exploration_pct(k) = 100 * div(k) / div_max and exploitation_pct is its
    exact complement, so the two sum to 100 at every iteration. A run whose
    diversity is identically zero is treated as pure exploitation.
    """

    div: np.ndarray
    div_max: float
    exploration_pct: np.ndarray
    exploitation_pct: np.ndarray

    @classmethod
    def from_div(cls, div) -> "DiversityCurve":
        div = np.asarray(div, dtype=float)
        if div.size == 0:
            raise EmptySample("diversity curve needs at least one iteration")
        div_max = float(np.max(div))
        if div_max > 0.0:
            exploration = 100.0 * div / div_max
        else:
            exploration = np.zeros_like(div)
        return cls(
            div=div,
            div_max=div_max,
            exploration_pct=exploration,
            exploitation_pct=100.0 - exploration,
        )

    def __len__(self) -> int:
        return len(self.div)

