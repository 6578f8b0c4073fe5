"""Problem abstraction: bounded objectives, constraints, and FE accounting.

Every optimizer in this package consumes the same `Problem` contract: a box,
an objective, and optional inequality constraints with the convention
g_i(x) <= 0 meaning satisfied. Evaluation counting is explicit so budgets are
enforced at the only place function values can be produced.

Objectives must accept arrays of shape (..., D) and return values of shape
(...), i.e. they are vectorized over leading axes. A problem's m constraints
come from one callable, `constraint_values`, that maps (..., D) to an (m, ...)
array: row i holds g_i at every point, in the problem's constraint order, so
rows can share subexpressions and the violation is one pass over one matrix.
All functions shipped with this package follow that contract.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

# Feasibility tolerance: engineering optima sit on active constraints, so an
# exact zero violation is numerically unreachable.
TOL_FEAS = 1e-8


class BudgetExhausted(Exception):
    """Raised when a function evaluation is requested with no budget left."""


class DimensionMismatch(ValueError):
    """Raised when a point's length does not match the problem dimension."""


def as_point(x, dim: int) -> np.ndarray:
    """Validate and convert a single point to a float array of length dim."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionMismatch(
            f"expected a point of length {dim}, got shape {arr.shape}"
        )
    return arr


@dataclasses.dataclass(frozen=True)
class Bounds:
    """Finite box constraints: lower[j] < upper[j] for every dimension j."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length >= 1")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ValueError("every bound must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @functools.cached_property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @functools.cached_property
    def _common_interval(self) -> Optional[tuple[float, float]]:
        """(low, high) when every dimension shares one range, else None."""
        low, high = float(self.lower[0]), float(self.upper[0])
        if np.all(self.lower == low) and np.all(self.upper == high):
            return low, high
        return None

    @classmethod
    def symmetric(cls, half_width: float, dim: int) -> "Bounds":
        return cls(np.full(dim, -half_width), np.full(dim, half_width))

    @classmethod
    def uniform(cls, low: float, high: float, dim: int) -> "Bounds":
        return cls(np.full(dim, low), np.full(dim, high))


@dataclasses.dataclass(frozen=True)
class Problem:
    """A bounded minimization problem with optional inequality constraints.

    objective maps (..., D) arrays to (...) values. constraint_values, when
    present, maps (..., D) arrays to the (m, ...) matrix of all m constraint
    values, one row per g_i in constraint order; g_i(x) <= 0 means satisfied.
    noise, when present, draws one additive objective term per evaluation
    from the caller's RNG stream (classic F7 is the only shipped user); such
    problems report noisy = True.
    """

    name: str
    dim: int
    bounds: Bounds
    objective: Callable[[np.ndarray], np.ndarray]
    constraint_values: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_optimum: Optional[float] = None
    noise: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.bounds.dim != self.dim:
            raise ValueError("bounds dimension does not match problem dim")

    @property
    def constrained(self) -> bool:
        return self.constraint_values is not None

    @property
    def noisy(self) -> bool:
        return self.noise is not None


@dataclasses.dataclass
class EvalBudget:
    """Function evaluation counter with a hard ceiling."""

    max_fes: int
    used: int = 0

    def __post_init__(self):
        if self.max_fes < 1:
            raise ValueError("max_fes must be a positive integer")

    @property
    def remaining(self) -> int:
        return self.max_fes - self.used

    def charge_up_to(self, n: int) -> int:
        """Debit up to n evaluations; returns how many were granted (>= 1)."""
        if self.remaining <= 0:
            raise BudgetExhausted(f"budget of {self.max_fes} evaluations exhausted")
        granted = min(n, self.remaining)
        self.used += granted
        return granted


def violation_of(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Aggregate violation sum(max(0, g_i(x))) for (..., D) input.

    Non-finite constraint values (division blowups at box corners) are
    treated as infinitely violated rather than propagating NaN into
    comparisons.
    """
    x = np.asarray(x, dtype=float)
    if problem.constraint_values is None:
        return np.zeros(x.shape[:-1], dtype=float)
    parts = np.maximum(problem.constraint_values(x), 0.0)
    # Fold the rows strictly in constraint order, in place (a pairwise sum
    # would round differently); the Ellipsis keeps one point's total 0-d. A
    # total is NaN exactly when some g_i is, and argmax stops at a NaN.
    total = np.add.accumulate(parts, axis=0, out=parts)[-1, ...]
    if total.size and math.isnan(total.item(total.argmax())):
        np.copyto(total, np.inf, where=total != total)
    return total


class RunStreams:
    """The random streams of a stack of runs, standing in for one Generator
    over a run-major batch whose rows are shared out among the runs, each
    run drawing from its own Generator.

    random(size) and integers(low, high, size) split size[0] into the runs'
    rows and draw each run's block from that run's Generator, in run order;
    a run owning no rows draws nothing. Each run thus makes exactly the draws
    a lone run makes for its own rows, and a stack of runs gets the same bits
    per run as its runs fitted one at a time. Run r owns counts[r] rows, or,
    with counts None, an equal share of every batch. random fills each run's
    block in place in one preallocated array; the counts must add up to
    size[0], or it raises ValueError. These Generator calls, one per run and
    draw, are the per-run work left in a stacked step.
    """

    __slots__ = ("rngs", "counts")

    def __init__(self, rngs, counts=None):
        self.rngs = rngs
        self.counts = counts

    @classmethod
    def of(cls, rngs):
        """The streams of the runs with Generators rngs, in equal shares. A
        single run's Generator stands for itself."""
        return rngs[0] if len(rngs) == 1 else cls(rngs)

    def _counts(self, n: int) -> list:
        return self.counts or [n // len(self.rngs)] * len(self.rngs)

    def _blocks(self, draw, size):
        size = (size,) if isinstance(size, int) else tuple(size)
        return np.concatenate(
            [draw(rng, (c,) + size[1:]) for rng, c in zip(self.rngs, self._counts(size[0])) if c]
        )

    def random(self, size):
        size = (size,) if isinstance(size, int) else tuple(size)
        counts = self._counts(size[0])
        if sum(counts) != size[0]:
            raise ValueError(f"the runs own {sum(counts)} rows of a batch of {size[0]}")
        out = np.empty(size)
        start = 0
        for rng, c in zip(self.rngs, counts):
            if c:
                rng.random(out=out[start : start + c])
                start += c
        return out

    def integers(self, low, high, size):
        return self._blocks(lambda rng, shape: rng.integers(low, high, size=shape), size)


def run_count(rng) -> int:
    """How many runs draw from rng: a Generator is one run."""
    return len(rng.rngs) if isinstance(rng, RunStreams) else 1


def split_rows(rng, counts: list):
    """The streams of a batch holding counts[r] rows of run r: a lone
    Generator owns them all."""
    return RunStreams(rng.rngs, counts) if isinstance(rng, RunStreams) else rng


def select_rows(rng, rows: np.ndarray):
    """The streams of the rows where the boolean mask rows holds, out of a
    batch drawn from rng."""
    if not isinstance(rng, RunStreams):
        return rng
    if rng.counts is None:
        return RunStreams(rng.rngs, rows.reshape(len(rng.rngs), -1).sum(axis=1).tolist())
    ends = np.cumsum(rng.counts)
    taken = np.concatenate(([0], np.cumsum(rows)))[ends]
    return RunStreams(rng.rngs, np.diff(taken, prepend=0).tolist())


def evaluate_batch(
    problem: Problem,
    xs: np.ndarray,
    budget: EvalBudget,
    rng=None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Evaluate up to budget.remaining rows of each run, one FE per row.

    xs is one run's (n, D) batch or a stack of runs' (R, n, D) batches; the
    budget counts the evaluations of one run, since every run of a stack
    makes the same ones. The objective and the constraints see the granted
    rows of all runs as one (R * granted, D) batch. rng is the run's
    Generator, or the stack's RunStreams; only noisy problems draw from it,
    one block of granted draws per run.

    Returns (granted, values, violations) where granted may be smaller than
    n when the budget truncates the batch, and values and violations have
    xs's leading shape with granted rows. Raises BudgetExhausted when
    nothing remains at all.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in (2, 3) or xs.shape[-1] != problem.dim:
        raise DimensionMismatch(
            f"expected (n, {problem.dim}) batch, got shape {xs.shape}"
        )
    n = xs.shape[-2]
    granted = budget.charge_up_to(n)
    shape = xs.shape[:-2] + (granted,)
    rows = (xs if granted == n else xs[..., :granted, :]).reshape(-1, problem.dim)
    values = np.asarray(problem.objective(rows), dtype=float).reshape(shape)
    if problem.noise is not None:
        if rng is None:
            raise ValueError(f"{problem.name} is noisy; an RNG stream is required")
        if isinstance(rng, RunStreams):
            values = values + np.array([problem.noise(r, granted) for r in rng.rngs])
        else:
            values = values + problem.noise(rng, granted)
    if problem.constrained:
        viols = violation_of(problem, rows).reshape(shape)
    else:
        viols = np.zeros(shape, dtype=float)
    return granted, values, viols


def argsort_by_compare(values: np.ndarray, viols: np.ndarray) -> np.ndarray:
    """Stable feasibility-first order, best first, along the last axis (one
    order per run of a stack).

    A feasible point beats an infeasible one; feasible points order by
    objective value and infeasible points by total violation. A NaN key
    ranks last within its feasibility class.
    """
    # A NaN violation fails the all-feasible test and counts as infeasible.
    if viols.item(viols.argmax()) <= TOL_FEAS:
        # Every row is feasible, so the feasibility class is constant and a
        # stable sort on the objective gives the same order.
        return values.argsort(kind="stable")
    feasible = viols <= TOL_FEAS
    return np.lexsort((np.where(feasible, values, viols), ~feasible))


# The three helpers below take the same decisions as argsort_by_compare
# with fewer NumPy calls; base.accept and base.track_best build the shared
# acceptance step on them, and both optimizers pick bests with best_index.
# `constrained` is False only when every violation is zero, and then the
# feasibility-first order is the objective order. A NaN violation counts as
# infeasible everywhere, because it fails `<= TOL_FEAS`.


def best_index(values: np.ndarray, viols: np.ndarray, constrained: bool) -> list:
    """Index of the feasibility-first minimum of each run's row of a stack
    ((R, n) values and violations), as a list; first occurrence wins ties.

    Equals argsort_by_compare(values, viols)[:, 0] for every input. When
    every row is feasible the feasibility-first order is the objective
    order, so argmin decides for all runs at once. A stack holding an
    infeasible row picks run by run (_run_best_index).
    """
    # Yes/no tests read the element at argmax/argmin, which costs less than
    # a ufunc reduction and, like one, stops at a NaN.
    if constrained and not viols.item(viols.argmax()) <= TOL_FEAS:
        return [_run_best_index(v, w) for v, w in zip(values, viols)]
    picks = values.argmin(axis=-1).tolist()
    for r, b in enumerate(picks):
        # argmin stops at the first NaN, and the stable order ranks NaN last.
        low = values.item(r, b)
        if low != low:
            picks[r] = int(argsort_by_compare(values[r], viols[r])[0])
    return picks


def _run_best_index(values: np.ndarray, viols: np.ndarray) -> int:
    """best_index of one run's rows.

    argmin runs over the feasible values (an all-feasible run's keys are its
    values), or over the violations when no row is feasible. Only a minimum
    that is NaN or +inf, where argmin and the stable order can disagree,
    takes the full feasibility-first sort.
    """
    feasible = viols <= TOL_FEAS
    keys = np.where(feasible, values, np.inf) if feasible.item(feasible.argmax()) else viols
    b = int(keys.argmin())
    if keys[b] < np.inf:
        return b
    return int(argsort_by_compare(values, viols)[0])


def _less_nan_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a < b per element, where NaN ranks above every other value."""
    less = a < b
    if b.size and math.isnan(b.item(b.argmax())):  # argmax stops at a NaN
        less |= (b != b) & (a == a)
    return less


def improves(values, viols, old_values, old_viols, constrained: bool) -> np.ndarray:
    """Per row: does (values, viols) strictly beat (old_values, old_viols)
    under feasibility-first rules? A NaN key ranks last within its class, as
    in argsort_by_compare: every other key beats a NaN incumbent, and a NaN
    beats nothing."""
    better = _less_nan_last(values, old_values)
    if not constrained:
        return better
    # Against a feasible incumbent a row must be feasible and lower in value;
    # when every incumbent is feasible, the usual case, that is one mask.
    if old_viols.item(old_viols.argmax()) <= TOL_FEAS:
        return better & (viols <= TOL_FEAS)
    # Against an infeasible one the violations decide, and a feasible row
    # always has the lower one.
    return np.where(
        old_viols <= TOL_FEAS, better & (viols <= TOL_FEAS), _less_nan_last(viols, old_viols)
    )


def is_better(value_a: float, viol_a: float, value_b: float, viol_b: float) -> bool:
    """Scalar strict compare: does a beat b under feasibility-first rules?
    A NaN key ranks last within its class, as in improves."""
    feas_a = viol_a <= TOL_FEAS
    feas_b = viol_b <= TOL_FEAS
    if feas_a != feas_b:
        return feas_a
    key_a, key_b = (value_a, value_b) if feas_a else (viol_a, viol_b)
    return key_a < key_b or (key_b != key_b and key_a == key_a)


def sample_uniform(bounds: Bounds, n: int, rng) -> np.ndarray:
    """n independent uniform points in the box, one fresh draw per
    coordinate. rng is a Generator, or the RunStreams of a stack of runs
    sharing the n rows out."""
    return bounds.lower + rng.random((n, bounds.dim)) * bounds.span


def resample_outside(xs: np.ndarray, bounds: Bounds, rng) -> np.ndarray:
    """Return xs, with every row that leaves the box resampled uniformly.

    The repair is all-or-nothing per row: a single out-of-range or NaN
    coordinate redraws the whole row, one fresh uniform per coordinate, from
    the stream of the run that owns the row (rng is one Generator for all
    rows, or the RunStreams of a run-major stack). The whole batch is
    tested against the box at once; rows are examined one by one only when
    some coordinate fails.
    """
    xs = np.asarray(xs, dtype=float)
    common = bounds._common_interval
    if common is not None:
        low, high = common
        # A NaN stops argmin and argmax, fails both tests and is repaired.
        if not xs.size or (low <= xs.item(xs.argmin()) and xs.item(xs.argmax()) <= high):
            return xs
        inside = np.logical_and.reduce((xs >= low) & (xs <= high), axis=-1)
    else:
        # One pass builds the row mask and is also the batch test.
        inside = np.logical_and.reduce((xs >= bounds.lower) & (xs <= bounds.upper), axis=-1)
        if not inside.size or inside.item(inside.argmin()):
            return xs
    outside = ~inside
    rows = outside.nonzero()[0]
    out = xs.copy()
    draws = select_rows(rng, outside).random((rows.shape[0], bounds.dim))
    out[rows] = bounds.lower + draws * bounds.span
    return out
