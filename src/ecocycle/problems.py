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
All functions shipped with this package follow that contract; `batchable`
wraps a scalar-only objective when needed.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional, Sequence

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
    """Box constraints: lower[j] < upper[j] for every dimension j."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length >= 1")
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

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Componentwise-inside test, reduced over the last axis."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)

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


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """Objective value plus aggregate constraint violation at one point."""

    value: float
    violation: float = 0.0

    def __post_init__(self):
        if self.violation < 0:
            raise ValueError("violation must be nonnegative")

    @property
    def feasible(self) -> bool:
        return self.violation <= TOL_FEAS


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

    def charge_one(self) -> None:
        if self.used >= self.max_fes:
            raise BudgetExhausted(f"budget of {self.max_fes} evaluations exhausted")
        self.used += 1

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
    # Fold the rows strictly in constraint order: a pairwise sum over the
    # constraint axis (np.sum, np.add.reduce) would round differently.
    total = np.cumsum(parts, axis=0)[-1]
    # Every term is >= 0 or NaN, so the total is NaN exactly when some g_i is.
    return np.where(np.isnan(total), np.inf, total)


def evaluate(
    problem: Problem,
    x,
    budget: EvalBudget,
    rng: Optional[np.random.Generator] = None,
) -> Evaluation:
    """Evaluate one point, debiting exactly one FE regardless of constraints."""
    point = as_point(x, problem.dim)
    budget.charge_one()
    value = float(problem.objective(point))
    if problem.noise is not None:
        if rng is None:
            raise ValueError(f"{problem.name} is noisy; an RNG stream is required")
        value += float(problem.noise(rng, 1)[0])
    viol = float(violation_of(problem, point)) if problem.constrained else 0.0
    return Evaluation(value=value, violation=viol)


def evaluate_batch(
    problem: Problem,
    xs: np.ndarray,
    budget: EvalBudget,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Evaluate up to budget.remaining rows of xs, one FE per row.

    Returns (granted, values, violations) where granted may be smaller than
    len(xs) when the budget truncates the batch. Raises BudgetExhausted when
    nothing remains at all.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != problem.dim:
        raise DimensionMismatch(
            f"expected (n, {problem.dim}) batch, got shape {xs.shape}"
        )
    granted = budget.charge_up_to(xs.shape[0])
    rows = xs[:granted]
    values = np.asarray(problem.objective(rows), dtype=float)
    if problem.noise is not None:
        if rng is None:
            raise ValueError(f"{problem.name} is noisy; an RNG stream is required")
        values = values + problem.noise(rng, granted)
    if problem.constrained:
        viols = violation_of(problem, rows)
    else:
        viols = np.zeros(granted, dtype=float)
    return granted, values, viols


def compare(a: Evaluation, b: Evaluation) -> int:
    """Feasibility-first ordering: -1 if a is better, +1 if b is, 0 on a tie.

    A feasible point beats an infeasible one; two feasible points compare by
    objective value; two infeasible points compare by total violation. Exact
    equality on the deciding key is a tie.
    """
    if a.feasible != b.feasible:
        return -1 if a.feasible else 1
    key_a, key_b = (a.value, b.value) if a.feasible else (a.violation, b.violation)
    if key_a < key_b:
        return -1
    if key_a > key_b:
        return 1
    return 0


def argsort_by_compare(values: np.ndarray, viols: np.ndarray) -> np.ndarray:
    """Stable ascending order under compare (best first); a NaN key ranks
    last within its feasibility class."""
    feasible = viols <= TOL_FEAS
    return np.lexsort((np.where(feasible, values, viols), ~feasible))


# The three helpers below take the same decisions as compare and
# argsort_by_compare with fewer NumPy calls; both optimizers use them.
# `constrained` is False only when every violation is zero, and then the
# feasibility-first order is the objective order. A NaN violation counts as
# infeasible everywhere, because it fails `<= TOL_FEAS`.


def best_index(values: np.ndarray, viols: np.ndarray, constrained: bool) -> int:
    """Index of the compare-minimum; first occurrence wins ties.

    Equals argsort_by_compare(values, viols)[0] for every input. When every
    row is feasible the feasibility-first order is the objective order, so
    argmin decides. Otherwise argmin runs over the feasible values, or over
    the violations when no row is feasible. Only a minimum that is NaN or
    +inf, where argmin and the stable order can disagree, takes the full
    feasibility-first sort.
    """
    if constrained and not np.maximum.reduce(viols) <= TOL_FEAS:
        feasible = viols <= TOL_FEAS
        keys = np.where(feasible, values, np.inf) if feasible.any() else viols
        b = int(keys.argmin())
        if keys[b] < np.inf:
            return b
        return int(argsort_by_compare(values, viols)[0])
    b = int(values.argmin())
    # argmin stops at the first NaN; the stable order ranks NaN last.
    if values[b] == values[b]:
        return b
    return int(argsort_by_compare(values, viols)[0])


def improves(values, viols, old_values, old_viols, constrained: bool) -> np.ndarray:
    """Per row: does (values, viols) strictly beat (old_values, old_viols)
    under feasibility-first rules? Box-only rows compare by value alone, so
    nothing beats a NaN incumbent and a NaN never beats anything."""
    better = values < old_values
    if constrained and not (
        np.maximum.reduce(viols) <= TOL_FEAS and np.maximum.reduce(old_viols) <= TOL_FEAS
    ):
        feasible = viols <= TOL_FEAS
        # A change of class decides on its own; two infeasible rows compare
        # by violation.
        better = np.where(
            feasible == (old_viols <= TOL_FEAS),
            np.where(feasible, better, viols < old_viols),
            feasible,
        )
    return better


def is_better(value_a: float, viol_a: float, value_b: float, viol_b: float) -> bool:
    """Scalar strict compare: does a beat b under feasibility-first rules?"""
    feas_a = viol_a <= TOL_FEAS
    feas_b = viol_b <= TOL_FEAS
    if feas_a != feas_b:
        return feas_a
    if feas_a:
        return value_a < value_b
    return viol_a < viol_b


def sample_uniform(bounds: Bounds, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform points in the box, one fresh draw per coordinate."""
    return bounds.lower + rng.random((n, bounds.dim)) * bounds.span


def clamp_or_resample(x, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Return x unchanged when inside the box, else a fresh uniform sample.

    The repair is all-or-nothing: a single out-of-range coordinate triggers a
    full re-initialization of the whole vector (per-dimension fresh uniforms).
    """
    point = as_point(x, bounds.dim)
    if bool(bounds.contains(point)):
        return point
    return bounds.lower + rng.random(bounds.dim) * bounds.span


def resample_outside(xs: np.ndarray, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Batch form of clamp_or_resample over the rows of xs.

    The whole batch is tested against the box at once; rows are examined
    one by one only when some coordinate is out of range or NaN.
    """
    xs = np.asarray(xs, dtype=float)
    # ufunc reductions skip the Python-level wrappers of ndarray.min/max/all.
    # A NaN coordinate fails every test and reaches the row-wise path.
    common = bounds._common_interval
    if common is not None and (
        common[0] <= np.minimum.reduce(xs, axis=None, initial=np.inf)
        and np.maximum.reduce(xs, axis=None, initial=-np.inf) <= common[1]
    ):
        return xs
    # One pass builds the row mask; on a box without a common interval it
    # is also the batch test.
    inside = np.logical_and.reduce((xs >= bounds.lower) & (xs <= bounds.upper), axis=-1)
    if common is None and np.logical_and.reduce(inside):
        return xs
    outside = ~inside
    out = xs.copy()
    k = int(np.count_nonzero(outside))
    out[outside] = bounds.lower + rng.random((k, bounds.dim)) * bounds.span
    return out


def batchable(f: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt a scalar-only objective to the (..., D) -> (...) contract."""

    def wrapped(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.float64(f(x))
        return np.apply_along_axis(f, -1, x)

    return wrapped
