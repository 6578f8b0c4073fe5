"""Reference implementations that the package no longer ships.

Each one is the plain form of a rule that the package computes in batches
with fewer NumPy calls; tests check the fast form against it.
"""

import dataclasses

import numpy as np

from ecocycle.problems import TOL_FEAS, is_better


@dataclasses.dataclass(frozen=True)
class Evaluation:
    """Objective value plus aggregate constraint violation at one point."""

    value: float
    violation: float = 0.0

    def __post_init__(self):
        if self.violation < 0:
            raise ValueError("violation must be nonnegative")


def compare(a: Evaluation, b: Evaluation) -> int:
    """Feasibility-first ordering: -1 if a is better, +1 if b is, 0 on a tie.

    A feasible point beats an infeasible one; two feasible points compare by
    objective value; two infeasible points compare by total violation. A NaN
    key ranks last within its feasibility class. Exact equality on the
    deciding key, or two NaN keys, is a tie.
    """
    if is_better(a.value, a.violation, b.value, b.violation):
        return -1
    if is_better(b.value, b.violation, a.value, a.violation):
        return 1
    return 0


def compare_batch(values_a, viols_a, values_b, viols_b) -> np.ndarray:
    """Vectorized compare over aligned arrays; returns -1/0/+1 per element."""
    feas_a = viols_a <= TOL_FEAS
    feas_b = viols_b <= TOL_FEAS
    key_a = np.where(feas_a, values_a, viols_a)
    key_b = np.where(feas_b, values_b, viols_b)
    nan_a = np.isnan(key_a)
    nan_b = np.isnan(key_b)
    # Explicit comparisons rather than sign(a - b): inf - inf would poison
    # the result with NaN when both sides are infinitely violated. A NaN
    # key ranks last within its feasibility class; two NaN keys tie.
    less = (key_a < key_b) | (nan_b & ~nan_a)
    greater = (key_a > key_b) | (nan_a & ~nan_b)
    out = np.where(less, -1, np.where(greater, 1, 0))
    out = np.where(feas_a & ~feas_b, -1, out)
    out = np.where(~feas_a & feas_b, 1, out)
    return out


def predation_step(x, preys, rands, g) -> np.ndarray:
    """Move x along rand-weighted prey differences, scaled by g.

    x + g * sum_t rands[t] (prey_t - x), vectorized over a leading batch
    axis: x may be (D,) or (n, D); preys is a sequence of arrays matching x;
    rands has one scalar per prey term (per batch row in the batched case).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = np.atleast_2d(x)
    rs = np.atleast_2d(np.asarray(rands, dtype=float))
    g = np.asarray(g, dtype=float)
    step = np.zeros_like(xs)
    for t, prey in enumerate(preys):
        prey = np.atleast_2d(np.asarray(prey, dtype=float))
        step += rs[:, t : t + 1] * (prey - xs)
    out = xs + g * step
    return out[0] if single else out
