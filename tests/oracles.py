"""Reference implementations and data that the package does not ship.

Most are the plain form of a rule that the package computes in batches with
fewer NumPy calls; tests check the fast form against it. The box test and
the classic functions' spot values serve the tests alone.
"""

import dataclasses
import functools

import numpy as np

from ecocycle.classic import UnknownFunction
from ecocycle.eco import _roulette_cum
from ecocycle.problems import TOL_FEAS, Bounds, is_better


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


def accept_improved_rows(run, candidates, incumbents) -> bool:
    """The acceptance step in PSO's original form: replace each incumbent row
    that its candidate strictly beats, then pick the new best among the
    improved rows only (first compare-minimum) and keep it if it beats the
    run's best. Returns whether any row improved."""
    xs, values, viols = candidates
    old_xs, old_values, old_viols = incumbents
    better = compare_batch(values, viols, old_values, old_viols) < 0
    if not better.any():
        return False
    old_xs[better] = xs[better]
    old_values[better] = values[better]
    old_viols[better] = viols[better]
    by_compare = functools.cmp_to_key(
        lambda a, b: compare(Evaluation(values[a], viols[a]), Evaluation(values[b], viols[b]))
    )
    best = min(better.nonzero()[0], key=by_compare)  # min keeps the first of equals
    if is_better(values[best], viols[best], run.best_value, run.best_viol):
        run.best_x = xs[best].copy()
        run.best_value = float(values[best])
        run.best_viol = float(viols[best])
    return True


def row_ranks_loop(keys) -> np.ndarray:
    """Ascending 1-based mid-ranks of the rows of keys (one lexicographic key
    tuple per row), grouping each sorted row with the ones after it that
    np.array_equal finds equal to the group's first row."""
    m = keys.shape[0]
    order = np.lexsort(keys.T[::-1])
    ranks = np.empty(m, dtype=float)
    pos = 0
    while pos < m:
        end = pos
        while end + 1 < m and np.array_equal(keys[order[end + 1]], keys[order[pos]]):
            end += 1
        ranks[order[pos : end + 1]] = (pos + end) / 2.0 + 1.0
        pos = end + 1
    return ranks


def roulette_select(values, viols, size, rng: np.random.Generator) -> np.ndarray:
    """Sample indices with replacement, cumulative-scan style: the draw that
    the consumer update makes inline, one pool at a time."""
    return _roulette_cum(values, viols).searchsorted(rng.random(size), side="left")


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


def contains(bounds: Bounds, x) -> np.ndarray:
    """Componentwise-inside test, reduced over the last axis."""
    x = np.asarray(x, dtype=float)
    return np.all((x >= bounds.lower) & (x <= bounds.upper), axis=-1)


# Reference anchor evaluations per function. Optimum rows double as
# transcription checks against the catalog's known-optimum column; the table
# prints most fixed-dimension optima rounded to about four decimals, hence
# the looser tolerances there. The remaining rows are hand-computable spot
# values pinning the formulas down at non-optimal points.
_SPOT = {
    "f1": [((0.0,) * 30, 0.0, 1e-12), ((1.0, 1.0), 2.0, 1e-12)],
    "f2": [((0.0,) * 30, 0.0, 1e-12), ((1.0, 1.0, 1.0), 4.0, 1e-12), ((-1.0, 2.0), 5.0, 1e-12)],
    "f3": [((0.0,) * 30, 0.0, 1e-12), ((1.0, 1.0), 5.0, 1e-12)],
    "f4": [((0.0,) * 30, 0.0, 1e-12), ((-3.0, 2.0), 3.0, 1e-12)],
    "f5": [((1.0,) * 30, 0.0, 1e-12), ((0.0, 0.0), 1.0, 1e-12)],
    "f6": [((0.2,) * 30, 0.0, 1e-12), ((0.6, -0.6), 2.0, 1e-12)],
    "f7": [((0.0,) * 30, 0.0, 1e-12), ((1.0, 1.0), 3.0, 1e-12)],
    "f8": [((420.9687,) * 30, -418.98 * 30, 1.0), ((0.0,) * 30, 0.0, 1e-12)],
    "f9": [((0.0,) * 30, 0.0, 1e-12), ((1.0, 1.0), 2.0, 1e-9)],
    "f10": [((0.0,) * 30, 0.0, 1e-9), ((0.0, 0.0), 0.0, 1e-9)],
    "f11": [((0.0,) * 30, 0.0, 1e-12), ((0.0, 0.0), 0.0, 1e-12)],
    "f12": [((-1.0,) * 30, 0.0, 1e-12), ((-1.0, -1.0), 0.0, 1e-12)],
    "f13": [((1.0,) * 30, 0.0, 1e-12), ((1.0, 1.0), 0.0, 1e-12)],
    "f14": [((-32.0, -32.0), 0.9980, 1e-3)],
    "f15": [((0.192833, 0.190836, 0.123117, 0.135766), 0.0003075, 1e-3)],
    "f16": [((0.08984201, -0.7126564), -1.0316, 1e-3), ((-0.08984201, 0.7126564), -1.0316, 1e-3)],
    "f17": [((np.pi, 2.275), 0.3979, 1e-3), ((-np.pi, 12.275), 0.3979, 1e-3)],
    "f18": [((0.0, -1.0), 3.0, 1e-9)],
    "f19": [((0.114614, 0.555649, 0.852547), -3.8628, 1e-3)],
    "f20": [((0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573), -3.3220, 1e-3)],
    "f21": [((4.0, 4.0, 4.0, 4.0), -10.1532, 1e-3)],
    "f22": [((4.0, 4.0, 4.0, 4.0), -10.4029, 1e-3)],
    "f23": [((4.0, 4.0, 4.0, 4.0), -10.5364, 1e-3)],
}


def spot_values(fid: str):
    """Reference (point, value, tolerance) anchors for a function id."""
    key = fid.lower()
    if key not in _SPOT:
        raise UnknownFunction(f"unknown classic function id: {fid!r}")
    return [
        (np.asarray(p, dtype=float), float(v), float(tol)) for p, v, tol in _SPOT[key]
    ]
