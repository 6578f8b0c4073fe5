"""Reference implementations that the package no longer ships.

Each one is the plain form of a rule that the package now computes with
fewer NumPy calls; tests check the fast form against it.
"""

import numpy as np

from ecocycle.problems import TOL_FEAS


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
