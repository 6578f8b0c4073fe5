"""Five constrained mechanical design benchmarks (CEC-2020-RW subset).

Each problem ships with the reference optimum reported for it in the
real-world constrained optimization literature. Published renderings of
these classics frequently carry transcription slips, so every formula here
was frozen by a reconciliation check: the reference point must evaluate
feasible (violation <= 1e-6) and reproduce the reference objective value
within its stated tolerance. Where a printed variant failed that check, the
classical formulation of the constraint was used instead; the welded beam
docstring records the variant that survived.

Objectives are vectorized over leading axes: input (..., D), output (...).
Each problem computes all of its constraints in one call, input (..., D),
output (m, ...) with one row per constraint in the conventional order, so
rows can share subexpressions.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .classic import UnknownFunction
from .problems import TOL_FEAS, Bounds, Problem, as_point

# The double that np.sqrt(2.0) gives, computed once.
_SQRT2 = np.sqrt(2.0)


# --- speed reducer (rc15) --------------------------------------------------

def _reducer_objective(x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    x4, x5, x6, x7 = x[..., 3], x[..., 4], x[..., 5], x[..., 6]
    return (
        0.7854 * x1 * x2**2 * (3.3333 * x3**2 + 14.9334 * x3 - 43.0934)
        - 1.508 * x1 * (x6**2 + x7**2)
        + 7.477 * (x6**3 + x7**3)
        + 0.7854 * (x4 * x6**2 + x5 * x7**2)
    )


def _reducer_constraints(x):
    # Gear bending, surface stress, shaft deflections, shaft stresses, and
    # assorted dimensional couplings, in the conventional order. The two
    # stress constraints are the classical ones (first-shaft term driven by
    # x4, second by x5, with the CEC-2020-RW load constants 16.91e6 and
    # 1.575e8): the reference optimum sits on both, which pins the formulas
    # down.
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    x4, x5, x6, x7 = x[..., 3], x[..., 4], x[..., 5], x[..., 6]
    g = np.empty((11,) + x.shape[:-1])
    x1x2sq = x1 * x2**2
    x2x3 = x2 * x3
    # Every row is a ratio minus 1.0; the subtraction runs once at the end.
    g[0] = 27.0 / (x1x2sq * x3)
    g[1] = 397.5 / (x1x2sq * x3**2)
    g[2] = 1.93 * x4**3 / (x2x3 * x6**4)
    g[3] = 1.93 * x5**3 / (x2x3 * x7**4)
    g[4] = np.sqrt((745.0 * x4 / x2x3) ** 2 + 16.91e6) / (110.0 * x6**3)
    g[5] = np.sqrt((745.0 * x5 / x2x3) ** 2 + 1.575e8) / (85.0 * x7**3)
    g[6] = x2x3 / 40.0
    g[7] = 5.0 * x2 / x1
    g[8] = x1 / (12.0 * x2)
    g[9] = (1.5 * x6 + 1.9) / x4
    g[10] = (1.1 * x7 + 1.9) / x5
    g -= 1.0
    return g


def _speed_reducer() -> Problem:
    """Minimize gearbox weight over seven sizing variables.

    Variables: face width, tooth module, pinion tooth count (treated as
    continuous; the reference value 17 is exactly representable), two shaft
    lengths, two shaft diameters. Eleven inequality constraints.
    """
    return Problem(
        name="rc15",
        dim=7,
        bounds=Bounds(
            np.array([2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0]),
            np.array([3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5]),
        ),
        objective=_reducer_objective,
        constraint_values=_reducer_constraints,
        known_optimum=2994.42447,
    )


# --- tension/compression spring (rc17) -------------------------------------

def _spring_objective(x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return (x3 + 2.0) * x2 * x1**2


def _spring_constraints(x):
    # Deflection, shear stress, surge frequency, and outer diameter limits,
    # classical forms. The optimum is active on the first two.
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    g = np.empty((4,) + x.shape[:-1])
    x1p4 = x1**4
    x2sq = x2**2
    g[0] = 1.0 - x2**3 * x3 / (71785.0 * x1p4)
    g[1] = (
        (4.0 * x2sq - x1 * x2) / (12566.0 * (x2 * x1**3 - x1p4))
        + 1.0 / (5108.0 * x1**2)
        - 1.0
    )
    g[2] = 1.0 - 140.45 * x1 / (x2sq * x3)
    g[3] = (x1 + x2) / 1.5 - 1.0
    return g


def _spring() -> Problem:
    """Minimize coil spring weight: wire diameter, coil diameter, turns."""
    return Problem(
        name="rc17",
        dim=3,
        bounds=Bounds(np.array([0.05, 0.25, 2.0]), np.array([2.0, 1.3, 15.0])),
        objective=_spring_objective,
        constraint_values=_spring_constraints,
        known_optimum=0.01266523,
    )


# --- welded beam (rc19) -----------------------------------------------------

_BEAM_P = 6000.0
_BEAM_L = 14.0
_BEAM_E = 30.0e6
_BEAM_G = 12.0e6
_TAU_MAX = 13600.0
_SIGMA_MAX = 30000.0
_DELTA_MAX = 0.25
_BEAM_SHEAR_RATIO = np.sqrt(_BEAM_E / (4.0 * _BEAM_G))


def _beam_objective(x):
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return 1.10471 * x1**2 * x2 + 0.04811 * x3 * x4 * (14.0 + x2)


def _beam_constraints(x):
    # Shear stress, bending stress, deflection, weld-vs-bar size, buckling,
    # minimum weld size, cost cap.
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    g = np.empty((7,) + x.shape[:-1])
    tau_p = _BEAM_P / (_SQRT2 * x1 * x2)
    moment = _BEAM_P * (_BEAM_L + x2 / 2.0)
    radius_sq = x2**2 / 4.0 + ((x1 + x3) / 2.0) ** 2
    radius = np.sqrt(radius_sq)
    polar = 2.0 * _SQRT2 * x1 * x2 * radius_sq
    tau_pp = moment * radius / polar
    shear = np.sqrt(tau_p**2 + 2.0 * tau_p * tau_pp * x2 / (2.0 * radius) + tau_pp**2)
    x3sq = x3**2
    buckling = (
        4.013
        * _BEAM_E
        * np.sqrt(x3sq * x4**6 / 36.0)
        / _BEAM_L**2
        * (1.0 - x3 / (2.0 * _BEAM_L) * _BEAM_SHEAR_RATIO)
    )
    g[0] = shear - _TAU_MAX
    g[1] = 6.0 * _BEAM_P * _BEAM_L / (x4 * x3sq) - _SIGMA_MAX
    g[2] = 4.0 * _BEAM_P * _BEAM_L**3 / (_BEAM_E * x3**3 * x4) - _DELTA_MAX
    g[3] = x1 - x4
    g[4] = _BEAM_P - buckling
    g[5] = 0.125 - x1
    g[6] = _beam_objective(x) - 5.0
    return g


def _welded_beam() -> Problem:
    """Minimize welded beam fabrication cost: weld size, weld length, bar
    thickness, bar width.

    This classic circulates in several variants that disagree in the cost
    coefficient, the polar moment bracket, the tip deflection, and the
    buckling load. The variant implemented here is the one whose reference
    optimum evaluates feasible and reproduces the reference cost: cost term
    1.10471*x1^2*x2, polar moment 2*sqrt(2)*x1*x2*(x2^2/4 + ((x1+x3)/2)^2),
    deflection 4*P*L^3/(E*x3^3*x4), and buckling load with coefficient 4.013
    over the sqrt(x3^2*x4^6/36) radical. Seven inequality constraints: shear
    stress, bending stress, deflection, weld-vs-bar size, buckling, minimum
    weld size, and a 5.0 cost cap.
    """
    return Problem(
        name="rc19",
        dim=4,
        bounds=Bounds(np.array([0.125, 0.1, 0.1, 0.1]), np.array([2.0, 10.0, 10.0, 2.0])),
        objective=_beam_objective,
        constraint_values=_beam_constraints,
        known_optimum=1.69524716,
    )


# --- three-bar truss (rc20) -------------------------------------------------

_TRUSS_L = 100.0
_TRUSS_P = 2.0
_TRUSS_SIGMA = 2.0


def _truss_objective(x):
    return (2.0 * _SQRT2 * x[..., 0] + x[..., 1]) * _TRUSS_L


def _truss_constraints(x):
    # Member stress limits. Denominators are the classical sqrt(2)*x1^2 +
    # 2*x1*x2 load-path terms; a zero cross-section yields an infinite
    # stress, which the violation accounting treats as infeasible.
    x1, x2 = x[..., 0], x[..., 1]
    g = np.empty((3,) + x.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        load_path = _SQRT2 * x1**2 + 2.0 * x1 * x2
        g[0] = (_SQRT2 * x1 + x2) / load_path
        g[1] = x2 / load_path
        g[2] = 1.0 / (x1 + _SQRT2 * x2)
    # Each row is its stress ratio times the load, less the stress limit.
    g *= _TRUSS_P
    g -= _TRUSS_SIGMA
    return g


def _three_bar_truss() -> Problem:
    """Minimize truss weight over two cross-section areas."""
    return Problem(
        name="rc20",
        dim=2,
        bounds=Bounds.uniform(0.0, 1.0, 2),
        objective=_truss_objective,
        constraint_values=_truss_constraints,
        known_optimum=263.895843,
    )


# --- gear train (rc31) -------------------------------------------------------

_GEAR_TARGET = 1.0 / 6.931


def _gear_objective(x):
    # Tooth counts are physically integral: the objective rounds each
    # variable before forming the ratio, so the search space is a continuous
    # box but the objective is piecewise constant. This reconciles the
    # fractional published optima (any point rounding to 49, 19, 16, 43
    # scores the same) with their reported zero spread.
    t = np.round(x)
    # Points below 0.5 round to a zero tooth count; they are infeasible under
    # the >= 12 constraints, so the resulting inf/nan objective is never
    # preferred, but the division still needs its warnings suppressed.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = t[..., 1] * t[..., 2] / (t[..., 0] * t[..., 3])
    return (_GEAR_TARGET - ratio) ** 2


def _gear_constraints(x):
    # Every tooth count at least 12 (rows 1-4), then at most 60 (rows 5-8).
    counts = x.transpose(-1, *range(x.ndim - 1))  # (4, ...)
    return np.concatenate((12.0 - counts, counts - 60.0))


def _gear_train() -> Problem:
    """Minimize the squared error between a gear ratio and 1/6.931.

    Four tooth counts, each constrained to [12, 60] (eight bound-style
    inequality constraints) inside a [0.01, 60] sampling box.
    """
    return Problem(
        name="rc31",
        dim=4,
        bounds=Bounds.uniform(0.01, 60.0, 4),
        objective=_gear_objective,
        constraint_values=_gear_constraints,
        known_optimum=2.7009e-12,
    )


# --- catalog ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class EngineeringProblem:
    """A catalog entry: the wired Problem plus its reference optimum."""

    id: str
    problem: Problem
    reference: tuple  # (x_star, f_star), f_star being problem.known_optimum


# id -> (builder, reference point); each builder states the reference value
# as its problem's known_optimum.
_CATALOG = {
    "rc15": (_speed_reducer, (3.5, 0.7, 17.0, 7.3, 7.71531991, 3.35054095, 5.28665446)),
    "rc17": (_spring, (0.05168906, 0.35671784, 11.2889601)),
    "rc19": (_welded_beam, (0.20572964, 3.25312004, 9.03662391, 0.20572964)),
    "rc20": (_three_bar_truss, (0.78867513, 0.40824830)),
    "rc31": (_gear_train, (49.3000403, 19.3605917, 15.8481360, 42.8673784)),
}

ENGINEERING_IDS = tuple(_CATALOG)


def make_engineering(pid: str) -> EngineeringProblem:
    """Build an engineering design problem by id (rc15..rc31)."""
    key = pid.lower()
    if key not in _CATALOG:
        raise UnknownFunction(f"unknown engineering problem id: {pid!r}")
    builder, x_star = _CATALOG[key]
    problem = builder()
    return EngineeringProblem(
        id=key,
        problem=problem,
        reference=(np.asarray(x_star, dtype=float), float(problem.known_optimum)),
    )


def constraint_report(pid: str, x) -> list:
    """Evaluate every constraint of a problem at x.

    Returns a list of (constraint index, g_i(x), satisfied) triples in
    definition order, read from the problem's constraint matrix; satisfied
    means g_i(x) <= TOL_FEAS.
    """
    entry = make_engineering(pid)
    point = as_point(x, entry.problem.dim)
    values = entry.problem.constraint_values(point).tolist()
    return [(i, g, g <= TOL_FEAS) for i, g in enumerate(values, start=1)]
