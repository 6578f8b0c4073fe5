"""Engineering suite: reference-point transcription gates every formula."""

import numpy as np
import pytest

from ecocycle.classic import UnknownFunction
from ecocycle.engineering import ENGINEERING_IDS, constraint_report, make_engineering
from ecocycle.problems import Bounds, Problem, violation_of
from oracles import contains

# (objective tolerance at the reference point) per problem id
REFERENCE_TOL = {
    "rc15": 1e-4,
    "rc17": 1e-7,
    "rc19": 1e-6,
    "rc20": 1e-5,
    "rc31": 1e-15,
}

DIMS = {"rc15": 7, "rc17": 3, "rc19": 4, "rc20": 2, "rc31": 4}


# --- oracle: every constraint as its own callable -------------------------------
#
# These are the per-constraint formulas the catalog used before each problem
# computed all of its constraints in one call, kept term for term (the speed
# reducer's first shaft-stress constant since corrected from 1.69e7 to the
# CEC-2020-RW 16.91e6). Each row of a problem's constraint matrix must equal
# its oracle entry bit for bit.

_BEAM_P, _BEAM_L, _BEAM_E, _BEAM_G = 6000.0, 14.0, 30.0e6, 12.0e6


def _beam_objective(x):
    x1, x2, x3, x4 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return 1.10471 * x1**2 * x2 + 0.04811 * x3 * x4 * (14.0 + x2)


def _beam_shear(x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    tau_p = _BEAM_P / (np.sqrt(2.0) * x1 * x2)
    moment = _BEAM_P * (_BEAM_L + x2 / 2.0)
    radius_sq = x2**2 / 4.0 + ((x1 + x3) / 2.0) ** 2
    radius = np.sqrt(radius_sq)
    polar = 2.0 * np.sqrt(2.0) * x1 * x2 * radius_sq
    tau_pp = moment * radius / polar
    return np.sqrt(tau_p**2 + 2.0 * tau_p * tau_pp * x2 / (2.0 * radius) + tau_pp**2)


def _beam_buckling(x):
    x3, x4 = x[..., 2], x[..., 3]
    return (
        4.013
        * _BEAM_E
        * np.sqrt(x3**2 * x4**6 / 36.0)
        / _BEAM_L**2
        * (1.0 - x3 / (2.0 * _BEAM_L) * np.sqrt(_BEAM_E / (4.0 * _BEAM_G)))
    )


def _truss_ratio(numerator):
    def g(x):
        x1, x2 = x[..., 0], x[..., 1]
        ratio = numerator(x1, x2) / (np.sqrt(2.0) * x1**2 + 2.0 * x1 * x2)
        return ratio * 2.0 - 2.0

    return g


ORACLE = {
    "rc15": (
        lambda x: 27.0 / (x[..., 0] * x[..., 1] ** 2 * x[..., 2]) - 1.0,
        lambda x: 397.5 / (x[..., 0] * x[..., 1] ** 2 * x[..., 2] ** 2) - 1.0,
        lambda x: 1.93 * x[..., 3] ** 3 / (x[..., 1] * x[..., 2] * x[..., 5] ** 4) - 1.0,
        lambda x: 1.93 * x[..., 4] ** 3 / (x[..., 1] * x[..., 2] * x[..., 6] ** 4) - 1.0,
        lambda x: np.sqrt((745.0 * x[..., 3] / (x[..., 1] * x[..., 2])) ** 2 + 16.91e6)
        / (110.0 * x[..., 5] ** 3)
        - 1.0,
        lambda x: np.sqrt((745.0 * x[..., 4] / (x[..., 1] * x[..., 2])) ** 2 + 1.575e8)
        / (85.0 * x[..., 6] ** 3)
        - 1.0,
        lambda x: x[..., 1] * x[..., 2] / 40.0 - 1.0,
        lambda x: 5.0 * x[..., 1] / x[..., 0] - 1.0,
        lambda x: x[..., 0] / (12.0 * x[..., 1]) - 1.0,
        lambda x: (1.5 * x[..., 5] + 1.9) / x[..., 3] - 1.0,
        lambda x: (1.1 * x[..., 6] + 1.9) / x[..., 4] - 1.0,
    ),
    "rc17": (
        lambda x: 1.0 - x[..., 1] ** 3 * x[..., 2] / (71785.0 * x[..., 0] ** 4),
        lambda x: (4.0 * x[..., 1] ** 2 - x[..., 0] * x[..., 1])
        / (12566.0 * (x[..., 1] * x[..., 0] ** 3 - x[..., 0] ** 4))
        + 1.0 / (5108.0 * x[..., 0] ** 2)
        - 1.0,
        lambda x: 1.0 - 140.45 * x[..., 0] / (x[..., 1] ** 2 * x[..., 2]),
        lambda x: (x[..., 0] + x[..., 1]) / 1.5 - 1.0,
    ),
    "rc19": (
        lambda x: _beam_shear(x) - 13600.0,
        lambda x: 6.0 * _BEAM_P * _BEAM_L / (x[..., 3] * x[..., 2] ** 2) - 30000.0,
        lambda x: 4.0 * _BEAM_P * _BEAM_L**3 / (_BEAM_E * x[..., 2] ** 3 * x[..., 3]) - 0.25,
        lambda x: x[..., 0] - x[..., 3],
        lambda x: _BEAM_P - _beam_buckling(x),
        lambda x: 0.125 - x[..., 0],
        lambda x: _beam_objective(x) - 5.0,
    ),
    "rc20": (
        _truss_ratio(lambda x1, x2: np.sqrt(2.0) * x1 + x2),
        _truss_ratio(lambda x1, x2: x2),
        lambda x: 1.0 / (x[..., 0] + np.sqrt(2.0) * x[..., 1]) * 2.0 - 2.0,
    ),
    "rc31": tuple((lambda i: lambda x: 12.0 - x[..., i])(i) for i in range(4))
    + tuple((lambda i: lambda x: x[..., i] - 60.0)(i) for i in range(4)),
}


def oracle_matrix(pid, x):
    with np.errstate(all="ignore"):
        return np.stack([np.asarray(g(x), dtype=float) for g in ORACLE[pid]])


def oracle_violation(pid, x):
    """The violation as it was summed one constraint at a time."""
    total = np.zeros(x.shape[:-1], dtype=float)
    with np.errstate(all="ignore"):
        for g in ORACLE[pid]:
            gv = np.asarray(g(x), dtype=float)
            gv = np.where(np.isnan(gv), np.inf, gv)
            total = total + np.maximum(gv, 0.0)
    return total


def random_rows(problem, n, seed, outside=False):
    """n uniform rows in the box, or in the box widened by one span each way."""
    rng = np.random.default_rng(seed)
    lower, span = problem.bounds.lower, problem.bounds.span
    if outside:
        lower, span = lower - span, 3.0 * span
    return lower + rng.random((n, problem.dim)) * span


def same_bits(a, b) -> bool:
    """Byte equality: NaN matches NaN of the same payload, -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_catalog_ids():
    assert ENGINEERING_IDS == ("rc15", "rc17", "rc19", "rc20", "rc31")
    with pytest.raises(UnknownFunction):
        make_engineering("rc99")


@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_reference_point_reproduces_objective(pid):
    """Transcription gate: f(x*) must equal the published optimum."""
    entry = make_engineering(pid)
    x_star, f_star = entry.reference
    got = float(entry.problem.objective(x_star))
    assert got == pytest.approx(f_star, abs=REFERENCE_TOL[pid]), (
        f"{pid}: objective at reference {got!r} vs published {f_star!r}"
    )


@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_reference_point_is_feasible(pid):
    """Transcription gate: x* must satisfy every implemented constraint."""
    entry = make_engineering(pid)
    x_star, _ = entry.reference
    assert violation_of(entry.problem, x_star) <= 1e-6


@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_constraint_counts(pid):
    """One matrix row per constraint, as many as the oracle has callables."""
    p = make_engineering(pid).problem
    assert p.constrained
    xs = random_rows(p, 5, seed=1)
    assert p.constraint_values(xs).shape == (len(ORACLE[pid]), 5)
    assert p.constraint_values(xs[0]).shape == (len(ORACLE[pid]),)


@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_dimensions_and_reference_inside_box(pid):
    entry = make_engineering(pid)
    assert entry.problem.dim == DIMS[pid]
    x_star, _ = entry.reference
    assert bool(contains(entry.problem.bounds, x_star))


@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_constraints_vectorize(pid):
    """Column j of a batch's matrix is the matrix of row j alone, bit for bit."""
    p = make_engineering(pid).problem
    xs = random_rows(p, 6, seed=2)
    batch = p.constraint_values(xs)
    for j, x in enumerate(xs):
        assert same_bits(batch[:, j], p.constraint_values(x))


@pytest.mark.parametrize("n", [1, 9, 30])
@pytest.mark.parametrize("outside", [False, True], ids=["inside", "outside"])
@pytest.mark.parametrize("pid", ENGINEERING_IDS)
def test_constraint_rows_match_oracle(pid, outside, n):
    p = make_engineering(pid).problem
    xs = random_rows(p, n, seed=n, outside=outside)
    with np.errstate(all="ignore"):
        got = p.constraint_values(xs)
        viols = violation_of(p, xs)
    want = oracle_matrix(pid, xs)
    for i in range(want.shape[0]):
        assert same_bits(got[i], want[i]), f"{pid} g{i + 1}"
    assert same_bits(viols, oracle_violation(pid, xs))


def test_truss_zero_cross_sections_match_oracle():
    """Zero areas divide by zero: the rows must agree on every inf, NaN and
    signed zero, and the violation must read +inf."""
    p = make_engineering("rc20").problem
    xs = np.array(
        [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, 0.0], [0.0, 1.0]]
    )
    got = p.constraint_values(xs)
    want = oracle_matrix("rc20", xs)
    for i in range(3):
        assert same_bits(got[i], want[i]), f"g{i + 1}"
    viols = violation_of(p, xs)
    assert same_bits(viols, oracle_violation("rc20", xs))
    assert np.isinf(viols[0])


def test_violation_sums_rows_in_constraint_order():
    """The fold adds rows left to right from +0.0, never pairwise: a large
    term first and many small ones after round to the large term alone."""
    rows = [1.0e16] + [1.0] * 7
    p = Problem(
        "ordered",
        1,
        Bounds.uniform(-1.0, 1.0, 1),
        lambda x: x[..., 0],
        constraint_values=lambda x: np.multiply.outer(rows, np.ones(x.shape[:-1])),
    )
    total = 0.0
    for r in rows:
        total += r
    assert float(violation_of(p, np.array([0.0]))) == total
    assert float(violation_of(p, np.array([[0.0], [0.5]]))[1]) == total
    zeros = Problem(
        "zeros",
        1,
        p.bounds,
        p.objective,
        constraint_values=lambda x: np.full((2,) + x.shape[:-1], -0.0),
    )
    assert same_bits(violation_of(zeros, np.array([[0.0], [0.5]])), [0.0, 0.0])


def test_constraint_report_order_and_flags():
    report = constraint_report("rc20", [0.78867513, 0.40824830])
    assert [idx for idx, _, _ in report] == [1, 2, 3]
    g1, g2, g3 = (g for _, g, _ in report)
    assert abs(g1) < 1e-6       # active at the optimum
    assert g2 < -1.0            # comfortably slack
    assert g3 < -0.1
    assert all(flag for _, _, flag in report)


def test_constraint_report_flags_violations():
    # Tiny cross sections break the stress limits.
    report = constraint_report("rc20", [1e-6, 1e-6])
    assert any(not flag for _, _, flag in report)


def test_speed_reducer_tooth_count_lower_bound_exact():
    p = make_engineering("rc15").problem
    assert p.bounds.lower[2] == 17.0  # the reference x3 sits exactly on it


def test_gear_train_objective_nonnegative():
    p = make_engineering("rc31").problem
    rng = np.random.default_rng(7)
    xs = p.bounds.lower + rng.random((200, p.dim)) * p.bounds.span
    vals = p.objective(xs)
    finite = np.isfinite(vals)
    assert np.all(vals[finite] >= 0.0)


def test_gear_train_integer_optimum_value():
    # The known best tooth counts give the exact published objective.
    p = make_engineering("rc31").problem
    best = float(p.objective(np.array([49.0, 19.0, 16.0, 43.0])))
    assert best == pytest.approx(2.7008571488865134e-12, rel=1e-12)
    # Any fractional point rounding to those counts scores identically.
    wobble = float(p.objective(np.array([49.3, 19.4, 15.8, 42.9])))
    assert wobble == best


def test_welded_beam_weld_vs_bar_constraint_active():
    entry = make_engineering("rc19")
    x_star, _ = entry.reference
    report = constraint_report("rc19", x_star)
    g4 = report[3][1]
    assert g4 == pytest.approx(0.0, abs=1e-12)  # x1 == x4 at the optimum
