"""The 23 classic benchmark functions (Yao-style suite).

F1-F7 are unimodal, F8-F23 multimodal; F14-F23 have fixed dimensions. Each
function is vectorized over leading axes: input (..., D), output (...).

F2, F4, and F8 carry absolute values that frequently get lost in transcribed
tables; without them F2/F4 are unbounded below on symmetric boxes and F8
takes the square root of negative numbers, so the canonical forms with |x_i|
are used. F7 adds one uniform [0, 1) noise draw per evaluation on top of the
deterministic weighted quartic sum; the noiseless part is exposed as the
problem objective and the noise is injected at evaluation time from the
caller's RNG stream.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .problems import Bounds, Problem


class UnknownFunction(KeyError):
    """Raised when a catalog lookup uses an id that does not exist."""


def _sphere(x):
    return np.einsum("...d,...d->...", x, x)


def _schwefel_2_22(x):
    ax = np.abs(x)
    return np.sum(ax, axis=-1) + np.prod(ax, axis=-1)


def _double_sum(x):
    return np.sum(np.square(np.cumsum(x, axis=-1)), axis=-1)


def _max_abs(x):
    return np.max(np.abs(x), axis=-1)


def _rosenbrock(x):
    head = x[..., :-1]
    tail = x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, axis=-1)


def _step(x):
    return np.sum(np.floor(x + 0.5) ** 2, axis=-1)


def _quartic(x):
    # Noiseless part of the noisy quartic; weights 1..D.
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return np.sum(i * x**4, axis=-1)


def _schwefel(x):
    return -np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _rastrigin(x):
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def _ackley(x):
    d = x.shape[-1]
    s1 = np.add.reduce(x * x, axis=-1) / d
    s2 = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / d
    return -20.0 * np.exp(-0.2 * np.sqrt(s1)) - np.exp(s2) + 20.0 + np.e


def _griewank(x):
    i = np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))
    return np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / i), axis=-1) + 1.0


def _penalty_u(x, a, k, m):
    # k(x-a)^m above a, zero on [-a, a], k(-x-a)^m below -a.
    return k * np.maximum(np.abs(x) - a, 0.0) ** m


def _penalized_1(x):
    d = x.shape[-1]
    y = 1.0 + (x + 1.0) / 4.0
    head = y[..., :-1]
    nxt = y[..., 1:]
    core = (
        10.0 * np.sin(np.pi * y[..., 0]) ** 2
        + np.sum((head - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * nxt) ** 2), axis=-1)
        + (y[..., -1] - 1.0) ** 2
    )
    return np.pi / d * core + np.sum(_penalty_u(x, 10.0, 100.0, 4.0), axis=-1)


def _penalized_2(x):
    head = x[..., :-1]
    nxt = x[..., 1:]
    core = (
        np.sin(3.0 * np.pi * x[..., 0]) ** 2
        + np.sum((head - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * nxt) ** 2), axis=-1)
        + (x[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x[..., -1]) ** 2)
    )
    return 0.1 * core + np.sum(_penalty_u(x, 5.0, 100.0, 4.0), axis=-1)


# Shekel's foxholes grid: 25 columns over {-32,-16,0,16,32}^2.
_FOXHOLES_A = np.array(
    [
        np.tile([-32.0, -16.0, 0.0, 16.0, 32.0], 5),
        np.repeat([-32.0, -16.0, 0.0, 16.0, 32.0], 5),
    ]
)


def _foxholes(x):
    d = (x[..., 0, None] - _FOXHOLES_A[0]) ** 6 + (x[..., 1, None] - _FOXHOLES_A[1]) ** 6
    j = np.arange(1, 26, dtype=float)
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / (j + d), axis=-1))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def _kowalik(x):
    b = _KOWALIK_B
    num = x[..., 0, None] * (b**2 + b * x[..., 1, None])
    den = b**2 + b * x[..., 2, None] + x[..., 3, None]
    return np.sum((_KOWALIK_A - num / den) ** 2, axis=-1)


def _camel_six_hump(x):
    x1, x2 = x[..., 0], x[..., 1]
    return 4 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4 * x2**2 + 4 * x2**4


def _branin(x):
    x1, x2 = x[..., 0], x[..., 1]
    return (
        (x2 - 5.1 / (4 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1)
        + 10.0
    )


def _goldstein_price(x):
    x1, x2 = x[..., 0], x[..., 1]
    a = 1 + (x1 + x2 + 1) ** 2 * (
        19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2
    )
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


_HARTMANN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMANN3_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
)
_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)
_HARTMANN_C = np.array([1.0, 1.2, 3.0, 3.2])


def _hartmann(a, p):
    def f(x):
        diff = x[..., None, :] - p
        inner = np.sum(a * diff**2, axis=-1)
        return -np.sum(_HARTMANN_C * np.exp(-inner), axis=-1)

    return f


_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def _shekel(m):
    a = _SHEKEL_A[:m]
    c = _SHEKEL_C[:m]

    def f(x):
        diff = x[..., None, :] - a
        return -np.sum(1.0 / (np.sum(diff**2, axis=-1) + c), axis=-1)

    return f


def _uniform_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random(n)


@dataclasses.dataclass(frozen=True)
class ClassicFunction:
    """A catalog entry: the wired Problem plus suite metadata."""

    id: str
    problem: Problem
    modality: str  # "unimodal" or "multimodal"
    fixed_dim: Optional[int] = None


# id -> (objective, box builder, fixed_dim, modality, optimum builder, noise)
_CATALOG = {
    "f1": (_sphere, lambda d: Bounds.symmetric(100.0, d), None, "unimodal", lambda d: 0.0, None),
    "f2": (_schwefel_2_22, lambda d: Bounds.symmetric(10.0, d), None, "unimodal", lambda d: 0.0, None),
    "f3": (_double_sum, lambda d: Bounds.symmetric(100.0, d), None, "unimodal", lambda d: 0.0, None),
    "f4": (_max_abs, lambda d: Bounds.symmetric(100.0, d), None, "unimodal", lambda d: 0.0, None),
    "f5": (_rosenbrock, lambda d: Bounds.symmetric(30.0, d), None, "unimodal", lambda d: 0.0, None),
    "f6": (_step, lambda d: Bounds.symmetric(100.0, d), None, "unimodal", lambda d: 0.0, None),
    "f7": (_quartic, lambda d: Bounds.symmetric(1.28, d), None, "unimodal", lambda d: 0.0, _uniform_noise),
    "f8": (_schwefel, lambda d: Bounds.symmetric(500.0, d), None, "multimodal", lambda d: -418.98 * d, None),
    "f9": (_rastrigin, lambda d: Bounds.symmetric(5.12, d), None, "multimodal", lambda d: 0.0, None),
    "f10": (_ackley, lambda d: Bounds.symmetric(32.0, d), None, "multimodal", lambda d: 0.0, None),
    "f11": (_griewank, lambda d: Bounds.symmetric(600.0, d), None, "multimodal", lambda d: 0.0, None),
    "f12": (_penalized_1, lambda d: Bounds.symmetric(50.0, d), None, "multimodal", lambda d: 0.0, None),
    "f13": (_penalized_2, lambda d: Bounds.symmetric(50.0, d), None, "multimodal", lambda d: 0.0, None),
    "f14": (_foxholes, lambda d: Bounds.symmetric(65.536, 2), 2, "multimodal", lambda d: 0.9980, None),
    "f15": (_kowalik, lambda d: Bounds.symmetric(5.0, 4), 4, "multimodal", lambda d: 0.0003075, None),
    "f16": (_camel_six_hump, lambda d: Bounds.symmetric(5.0, 2), 2, "multimodal", lambda d: -1.0316, None),
    "f17": (_branin, lambda d: Bounds(np.array([-5.0, 0.0]), np.array([10.0, 15.0])), 2, "multimodal", lambda d: 0.3979, None),
    "f18": (_goldstein_price, lambda d: Bounds.symmetric(2.0, 2), 2, "multimodal", lambda d: 3.0, None),
    "f19": (_hartmann(_HARTMANN3_A, _HARTMANN3_P), lambda d: Bounds.uniform(0.0, 1.0, 3), 3, "multimodal", lambda d: -3.8628, None),
    "f20": (_hartmann(_HARTMANN6_A, _HARTMANN6_P), lambda d: Bounds.uniform(0.0, 1.0, 6), 6, "multimodal", lambda d: -3.3220, None),
    "f21": (_shekel(5), lambda d: Bounds.uniform(0.0, 10.0, 4), 4, "multimodal", lambda d: -10.1532, None),
    "f22": (_shekel(7), lambda d: Bounds.uniform(0.0, 10.0, 4), 4, "multimodal", lambda d: -10.4029, None),
    "f23": (_shekel(10), lambda d: Bounds.uniform(0.0, 10.0, 4), 4, "multimodal", lambda d: -10.5364, None),
}

CLASSIC_IDS = tuple(_CATALOG)


def make_classic(fid: str, dim: int = 30) -> ClassicFunction:
    """Build a classic benchmark by id (f1..f23).

    dim applies to the variable-dimension functions f1-f13 and is ignored for
    the fixed-dimension ones.
    """
    key = fid.lower()
    if key not in _CATALOG:
        raise UnknownFunction(f"unknown classic function id: {fid!r}")
    obj, box, fixed, modality, opt, noise = _CATALOG[key]
    if fixed is None and dim < 1:
        raise ValueError("dim must be >= 1")
    d = fixed if fixed is not None else int(dim)
    problem = Problem(
        name=key,
        dim=d,
        bounds=box(d),
        objective=obj,
        known_optimum=opt(d),
        noise=noise,
    )
    return ClassicFunction(id=key, problem=problem, modality=modality, fixed_dim=fixed)


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
