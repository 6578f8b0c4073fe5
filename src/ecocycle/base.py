"""Estimator plumbing shared by the optimizers.

Optimizers follow the familiar estimator shape: hyperparameters are plain
keyword arguments stored verbatim on the instance, get_params/set_params
round-trip them, fit(problem) runs the search and leaves results in
trailing-underscore attributes (best_x_, best_value_, trace_, ...).
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Iterator, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class RunTrace:
    """Per-iteration history of one optimization run.

    Row 0 describes the state right after initialization (iteration 0);
    each later row describes the state after one full completed iteration.
    best_values is the running best objective seen so far (best_viols its
    constraint violation, zero throughout on box-only problems), div the
    population diversity at that point, fes the cumulative evaluation count.
    """

    iters: np.ndarray
    fes: np.ndarray
    best_values: np.ndarray
    best_viols: np.ndarray
    div: np.ndarray

    def __post_init__(self):
        n = len(self.iters)
        if not (
            len(self.fes)
            == len(self.best_values)
            == len(self.best_viols)
            == len(self.div)
            == n
        ):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.iters)

    def to_rows(self) -> Iterator[Tuple[int, int, float, float]]:
        """Yield (iter, fes, best_value, div) tuples, one per row."""
        for k in range(len(self.iters)):
            yield (
                int(self.iters[k]),
                int(self.fes[k]),
                float(self.best_values[k]),
                float(self.div[k]),
            )


class TraceRecorder:
    """Accumulates trace rows during a run and freezes them at the end."""

    def __init__(self):
        self._iters = []
        self._fes = []
        self._best = []
        self._viol = []
        self._div = []

    def record(
        self, iteration: int, fes: int, best_value: float, best_viol: float, div: float
    ):
        self._iters.append(int(iteration))
        self._fes.append(int(fes))
        self._best.append(float(best_value))
        self._viol.append(float(best_viol))
        self._div.append(float(div))

    def freeze(self) -> RunTrace:
        return RunTrace(
            iters=np.asarray(self._iters, dtype=np.int64),
            fes=np.asarray(self._fes, dtype=np.int64),
            best_values=np.asarray(self._best, dtype=float),
            best_viols=np.asarray(self._viol, dtype=float),
            div=np.asarray(self._div, dtype=float),
        )


class BaseOptimizer:
    """Parameter handling base for population optimizers.

    Subclasses declare hyperparameters as explicit __init__ keywords and
    store each under its own name; get_params/set_params then work by
    signature introspection, the usual estimator contract.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseOptimizer":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # fit(problem) is defined by each optimizer.


def rng_from(seed) -> np.random.Generator:
    """Build a fresh Generator from a seed or pass one through untouched."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
