"""The host's speed during a run, measured by a fixed loop run between fits.

On a shared host the same fit can take 1.6 times as long in one minute as
in the next (see the README's "Run-to-run spread and the bounds"), so raw
wall times of runs made minutes apart differ by more than any change worth
measuring. The loop below is the benchmark's own code and never calls the
program: a change to the program leaves its time alone, while a slower host
slows it about as much as it slows a fit. Scaling a run's times by
``NOMINAL_S`` over the loop's mean time in that run keeps what the program
changed and takes out most of what the host changed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The loop's time on a 2-core x86_64 host in a quiet minute: scaled times
# read as the seconds the run would have taken at that speed.
NOMINAL_S = 0.040
# At most one loop per this many seconds, taken before a fit starts: about
# 3% of a run on the long fits, up to 8% on the grid's short ones.
INTERVAL_S = 0.5


def loop() -> float:
    """Interpreted arithmetic and small NumPy calls on 30 x 30 arrays, the
    two kinds of work an ECO or PSO iteration spends its time in."""
    s = 0.0
    for i in range(120_000):
        s += math.sin(i * 0.001) * (i % 7)
    rng = np.random.default_rng(0)
    x = rng.random((30, 30))
    for _ in range(600):
        y = x * rng.random((30, 1)) + 0.1 * rng.standard_normal((30, 30))
        x = np.clip(y[np.argsort(y.sum(axis=1), kind="stable")], 0.0, 1.0)
        s += float(x.min()) + float((x < 0.5).any(axis=1).sum())
    return s


class HostSpeed:
    """Loop times sampled through a run, and the seconds they took.

    Traced runs take no samples (``sample=False``): their per-layer times
    are not scaled, and a loop run inside ``ecocycle run`` would be counted
    in the harness's time outside ``fit``."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def between_fits(self) -> None:
        """Time the loop once, unless it ran less than INTERVAL_S ago."""
        start = time.perf_counter()
        if not self.sample or start - self._last < INTERVAL_S:
            return
        loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def scale(self) -> float:
        """Nominal seconds per measured second in this run."""
        return NOMINAL_S / statistics.fmean(self.samples)
