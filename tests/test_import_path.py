"""Importing the package and fitting load NumPy alone; SciPy is loaded only
when a Friedman p-value is computed.

The check runs in a fresh interpreter, because this test process already
imports ``scipy.stats`` (tests/test_analysis.py does at module level).
"""

import json
import subprocess
import sys

CHILD = r"""
import contextlib
import io
import json
import sys

import numpy as np

import ecocycle
import ecocycle.cli
from ecocycle import EcoOptimizer, PsoOptimizer, friedman, make_classic, make_engineering

for problem, max_fes in ((make_classic("f1", dim=5).problem, 900), (make_engineering("rc17").problem, 600)):
    EcoOptimizer(max_fes=max_fes, seed=3).fit(problem)
    PsoOptimizer(max_fes=max_fes, seed=3).fit(problem)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        ecocycle.cli.main(["list"]),
        ecocycle.cli.main(["eval", "--problem", "rc17", "--point", "0.05,0.3,12"]),
    ]
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

ave = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [1.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
res = friedman(ave)
loaded = "scipy.special" in sys.modules

from scipy.stats import chi2

print(json.dumps({
    "codes": codes,
    "scipy_before_friedman": before,
    "scipy_loaded_by_friedman": loaded,
    "p_value": res.p_value.hex(),
    "chi2_sf": float(chi2.sf(res.statistic, ave.shape[1] - 1)).hex(),
}))
"""


def test_fitting_loads_numpy_only_and_friedman_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["scipy_before_friedman"] == []
    assert out["scipy_loaded_by_friedman"]
    assert out["p_value"] == out["chi2_sf"]
