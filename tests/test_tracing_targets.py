"""Every attribute that perfbench's tracer wraps exists on the package, and
every optimizer layer it times is still called through the wrapped name.

The tracer records a wrapped target it cannot find as absent, and the
per-layer metric built on it then reads ``absent:`` instead of failing. A
layer that the program reaches some other way (say, diversity computed
where the optimizer modules' ``population_diversity`` is not looked up)
reads 0 without any error. A rename, removal or bypass in ``ecocycle``
fails here first. ``perfbench/tracing.py`` is only read, never changed.
"""

import importlib.util
import pathlib
import sys

import pytest

from ecocycle.classic import make_classic
from ecocycle.eco import EcoOptimizer
from ecocycle.engineering import make_engineering
from ecocycle.pso import PsoOptimizer

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "path, attr", [(path, attr) for path, attr, _ in tracing.WRAPPED], ids=lambda v: v
)
def test_wrapped_target_resolves(path, attr):
    owner = tracing._resolve(path)
    assert owner is not None, path
    assert callable(getattr(owner, attr, None)), f"{path}.{attr}"


# The spans of the optimizer layers; the harness and statistics spans need
# an `ecocycle run` and are left to perfbench's own grid workload.
FIT_LAYERS = (
    "eco.fit",
    "pso.fit",
    "eco.decompose",
    "eco.predation_factor",
    "eco.producer",
    "problems.evaluate",
    "problems.violation",
    "problems.repair",
    "analysis.diversity",
    "base.record",
)


def test_every_fit_layer_fires():
    tracer = tracing.Tracer().install()
    try:
        EcoOptimizer(max_fes=300, seed=0).fit(make_classic("f1", dim=5).problem)
        PsoOptimizer(max_fes=300, seed=0).fit(make_engineering("rc15").problem)
    finally:
        tracer.uninstall()
    assert [name for name in FIT_LAYERS if tracer.calls(name) == 0] == []


def test_stacked_fit_is_counted_per_run():
    # The fit hook adds int(n_iters_) and int(n_fes_) per fit; for a stack
    # those are the totals over its runs.
    tracer = tracing.Tracer().install()
    try:
        opt = EcoOptimizer(max_fes=300, seed=[0, 1, 2]).fit(make_classic("f1", dim=5).problem)
    finally:
        tracer.uninstall()
    assert tracer.counts["fits:EcoOptimizer"] == 1
    assert tracer.counts["iters:EcoOptimizer"] == sum(opt.n_iters_.tolist())
    assert tracer.counts["evals:EcoOptimizer"] == sum(opt.n_fes_.tolist())
