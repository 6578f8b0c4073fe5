"""Every attribute that perfbench's tracer wraps exists on the package.

The tracer records a wrapped target it cannot find as absent, and the
per-layer metric built on it then reads ``absent:`` instead of failing. A
rename or removal in ``ecocycle`` fails here first. ``perfbench/tracing.py``
is only read, never changed.
"""

import importlib.util
import pathlib
import sys

import pytest

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
