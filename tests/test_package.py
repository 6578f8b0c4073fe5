"""The package's lazy exports: every name in ``ecocycle.__all__`` resolves on
first access, and importing the package alone loads none of its submodules.

Both checks run in a fresh interpreter, because this test process has
already imported every submodule.
"""

import json
import subprocess
import sys

CHILD = r"""
import json
import sys

import ecocycle

loaded_by_import = sorted(m for m in sys.modules if m.startswith("ecocycle."))
namespace = {}
exec("from ecocycle import *", namespace)
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "all": list(ecocycle.__all__),
    "bound": sorted(name for name in ecocycle.__all__ if name in namespace),
    "same_objects": all(namespace[name] is getattr(ecocycle, name) for name in ecocycle.__all__),
    "in_dir": all(name in dir(ecocycle) for name in ecocycle.__all__),
}))
"""


def run_child():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_star_import_binds_every_exported_name():
    out = run_child()
    assert out["bound"] == sorted(out["all"])
    assert out["same_objects"]
    assert out["in_dir"]


def test_importing_the_package_loads_no_submodule():
    assert run_child()["loaded_by_import"] == []


def test_unknown_name_raises_attribute_error():
    import pytest

    import ecocycle

    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        ecocycle.nothing_here
