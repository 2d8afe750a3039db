import importlib
import pkgutil
import subprocess
import sys

import pytest

import ikno

MODULES = sorted(
    name
    for name in (f"ikno.{m.name}" for m in pkgutil.iter_modules(ikno.__path__))
    if hasattr(importlib.import_module(name), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"


def test_library_imports_leave_out_jsonschema():
    # jsonschema is imported only when a report is written; the library
    # modules a training or inference process imports do not pay for it
    code = (
        "import sys\n"
        "import ikno.data, ikno.experiments, ikno.kernels, ikno.model\n"
        "import ikno.resolvent, ikno.training, ikno.bench\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
