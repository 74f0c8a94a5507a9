"""Every function the benchmark's tracer hooks must still resolve.

A hook that no longer resolves makes the traced benchmark write a null
metric, so renaming or deleting a hooked function has to move its hook in
the same change.  The tracer module is loaded from its file, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import glscov  # noqa: F401  (the tracer looks its modules up in sys.modules)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize("hook", sorted(_tracer.HOOKS))
def test_hook_resolves(hook):
    module_name, path = _tracer.HOOKS[hook]
    importlib.import_module(module_name)
    assert _tracer._resolve(module_name, path) is not None, f"{hook}: {module_name}.{path}"
