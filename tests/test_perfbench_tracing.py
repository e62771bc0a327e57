"""The benchmark's tracer names library functions by string: each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists():
    # Tracer.install looks each one up with getattr, so a missing name
    # breaks every traced benchmark run
    traced = _traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"involsvd.{module}"), name, None))
    ]
    assert not missing, f"traced functions missing from involsvd: {missing}"
