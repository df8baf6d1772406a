"""The benchmark's tracer finds every program function it times.

`perfbench/tracer.py` wraps named functions of the package from outside; a
name that a refactor removes or moves is reported missing, and every
per-layer metric computed from it reads None.  This pins the names.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
