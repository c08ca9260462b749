"""The benchmark's tracer must find every hook it wraps in the package."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        hooks = list(tracer._saved)
        assert hooks
        for owner, attr, original in hooks:
            wrapped = getattr(owner, attr)
            assert wrapped is not original, attr
            assert wrapped.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, attr
