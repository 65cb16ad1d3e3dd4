"""The benchmark's tracer wraps functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr, _span, _counts in tracer.WRAPPED:
        module = importlib.import_module(f"fareaudit.{module_name}")
        assert callable(getattr(module, attr, None)), f"fareaudit.{module_name}.{attr}"
    assert callable(importlib.import_module("fareaudit.cli").process_bundle)
