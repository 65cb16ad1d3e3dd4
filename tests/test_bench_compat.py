"""The benchmark's tracer wraps functions by name; every name must still exist,
and every count it takes must read the shape its function really returns."""

import importlib
import importlib.util
from pathlib import Path

from fareaudit.ingest import load_bundle, normalize

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wrapped_names_resolve():
    tracer = load_tracer()
    assert tracer.WRAPPED
    for module_name, attr, _span, _counts in tracer.WRAPPED:
        module = importlib.import_module(f"fareaudit.{module_name}")
        assert callable(getattr(module, attr, None)), f"fareaudit.{module_name}.{attr}"
    assert callable(importlib.import_module("fareaudit.cli").process_bundle)


def test_tracer_counts_read_real_results(bundle_dir):
    # conftest's bundle: one trip (4 min en route, 15 on trip, no session)
    # and its one payment
    raw = load_bundle(bundle_dir)
    bundle, _report = normalize(raw)
    args = {
        "normalize": (raw,),
        "link": (bundle.trips, bundle.payments),
        "build_segments": (bundle.sessions, bundle.trips),
    }
    want = {
        "normalize": {"ingest.rows_in": 2, "ingest.rows_quarantined": 0},
        "link": {"linkage.linked_trips": 1},
        "build_segments": {"worktime.segments": 2},
    }
    got = {}
    for module_name, attr, _span, counts in load_tracer().WRAPPED:
        if counts is not None:
            fn = getattr(importlib.import_module(f"fareaudit.{module_name}"), attr)
            got[attr] = counts(fn(*args[attr]))
    assert got == want
