"""The benchmark's tracer wraps functions by name; every name must still exist,
and every count it takes must read the shape its function really returns."""

import importlib
import importlib.util
import json
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


def test_tracer_sees_the_worker_entry_of_audit_and_predict(bundle_dir, tmp_path_factory):
    # the traced run measures per-bundle work and what a --jobs worker ships
    # only through cli.process_bundle; a subcommand that went round it would
    # leave both spans empty
    tracer = load_tracer()
    names = [(f"fareaudit.{m}", attr) for m, attr, _span, _counts in tracer.WRAPPED]
    names.append(("fareaudit.cli", "process_bundle"))
    saved = [(m, attr, getattr(importlib.import_module(m), attr)) for m, attr in names]
    spans = tracer.Tracer()
    tracer.install(spans)
    out = tmp_path_factory.mktemp("traced")
    recorded = {}
    try:
        cli = importlib.import_module("fareaudit.cli")
        for command in ("audit", "predict"):
            spans.spans.clear()
            # predict exits 3 on one year of trips, after the bundle was processed
            cli.main([command, str(bundle_dir.parent), "--out", str(out / command)])
            recorded[command] = list(spans.spans)
    finally:
        for module, attr, fn in saved:
            setattr(importlib.import_module(module), attr, fn)
    for command, got in recorded.items():
        assert any(s["name"] == "report.process_bundle" for s in got), command
        shipped = [s for s in got if s["name"] == "report.result_pickle"]
        assert shipped, command
        assert all(s["counts"]["report.result_pickle_bytes"] > 0 for s in shipped), command


def test_tracer_sees_the_generator_and_its_writes(tmp_path):
    # synth loads the generator inside the run, so the traced span of
    # cli.generate, and the writes inside it, must still be recorded
    tracer = load_tracer()
    names = [(f"fareaudit.{m}", attr) for m, attr, _span, _counts in tracer.WRAPPED]
    names.append(("fareaudit.cli", "process_bundle"))
    saved = [(m, attr, getattr(importlib.import_module(m), attr)) for m, attr in names]
    spans = tracer.Tracer()
    tracer.install(spans)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_drivers": 2, "last_month": "2021-01"}))
    try:
        cli = importlib.import_module("fareaudit.cli")
        assert cli.main(["synth", str(config), "--out", str(tmp_path / "fleet")]) == 0
    finally:
        for module, attr, fn in saved:
            setattr(importlib.import_module(module), attr, fn)
    got = [s["name"] for s in spans.spans]
    assert got.count("synthgen.generate") == 1
    assert got.count("ingest.write_bundle") >= 1
