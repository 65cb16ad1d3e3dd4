"""The benchmark's tracer wraps functions by name; every name must still exist,
and every count it takes must read the shape its function really returns. The
generator configs of the benchmark and of the paper-scale run must still load."""

import importlib
import importlib.util
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from fareaudit.ingest import load_bundle, normalize
from fareaudit.synthgen import GenConfig

ROOT = Path(__file__).resolve().parents[1]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def installed(tracer):
    """A Tracer installed over the package; every patched name is put back after."""
    names = [(f"fareaudit.{m}", attr) for m, attr, _span, _counts in tracer.WRAPPED]
    names.append(("fareaudit.cli", "process_bundle"))
    saved = [(m, attr, getattr(importlib.import_module(m), attr)) for m, attr in names]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        yield spans
    finally:
        for module, attr, fn in saved:
            setattr(importlib.import_module(module), attr, fn)


def test_tracer_wrapped_names_resolve():
    tracer = load_bench("tracer")
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
    for module_name, attr, _span, counts in load_bench("tracer").WRAPPED:
        if counts is not None:
            fn = getattr(importlib.import_module(f"fareaudit.{module_name}"), attr)
            got[attr] = counts(fn(*args[attr]))
    assert got == want


def test_tracer_sees_the_worker_entry_of_audit_and_predict(bundle_dir, tmp_path_factory):
    # the traced run measures per-bundle work and what a --jobs worker ships
    # only through cli.process_bundle; a subcommand that went round it would
    # leave both spans empty
    out = tmp_path_factory.mktemp("traced")
    recorded = {}
    with installed(load_bench("tracer")) as spans:
        cli = importlib.import_module("fareaudit.cli")
        for command in ("audit", "predict"):
            spans.spans.clear()
            # predict exits 3 on one year of trips, after the bundle was processed
            cli.main([command, str(bundle_dir.parent), "--out", str(out / command)])
            recorded[command] = list(spans.spans)
    for command, got in recorded.items():
        assert any(s["name"] == "report.process_bundle" for s in got), command
        shipped = [s for s in got if s["name"] == "report.result_pickle"]
        assert shipped, command
        assert all(s["counts"]["report.result_pickle_bytes"] > 0 for s in shipped), command


def test_tracer_sees_the_generator_and_its_writes(tmp_path):
    # synth loads the generator inside the run, so the traced span of
    # cli.generate, and the writes inside it, must still be recorded
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_drivers": 2, "last_month": "2021-01"}))
    with installed(load_bench("tracer")) as spans:
        cli = importlib.import_module("fareaudit.cli")
        assert cli.main(["synth", str(config), "--out", str(tmp_path / "fleet")]) == 0
    got = [s["name"] for s in spans.spans]
    assert got.count("synthgen.generate") == 1
    assert got.count("ingest.write_bundle") >= 1


def test_tracer_records_a_span_of_every_wrapped_name(tmp_path):
    # a wrapped name the program imports but no longer calls would read 0 in
    # its per-layer metric; one small fleet, fixed in 2022-12 and on dynamic
    # pricing in 2023-02, takes every wrapped layer through synth, audit with
    # charts and cohort windows, and predict
    tracer = load_bench("tracer")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 4, "n_drivers": 2, "first_month": "2022-12", "last_month": "2023-02",
        "opaque_start": "2023-01", "dynamic_start": "2023-02", "rpi_yoy": 3.0,
        "session_min_h": 1.0, "session_max_h": 2.0,
    }))
    fleet, out = str(tmp_path / "fleet"), str(tmp_path / "out")
    runs = (
        ["synth", str(config), "--out", fleet],
        [
            "audit", fleet, "--out", out, "--charts", "--era-boundaries", "2023-01:2023-02",
            "--cohort-pre", "2022-12:2022-12", "--cohort-post", "2023-02:2023-02",
        ],
        ["predict", fleet, "--out", out],
    )
    with installed(tracer) as spans:
        cli = importlib.import_module("fareaudit.cli")
        assert [cli.main(argv) for argv in runs] == [0, 0, 0]
    got = {s["name"] for s in spans.spans}
    want = {span for _m, _attr, span, _counts in tracer.WRAPPED}
    assert want - got == set()


def test_benchmark_and_scale_configs_load(monkeypatch):
    # the benchmark's synth step and the paper-scale run need every generator
    # field they set; run.py imports its neighbours by their bare names
    for name in ("checks", "tracer"):
        monkeypatch.setitem(sys.modules, name, load_bench(name))
    run = load_bench("run")
    configs = [json.loads((ROOT / "scale" / "paper.json").read_text(encoding="utf-8"))]
    for spec in run.WORKLOADS.values():
        configs.append({**spec["config"], "seed": 1})
        if "pinned" in spec:
            configs.append(spec["pinned"])
    assert len(configs) == 5
    for config in configs:
        GenConfig.from_dict(json.loads(json.dumps(config)))  # as synth reads its file
