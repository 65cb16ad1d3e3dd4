"""End-to-end command line checks: exit codes, outputs, determinism."""

import codecs
import csv
import gc
import hashlib
import json
import logging
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import fareaudit
from fareaudit.anonymize import SALT_ENV_VAR
from fareaudit.cli import _bundle_dirs, main
from fareaudit.ingest import load_rpi
from fareaudit.model import month_label
from fareaudit.report import (
    AuditOptions,
    BundleFailure,
    build_report,
    dumps_report,
    json_ready,
    process_bundle,
)
from fareaudit.synthgen import MARKER_PREFIX, CohortPlan, CorruptionPlan, GenConfig, generate
from conftest import (
    PAYMENT_HEADER,
    TRIP_HEADER,
    payment_csv_row,
    trip_csv_row,
    write_table,
)
from test_synthgen import GOLDEN


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


SMALL = GenConfig(
    seed=11,
    n_drivers=2,
    first_month="2021-02",
    last_month="2021-04",
    rpi_yoy=3.0,
    corrupt=CorruptionPlan(duplicate_payments=2, inverted_trips=1, malformed_money=1),
)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    generate(SMALL, root)
    return root


# 2022-01 is fixed commission, 2022-02..2023-01 the opaque gap, 2023-02 on
# dynamic pricing, so every report section has data
THREE_ERAS = GenConfig(
    seed=12,
    n_drivers=3,
    first_month="2022-01",
    last_month="2023-03",
    work_prob=0.3,
    session_min_h=0.75,
    session_max_h=1.25,
    rpi_yoy=4.0,
    cohort=CohortPlan(("2022-03", "2022-04"), ("2022-09", "2022-10"), cut_fraction=0.5),
    corrupt=CorruptionPlan(duplicate_payments=2, inverted_trips=2, malformed_money=1),
)


# -- synth --


def test_synth_missing_config(tmp_path):
    rc = main(["synth", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_synth_rejects_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_drivers": 0}))
    assert main(["synth", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text("{not json")
    assert main(["synth", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # the audit dates every instant in one calendar, so a fleet has no zone of its own
    cfg.write_text(json.dumps({"tz": "America/New_York"}))
    assert main(["synth", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # a seed is a whole number >= 0; true would otherwise run as seed 1
    for seed in (-1, 1.5, "7", True):
        cfg.write_text(json.dumps({"seed": seed, "n_drivers": 1, "last_month": "2021-01"}))
        assert main(["synth", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"first_month": "2021-13"},
        {"cohort": {"window_pre": ["2021-2", "2021-03"], "window_post": ["2021-09", "2021-10"]}},
        # a field the generator does not take
        {"n_drivers": 1, "last_month": "2021-01", "products": [["UberX", "x"]]},
        {"n_drivers": 1, "last_month": "2021-01", "products": [["UberX"]]},
        {"n_drivers": 1, "last_month": "2021-01", "cohort": {"window_post": ["2021-01"] * 2}},
        # json reads NaN, and generation could not round it
        {"n_drivers": 1, "last_month": "2021-01", "jitter_sd_s": math.nan},
        {"n_drivers": 1, "last_month": "2021-01", "session_min_h": math.nan},
        # counts are whole numbers, and true is no count
        {"n_drivers": 1.5, "last_month": "2021-01"},
        {"n_drivers": True, "last_month": "2021-01"},
        {"n_drivers": 1, "last_month": "2021-01", "switch_year": "2021"},
        {"n_drivers": 1, "last_month": "2021-01", "corrupt": {"duplicate_payments": 1.5}},
        {"n_drivers": 1, "last_month": "2021-01", "switch_year": 2021,
         "switch_rule": {"base_pence": "x"}},
        # a float commission is not the exact fraction the fares are built on
        {"n_drivers": 1, "last_month": "2021-01", "commission": 0.1},
        {"n_drivers": 1, "last_month": "2021-01", "session_min_h": 5, "session_max_h": 1},
        {"n_drivers": 1, "last_month": "2021-01", "session_min_h": -3, "session_max_h": -1},
        *(
            {"n_drivers": 1, "last_month": "2021-02", "cohort": {
                "window_pre": ["2021-01"] * 2, "window_post": ["2021-02"] * 2, "gap_drivers": gap,
            }}
            for gap in (5, -1)
        ),
        # months outside 0001-02..9998-11 have days the calendar cannot date
        {"first_month": "0000-01"},
        {"last_month": "9999-12"},
        {"n_drivers": 1, "first_month": "9999-01", "last_month": "9999-01"},
        # an rpi.csv the audit would refuse
        {"n_drivers": 1, "last_month": "2021-01", "rpi_yoy": -100},
        # true is no number
        {"n_drivers": 1, "last_month": "2021-01", "session_min_h": True, "session_max_h": True},
        *(
            {"n_drivers": 1, "last_month": "2021-01", name: True}
            for name in ("work_prob", "jitter_sd_s", "rpi_yoy")
        ),
        {"n_drivers": 1, "last_month": "2021-01", "cohort": {
            "window_pre": ["2021-01"] * 2, "window_post": ["2021-02"] * 2, "cut_fraction": True,
        }},
    ],
)
def test_synth_malformed_month_label_is_a_config_error(tmp_path, caplog, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["synth", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "invalid config" in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("month", ["0001-02", "9998-11"])
def test_synth_fleet_at_the_calendar_edges_audits_clean(tmp_path, month):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"n_drivers": 1, "first_month": month, "last_month": month, "rpi_yoy": 2.0})
    )
    assert main(["synth", str(cfg), "--out", str(tmp_path / "f")]) == 0
    assert main(["audit", str(tmp_path / "f"), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "audit_report.json").read_text())
    assert report["drivers"] == 1 and report["failures"] == []
    tables = [t for info in report["bundles"].values() for t in info["ingest"]["tables"].values()]
    assert sum(t["rows_in"] for t in tables) > 0
    assert sum(t["rows_quarantined"] for t in tables) == 0


def test_synth_seed_repeat_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            asdict(GenConfig(seed=3, n_drivers=1, first_month="2021-03", last_month="2021-04"))
        )
    )
    assert main(["synth", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


# -- audit --


def test_audit_empty_root(tmp_path):
    assert main(["audit", str(tmp_path), "--out", str(tmp_path / "o")]) == 3


def test_audit_report_sections(bundles, tmp_path):
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    for section in (
        "parameters",
        "bundles",
        "failures",
        "weekly_pay",
        "inflation",
        "take_rates",
        "surplus",
        "per_minute_by_split",
        "utilisation",
        "acceptance",
        "demographics",
        "trips_per_era",
    ):
        assert section in report, section
    # fixed-era-only data: no dynamic shares, so no KDE comparison section
    assert "share_distribution" not in report
    assert report["drivers"] == 2
    # rpi.csv sits beside the bundles and is picked up without a flag
    assert report["inflation"] is not None
    # corrupted rows are absorbed during normalization, not fatal
    dropped = sum(
        t["rows_deduped"] + t["rows_quarantined"]
        for info in report["bundles"].values()
        for t in info["ingest"]["tables"].values()
    )
    assert dropped >= 4


def test_jobs_never_start_more_workers_than_bundles(bundles, tmp_path, monkeypatch):
    # a fork pool starts all its workers on the first bundle, so --jobs 64
    # over a few bundles would fork 64 processes; this stand-in pool records
    # its size and runs the bundles in process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("fareaudit.cli.futures.ProcessPoolExecutor", InProcessPool)
    assert main(["audit", str(bundles), "--out", str(tmp_path / "o"), "--jobs", "64"]) == 0
    assert sizes == [len(_bundle_dirs(str(bundles)))]


def test_audit_rerun_and_jobs_byte_identical(bundles, tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert main(["audit", str(bundles), "--out", str(outs[0])]) == 0
    assert main(["audit", str(bundles), "--out", str(outs[1])]) == 0
    assert main(["audit", str(bundles), "--out", str(outs[2]), "--jobs", "2"]) == 0
    blobs = [(p / "audit_report.json").read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_audit_jobs_byte_identical_on_three_eras(tmp_path):
    generate(THREE_ERAS, tmp_path / "b")
    flags = ["--charts", "--cohort-pre", "2022-03:2022-04", "--cohort-post", "2022-09:2022-10"]
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["audit", str(tmp_path / "b"), "--out", str(out), "--jobs", jobs, *flags]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]
    assert len([name for name in outs[0] if name.endswith(".svg")]) == 6
    report = json.loads(outs[0]["audit_report.json"])
    assert report["share_distribution"]["n_fixed_commission"] > 0
    assert report["share_distribution"]["n_dynamic_pricing"] > 0
    assert report["cohort"]["qualified"] and "base_month" in report["inflation"]
    assert any(b["ingest"]["quarantine"] for b in report["bundles"].values())


def test_worker_results_stay_reduced(bundles):
    # the parent's whole bundle and link result pickled to about 450 bytes per
    # linked trip; the reduced result is about 45, nearly all trip columns
    directory = _bundle_dirs(str(bundles))[0]
    audit = process_bundle(directory, AuditOptions())
    linked = audit.link_counts[0]
    assert linked > 500
    assert not hasattr(audit, "bundle") and not hasattr(audit, "links")
    assert len(pickle.dumps(audit)) < 64 * linked
    # predict ships the 19 numeric and flag features and the target as floats,
    # and the hour, weekday, month and product as four int32 codes: 176 bytes
    # a row, where the parent's 62 float columns took 508
    features = process_bundle(directory, AuditOptions(features_only=True))
    rows = sum(len(y) for _, y, _ in features.years.values())
    assert rows > 500
    assert not hasattr(features, "bundle") and not hasattr(features, "links")
    assert len(pickle.dumps(features)) < 200 * rows


# two drivers each of the benchmark's audit_eras and audit_wide fleets
SHAPES = (
    GenConfig(
        seed=1, n_drivers=2, first_month="2021-07", last_month="2023-12", work_prob=0.9,
        session_min_h=0.75, session_max_h=1.25, rpi_yoy=4.0,
        corrupt=CorruptionPlan(duplicate_payments=4, inverted_trips=4, malformed_money=2),
    ),
    GenConfig(
        seed=1, n_drivers=2, first_month="2021-01", last_month="2021-01", work_prob=0.9,
        session_min_h=1.0, session_max_h=2.0,
    ),
)


@pytest.mark.parametrize("features_only", [False, True])
def test_workers_leave_no_reference_cycles(tmp_path, features_only):
    # a worker may run with the collector off; a record type with a cycle
    # would then leak instead of being freed when its bundle is done
    dirs = []
    for k, config in enumerate(SHAPES):
        generate(config, tmp_path / str(k))
        dirs += _bundle_dirs(str(tmp_path / str(k)))
    options = AuditOptions(features_only=features_only)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for directory in dirs:
            result = process_bundle(directory, options)
            assert not isinstance(result, BundleFailure)
            del result
            assert gc.collect() == 0, directory
    finally:
        if enabled:
            gc.enable()


def test_pay_per_hour_figures_pool_the_ledgers_buckets(tmp_path):
    # the oracle: pence over hours, each summed over the drivers in id order and
    # each driver's weeks or months in ledger order, to the bit
    generate(THREE_ERAS, tmp_path)
    results = [process_bundle(d, AuditOptions()) for d in _bundle_dirs(str(tmp_path))]
    ledgers = [r.ledger for r in sorted(results, key=lambda r: r.driver_id)]
    rpi = load_rpi(tmp_path / "rpi.csv")

    def pooled(buckets, standby: bool) -> str | None:
        pence, hours = 0, 0.0
        for b in buckets:
            pence += b.pay or 0
            hours += (b.en_route_ms + b.on_trip_ms + (b.standby_ms if standby else 0)) / 3_600_000
        return None if hours <= 0.0 else (pence / 100.0 / hours).hex()

    def bits(rate: float | None) -> str | None:
        return None if rate is None else rate.hex()

    weeks = sorted({week for ledger in ledgers for week in ledger.weeks})
    chosen = (weeks[1], weeks[len(weeks) // 2], weeks[-2], "2099-W01")
    report = build_report(results, AuditOptions(weeks=chosen), rpi)
    pay = report["weekly_pay"]
    assert len(pay["weekly_pooled"]) > 20
    for standby, name in ((True, "tribunal"), (False, "platform")):
        want = pooled((b for l in ledgers for w, b in l.weeks.items() if w in chosen), standby)
        assert want is not None and bits(pay[f"pooled_rate_{name}"]) == want
        for week, row in pay["weekly_pooled"].items():
            want = pooled((l.weeks[week] for l in ledgers if week in l.weeks), standby)
            assert bits(row[f"rate_{name}"]) == want
    months = sorted({m for ledger in ledgers for m in ledger.months})
    nominal = {
        month_label(m): pooled((l.months[m] for l in ledgers if m in l.months), True)
        for m in months
    }
    got = {label: bits(rate) for label, rate in report["inflation"]["nominal"].items()}
    assert len(got) > 10 and got == {k: v for k, v in nominal.items() if v is not None}

    unworked = build_report(results, AuditOptions(weeks=("2099-W01",)), rpi)["weekly_pay"]
    assert unworked["pooled_rate_tribunal"] is None and unworked["pooled_rate_platform"] is None


def test_audit_failed_write_keeps_the_old_report(bundles, tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out)]) == 0
    before = (out / "audit_report.json").read_bytes()

    def fails_after_the_first_key(report, fh):  # the report goes out as it is encoded
        fh.write(before[: before.index(b"\n  ")].decode())
        raise OSError("no space left on device")

    monkeypatch.setattr("fareaudit.cli.dumps_report", fails_after_the_first_key)
    with pytest.raises(OSError):
        main(["audit", str(bundles), "--out", str(out)])
    assert (out / "audit_report.json").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["audit_report.json"]


def test_dumps_report_writes_what_json_dumps_gives(tmp_path):
    report = {
        3: (1.0, -0.0, math.nan),
        "b": [math.inf, -math.inf, {10: None, 2: True, "x": 1 / 3}],
        "a": {"t": (1, 2.5e-7, "\u00e9\U0001f600"), 1: -123456789.0},
    }
    want = json.dumps(json_ready(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(tmp_path / "r.json", "w", encoding="utf-8") as fh:
        dumps_report(report, fh)
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == want
    assert '"3": [\n    1.0,\n    -0.0,\n    null\n  ]' in want  # the cases are in it


def test_audit_never_reads_its_own_out_directory(bundles, tmp_path, caplog):
    root = tmp_path / "b"
    shutil.copytree(bundles, root)
    reports = []
    for _ in range(2):
        assert main(["audit", str(root), "--out", str(root / "report")]) == 0
        reports.append((root / "report" / "audit_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["failures"] == []
    assert "report is the output directory, not read as a bundle" in caplog.text


def test_anon_failed_write_keeps_the_old_bundles(bundles, tmp_path, monkeypatch):
    monkeypatch.setenv(SALT_ENV_VAR, "0123456789abcdef0123")
    out = tmp_path / "o"
    assert main(["anon", str(bundles), "--out", str(out)]) == 0
    before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    assert sum(1 for p in before if p.name == "trips.csv") == 2

    trip_row = fareaudit.ingest.trip_row
    written = []

    def fails_after_100_rows(t):
        if len(written) == 100:
            raise OSError("no space left on device")
        written.append(t)
        return trip_row(t)

    monkeypatch.setattr("fareaudit.ingest.trip_row", fails_after_100_rows)
    with pytest.raises(OSError):
        main(["anon", str(bundles), "--out", str(out)])
    assert len(written) == 100
    assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before


def test_audit_tight_window_loses_matches(bundles, tmp_path):
    def unmatched(args):
        out = tmp_path / str(len(args))
        assert main(["audit", str(bundles), "--out", str(out), *args]) == 0
        report = json.loads((out / "audit_report.json").read_text())
        return sum(
            info["linkage"]["unmatched_payments"] for info in report["bundles"].values()
        )

    assert unmatched(["--link-window-seconds", "0.001"]) > unmatched([])


def test_audit_bad_options(bundles, tmp_path):
    out = str(tmp_path / "o")
    rc = main(["audit", str(bundles), "--out", out, "--rpi", str(tmp_path / "no.csv")])
    assert rc == 2
    rc = main(
        ["audit", str(bundles), "--out", out, "--era-boundaries", "2023-02:2022-02"]
    )
    assert rc == 2


def test_audit_era_boundaries_are_months_not_instants(bundles, tmp_path):
    # a boundary month need not be one the calendar can date
    out = tmp_path / "o"
    rc = main(["audit", str(bundles), "--out", str(out), "--era-boundaries", "2022-02:9999-01"])
    assert rc == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert report["parameters"]["era_boundaries"] == {
        "opaque_start": "2022-02",
        "dynamic_start": "9999-01",
    }
    assert list(report["trips_per_era"]) == ["fixed_commission"]


@pytest.mark.parametrize(
    "weeks",
    [
        "2099-W01,garbage",  # one good label does not carry a bad one
        "2021-W54",  # well formed, but no year has a 54th week
        "2021-W00",
        "2021-W9",
        "",
    ],
)
def test_audit_weeks_are_checked_at_parse_time(bundles, tmp_path, weeks):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["audit", str(bundles), "--out", str(out), "--weeks", weeks])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--cohort-pre", "2021-03:2021-04"],  # one window without the other
        ["--cohort-post", "2021-09:2021-10"],
        ["--cohort-pre", "2021-13:2021-14", "--cohort-post", "2021-09:2021-10"],
        ["--cohort-pre", "2021-03:2021-04", "--cohort-post", "2021-09:21-10"],
        ["--cohort-pre", "2023-03:2023-05", "--cohort-post", "2023-05:2023-07"],  # overlapping
        ["--cohort-pre", "2023-03:2023-04", "--cohort-post", "2023-09:2023-11"],  # unequal
        ["--cohort-pre", "2023-05:2023-03", "--cohort-post", "2023-09:2023-11"],  # reversed
    ],
)
def test_audit_cohort_windows_are_checked_before_any_bundle(tmp_path, flags):
    # an empty root exits 3 (no data) unless the windows are checked first
    try:
        code = main(["audit", str(tmp_path), "--out", str(tmp_path / "o"), *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_audit_weeks_filter_is_written(bundles, tmp_path):
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out), "--weeks", "2021-W12,2020-W53"]) == 0
    report = json.loads((out / "audit_report.json").read_text(encoding="utf-8"))
    assert report["parameters"]["weeks_filter"] == ["2020-W53", "2021-W12"]


@pytest.mark.parametrize("command", ["audit", "predict"])
@pytest.mark.parametrize(
    "option, value",
    [
        ("--link-window-seconds", "0"),
        ("--link-window-seconds", "-5"),
        ("--link-window-seconds", "nan"),
        ("--link-window-seconds", "inf"),
        ("--link-window-seconds", "1e306"),  # finite, but not in milliseconds
        ("--link-window-seconds", "soon"),
        ("--jobs", "0"),
        ("--jobs", "-1"),
        ("--jobs", "two"),
    ],
)
def test_bad_window_or_jobs_is_a_usage_error(bundles, tmp_path, command, option, value):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, str(bundles), "--out", str(out), option, value])
    assert exc.value.code == 2
    assert not out.exists()


def test_predict_negative_seed_is_a_usage_error(bundles, tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["predict", str(bundles), "--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert not out.exists()


def test_audit_rpi_with_bom_writes_the_same_report(bundles, tmp_path):
    plain = (bundles / "rpi.csv").read_bytes()
    bom = tmp_path / "rpi.csv"
    bom.write_bytes(codecs.BOM_UTF8 + plain)
    assert main(["audit", str(bundles), "--out", str(tmp_path / "a")]) == 0
    assert main(["audit", str(bundles), "--out", str(tmp_path / "b"), "--rpi", str(bom)]) == 0
    report = (tmp_path / "b" / "audit_report.json").read_bytes()
    assert report == (tmp_path / "a" / "audit_report.json").read_bytes()
    assert "real" in json.loads(report)["inflation"]


def test_audit_bad_rpi_file_is_a_config_error(bundles, tmp_path, caplog):
    rpi = tmp_path / "rpi.csv"
    for text, named in (
        ("mon,yoy_pct\n2021-01,1.5\n", "'month'"),
        ("month,yoy\n2021-01,1.5\n", "'yoy_pct'"),
        ("month,yoy_pct\n2021-01\n", "float"),  # a row without its value
        ("month,yoy_pct\n2021-02,3\n2021-03,4\n2021-03,40\n", "2021-03"),  # a month twice
    ):
        rpi.write_text(text)
        caplog.clear()
        rc = main(["audit", str(bundles), "--out", str(tmp_path / "o"), "--rpi", str(rpi)])
        assert rc == 2
        assert "bad rpi file" in caplog.text and named in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "-150"])
def test_audit_rpi_value_out_of_range_is_a_config_error(bundles, tmp_path, caplog, value):
    # 2021-03 lies between the fleet's months and the base month, so the
    # inflation adjustment reads it
    text = (bundles / "rpi.csv").read_text()
    assert "\n2021-03,3\n" in text
    rpi = tmp_path / "rpi.csv"
    rpi.write_text(text.replace("\n2021-03,3\n", f"\n2021-03,{value}\n"))
    rc = main(["audit", str(bundles), "--out", str(tmp_path / "o"), "--rpi", str(rpi)])
    assert rc == 2
    assert "bad rpi file" in caplog.text and "2021-03" in caplog.text
    assert not (tmp_path / "o").exists()


def _worker_dies(directory, options):
    os._exit(1)


def test_audit_worker_crash_exits_no_data(bundles, tmp_path, monkeypatch):
    # the pool forks, so its workers can load the replacement from this module
    monkeypatch.setattr("fareaudit.cli.process_bundle", _worker_dies)
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out), "--jobs", "2"]) == 3
    assert not out.exists()


def test_predict_worker_crash_exits_no_data(tmp_path, monkeypatch, caplog):
    # two years, so predict would write its matrix if the workers lived
    root = tmp_path / "fleet"
    generate(GenConfig(seed=8, n_drivers=2, first_month="2021-11", last_month="2022-02"), root)
    monkeypatch.setattr("fareaudit.cli.process_bundle", _worker_dies)
    out = tmp_path / "o"
    assert main(["predict", str(root), "--out", str(out), "--jobs", "2"]) == 3
    assert "worker process failed" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_audit_skips_a_bundle_with_an_oversized_field(bundles, tmp_path, jobs):
    # past csv's field limit (131,072 characters) the reader raises csv.Error
    root = tmp_path / "b"
    shutil.copytree(bundles, root)
    with open(root / "driver000" / "trips.csv", "a", encoding="utf-8") as fh:
        fh.write("x" * 200_000 + "\n")
    out = tmp_path / "o"
    assert main(["audit", str(root), "--out", str(out), "--jobs", jobs]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert [f["driver_id"] for f in report["failures"]] == ["driver000"]
    assert report["failures"][0]["reason"].startswith("trips.csv: field larger than field limit")
    assert list(report["bundles"]) == ["driver001"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_audit_quarantines_an_oversized_fare(bundles, tmp_path, jobs):
    # twenty digits of pounds would overflow the 64-bit column of fare pence
    root = tmp_path / "b"
    shutil.copytree(bundles, root)
    trips = root / "driver000" / "trips.csv"
    with open(trips, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    huge = "99999999999999999999.00"
    next(r for r in rows if r["original_fare"] and r["dropoff_ts"])["original_fare"] = huge
    with open(trips, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "o"
    assert main(["audit", str(root), "--out", str(out), "--jobs", jobs]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert report["failures"] == []
    quarantine = report["bundles"]["driver000"]["ingest"]["quarantine"]
    reasons = [q["reason"] for q in quarantine if q["row"].get("original_fare") == huge]
    assert reasons == [f"money amount above 1000000000.00: {huge!r}"]


def test_audit_failure_reasons_name_the_file_and_the_fault(bundles, tmp_path):
    # a header no alias matches, a zero-byte file and bytes that are not UTF-8
    root = tmp_path / "b"
    shutil.copytree(bundles, root)
    for name in ("driver002", "driver003", "driver004"):
        shutil.copytree(bundles / "driver000", root / name)
    trips = root / "driver002" / "trips.csv"
    trips.write_text(trips.read_text(encoding="utf-8").replace("request_ts", "asked_at", 1))
    (root / "driver003" / "sessions.csv").write_bytes(b"")
    payments = root / "driver004" / "payments.csv"
    payments.write_bytes(b"\xff" + payments.read_bytes())
    out = tmp_path / "o"
    assert main(["audit", str(root), "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert report["failures"] == [
        {"driver_id": "driver002",
         "reason": "table 'trips': no column for required field 'request_ts'"},
        {"driver_id": "driver003", "reason": "sessions.csv: empty file, header row required"},
        {"driver_id": "driver004",
         "reason": "payments.csv: 'utf-8' codec can't decode byte 0xff in position 0:"
                   " invalid start byte"},
    ]
    assert list(report["bundles"]) == ["driver000", "driver001"]


def _no_bundle_is_read(directory, options):
    raise AssertionError(f"bundle {directory} was read")


def test_audit_rpi_is_read_before_any_bundle(bundles, tmp_path, monkeypatch, caplog):
    # an empty root exits 3 (no data) unless the rpi file is read first
    out = tmp_path / "o"
    missing = tmp_path / "nope.csv"
    assert main(["audit", str(tmp_path), "--out", str(out), "--rpi", str(missing)]) == 2
    assert "rpi file not found" in caplog.text
    monkeypatch.setattr("fareaudit.cli.process_bundle", _no_bundle_is_read)
    bad = tmp_path / "rpi.csv"
    bad.write_text("month,yoy\n2021-01,1.5\n")
    for rpi in (missing, bad):
        assert main(["audit", str(bundles), "--out", str(out), "--rpi", str(rpi)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "predict", "anon"])
def test_unusable_out_is_a_usage_error(bundles, tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv(SALT_ENV_VAR, "0123456789abcdef0123")
    monkeypatch.setattr("fareaudit.cli.process_bundle", _no_bundle_is_read)
    monkeypatch.setattr("fareaudit.cli.load_bundle", _no_bundle_is_read)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(bundles), "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --out: not a directory that can be written" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_audit_writes_only_under_out(bundles, tmp_path):
    before = tree_digest(bundles)
    assert main(["audit", str(bundles), "--out", str(tmp_path / "o")]) == 0
    assert tree_digest(bundles) == before
    written = {p.name for p in (tmp_path / "o").iterdir()}
    assert written == {"audit_report.json"}


def test_bundle_dirs_sorted(tmp_path):
    for name in ("b", "a"):
        d = tmp_path / name
        write_table(d, "trips", TRIP_HEADER, [trip_csv_row()])
        write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    (tmp_path / "rpi.csv").write_text("month,yoy_pct\n")
    assert [Path(d).name for d in _bundle_dirs(str(tmp_path))] == ["a", "b"]


def test_audit_utilisation_has_month_inside_one_session(tmp_path):
    d = tmp_path / "bundles" / "d1"
    trip = trip_csv_row(
        req="2021-01-31T13:00:00Z",
        accept="2021-01-31T13:01:00Z",
        pickup="2021-01-31T13:05:00Z",
        dropoff="2021-01-31T13:20:00Z",
    )
    write_table(d, "trips", TRIP_HEADER, [trip])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row(ts="2021-01-31T13:21:00Z")])
    write_table(
        d,
        "sessions",
        ["login_ts", "logout_ts"],
        [{"login_ts": "2021-01-31T12:00:00Z", "logout_ts": "2021-03-01T12:00:00Z"}],
    )
    out = tmp_path / "o"
    assert main(["audit", str(tmp_path / "bundles"), "--out", str(out)]) == 0
    utilisation = json.loads((out / "audit_report.json").read_text())["utilisation"]
    assert list(utilisation) == ["2021-01", "2021-02", "2021-03"]
    assert utilisation["2021-02"]["active_driver_days"] == 28
    assert utilisation["2021-02"]["standby_hours"] == 24.0


def test_audit_month_whose_pay_nets_to_zero_is_a_pay_month(tmp_path):
    root = tmp_path / "bundles"
    d = root / "d1"
    trip = trip_csv_row(
        req="2021-01-05T09:00:00Z",
        accept="2021-01-05T09:01:00Z",
        pickup="2021-01-05T09:05:00Z",
        dropoff="2021-01-05T09:20:00Z",
    )
    write_table(d, "trips", TRIP_HEADER, [trip])
    pays = [
        payment_csv_row(ts="2021-01-05T09:21:00Z"),
        payment_csv_row(ts="2021-03-02T10:00:00Z", amount="5.00", category="tip"),
        payment_csv_row(ts="2021-03-02T10:30:00Z", amount="-5.00", category="adjustment"),
    ]
    write_table(d, "payments", PAYMENT_HEADER, pays)
    write_table(
        d,
        "sessions",
        ["login_ts", "logout_ts"],
        [{"login_ts": "2021-03-02T10:00:00Z", "logout_ts": "2021-03-02T11:00:00Z"}],
    )
    (root / "rpi.csv").write_text("month,yoy_pct\n2021-01,3\n2021-02,3\n2021-03,3\n")
    out = tmp_path / "o"
    assert main(["audit", str(root), "--out", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    inflation = report["inflation"]
    assert inflation["base_month"] == "2021-03"
    assert list(inflation["nominal"]) == ["2021-01", "2021-03"]
    assert inflation["nominal"]["2021-03"] == 0.0


def test_audit_acceptance_by_local_month(tmp_path):
    # 23:30 UTC on 30 June is already July in London (BST)
    d = tmp_path / "bundles" / "d1"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row()])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    write_table(
        d,
        "dispatches",
        ["offered_ts", "accepted"],
        [
            {"offered_ts": "2021-06-30T22:30:00Z", "accepted": "true"},
            {"offered_ts": "2021-06-30T23:30:00Z", "accepted": "false"},
        ],
    )
    out = tmp_path / "o"
    assert main(["audit", str(tmp_path / "bundles"), "--out", str(out)]) == 0
    acceptance = json.loads((out / "audit_report.json").read_text())["acceptance"]
    assert acceptance["monthly"] == {"2021-06": 1.0, "2021-07": 0.0}
    assert acceptance["overall"] == 0.5
    assert acceptance["n_offers"] == 2


@pytest.mark.parametrize("category", ["tip", "trip_earnings"])
def test_audit_quarantines_a_euro_payment(bundles, tmp_path, category):
    # a tip lands in a week of its own; trip earnings at a trip's dropoff
    shutil.copytree(bundles, tmp_path / "b")
    driver = tmp_path / "b" / "driver000"
    when = "2021-06-07T12:00:00Z"
    if category == "trip_earnings":
        with open(driver / "trips.csv", newline="") as fh:
            when = next(row["dropoff_ts"] for row in csv.DictReader(fh) if row["dropoff_ts"])
    with open(driver / "payments.csv", "a", encoding="utf-8") as fh:
        fh.write(f"{when},{category},50.00,EUR,\n")
    reports = []
    for root in (bundles, tmp_path / "b"):
        out = tmp_path / f"out{len(reports)}"
        assert main(["audit", str(root), "--out", str(out)]) == 0
        reports.append(json.loads((out / "audit_report.json").read_text()))
    pounds, euros = reports
    before, after = (r["bundles"]["driver000"]["ingest"]["quarantine"] for r in reports)
    assert len(after) == len(before) + 1
    assert [q["reason"] for q in after if q not in before] == ["currency 'EUR' is not GBP"]
    assert euros["failures"] == []
    del pounds["bundles"], euros["bundles"]
    assert euros == pounds  # weekly rows, pooled rates and every other section


def test_audit_quarantines_instants_the_calendar_cannot_date(bundles, tmp_path):
    # a 9999-12-31 null date on an adjustment must not cost the driver's bundle
    shutil.copytree(bundles, tmp_path / "b")
    sentinels = ("9999-12-31T00:00:00.000Z", "0001-01-01T00:00:00Z")
    with open(tmp_path / "b" / "driver000" / "payments.csv", "a", encoding="utf-8") as fh:
        for ts in sentinels:
            fh.write(f"{ts},adjustment,-1.00,GBP,\n")
    reports = []
    for root in (bundles, tmp_path / "b"):
        out = tmp_path / f"out{len(reports)}"
        assert main(["audit", str(root), "--out", str(out)]) == 0
        reports.append(json.loads((out / "audit_report.json").read_text()))
    before, after = (r["bundles"]["driver000"]["ingest"]["quarantine"] for r in reports)
    assert [q["reason"] for q in after if q not in before] == [
        f"timestamp outside the calendar: {ts!r}" for ts in sentinels
    ]
    assert reports[1]["failures"] == []
    assert reports[1]["drivers"] == reports[0]["drivers"]


# Eight drivers whose February on-trip hours sum to a value on a rounding tie
# at six significant digits. Under the bundle names pinned000..pinned007 a sum
# of per-driver float hours taken in set order reads 109.103 with
# PYTHONHASHSEED=0 and 109.102 with 1.
TIE_FLEET = GenConfig(
    seed=15,
    n_drivers=8,
    first_month="2021-02",
    last_month="2021-02",
    commission="0.25",
    jitter_sd_s=60.0,
    work_prob=0.9,
    session_min_h=1.0,
    session_max_h=2.0,
)


def test_audit_identical_across_hash_seeds(tmp_path):
    generate(TIE_FLEET, tmp_path / "generated")
    (tmp_path / "bundles").mkdir()
    for directory in (tmp_path / "generated").glob("driver*"):
        directory.rename(tmp_path / "bundles" / directory.name.replace("driver", "pinned"))
    src = str(Path(fareaudit.__file__).resolve().parent.parent)
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        subprocess.run(
            [sys.executable, "-m", "fareaudit.cli", "audit", str(tmp_path / "bundles"),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        reports.append((out / "audit_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_audit_charts(bundles, tmp_path):
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out), "--charts"]) == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs
    for name in svgs:
        assert (out / name).read_text().startswith("<svg")


# -- anon --


def test_anon_weak_salt(bundles, tmp_path, monkeypatch):
    monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    assert main(["anon", str(bundles), "--out", str(tmp_path / "o")]) == 4
    short = tmp_path / "salt"
    short.write_bytes(b"tiny")
    rc = main(["anon", str(bundles), "--out", str(tmp_path / "o"), "--salt-file", str(short)])
    assert rc == 4


def test_anon_output_is_clean(bundles, tmp_path, monkeypatch):
    monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    salt = tmp_path / "salt"
    salt.write_bytes(b"0123456789abcdef0123")
    out = tmp_path / "o"
    rc = main(["anon", str(bundles), "--out", str(out), "--salt-file", str(salt)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 2
    assert all(re.fullmatch(r"[0-9a-f]{16}", n) for n in names)
    original_ids = {p.name for p in bundles.iterdir() if p.is_dir()}
    for path in out.rglob("*.csv"):
        text = path.read_text()
        assert MARKER_PREFIX not in text
        for driver_id in original_ids:
            assert driver_id not in text


def test_anon_logs_rows_left_out(bundles, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv(SALT_ENV_VAR, "0123456789abcdef0123")
    shutil.copytree(bundles, tmp_path / "b")
    payments = tmp_path / "b" / "driver000" / "payments.csv"
    lines = payments.read_text(encoding="utf-8").splitlines()
    lines += [lines[1], "2021-06-07T12:00:00Z,tip,50.00,EUR,"]
    payments.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def left_out(root):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fareaudit"):
            assert main(["anon", str(root), "--out", str(tmp_path / root.name / "o")]) == 0
        return [r.getMessage() for r in caplog.records if "rows left out" in r.getMessage()]

    before, after = left_out(bundles), left_out(tmp_path / "b")
    # the fleet's own corruption already quarantines a payment and a trip and
    # dedupes a payment; the EUR tip and the repeated row add one each
    template = (
        "bundle driver000 rows left out: dispatches 0 quarantined, 0 deduplicated; "
        "payments {n} quarantined, {n} deduplicated; profile 0 quarantined, 0 deduplicated; "
        "sessions 0 quarantined, 0 deduplicated; trips 1 quarantined, 0 deduplicated"
    )
    assert before[0] == template.format(n=1)
    assert after[0] == template.format(n=2)
    assert len(after) == 2 and after[1] == before[1]


def test_anon_skips_a_bundle_that_is_not_utf8(bundles, tmp_path, monkeypatch, caplog):
    monkeypatch.setenv(SALT_ENV_VAR, "0123456789abcdef0123")
    root = tmp_path / "b"
    shutil.copytree(bundles, root)
    payments = root / "driver000" / "payments.csv"
    payments.write_bytes(payments.read_bytes() + b"\xff\n")
    out = tmp_path / "o"
    with caplog.at_level(logging.WARNING, logger="fareaudit"):
        assert main(["anon", str(root), "--out", str(out)]) == 0
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert len(skipped) == 1
    assert skipped[0].startswith("bundle driver000 skipped: payments.csv: 'utf-8' codec")
    assert len(list(out.iterdir())) == 1  # driver001 is still written


def test_anon_unknown_strip_field(bundles, tmp_path, monkeypatch):
    monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    salt = tmp_path / "salt"
    salt.write_bytes(b"0123456789abcdef0123")
    out = tmp_path / "o"
    argv = ["anon", str(bundles), "--out", str(out), "--salt-file", str(salt), "--strip"]
    for strip in ("driver_id", "memo,", ""):
        with pytest.raises(SystemExit) as exc:
            main([*argv, strip])
        assert exc.value.code == 2, strip
        assert not out.exists()


def test_anon_strip_is_checked_before_any_bundle(tmp_path, monkeypatch):
    # an empty root would exit 3 (no data) if the fields were checked per bundle
    monkeypatch.setenv(SALT_ENV_VAR, "0123456789abcdef0123")
    with pytest.raises(SystemExit) as exc:
        main(["anon", str(tmp_path), "--out", str(tmp_path / "o"), "--strip", "bogus"])
    assert exc.value.code == 2


# -- predict --


def test_predict_needs_two_years(bundles, tmp_path):
    assert main(["predict", str(bundles), "--out", str(tmp_path / "o")]) == 3


def test_predict_two_year_matrix(tmp_path):
    root = tmp_path / "b"
    generate(
        GenConfig(seed=7, n_drivers=1, first_month="2021-11", last_month="2022-02"),
        root,
    )
    out = tmp_path / "o"
    assert main(["predict", str(root), "--out", str(out), "--seed", "5"]) == 0
    lines = (out / "predict_matrix.csv").read_text().splitlines()
    assert lines[0] == "test_year,Y,Y-1"
    assert len(lines) == 3
    assert lines[1].startswith("2021,") and lines[2].startswith("2022,")
    payload = json.loads((out / "predict_matrix.json").read_text())
    assert payload["seed"] == 5
    assert payload["mode"] == "single_year"


def test_predict_cumulative_jobs_and_reruns_byte_identical(tmp_path):
    root = tmp_path / "fleet"
    generate(GenConfig(seed=8, n_drivers=2, first_month="2021-11", last_month="2022-02"), root)
    runs = [("1", "a"), ("1", "b"), ("2", "c")]
    for jobs, name in runs:
        out = tmp_path / name
        args = ["predict", str(root), "--out", str(out), "--mode", "cumulative", "--jobs", jobs]
        assert main(args) == 0
    assert len({tree_digest(tmp_path / name) for _, name in runs}) == 1
    payload = json.loads((tmp_path / "a" / "predict_matrix.json").read_text())
    assert payload["mode"] == "cumulative"
    assert all(cell["r2"] is not None for cell in payload["cells"])


def test_predict_empty_root(tmp_path):
    assert main(["predict", str(tmp_path), "--out", str(tmp_path / "o")]) == 3


# -- golden outputs --

# `audit --charts` (with GOLDEN's cohort windows and its rpi.csv) and both
# `predict` modes on the golden synth fleet (test_synthgen.GOLDEN). They were
# byte-identical under OPENBLAS_CORETYPE=Prescott and under
# NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3 AVX512_ICL AVX512_SPR"; any change
# to them must be deliberate.
OUTPUT_GOLDEN_SHA256 = {
    "audit/audit_report.json": "4fb113c733d330cd85c557d6abe602674018b2758eb3be2ad6ad3ef507384586",
    "audit/per_minute_by_split.svg": "e686b8aecb14a42b6342b8a0fa3f158fc5527ed978c861e369c0122badc2bce2",
    "audit/share_kde.svg": "528d983a6c6463faeb8b665420ea37af819a38971049c63b3b80fb2d6ffa564c",
    "audit/surplus.svg": "e63b640ddd2e1be6930d8bd0f475b2fe51963c5c895b2eee2ecbf8cf5095966f",
    "audit/take_rate_hist.svg": "d1dc40605d1d5be5cae70d54a9752d4a7d2a38c3f862d9af979ceae4bddfb436",
    "audit/utilisation.svg": "64773e68f7497458208c40e9867f9e10403d9b7da29ee51daf8d3da0c909d0da",
    "audit/weekly_rates.svg": "db1792beb159db0917c876bb3ccf85a5acf5610c5cff3fd0947693f585ca2e90",
    "cumulative/predict_matrix.csv": "9100923855a01bbaf9624bafe61d84a23415ee1280ff8ca0eb06e60d8f548159",
    "cumulative/predict_matrix.json": "b8aa6e85eeb144a50033fc7dc1b37901d6b3a3030bf3db6a78a9beaf498270bd",
    "single_year/predict_matrix.csv": "cc008d9cab31d76486cebc19d9b5f45f4d31d82b036223d16a94b0ce1a513a50",
    "single_year/predict_matrix.json": "4f981845dcb58d53dae0a038ddf52b145da8f5faf4bde83978f19bb65c1ee0e5",
}


def test_audit_and_predict_files_keep_their_golden_digests(tmp_path):
    fleet = tmp_path / "fleet"
    generate(GOLDEN, fleet)
    windows = ["--cohort-pre", ":".join(GOLDEN.cohort.window_pre)]
    windows += ["--cohort-post", ":".join(GOLDEN.cohort.window_post)]
    runs = {
        "audit": ["audit", str(fleet), "--charts", *windows],
        "single_year": ["predict", str(fleet), "--mode", "single_year"],
        "cumulative": ["predict", str(fleet), "--mode", "cumulative"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    got = {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name in runs
        for path in sorted((tmp_path / name).iterdir())
    }
    assert got == OUTPUT_GOLDEN_SHA256
