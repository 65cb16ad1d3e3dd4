"""End-to-end command line checks: exit codes, outputs, determinism."""

import codecs
import csv
import hashlib
import json
import logging
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fareaudit
from fareaudit.anonymize import SALT_ENV_VAR
from fareaudit.cli import _bundle_dirs, main
from fareaudit.report import AuditOptions, process_bundle
from fareaudit.synthgen import CohortPlan, CorruptionPlan, GenConfig, generate
from conftest import (
    PAYMENT_HEADER,
    TRIP_HEADER,
    payment_csv_row,
    trip_csv_row,
    write_table,
)


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


def test_synth_seed_repeat_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            GenConfig(seed=3, n_drivers=1, first_month="2021-03", last_month="2021-04").to_dict()
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


def test_audit_failed_write_keeps_the_old_report(bundles, tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert main(["audit", str(bundles), "--out", str(out)]) == 0
    before = (out / "audit_report.json").read_bytes()
    monkeypatch.setattr("fareaudit.cli.dumps_report", lambda report: "\ud800")
    with pytest.raises(UnicodeEncodeError):
        main(["audit", str(bundles), "--out", str(out)])
    assert (out / "audit_report.json").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["audit_report.json"]


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
        assert SMALL.marker_prefix not in text
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


def test_anon_unknown_strip_field(bundles, tmp_path, monkeypatch):
    monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    salt = tmp_path / "salt"
    salt.write_bytes(b"0123456789abcdef0123")
    rc = main(
        [
            "anon",
            str(bundles),
            "--out",
            str(tmp_path / "o"),
            "--salt-file",
            str(salt),
            "--strip",
            "driver_id",
        ]
    )
    assert rc == 2


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


def test_predict_empty_root(tmp_path):
    assert main(["predict", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
