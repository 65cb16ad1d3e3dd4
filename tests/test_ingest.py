import json

import pytest

from fareaudit.ingest import (
    ColumnMap,
    MalformedTable,
    MissingTable,
    fare_reliable,
    load_bundle,
    normalize,
    write_bundle,
)
from fareaudit.model import Era, Timestamp, TripStatus
from conftest import (
    PAYMENT_HEADER,
    TRIP_HEADER,
    payment_csv_row,
    trip_csv_row,
    write_table,
)


def test_load_and_normalize_minimal_bundle(bundle_dir):
    raw = load_bundle(bundle_dir)
    assert raw.driver_id == "driverX"
    bundle, report = normalize(raw)
    assert len(bundle.trips) == 1
    assert len(bundle.payments) == 1
    assert bundle.trips[0].status is TripStatus.COMPLETED
    assert bundle.payments[0].amount.pence == 750
    assert report.tables["trips"].rows_ok == 1


def test_missing_required_table(tmp_path):
    d = tmp_path / "d"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row()])
    with pytest.raises(MissingTable):
        load_bundle(d)


def test_unknown_files_are_skipped_not_fatal(bundle_dir):
    (bundle_dir / "README.txt").write_text("hello")
    raw = load_bundle(bundle_dir)
    assert "README.txt" in raw.skipped_files


def test_column_aliases_resolve(tmp_path):
    d = tmp_path / "d"
    header = [
        "request_time",
        "accepted_at",
        "begintrip_time",
        "completed_at",
        "trip_distance_miles",
        "trip_status",
        "rider_fare",
        "begin_geo",
        "dropoff_geo",
        "vehicle_view",
    ]
    row = trip_csv_row()
    aliased = dict(
        zip(header, [row[k] for k in TRIP_HEADER])
    )
    write_table(d, "trips", header, [aliased])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    bundle, _ = normalize(load_bundle(d))
    assert bundle.trips[0].distance_miles == 4.0
    assert bundle.trips[0].original_fare.pence == 1000


def test_column_map_override(tmp_path):
    d = tmp_path / "d"
    base = trip_csv_row()
    renamed = {("when_requested" if k == "request_ts" else k): v for k, v in base.items()}
    write_table(d, "trips", ["when_requested"] + TRIP_HEADER[1:], [renamed])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    cmap_path = tmp_path / "map.json"
    cmap_path.write_text(json.dumps({"trips": {"request_ts": ["when_requested"]}}))
    raw = load_bundle(d, ColumnMap.from_json(cmap_path))
    bundle, _ = normalize(raw)
    assert len(bundle.trips) == 1


def test_missing_required_column_is_fatal(tmp_path):
    d = tmp_path / "d"
    write_table(d, "trips", [h for h in TRIP_HEADER if h != "status"], [
        {k: v for k, v in trip_csv_row().items() if k != "status"}
    ])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    with pytest.raises(MalformedTable):
        load_bundle(d)


def test_optional_column_absent_takes_default(tmp_path):
    d = tmp_path / "d"
    keep = [h for h in TRIP_HEADER if h not in ("product", "origin_tag", "dest_tag")]
    write_table(d, "trips", keep, [{k: trip_csv_row()[k] for k in keep}])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    bundle, _ = normalize(load_bundle(d))
    assert bundle.trips[0].product == ""


def test_exact_duplicates_deduped(tmp_path):
    d = tmp_path / "d"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row(), trip_csv_row()])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()] * 3)
    bundle, report = normalize(load_bundle(d))
    assert len(bundle.trips) == 1
    assert report.tables["trips"].rows_deduped == 1
    assert len(bundle.payments) == 1
    assert report.tables["payments"].rows_deduped == 2


def test_quarantine_conserves_rows(tmp_path):
    d = tmp_path / "d"
    rows = [
        trip_csv_row(),
        trip_csv_row(req="2021-03-02T10:00:00Z", accept="2021-03-02T09:00:00Z"),  # inverted
        trip_csv_row(req="not-a-time", accept="", pickup="", dropoff=""),
    ]
    write_table(d, "trips", TRIP_HEADER, rows)
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    bundle, report = normalize(load_bundle(d), malformed_threshold=0.9)
    t = report.tables["trips"]
    assert (t.rows_in, t.rows_ok, t.rows_quarantined) == (3, 1, 2)
    reasons = {q.reason for q in report.quarantine}
    assert any("timestamp" in r for r in reasons)
    assert len(bundle.trips) == 1


def test_malformed_fraction_over_threshold_is_fatal(tmp_path):
    d = tmp_path / "d"
    rows = [trip_csv_row()] + [
        trip_csv_row(req=f"bad-{i}", accept="", pickup="", dropoff="") for i in range(9)
    ]
    write_table(d, "trips", TRIP_HEADER, rows)
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    with pytest.raises(MalformedTable):
        normalize(load_bundle(d))  # 90% quarantined >> 5%


def test_naive_timestamps_counted(tmp_path):
    d = tmp_path / "d"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row(
        req="2021-03-02T09:00:00",  # naive
    )])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    bundle, report = normalize(load_bundle(d))
    assert report.naive_timestamps == 1
    assert bundle.trips[0].request_ts == Timestamp.from_iso("2021-03-02T09:00:00Z")


def test_bad_money_quarantined(tmp_path):
    d = tmp_path / "d"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row()])
    write_table(
        d, "payments", PAYMENT_HEADER,
        [payment_csv_row(), payment_csv_row(ts="2021-03-02T09:25:00Z", amount="12.3456")],
    )
    bundle, report = normalize(load_bundle(d), malformed_threshold=0.9)
    assert report.tables["payments"].rows_quarantined == 1
    assert len(bundle.payments) == 1


def test_rows_sorted_canonically(tmp_path):
    d = tmp_path / "d"
    late = trip_csv_row(
        req="2021-03-02T12:00:00Z",
        accept="2021-03-02T12:01:00Z",
        pickup="2021-03-02T12:05:00Z",
        dropoff="2021-03-02T12:20:00Z",
    )
    write_table(d, "trips", TRIP_HEADER, [late, trip_csv_row()])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    bundle, _ = normalize(load_bundle(d))
    assert bundle.trips[0].request_ts < bundle.trips[1].request_ts


def test_trips_per_era_counted(tmp_path):
    d = tmp_path / "d"
    dynamic = trip_csv_row(
        req="2023-03-02T09:00:00Z",
        accept="2023-03-02T09:01:00Z",
        pickup="2023-03-02T09:05:00Z",
        dropoff="2023-03-02T09:20:00Z",
    )
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row(), dynamic])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    _, report = normalize(load_bundle(d))
    assert report.trips_per_era == {
        Era.FIXED_COMMISSION.value: 1,
        Era.DYNAMIC_PRICING.value: 1,
    }


def test_fare_semantics_flags_opaque_gap():
    assert fare_reliable(Timestamp.from_iso("2021-06-01T00:00:00Z"))
    assert not fare_reliable(Timestamp.from_iso("2022-06-01T00:00:00Z"))


def test_write_bundle_roundtrip_is_fixed_point(tmp_path, bundle_dir):
    bundle, _ = normalize(load_bundle(bundle_dir))
    out1 = tmp_path / "a" / bundle.driver_id
    write_bundle(bundle, out1)
    again, report = normalize(load_bundle(out1))
    assert again == bundle
    assert report.tables["trips"].rows_quarantined == 0
    out2 = tmp_path / "b" / bundle.driver_id
    write_bundle(again, out2)
    for name in ("trips.csv", "payments.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

