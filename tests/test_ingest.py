import codecs
import json

import pytest

from fareaudit.ingest import (
    ColumnMap,
    MalformedTable,
    MissingTable,
    load_bundle,
    normalize,
    write_bundle,
)
from fareaudit.linkage import link
from fareaudit.model import Era, TripStatus
from conftest import (
    PAYMENT_HEADER,
    TRIP_HEADER,
    instant,
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


def test_bom_on_trips_csv_loads_the_same_rows(bundle_dir):
    plain = load_bundle(bundle_dir)
    trips_csv = bundle_dir / "trips.csv"
    trips_csv.write_bytes(codecs.BOM_UTF8 + trips_csv.read_bytes())
    assert load_bundle(bundle_dir) == plain


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
    assert bundle.trips[0].request_ts == instant("2021-03-02T09:00:00Z")


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


def one_trip_bundle(directory, req, accept, pickup, dropoff, paid):
    write_table(directory, "trips", TRIP_HEADER, [trip_csv_row(req, accept, pickup, dropoff)])
    write_table(directory, "payments", PAYMENT_HEADER, [payment_csv_row(ts=paid)])
    return normalize(load_bundle(directory))


def test_fare_semantics_flags_opaque_gap(tmp_path):
    fixed, _ = one_trip_bundle(
        tmp_path / "fixed",
        "2021-06-01T09:00:00Z", "2021-06-01T09:01:00Z",
        "2021-06-01T09:05:00Z", "2021-06-01T09:20:00Z", "2021-06-01T09:21:00Z",
    )
    gap, _ = one_trip_bundle(
        tmp_path / "gap",
        "2022-06-01T09:00:00Z", "2022-06-01T09:01:00Z",
        "2022-06-01T09:05:00Z", "2022-06-01T09:20:00Z", "2022-06-01T09:21:00Z",
    )
    (fixed_link,) = link(fixed.trips, fixed.payments).linked
    assert fixed_link.driver_share == 0.75
    (gap_link,) = link(gap.trips, gap.payments).linked
    assert gap_link.driver_share is None and gap_link.platform_share is None


def test_trip_straddling_an_era_boundary_takes_its_dropoff_era(tmp_path):
    # requested in the last minutes of January 2022, dropped off in February
    # (London is on UTC in winter): the dropoff dates the trip
    bundle, report = one_trip_bundle(
        tmp_path / "d",
        "2022-01-31T23:50:00Z", "2022-01-31T23:51:00Z",
        "2022-01-31T23:55:00Z", "2022-02-01T00:10:00Z", "2022-02-01T00:11:00Z",
    )
    assert report.trips_per_era == {Era.OPAQUE_GAP.value: 1}
    (linked,) = link(bundle.trips, bundle.payments).linked
    assert linked.driver_share is None and linked.platform_share is None


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

