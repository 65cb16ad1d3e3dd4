import ast
import codecs
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fareaudit
from fareaudit.ingest import (
    OPTIONAL_FIELDS,
    REQUIRED_TABLES,
    TABLE_FIELDS,
    ColumnMap,
    MalformedTable,
    MissingTable,
    RawBundle,
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
    assert bundle.payments[0].amount == 750
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
    assert bundle.trips[0].original_fare == 1000


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
        [
            payment_csv_row(),
            payment_csv_row(ts="2021-03-02T09:25:00Z", amount="12.3456"),
            payment_csv_row(ts="2021-03-02T09:26:00Z", currency="EUR"),
            payment_csv_row(ts="2021-03-02T09:27:00Z", currency=""),  # blank reads as GBP
        ],
    )
    bundle, report = normalize(load_bundle(d), malformed_threshold=0.9)
    assert report.tables["payments"].rows_quarantined == 2
    assert [(q.row_number, q.reason) for q in report.quarantine] == [
        (3, "not a money amount: '12.3456'"),
        (4, "currency 'EUR' is not GBP"),
    ]
    assert [p.amount for p in bundle.payments] == [750, 750]
    with pytest.raises(MalformedTable):  # both count toward the malformed threshold
        normalize(load_bundle(d))


def test_only_ingest_reads_a_currency():
    """GBP is checked once, at ingest; past it every amount is plain pence."""
    readers = set()
    for path in Path(fareaudit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = re.fullmatch(r"currency\w*", node.value) is not None
            elif isinstance(node, (ast.Name, ast.Attribute, ast.arg, ast.keyword)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.arg
                found = "currency" in (name or "").lower()
            else:
                continue
            if found:
                readers.add(path.name)
    assert readers == {"ingest.py"}


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
    # a zero fare and a zero payment are amounts, not blanks, on the way back
    zeros = tmp_path / "driverZ"
    write_table(zeros, "trips", TRIP_HEADER, [trip_csv_row(original_fare="0.00")])
    write_table(zeros, "payments", PAYMENT_HEADER, [payment_csv_row(amount="0.00")])
    for source, fare, amount in ((bundle_dir, 1000, 750), (zeros, 0, 0)):
        bundle, _ = normalize(load_bundle(source))
        assert (bundle.trips[0].original_fare, bundle.payments[0].amount) == (fare, amount)
        out1 = tmp_path / "a" / bundle.driver_id
        write_bundle(bundle, out1)
        again, report = normalize(load_bundle(out1))
        assert again == bundle
        assert report.tables["trips"].rows_quarantined == 0
        out2 = tmp_path / "b" / bundle.driver_id
        write_bundle(again, out2)
        for name in ("trips.csv", "payments.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()



# ---------------------------------------------------------------------------
# The loader against csv.DictReader

CELLS = {
    "request_ts": ["2021-03-02T09:00:00Z", "2021-03-02T09:00:00", "soon"],
    "accept_ts": ["2021-03-02T09:01:00Z", ""],
    "pickup_ts": ["2021-03-02T09:05:00Z", ""],
    "dropoff_ts": ["2021-03-02T09:20:00Z", "2021-03-02T08:00:00Z", ""],
    "distance_miles": ["4.0", "", "-1", "far"],
    "status": ["completed", "rider_cancelled", "lost"],
    "original_fare": ["10.00", "", "1.234"],
    "origin_tag": ["zone-1", "airport, LHR"],
    "dest_tag": ["zone-2", 'the "end"'],
    "product": ["standard", ""],
    "ts": ["2021-03-02T09:21:00Z", "2021-03-02T09:21:00", "later"],
    "category": ["trip_earnings", "tip", "bonus"],
    "amount": ["7.50", "12", "1.234"],
    "currency": ["GBP", "EUR", ""],
    "memo": ["", "payout, late", "x"],
    None: ["", "junk"],  # a column no field reads
}


def dictreader_rows(path: Path, table: str) -> list[dict[str, str]]:
    """A table as csv.DictReader reads it: canonical field -> stripped text."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        source = ColumnMap.default().resolve(table, reader.fieldnames)
        return [
            {f: (raw.get(source[f]) or "").strip() if source[f] else "" for f in TABLE_FIELDS[table]}
            for raw in reader
        ]


@st.composite
def messy_table(draw, table: str) -> bytes:
    """A CSV file of ``table`` with aliased, reordered, absent and repeated
    columns, short and long rows, blank lines and perhaps a BOM."""
    aliases = ColumnMap.default().tables[table]
    columns = [
        (draw(st.sampled_from(aliases[f])), f)
        for f in TABLE_FIELDS[table]
        if f not in OPTIONAL_FIELDS[table] or draw(st.booleans())
    ]
    every = [(a, f) for f in TABLE_FIELDS[table] for a in aliases[f]] + [("junk", None)]
    columns = draw(st.permutations(columns + draw(st.lists(st.sampled_from(every), max_size=3))))
    pad = st.sampled_from(["", " ", "\t "])
    cell = lambda f: st.tuples(pad, st.sampled_from(CELLS[f]), pad).map("".join)  # noqa: E731
    row = st.tuples(
        st.tuples(*(cell(f) for _, f in columns)).map(list),
        st.integers(-len(columns), 2),
    ).map(lambda r: r[0][: len(r[0]) + r[1]] if r[1] < 0 else r[0] + ["extra"] * r[1])
    rows = draw(st.lists(st.one_of(row, st.just([])), max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    writer.writerows(rows)  # an empty row is a blank line
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + text.getvalue().encode("utf-8")


@given(trips=messy_table("trips"), payments=messy_table("payments"))
@settings(max_examples=200, deadline=None)
def test_loader_reads_what_dictreader_reads(trips, payments):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "driverH"
        d.mkdir()
        (d / "trips.csv").write_bytes(trips)
        (d / "payments.csv").write_bytes(payments)
        want = {table: dictreader_rows(d / f"{table}.csv", table) for table in REQUIRED_TABLES}
        raw = load_bundle(d)
    for table, rows in want.items():
        assert [dict(zip(TABLE_FIELDS[table], r)) for r in raw.tables[table]] == rows
    oracle = RawBundle(
        "driverH", {t: tuple(tuple(r.values()) for r in rows) for t, rows in want.items()}
    )
    bundle, report = normalize(raw, malformed_threshold=1.0)
    same = (bundle, report) == normalize(oracle, malformed_threshold=1.0)
    assert same  # not compared inside the assert, whose diff of records is slow to build
    for table, rows in want.items():
        counts = report.tables[table]
        distinct = {tuple(r.values()) for r in rows}
        assert (counts.rows_in, counts.rows_deduped) == (len(rows), len(rows) - len(distinct))
        assert counts.rows_ok == len(getattr(bundle, table))
    for q in report.quarantine:
        assert q.row == want[q.table][q.row_number - 2]
