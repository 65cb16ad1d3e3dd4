"""Bundle ingestion: per-driver CSV directories to normalized typed records.

A bundle is one directory per driver holding ``trips.csv``, ``payments.csv``,
``dispatches.csv``, ``sessions.csv`` and ``profile.csv`` (UTF-8, header row
required; only trips and payments are mandatory). Each column header is
resolved through a built-in table of aliases seen in real exports. The
inflation series ``rpi.csv`` is read by the same reader.
Amounts are pounds with at most two decimals, read into integer pence; a
payment row in a currency other than GBP is quarantined.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .model import (
    AppSession,
    AuditError,
    DispatchOffer,
    DriverProfile,
    PaymentCategory,
    PaymentEvent,
    RecordError,
    RpiSeries,
    TripRecord,
    TripStatus,
    format_instant,
    format_pence,
    month_index,
    month_label,
    parse_instant,
    parse_pence,
    trip_anchor,
)

# each bundle table, read from <table>.csv: its fields in row order, each field
# the headers seen for it in real exports, its own name first
TABLES = {
    "trips": (
        ("request_ts", "request_time", "requested_at"),
        ("accept_ts", "accept_time", "accepted_at"),
        ("pickup_ts", "begintrip_time", "pickup_time"),
        ("dropoff_ts", "dropoff_time", "completed_at"),
        ("distance_miles", "trip_distance_miles", "distance"),
        ("status", "trip_status"),
        ("original_fare", "rider_fare", "customer_fare"),
        ("origin_tag", "begin_geo"),
        ("dest_tag", "dropoff_geo"),
        ("product", "product_name", "vehicle_view"),
    ),
    "payments": (
        ("ts", "timestamp", "event_time"),
        ("category", "item_type"),
        ("amount", "local_amount"),
        ("currency", "currency_code"),
        ("memo", "description", "note"),
    ),
    "dispatches": (("offered_ts", "dispatch_time"), ("accepted", "was_accepted")),
    "sessions": (("login_ts", "session_start", "begin_ts"), ("logout_ts", "session_end", "end_ts")),
    "profile": (
        ("first_trip_ts", "signup_ts", "first_trip"),
        ("gender",),
        ("age_band", "age_bracket"),
    ),
}
TABLE_FIELDS = {table: tuple(names[0] for names in fields) for table, fields in TABLES.items()}
RPI_FIELDS = (("month",), ("yoy_pct",))  # of rpi.csv, beside the bundles
REQUIRED_TABLES = ("trips", "payments")
CURRENCY = "GBP"  # of every amount; a payment row in any other is quarantined
MALFORMED_THRESHOLD = 0.05  # the share of a table's rows past which quarantine is fatal

# fields that may be absent as whole columns; they then take their defaults
OPTIONAL_FIELDS = {
    "original_fare", "origin_tag", "dest_tag", "product", "memo", "currency", "gender", "age_band"
}

_TRUE = {"true", "1", "yes", "y"}
_FALSE = {"false", "0", "no", "n"}


class MissingTable(AuditError):
    """A required table file is absent from the bundle directory."""


class MalformedTable(AuditError):
    """A table cannot be used: unresolvable columns or too many bad rows."""


Row = tuple[str, ...]  # a table's stripped source text in TABLE_FIELDS order


@dataclass(frozen=True, slots=True)
class RawBundle:
    """Parsed but untyped bundle: each table's rows as ``Row`` tuples."""

    driver_id: str
    tables: Mapping[str, tuple[Row, ...]]
    skipped_files: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class NormalizedBundle:
    driver_id: str
    trips: tuple[TripRecord, ...]
    payments: tuple[PaymentEvent, ...]
    dispatches: tuple[DispatchOffer, ...] = ()
    sessions: tuple[AppSession, ...] = ()
    profile: DriverProfile | None = None


@dataclass(frozen=True, slots=True)
class QuarantinedRow:
    table: str
    row_number: int
    reason: str
    row: Mapping[str, str]


@dataclass(frozen=True, slots=True)
class TableReport:
    rows_in: int
    rows_ok: int
    rows_deduped: int
    rows_quarantined: int

    def __post_init__(self) -> None:
        if self.rows_in != self.rows_ok + self.rows_deduped + self.rows_quarantined:
            raise RecordError("table report does not conserve rows")


@dataclass(frozen=True)
class IngestReport:
    driver_id: str
    tables: Mapping[str, TableReport]
    quarantine: tuple[QuarantinedRow, ...]
    skipped_files: tuple[str, ...]
    naive_timestamps: int


# ---------------------------------------------------------------------------
# Loading


def load_bundle(directory: str | Path) -> RawBundle:
    """Read one driver directory into a RawBundle.

    The driver id is the directory name. Unrecognized files are skipped and
    listed; recognized files are parsed fully so no rows are silently lost.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise MissingTable(f"bundle directory not found: {directory}")

    tables: dict[str, tuple[Row, ...]] = {}
    skipped: list[str] = []
    for entry in sorted(directory.iterdir()):
        if not entry.is_file():
            continue
        if entry.suffix == ".csv" and entry.stem in TABLES:
            tables[entry.stem] = _read_table(entry, TABLES[entry.stem])
        else:
            skipped.append(entry.name)

    missing = [t for t in REQUIRED_TABLES if t not in tables]
    if missing:
        raise MissingTable(f"bundle {directory.name}: missing table(s) {', '.join(missing)}")
    return RawBundle(directory.name, tables, tuple(skipped))


def load_rpi(path: str | Path) -> RpiSeries:
    """The inflation series of ``rpi.csv``, read like a bundle table."""
    series: dict[int, float] = {}
    for month_text, pct in _read_table(Path(path), RPI_FIELDS):
        month = month_index(month_text)
        if month in series:
            raise RecordError(f"month listed twice: {month_label(month)}")
        series[month] = float(pct)  # a short row reads "", which float() refuses
    return RpiSeries(series)


def _columns(path: Path, fields: Sequence[tuple[str, ...]], header: Sequence[str]) -> list[int]:
    """Each field's column: the first of its names in ``header``.

    An optional field with no column reads the cell one past the header,
    which is always "".
    """
    column = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last
    out = []
    for names in fields:
        found = [column[name] for name in names if name in column]
        if not found and names[0] not in OPTIONAL_FIELDS:
            raise MalformedTable(f"table {path.stem!r}: no column for required field {names[0]!r}")
        out.append(found[0] if found else len(header))
    return out


def _read_table(path: Path, fields: Sequence[tuple[str, ...]]) -> tuple[Row, ...]:
    """The rows of one file, as ``csv.DictReader`` would read them.

    Blank lines are skipped, a short row reads "" past its end, extra cells
    are ignored, and of two columns with the same header the last is read.
    Text that is not UTF-8 or not CSV makes the whole table unusable.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MalformedTable(f"{path.name}: empty file, header row required")
            width = len(header)
            pick = itemgetter(*_columns(path, fields, header))
            rows = []
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    row = (row + [""] * width)[:width]
                row.append("")
                rows.append(tuple(map(str.strip, pick(row))))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedTable(f"{path.name}: {exc}") from None
    return tuple(rows)


# ---------------------------------------------------------------------------
# Normalization


@dataclass
class _RowContext:
    naive_count: int = 0

    def ts(self, text: str) -> int:
        ms, naive = parse_instant(text)
        if naive:
            self.naive_count += 1
        return ms

    def opt_ts(self, text: str) -> int | None:
        return self.ts(text) if text else None


# members by value: a dict lookup costs a tenth of calling the enum, which a
# value that is no member still goes through, for its error
_TRIP_STATUS = {status.value: status for status in TripStatus}
_PAYMENT_CATEGORY = {category.value: category for category in PaymentCategory}


def _parse_trip(row: Row, ctx: _RowContext) -> TripRecord:
    request, accept, pickup, dropoff, distance, status, fare, origin, dest, product = row
    return TripRecord(
        ctx.ts(request),
        ctx.opt_ts(accept),
        ctx.opt_ts(pickup),
        ctx.opt_ts(dropoff),
        float(distance) if distance else 0.0,
        _TRIP_STATUS.get(status) or TripStatus(status),
        parse_pence(fare) if fare else None,
        origin,
        dest,
        product,
    )


def _parse_payment(row: Row, ctx: _RowContext) -> PaymentEvent:
    ts, category, amount, currency, memo = row
    if currency not in ("", CURRENCY):
        raise RecordError(f"currency {currency!r} is not {CURRENCY}")
    kind = _PAYMENT_CATEGORY.get(category) or PaymentCategory(category)
    return PaymentEvent(ctx.ts(ts), kind, parse_pence(amount), memo or None)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise RecordError(f"not a boolean: {text!r}")


def _parse_dispatch(row: Row, ctx: _RowContext) -> DispatchOffer:
    offered, accepted = row
    return DispatchOffer(ctx.ts(offered), _parse_bool(accepted))


def _parse_session(row: Row, ctx: _RowContext) -> AppSession:
    login, logout = row
    return AppSession(ctx.ts(login), ctx.ts(logout))


def _parse_profile(row: Row, ctx: _RowContext) -> DriverProfile:
    first_trip, gender, age_band = row
    return DriverProfile(ctx.ts(first_trip), gender or None, age_band or None)


_PARSERS = {
    "trips": _parse_trip,
    "payments": _parse_payment,
    "dispatches": _parse_dispatch,
    "sessions": _parse_session,
    "profile": _parse_profile,
}


def normalize(raw: RawBundle) -> tuple[NormalizedBundle, IngestReport]:
    """Type-check every row: dedupe exact duplicates, quarantine bad rows.

    Conservation holds per table: rows_in = rows_ok + deduped + quarantined.
    A table whose quarantined fraction exceeds ``MALFORMED_THRESHOLD`` is fatal.
    """
    ctx = _RowContext()
    typed: dict[str, list] = {}
    table_reports: dict[str, TableReport] = {}
    quarantine: list[QuarantinedRow] = []

    for table, rows in sorted(raw.tables.items()):
        parser = _PARSERS[table]
        seen: set[Row] = set()
        ok: list = []
        deduped = 0
        bad = 0
        for number, row in enumerate(rows, start=2):  # row 1 is the header
            if row in seen:
                deduped += 1
                continue
            seen.add(row)
            try:
                record = parser(row, ctx)
                if table == "profile" and ok:
                    raise RecordError("a second profile row conflicts with the first")
                ok.append(record)
            except (RecordError, ValueError) as exc:
                bad += 1
                fields = dict(zip(TABLE_FIELDS[table], row))
                quarantine.append(QuarantinedRow(table, number, _reason(exc), fields))
        typed[table] = ok
        table_reports[table] = TableReport(len(rows), len(ok), deduped, bad)
        if bad and bad / len(rows) > MALFORMED_THRESHOLD:
            first = quarantine[-bad]  # this table's first bad row
            raise MalformedTable(
                f"bundle {raw.driver_id}: table {table!r} has {bad}/{len(rows)} bad rows,"
                f" the first at row {first.row_number}: {first.reason}"
            )

    profile_rows = typed.get("profile", [])
    bundle = NormalizedBundle(
        driver_id=raw.driver_id,
        trips=tuple(sorted(typed.get("trips", []), key=_trip_key)),
        payments=tuple(sorted(typed.get("payments", []), key=_payment_key)),
        dispatches=tuple(sorted(typed.get("dispatches", []), key=_dispatch_key)),
        sessions=tuple(sorted(typed.get("sessions", []), key=_session_key)),
        profile=profile_rows[0] if profile_rows else None,
    )

    report = IngestReport(
        driver_id=raw.driver_id,
        tables=table_reports,
        quarantine=tuple(quarantine),
        skipped_files=raw.skipped_files,
        naive_timestamps=ctx.naive_count,
    )
    return bundle, report


def _reason(exc: Exception) -> str:
    text = str(exc)
    if isinstance(exc, ValueError) and not isinstance(exc, RecordError):
        return f"unparseable value: {text}"
    return text


# canonical sort keys double as the serialization order, so a written bundle
# reloads into the identical normalized form (fixed point)


def _trip_key(t: TripRecord) -> tuple:
    return (
        t.request_ts,
        trip_anchor(t),
        t.status.value,
        t.distance_miles,
        t.original_fare if t.original_fare is not None else -1,
        t.origin_tag,
        t.dest_tag,
        t.product,
    )


def _payment_key(p: PaymentEvent) -> tuple:
    return (p.ts, p.category.value, p.amount, p.memo or "")


def _dispatch_key(d: DispatchOffer) -> tuple:
    return (d.offered_ts, d.accepted)


def _session_key(s: AppSession) -> tuple:
    return (s.login_ts, s.logout_ts)


# ---------------------------------------------------------------------------
# Writing (canonical serialization; also used by the anonymizer and generator)


def _fmt_ts(ms: int | None) -> str:
    return "" if ms is None else format_instant(ms)


def trip_row(t: TripRecord) -> Row:
    """A trip's canonical text in ``TABLE_FIELDS["trips"]`` order."""
    return (
        _fmt_ts(t.request_ts),
        _fmt_ts(t.accept_ts),
        _fmt_ts(t.pickup_ts),
        _fmt_ts(t.dropoff_ts),
        repr(t.distance_miles),
        t.status.value,
        "" if t.original_fare is None else format_pence(t.original_fare),
        t.origin_tag,
        t.dest_tag,
        t.product,
    )


def payment_row(p: PaymentEvent) -> Row:
    """A payment's canonical text in ``TABLE_FIELDS["payments"]`` order."""
    return (_fmt_ts(p.ts), p.category.value, format_pence(p.amount), CURRENCY, p.memo or "")


@contextmanager
def replacing(path: Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A UTF-8 text file that replaces ``path`` in one step when the block ends.

    It is written beside ``path`` under a temporary name, so a block that fails
    leaves ``path`` as it was and no temporary file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bundle(bundle: NormalizedBundle, directory: str | Path) -> None:
    """Write a bundle back out in the canonical format (stable byte output).

    Each file replaces the old one only once it is whole.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(table: str, rows: Iterable[Row]) -> None:
        with replacing(directory / f"{table}.csv", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TABLE_FIELDS[table])
            writer.writerows(rows)

    dump("trips", map(trip_row, bundle.trips))
    dump("payments", map(payment_row, bundle.payments))
    if bundle.dispatches:
        dump(
            "dispatches",
            ((_fmt_ts(d.offered_ts), "true" if d.accepted else "false") for d in bundle.dispatches),
        )
    if bundle.sessions:
        dump("sessions", ((_fmt_ts(s.login_ts), _fmt_ts(s.logout_ts)) for s in bundle.sessions))
    if bundle.profile is not None:
        p = bundle.profile
        dump("profile", [(_fmt_ts(p.first_trip_ts), p.gender or "", p.age_band or "")])
