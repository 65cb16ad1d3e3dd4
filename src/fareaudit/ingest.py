"""Bundle ingestion: per-driver CSV directories to normalized typed records.

A bundle is one directory per driver holding ``trips.csv``, ``payments.csv``,
``dispatches.csv``, ``sessions.csv`` and ``profile.csv`` (UTF-8, header row
required; only trips and payments are mandatory). Column headers are resolved
through a ColumnMap so hand-mapped real exports can reuse the same loader.
Amounts are pounds with at most two decimals, read into integer pence; a
payment row in a currency other than GBP is quarantined.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .model import (
    DEFAULT_ERAS,
    AppSession,
    AuditError,
    DispatchOffer,
    DriverProfile,
    EraBoundaries,
    PaymentCategory,
    PaymentEvent,
    RecordError,
    TripRecord,
    TripStatus,
    era_of,
    format_instant,
    format_pence,
    parse_instant,
    parse_pence,
    trip_anchor,
)

TABLE_FILES = {
    "trips": "trips.csv",
    "payments": "payments.csv",
    "dispatches": "dispatches.csv",
    "sessions": "sessions.csv",
    "profile": "profile.csv",
}
REQUIRED_TABLES = ("trips", "payments")
CURRENCY = "GBP"  # of every amount; a payment row in any other is quarantined

# fields that may be absent as whole columns; they then take their defaults
OPTIONAL_FIELDS = {
    "trips": ("original_fare", "origin_tag", "dest_tag", "product"),
    "payments": ("memo", "currency"),
    "profile": ("gender", "age_band"),
    "dispatches": (),
    "sessions": (),
}

TABLE_FIELDS = {
    "trips": (
        "request_ts",
        "accept_ts",
        "pickup_ts",
        "dropoff_ts",
        "distance_miles",
        "status",
        "original_fare",
        "origin_tag",
        "dest_tag",
        "product",
    ),
    "payments": ("ts", "category", "amount", "currency", "memo"),
    "dispatches": ("offered_ts", "accepted"),
    "sessions": ("login_ts", "logout_ts"),
    "profile": ("first_trip_ts", "gender", "age_band"),
}

_DEFAULT_ALIASES = {
    "request_ts": ("request_ts", "request_time", "requested_at"),
    "accept_ts": ("accept_ts", "accept_time", "accepted_at"),
    "pickup_ts": ("pickup_ts", "begintrip_time", "pickup_time"),
    "dropoff_ts": ("dropoff_ts", "dropoff_time", "completed_at"),
    "distance_miles": ("distance_miles", "trip_distance_miles", "distance"),
    "status": ("status", "trip_status"),
    "original_fare": ("original_fare", "rider_fare", "customer_fare"),
    "origin_tag": ("origin_tag", "begin_geo"),
    "dest_tag": ("dest_tag", "dropoff_geo"),
    "product": ("product", "product_name", "vehicle_view"),
    "ts": ("ts", "timestamp", "event_time"),
    "category": ("category", "item_type"),
    "amount": ("amount", "local_amount"),
    "currency": ("currency", "currency_code"),
    "memo": ("memo", "description", "note"),
    "offered_ts": ("offered_ts", "dispatch_time"),
    "accepted": ("accepted", "was_accepted"),
    "login_ts": ("login_ts", "session_start", "begin_ts"),
    "logout_ts": ("logout_ts", "session_end", "end_ts"),
    "first_trip_ts": ("first_trip_ts", "signup_ts", "first_trip"),
    "gender": ("gender",),
    "age_band": ("age_band", "age_bracket"),
}

_TRUE = {"true", "1", "yes", "y"}
_FALSE = {"false", "0", "no", "n"}


class MissingTable(AuditError):
    """A required table file is absent from the bundle directory."""


class MalformedTable(AuditError):
    """A table cannot be used: unresolvable columns or too many bad rows."""


@dataclass(frozen=True, slots=True)
class ColumnMap:
    """Per-table mapping from canonical field name to candidate source headers.

    Candidates are tried in order; the first header present in the file wins.
    """

    tables: Mapping[str, Mapping[str, tuple[str, ...]]]

    @classmethod
    def default(cls) -> "ColumnMap":
        tables = {
            table: {name: _DEFAULT_ALIASES[name] for name in fields}
            for table, fields in TABLE_FIELDS.items()
        }
        return cls(tables)

    @classmethod
    def from_json(cls, path: str | Path) -> "ColumnMap":
        """Load overrides from JSON: {table: {field: [headers...]}} merged over defaults."""
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
        base = {t: dict(f) for t, f in cls.default().tables.items()}
        for table, fields in overrides.items():
            if table not in base:
                raise MalformedTable(f"unknown table in column map: {table!r}")
            for name, candidates in fields.items():
                if name not in base[table]:
                    raise MalformedTable(f"unknown field in column map: {table}.{name}")
                if isinstance(candidates, str):
                    candidates = [candidates]
                base[table][name] = tuple(candidates)
        return cls(base)

    def resolve(self, table: str, headers: Sequence[str]) -> dict[str, str | None]:
        """Map each canonical field to the actual header, None if absent."""
        out: dict[str, str | None] = {}
        have = set(headers)
        for name, candidates in self.tables[table].items():
            out[name] = next((c for c in candidates if c in have), None)
        for name, actual in out.items():
            if actual is None and name not in OPTIONAL_FIELDS[table]:
                raise MalformedTable(f"table {table!r}: no column for required field {name!r}")
        return out


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
    trips_per_era: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            "driver_id": self.driver_id,
            "tables": {
                name: {
                    "rows_in": t.rows_in,
                    "rows_ok": t.rows_ok,
                    "rows_deduped": t.rows_deduped,
                    "rows_quarantined": t.rows_quarantined,
                }
                for name, t in sorted(self.tables.items())
            },
            "quarantine": [
                {
                    "table": q.table,
                    "row_number": q.row_number,
                    "reason": q.reason,
                    "row": dict(q.row),
                }
                for q in self.quarantine
            ],
            "skipped_files": list(self.skipped_files),
            "naive_timestamps": self.naive_timestamps,
            "trips_per_era": dict(sorted(self.trips_per_era.items())),
        }


# ---------------------------------------------------------------------------
# Loading


def load_bundle(directory: str | Path, column_map: ColumnMap | None = None) -> RawBundle:
    """Read one driver directory into a RawBundle.

    The driver id is the directory name. Unrecognized files are skipped and
    listed; recognized files are parsed fully so no rows are silently lost.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise MissingTable(f"bundle directory not found: {directory}")
    column_map = column_map or ColumnMap.default()

    file_for_table = {v: k for k, v in TABLE_FILES.items()}
    tables: dict[str, tuple[Row, ...]] = {}
    skipped: list[str] = []
    for entry in sorted(directory.iterdir()):
        if not entry.is_file():
            continue
        table = file_for_table.get(entry.name)
        if table is None:
            skipped.append(entry.name)
            continue
        tables[table] = _read_table(entry, table, column_map)

    missing = [t for t in REQUIRED_TABLES if t not in tables]
    if missing:
        raise MissingTable(f"bundle {directory.name}: missing table(s) {', '.join(missing)}")
    return RawBundle(directory.name, tables, tuple(skipped))


def _read_table(path: Path, table: str, column_map: ColumnMap) -> tuple[Row, ...]:
    """The rows of one file, as ``csv.DictReader`` would read them.

    Blank lines are skipped, a short row reads "" past its end, extra cells
    are ignored, and of two columns with the same header the last is read.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedTable(f"{path.name}: empty file, header row required")
        resolution = column_map.resolve(table, header)
        width = len(header)
        column = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last
        # an absent field reads the cell one past the header, which is always ""
        pick = itemgetter(
            *(width if resolution[f] is None else column[resolution[f]] for f in TABLE_FIELDS[table])
        )
        rows = []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                row = (row + [""] * width)[:width]
            row.append("")
            rows.append(tuple(map(str.strip, pick(row))))
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


def _parse_trip(row: Row, driver_id: str, ctx: _RowContext) -> TripRecord:
    request, accept, pickup, dropoff, distance, status, fare, origin, dest, product = row
    return TripRecord(
        driver_id,
        ctx.ts(request),
        ctx.opt_ts(accept),
        ctx.opt_ts(pickup),
        ctx.opt_ts(dropoff),
        float(distance) if distance else 0.0,
        TripStatus(status),
        parse_pence(fare) if fare else None,
        origin,
        dest,
        product,
    )


def _parse_payment(row: Row, driver_id: str, ctx: _RowContext) -> PaymentEvent:
    ts, category, amount, currency, memo = row
    if currency not in ("", CURRENCY):
        raise RecordError(f"currency {currency!r} is not {CURRENCY}")
    return PaymentEvent(
        driver_id, ctx.ts(ts), PaymentCategory(category), parse_pence(amount), memo or None
    )


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise RecordError(f"not a boolean: {text!r}")


def _parse_dispatch(row: Row, driver_id: str, ctx: _RowContext) -> DispatchOffer:
    offered, accepted = row
    return DispatchOffer(driver_id, ctx.ts(offered), _parse_bool(accepted))


def _parse_session(row: Row, driver_id: str, ctx: _RowContext) -> AppSession:
    login, logout = row
    return AppSession(driver_id, ctx.ts(login), ctx.ts(logout))


def _parse_profile(row: Row, driver_id: str, ctx: _RowContext) -> DriverProfile:
    first_trip, gender, age_band = row
    return DriverProfile(driver_id, ctx.ts(first_trip), gender or None, age_band or None)


_PARSERS = {
    "trips": _parse_trip,
    "payments": _parse_payment,
    "dispatches": _parse_dispatch,
    "sessions": _parse_session,
    "profile": _parse_profile,
}


def normalize(
    raw: RawBundle,
    boundaries: EraBoundaries = DEFAULT_ERAS,
    malformed_threshold: float = 0.05,
) -> tuple[NormalizedBundle, IngestReport]:
    """Type-check every row: dedupe exact duplicates, quarantine bad rows.

    Conservation holds per table: rows_in = rows_ok + deduped + quarantined.
    A table whose quarantined fraction exceeds ``malformed_threshold`` is fatal.
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
                ok.append(parser(row, raw.driver_id, ctx))
            except (RecordError, ValueError) as exc:
                bad += 1
                fields = dict(zip(TABLE_FIELDS[table], row))
                quarantine.append(QuarantinedRow(table, number, _reason(exc), fields))
        typed[table] = ok
        table_reports[table] = TableReport(len(rows), len(ok), deduped, bad)
        if rows and bad / len(rows) > malformed_threshold:
            raise MalformedTable(
                f"bundle {raw.driver_id}: table {table!r} has {bad}/{len(rows)} bad rows"
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

    per_era: dict[str, int] = {}
    for trip in bundle.trips:
        era = era_of(trip_anchor(trip), boundaries)
        per_era[era.value] = per_era.get(era.value, 0) + 1

    report = IngestReport(
        driver_id=raw.driver_id,
        tables=table_reports,
        quarantine=tuple(quarantine),
        skipped_files=raw.skipped_files,
        naive_timestamps=ctx.naive_count,
        trips_per_era=per_era,
    )
    return bundle, report


def _reason(exc: Exception) -> str:
    text = str(exc)
    if "inverted" in text:
        return "inverted timestamps"
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


def trip_row(t: TripRecord) -> dict[str, str]:
    return {
        "request_ts": _fmt_ts(t.request_ts),
        "accept_ts": _fmt_ts(t.accept_ts),
        "pickup_ts": _fmt_ts(t.pickup_ts),
        "dropoff_ts": _fmt_ts(t.dropoff_ts),
        "distance_miles": repr(t.distance_miles),
        "status": t.status.value,
        "original_fare": "" if t.original_fare is None else format_pence(t.original_fare),
        "origin_tag": t.origin_tag,
        "dest_tag": t.dest_tag,
        "product": t.product,
    }


def payment_row(p: PaymentEvent) -> dict[str, str]:
    return {
        "ts": _fmt_ts(p.ts),
        "category": p.category.value,
        "amount": format_pence(p.amount),
        "currency": CURRENCY,
        "memo": p.memo or "",
    }


def write_bundle(bundle: NormalizedBundle, directory: str | Path) -> None:
    """Write a bundle back out in the canonical format (stable byte output)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(table: str, rows: list[dict[str, str]]) -> None:
        fields = list(TABLE_FIELDS[table])
        with open(directory / TABLE_FILES[table], "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    dump("trips", [trip_row(t) for t in bundle.trips])
    dump("payments", [payment_row(p) for p in bundle.payments])
    if bundle.dispatches:
        dump(
            "dispatches",
            [
                {"offered_ts": _fmt_ts(d.offered_ts), "accepted": "true" if d.accepted else "false"}
                for d in bundle.dispatches
            ],
        )
    if bundle.sessions:
        dump(
            "sessions",
            [
                {"login_ts": _fmt_ts(s.login_ts), "logout_ts": _fmt_ts(s.logout_ts)}
                for s in bundle.sessions
            ],
        )
    if bundle.profile is not None:
        p = bundle.profile
        dump(
            "profile",
            [
                {
                    "first_trip_ts": _fmt_ts(p.first_trip_ts),
                    "gender": p.gender or "",
                    "age_band": p.age_band or "",
                }
            ],
        )
