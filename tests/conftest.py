"""Shared factories for building records and CSV bundles in tests."""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest

from fareaudit.model import (
    ActivityState,
    AppSession,
    DispatchOffer,
    PaymentCategory,
    PaymentEvent,
    TripRecord,
    TripStatus,
    parse_instant,
    parse_pence,
)


def instant(iso: str) -> int:
    """The epoch ms an ISO-8601 string names; naive strings are read as UTC."""
    return parse_instant(iso)[0]


BASE = instant("2021-03-02T09:00:00Z")  # fixed-commission era

# The tests date instants with zoneinfo itself, independently of model.Calendar.
LONDON = ZoneInfo("Europe/London")


def london(ms: int) -> dt.datetime:
    """The London wall-clock time of an instant, to the second."""
    return dt.datetime.fromtimestamp(ms // 1000, LONDON)


def london_midnight(day: dt.date) -> int:
    """The instant at which ``day`` begins in London."""
    start = dt.datetime(day.year, day.month, day.day, tzinfo=LONDON)
    return int(start.timestamp()) * 1000


S_1990 = 631_152_000  # 1990-01-01T00:00:00Z
S_2041 = 2_240_524_800  # 2041-01-01T00:00:00Z
DAY_S = 86_400


def offset_changes(tz: str) -> list[int]:
    """Every instant (epoch seconds) from 1990 to 2040 at which ``tz`` changes offset."""
    zone = ZoneInfo(tz)

    def offset(s: int) -> dt.timedelta:
        return dt.datetime.fromtimestamp(s, zone).utcoffset()

    out = []
    for day in range(S_1990, S_2041, DAY_S):  # at most one change a day
        lo, hi = day, day + DAY_S
        if offset(lo) != offset(hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if offset(mid) == offset(lo) else (lo, mid)
            out.append(hi)
    return out


def load_ground_truth(root: str | Path) -> dict:
    """The ``ground_truth.json`` that ``synthgen.generate`` wrote under ``root``."""
    with open(Path(root) / "ground_truth.json", encoding="utf-8") as fh:
        return json.load(fh)


def at(minutes: float) -> int:
    """The instant ``minutes`` after the base instant."""
    return BASE + round(minutes * 60_000)


def trip(
    req: float = 0.0,
    accept: float | None = 1.0,
    pickup: float | None = 5.0,
    dropoff: float | None = 20.0,
    distance: float = 4.0,
    status: TripStatus = TripStatus.COMPLETED,
    fare: str | None = "10.00",
    **kw,
) -> TripRecord:
    return TripRecord(
        request_ts=at(req),
        accept_ts=None if accept is None else at(accept),
        pickup_ts=None if pickup is None else at(pickup),
        dropoff_ts=None if dropoff is None else at(dropoff),
        distance_miles=distance,
        status=status,
        original_fare=None if fare is None else parse_pence(fare),
        **kw,
    )


def payment(
    ts_min: float = 21.0,
    amount: str = "7.50",
    category: PaymentCategory = PaymentCategory.TRIP_EARNINGS,
    memo: str | None = None,
) -> PaymentEvent:
    return PaymentEvent(at(ts_min), category, parse_pence(amount), memo)


def session(start: float, end: float) -> AppSession:
    return AppSession(at(start), at(end))


def offer(ts_min: float, accepted: bool) -> DispatchOffer:
    return DispatchOffer(at(ts_min), accepted)


def segment(start: float, end: float, state: ActivityState) -> tuple[int, int, ActivityState]:
    """A timeline triple from ``start`` to ``end`` minutes after the base instant."""
    return at(start), at(end), state


TRIP_HEADER = [
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
]
PAYMENT_HEADER = ["ts", "category", "amount", "currency", "memo"]


def write_table(directory: Path, name: str, header: list[str], rows: list[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def trip_csv_row(
    req: str = "2021-03-02T09:00:00Z",
    accept: str = "2021-03-02T09:01:00Z",
    pickup: str = "2021-03-02T09:05:00Z",
    dropoff: str = "2021-03-02T09:20:00Z",
    **kw,
) -> dict:
    row = {
        "request_ts": req,
        "accept_ts": accept,
        "pickup_ts": pickup,
        "dropoff_ts": dropoff,
        "distance_miles": "4.0",
        "status": "completed",
        "original_fare": "10.00",
        "origin_tag": "zone-1",
        "dest_tag": "zone-2",
        "product": "standard",
    }
    row.update(kw)
    return row


def payment_csv_row(
    ts: str = "2021-03-02T09:21:00Z", amount: str = "7.50", category: str = "trip_earnings", **kw
) -> dict:
    row = {"ts": ts, "category": category, "amount": amount, "currency": "GBP", "memo": ""}
    row.update(kw)
    return row


@pytest.fixture
def bundle_dir(tmp_path: Path) -> Path:
    """A minimal one-driver bundle with one trip and its payment."""
    d = tmp_path / "driverX"
    write_table(d, "trips", TRIP_HEADER, [trip_csv_row()])
    write_table(d, "payments", PAYMENT_HEADER, [payment_csv_row()])
    return d
