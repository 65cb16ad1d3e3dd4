"""Core domain types shared by the whole toolkit: money, timestamps, eras, records.

Everything here is immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping
from zoneinfo import ZoneInfo

DEFAULT_TIMEZONE = "Europe/London"

AGE_BANDS = ("20-29", "30-39", "40-49", "50+")
GENDERS = ("M", "F", "other/unknown")

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_MS = dt.timedelta(milliseconds=1)

MS_PER_HOUR = 3_600_000
MS_PER_MINUTE = 60_000


class AuditError(Exception):
    """Base class for all toolkit errors."""


class RecordError(AuditError, ValueError):
    """A record or value violates its own invariants."""


class CurrencyMismatch(RecordError):
    pass


class MoneyParseError(RecordError):
    pass


@lru_cache(maxsize=8)
def _zone(name: str) -> ZoneInfo:
    return ZoneInfo(name)


# ---------------------------------------------------------------------------
# Money


_MONEY_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d{1,2}))?$")


@dataclass(frozen=True, slots=True)
class Money:
    """An exact signed amount in integer minor units (pence)."""

    pence: int
    currency: str = "GBP"

    @classmethod
    def parse(cls, text: str, currency: str = "GBP") -> "Money":
        """Parse a decimal major-unit string ("12.34") exactly.

        At most two fraction digits are accepted; anything else is rejected so
        that sums stay bit-reproducible.
        """
        m = _MONEY_RE.match(text.strip())
        if m is None:
            raise MoneyParseError(f"not a money amount: {text!r}")
        sign, whole, frac = m.groups()
        pence = int(whole) * 100 + int((frac or "").ljust(2, "0"))
        if sign == "-":
            pence = -pence
        return cls(pence, currency)

    def _check(self, other: "Money") -> None:
        if self.currency != other.currency:
            raise CurrencyMismatch(f"{self.currency} vs {other.currency}")

    def __add__(self, other: "Money") -> "Money":
        self._check(other)
        return Money(self.pence + other.pence, self.currency)

    def __sub__(self, other: "Money") -> "Money":
        self._check(other)
        return Money(self.pence - other.pence, self.currency)

    def __neg__(self) -> "Money":
        return Money(-self.pence, self.currency)

    def __lt__(self, other: "Money") -> bool:
        self._check(other)
        return self.pence < other.pence

    def __le__(self, other: "Money") -> bool:
        self._check(other)
        return self.pence <= other.pence

    def __str__(self) -> str:
        sign = "-" if self.pence < 0 else ""
        whole, frac = divmod(abs(self.pence), 100)
        return f"{sign}{whole}.{frac:02d}"


def sum_money(amounts: Iterable[Money], currency: str = "GBP") -> Money:
    total = Money(0, currency)
    for a in amounts:
        total = total + a
    return total


# ---------------------------------------------------------------------------
# Timestamps


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A UTC instant in epoch milliseconds.

    Local derivations (day, week, month, hour) always go through an explicit
    timezone so they are reproducible regardless of host configuration.
    """

    epoch_ms: int

    @classmethod
    def from_datetime(cls, value: dt.datetime) -> "Timestamp":
        if value.tzinfo is None:
            raise RecordError("naive datetime; attach a timezone first")
        return cls((value - _EPOCH) // _MS)

    @classmethod
    def parse(cls, text: str) -> tuple["Timestamp", bool]:
        """Parse ISO-8601; returns (value, was_naive). Naive inputs are read as UTC."""
        raw = text.strip()
        if raw.endswith(("Z", "z")):
            raw = raw[:-1] + "+00:00"
        try:
            parsed = dt.datetime.fromisoformat(raw)
        except ValueError as exc:
            raise RecordError(f"unparseable timestamp: {text!r}") from exc
        naive = parsed.tzinfo is None
        if naive:
            parsed = parsed.replace(tzinfo=dt.timezone.utc)
        return cls.from_datetime(parsed), naive

    def to_datetime(self, tz: str = "UTC") -> dt.datetime:
        zone = dt.timezone.utc if tz == "UTC" else _zone(tz)
        seconds, ms = divmod(self.epoch_ms, 1000)
        return dt.datetime.fromtimestamp(seconds, zone) + ms * _MS

    def iso(self) -> str:
        """Canonical serialization: UTC with milliseconds and a Z suffix."""
        d = self.to_datetime("UTC")
        return d.strftime("%Y-%m-%dT%H:%M:%S.") + f"{d.microsecond // 1000:03d}Z"

    def local_date(self, tz: str = DEFAULT_TIMEZONE) -> dt.date:
        return self.to_datetime(tz).date()

    def month(self, tz: str = DEFAULT_TIMEZONE) -> str:
        d = self.to_datetime(tz)
        return f"{d.year:04d}-{d.month:02d}"

    def iso_week(self, tz: str = DEFAULT_TIMEZONE) -> str:
        return iso_week_label(self.local_date(tz))

    def year(self, tz: str = DEFAULT_TIMEZONE) -> int:
        return self.to_datetime(tz).year


# ---------------------------------------------------------------------------
# Calendar helpers (months as "YYYY-MM" labels, weeks as "YYYY-Www")


def local_midnight(day: dt.date, tz: str = DEFAULT_TIMEZONE) -> Timestamp:
    """The instant at which ``day`` begins in ``tz``; every window below starts at one."""
    return Timestamp.from_datetime(dt.datetime(day.year, day.month, day.day, tzinfo=_zone(tz)))


_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")
_WEEK_RE = re.compile(r"^(\d{4})-W(\d{2})$")


def parse_month(label: str) -> tuple[int, int]:
    m = _MONTH_RE.match(label)
    if m is None:
        raise RecordError(f"not a YYYY-MM month: {label!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise RecordError(f"month out of range: {label!r}")
    return year, month


def month_index(label: str) -> int:
    year, month = parse_month(label)
    return year * 12 + (month - 1)


def month_label(index: int) -> str:
    year, month = divmod(index, 12)
    return f"{year:04d}-{month + 1:02d}"


def month_add(label: str, months: int) -> str:
    return month_label(month_index(label) + months)


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of month labels from ``first`` to ``last``."""
    lo, hi = month_index(first), month_index(last)
    if hi < lo:
        raise RecordError(f"month range reversed: {first} > {last}")
    return [month_label(i) for i in range(lo, hi + 1)]


def month_days(label: str) -> tuple[dt.date, dt.date]:
    """Half-open [first day, first day of the next month) of a calendar month."""
    year, month = parse_month(label)
    return dt.date(year, month, 1), dt.date(year + month // 12, month % 12 + 1, 1)


def month_window(label: str, tz: str = DEFAULT_TIMEZONE) -> tuple[Timestamp, Timestamp]:
    """Half-open [start, end) UTC window of a local calendar month."""
    first, stop = month_days(label)
    return local_midnight(first, tz), local_midnight(stop, tz)


def iso_week_label(day: dt.date) -> str:
    year, week, _ = day.isocalendar()
    return f"{year:04d}-W{week:02d}"


def parse_iso_week(label: str) -> tuple[int, int]:
    m = _WEEK_RE.match(label)
    if m is None:
        raise RecordError(f"not a YYYY-Www week: {label!r}")
    return int(m.group(1)), int(m.group(2))


def week_monday(label: str) -> dt.date:
    year, week = parse_iso_week(label)
    return dt.date.fromisocalendar(year, week, 1)


def week_days(label: str) -> tuple[dt.date, dt.date]:
    """Half-open [Monday, next Monday) of an ISO week."""
    monday = week_monday(label)
    return monday, monday + dt.timedelta(days=7)


def week_window(label: str, tz: str = DEFAULT_TIMEZONE) -> tuple[Timestamp, Timestamp]:
    """Half-open [Monday 00:00, next Monday 00:00) UTC window of a local ISO week."""
    monday, stop = week_days(label)
    return local_midnight(monday, tz), local_midnight(stop, tz)


# ---------------------------------------------------------------------------
# Eras


class Era(enum.Enum):
    """Fare-semantics regimes of the export data, split at two month boundaries."""

    FIXED_COMMISSION = "fixed_commission"
    OPAQUE_GAP = "opaque_gap"
    DYNAMIC_PRICING = "dynamic_pricing"


@dataclass(frozen=True, slots=True)
class EraBoundaries:
    """The two month boundaries partitioning time into the three eras.

    Each boundary is also kept as the instant its month begins in ``tz``.
    """

    opaque_start: str = "2022-02"
    dynamic_start: str = "2023-02"
    tz: str = DEFAULT_TIMEZONE
    opaque_ms: int = field(init=False, repr=False, compare=False)
    dynamic_ms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        opaque, _ = month_window(self.opaque_start, self.tz)
        dynamic, _ = month_window(self.dynamic_start, self.tz)
        if opaque >= dynamic:
            raise RecordError(
                f"era boundaries out of order: {self.opaque_start} >= {self.dynamic_start}"
            )
        object.__setattr__(self, "opaque_ms", opaque.epoch_ms)
        object.__setattr__(self, "dynamic_ms", dynamic.epoch_ms)


DEFAULT_ERAS = EraBoundaries()


def era_of(ts: Timestamp, boundaries: EraBoundaries = DEFAULT_ERAS) -> Era:
    """Map an instant to the era containing its local month."""
    if ts.epoch_ms < boundaries.opaque_ms:
        return Era.FIXED_COMMISSION
    if ts.epoch_ms < boundaries.dynamic_ms:
        return Era.OPAQUE_GAP
    return Era.DYNAMIC_PRICING


# ---------------------------------------------------------------------------
# Records


class TripStatus(enum.Enum):
    COMPLETED = "completed"
    RIDER_CANCELLED = "rider_cancelled"
    DRIVER_CANCELLED = "driver_cancelled"


class PaymentCategory(enum.Enum):
    TRIP_EARNINGS = "trip_earnings"
    TIP = "tip"
    COMMISSION_CHARGE = "commission_charge"
    PROMOTION = "promotion"
    THIRD_PARTY_FEE = "third_party_fee"
    ADJUSTMENT = "adjustment"
    OTHER = "other"


class ActivityState(enum.Enum):
    STANDBY = "standby"
    EN_ROUTE = "en_route"
    ON_TRIP = "on_trip"


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One completed or cancelled trip."""

    driver_id: str
    request_ts: Timestamp
    accept_ts: Timestamp | None
    pickup_ts: Timestamp | None
    dropoff_ts: Timestamp | None
    distance_miles: float
    status: TripStatus
    original_fare: Money | None = None
    origin_tag: str = ""
    dest_tag: str = ""
    product: str = ""

    def __post_init__(self) -> None:
        if self.distance_miles < 0:
            raise RecordError("negative distance")
        chain = [self.request_ts, self.accept_ts, self.pickup_ts, self.dropoff_ts]
        present = [t for t in chain if t is not None]
        for earlier, later in zip(present, present[1:]):
            if earlier > later:
                raise RecordError("inverted timestamps")
        if self.status is TripStatus.COMPLETED and None in chain:
            raise RecordError("completed trip missing timestamps")

    @property
    def on_trip_minutes(self) -> float:
        if self.pickup_ts is None or self.dropoff_ts is None:
            return 0.0
        return (self.dropoff_ts.epoch_ms - self.pickup_ts.epoch_ms) / MS_PER_MINUTE


def trip_anchor(trip: TripRecord) -> Timestamp:
    """The instant that dates a trip: its dropoff, else its request."""
    return trip.dropoff_ts or trip.request_ts


@dataclass(frozen=True, slots=True)
class PaymentEvent:
    """One signed money movement on a driver's ledger."""

    driver_id: str
    ts: Timestamp
    category: PaymentCategory
    amount: Money
    memo: str | None = None


@dataclass(frozen=True, slots=True)
class DispatchOffer:
    driver_id: str
    offered_ts: Timestamp
    accepted: bool


@dataclass(frozen=True, slots=True)
class DriverProfile:
    driver_id: str
    first_trip_ts: Timestamp
    gender: str | None = None
    age_band: str | None = None

    def __post_init__(self) -> None:
        if self.gender is not None and self.gender not in GENDERS:
            raise RecordError(f"unknown gender {self.gender!r}")
        if self.age_band is not None and self.age_band not in AGE_BANDS:
            raise RecordError(f"unknown age band {self.age_band!r}")


@dataclass(frozen=True, slots=True)
class AppSession:
    """One logged-in interval; the envelope from which standby is derived."""

    driver_id: str
    login_ts: Timestamp
    logout_ts: Timestamp

    def __post_init__(self) -> None:
        if self.login_ts >= self.logout_ts:
            raise RecordError("empty or inverted session")


@dataclass(frozen=True)
class RpiSeries:
    """Year-on-year percent change per calendar month, contiguous coverage."""

    yoy_pct: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.yoy_pct:
            raise RecordError("empty inflation series")
        indexes = sorted(month_index(m) for m in self.yoy_pct)
        if indexes != list(range(indexes[0], indexes[-1] + 1)):
            raise RecordError("inflation series has month gaps")
        object.__setattr__(self, "yoy_pct", dict(sorted(self.yoy_pct.items())))

    def covers(self, label: str) -> bool:
        return label in self.yoy_pct

    @classmethod
    def from_csv(cls, path: str | Path) -> "RpiSeries":
        """Load a two-column CSV with header ``month,yoy_pct``; a UTF-8 BOM is allowed."""
        series: dict[str, float] = {}
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh, restval="")  # so a short row fails float() with ValueError
            for column in ("month", "yoy_pct"):
                if column not in (reader.fieldnames or ()):
                    raise RecordError(f"no {column!r} column in the header")
            for row in reader:
                series[row["month"].strip()] = float(row["yoy_pct"])
        return cls(series)
