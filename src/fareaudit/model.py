"""Core domain types shared by the whole toolkit: pence, instants, eras, records.

Everything here is immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping
from zoneinfo import ZoneInfo

DEFAULT_TIMEZONE = "Europe/London"

AGE_BANDS = ("20-29", "30-39", "40-49", "50+")
GENDERS = ("M", "F", "other/unknown")

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MS = dt.timedelta(milliseconds=1)

MS_PER_DAY = 86_400_000
MS_PER_HOUR = 3_600_000
MS_PER_MINUTE = 60_000


class AuditError(Exception):
    """Base class for all toolkit errors."""


class RecordError(AuditError, ValueError):
    """A record or value violates its own invariants."""


class MoneyParseError(RecordError):
    pass


# ---------------------------------------------------------------------------
# Amounts: every amount is an int of pence, in the audit's one currency, GBP


_MONEY_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d{1,2}))?$")


def parse_pence(text: str) -> int:
    """Parse a decimal pounds string ("12.34") exactly into pence.

    At most two fraction digits are accepted; anything else is rejected so
    that sums stay bit-reproducible.
    """
    m = _MONEY_RE.match(text.strip())
    if m is None:
        raise MoneyParseError(f"not a money amount: {text!r}")
    sign, whole, frac = m.groups()
    pence = int(whole) * 100 + int((frac or "").ljust(2, "0"))
    return -pence if sign == "-" else pence


def format_pence(pence: int) -> str:
    """Pounds text of an amount in pence, the form ``parse_pence`` reads back."""
    sign = "-" if pence < 0 else ""
    whole, frac = divmod(abs(pence), 100)
    return f"{sign}{whole}.{frac:02d}"


# ---------------------------------------------------------------------------
# Instants: every instant is an int of UTC epoch milliseconds


def parse_instant(text: str) -> tuple[int, bool]:
    """Epoch ms of an ISO-8601 text, and whether it was naive; naive text is read as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        parsed = dt.datetime.fromisoformat(raw)
    except ValueError as exc:
        raise RecordError(f"unparseable timestamp: {text!r}") from exc
    naive = parsed.tzinfo is None
    since = (parsed.replace(tzinfo=dt.timezone.utc) if naive else parsed) - _EPOCH
    # the floor of its microseconds over 1000, without dividing two timedeltas
    return (since.days * 86_400 + since.seconds) * 1000 + since.microseconds // 1000, naive


def format_instant(ms: int) -> str:
    """Canonical text of an instant: UTC with milliseconds and a Z suffix."""
    return (_EPOCH + ms * _MS).isoformat(timespec="milliseconds")[:-6] + "Z"


# ---------------------------------------------------------------------------
# Calendar: local dates of instants, months as "YYYY-MM", weeks as "YYYY-Www"


class Calendar:
    """Local dates of UTC instants in one timezone.

    The instant at which each local date begins is read from ``zoneinfo`` once
    for every calendar year a lookup touches. After that ``day`` is a bisect,
    and the month, ISO week, year and weekday of an instant follow from its
    date. The tables only cache what zoneinfo answers, so one instance can be
    shared by every caller.
    """

    def __init__(self, tz: str) -> None:
        self.tz = tz
        self._zone = ZoneInfo(tz)
        self._years: dict[int, tuple[list[int], list[dt.date]]] = {}
        self._last: tuple[dt.date, int, int] = (dt.date.min, 0, 0)  # the day looked up last

    def _year(self, year: int) -> tuple[list[int], list[dt.date]]:
        """Where each date of ``year`` begins, plus the next 1 January; and the dates."""
        table = self._years.get(year)
        if table is None:
            first, stop = dt.date(year, 1, 1).toordinal(), dt.date(year + 1, 1, 1).toordinal()
            dates = [dt.date.fromordinal(n) for n in range(first, stop + 1)]
            starts = [
                (dt.datetime(d.year, d.month, d.day, tzinfo=self._zone) - _EPOCH) // _MS
                for d in dates
            ]
            table = self._years[year] = (starts, dates)
        return table

    def day(self, ms: int) -> tuple[dt.date, int, int]:
        """The local date holding the instant ``ms``, and where it begins and stops."""
        last = self._last
        if last[1] <= ms < last[2]:
            return last
        year = dt.date.fromordinal(ms // MS_PER_DAY + _EPOCH_ORDINAL).year  # the UTC year
        starts, dates = self._year(year)
        if ms < starts[0]:
            starts, dates = self._year(year - 1)
        elif ms >= starts[-1]:
            starts, dates = self._year(year + 1)
        i = bisect_right(starts, ms) - 1
        self._last = last = dates[i], starts[i], starts[i + 1]
        return last

    def hour(self, ms: int) -> int:
        """The local wall-clock hour of the instant ``ms``."""
        _, start, stop = self.day(ms)
        if stop - start == MS_PER_DAY:
            return (ms - start) // MS_PER_HOUR
        return dt.datetime.fromtimestamp(ms // 1000, self._zone).hour  # a clock-change day

    def midnight(self, day: dt.date) -> int:
        """The instant at which the local date ``day`` begins; ``day`` inverts it."""
        starts, dates = self._year(day.year)
        return starts[day.toordinal() - dates[0].toordinal()]


CALENDAR = Calendar(DEFAULT_TIMEZONE)  # dates every instant the audit reads


def month_of(day: dt.date) -> str:
    return f"{day.year:04d}-{day.month:02d}"


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
        calendar = CALENDAR if self.tz == CALENDAR.tz else Calendar(self.tz)
        opaque = calendar.midnight(month_days(self.opaque_start)[0])
        dynamic = calendar.midnight(month_days(self.dynamic_start)[0])
        if opaque >= dynamic:
            raise RecordError(
                f"era boundaries out of order: {self.opaque_start} >= {self.dynamic_start}"
            )
        object.__setattr__(self, "opaque_ms", opaque)
        object.__setattr__(self, "dynamic_ms", dynamic)


DEFAULT_ERAS = EraBoundaries()


def era_of(ms: int, boundaries: EraBoundaries = DEFAULT_ERAS) -> Era:
    """Map an instant to the era containing its local month."""
    if ms < boundaries.opaque_ms:
        return Era.FIXED_COMMISSION
    if ms < boundaries.dynamic_ms:
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
    request_ts: int  # epoch ms, as every *_ts field
    accept_ts: int | None
    pickup_ts: int | None
    dropoff_ts: int | None
    distance_miles: float
    status: TripStatus
    original_fare: int | None = None  # pence
    origin_tag: str = ""
    dest_tag: str = ""
    product: str = ""

    def __post_init__(self) -> None:
        if self.distance_miles < 0:
            raise RecordError("negative distance")
        chain = [self.request_ts, self.accept_ts, self.pickup_ts, self.dropoff_ts]
        present = [t for t in chain if t is not None]
        if present != sorted(present):
            raise RecordError("inverted timestamps")
        if self.status is TripStatus.COMPLETED and len(present) < len(chain):
            raise RecordError("completed trip missing timestamps")

    @property
    def on_trip_minutes(self) -> float:
        if self.pickup_ts is None or self.dropoff_ts is None:
            return 0.0
        return (self.dropoff_ts - self.pickup_ts) / MS_PER_MINUTE


def trip_anchor(trip: TripRecord) -> int:
    """The instant that dates a trip: its dropoff, else its request."""
    return trip.request_ts if trip.dropoff_ts is None else trip.dropoff_ts


@dataclass(frozen=True, slots=True)
class PaymentEvent:
    """One signed money movement on a driver's ledger."""

    driver_id: str
    ts: int
    category: PaymentCategory
    amount: int  # pence
    memo: str | None = None


@dataclass(frozen=True, slots=True)
class DispatchOffer:
    driver_id: str
    offered_ts: int
    accepted: bool


@dataclass(frozen=True, slots=True)
class DriverProfile:
    driver_id: str
    first_trip_ts: int
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
    login_ts: int
    logout_ts: int

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
        for month, pct in self.yoy_pct.items():
            if not math.isfinite(pct) or pct <= -100.0:
                raise RecordError(f"year-on-year change for {month} out of range: {pct!r}")
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
