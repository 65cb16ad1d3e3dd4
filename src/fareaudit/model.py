"""Core domain types shared by the whole toolkit: pence, instants, eras, records.

Everything here is immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping
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

# The instants a Calendar dates in any zone whose offset is under a day: from
# UTC 0001-01-02 up to 9998-12-31, so that each local date falls in a year
# whose dates, and the next 1 January, ``datetime`` can hold.
_FIRST_MS = (dt.datetime(1, 1, 2, tzinfo=dt.timezone.utc) - _EPOCH) // _MS
_STOP_MS = (dt.datetime(9998, 12, 31, tzinfo=dt.timezone.utc) - _EPOCH) // _MS


class AuditError(Exception):
    """Base class for all toolkit errors."""


class RecordError(AuditError, ValueError):
    """A record or value violates its own invariants."""


class MoneyParseError(RecordError):
    pass


# ---------------------------------------------------------------------------
# Amounts: every amount is an int of pence, in the audit's one currency, GBP


_MONEY_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d{1,2}))?$")

# The largest magnitude an amount may have: one billion pounds. A bundle's
# sums of pence then stay inside int64 up to 92 million rows.
MAX_PENCE = 100_000_000_000


def parse_pence(text: str) -> int:
    """Parse a decimal pounds string ("12.34") exactly into pence.

    At most two fraction digits are accepted; anything else is rejected so
    that sums stay bit-reproducible. So is a magnitude above ``MAX_PENCE``.
    """
    m = _MONEY_RE.match(text.strip())
    if m is None:
        raise MoneyParseError(f"not a money amount: {text!r}")
    sign, whole, frac = m.groups()
    pence = int(whole) * 100 + int((frac or "").ljust(2, "0"))
    if pence > MAX_PENCE:
        raise MoneyParseError(f"money amount above {format_pence(MAX_PENCE)}: {text!r}")
    return -pence if sign == "-" else pence


def format_pence(pence: int) -> str:
    """Pounds text of an amount in pence, the form ``parse_pence`` reads back."""
    sign = "-" if pence < 0 else ""
    whole, frac = divmod(abs(pence), 100)
    return f"{sign}{whole}.{frac:02d}"


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, the order in which the built-in ``sum``
    added floats before Python 3.12 compensated it, so that a float total
    written to a report or a chart has the same bits on every Python."""
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# Instants: every instant is an int of UTC epoch milliseconds


def parse_instant(text: str) -> tuple[int, bool]:
    """Epoch ms of an ISO-8601 text, and whether it was naive; naive text is read as UTC.

    From Python 3.11 ``fromisoformat`` reads a ``Z`` itself, so a canonical
    text needs no rewrite; any other (surrounding space, a lowercase ``z``, or
    a ``Z`` before 3.11) is stripped and its ``Z`` rewritten to ``+00:00``.
    An instant the calendar cannot date is rejected.
    """
    try:
        parsed = dt.datetime.fromisoformat(text)
    except ValueError:
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
    ms = (since.days * 86_400 + since.seconds) * 1000 + since.microseconds // 1000
    if not _FIRST_MS <= ms < _STOP_MS:
        raise RecordError(f"timestamp outside the calendar: {text!r}")
    return ms, naive


# Text pieces of format_instant. They are made on its first call, not at import,
# because the audit never formats an instant and the tables would only grow it.
_DAY_TEXT: dict[int, str] = {}  # "YYYY-MM-DDT" of each UTC day since the epoch
_DAY_TEXT_LIMIT = 4096  # days kept before the cache starts over
_MINUTE_TEXT: tuple[str, ...] = ()  # "HH:MM:" of each minute of the day
_SECOND_TEXT: tuple[str, ...] = ()  # "SS."
_MILLI_TEXT: tuple[str, ...] = ()  # "mmmZ"


def _day_text(day: int) -> str:
    global _MINUTE_TEXT, _SECOND_TEXT, _MILLI_TEXT
    if not _MILLI_TEXT:
        _MINUTE_TEXT = tuple(f"{m // 60:02d}:{m % 60:02d}:" for m in range(1440))
        _SECOND_TEXT = tuple(f"{s:02d}." for s in range(60))
        _MILLI_TEXT = tuple(f"{n:03d}Z" for n in range(1000))
    if len(_DAY_TEXT) >= _DAY_TEXT_LIMIT:
        _DAY_TEXT.clear()
    text = _DAY_TEXT[day] = dt.date.fromordinal(day + _EPOCH_ORDINAL).isoformat() + "T"
    return text


def format_instant(ms: int) -> str:
    """Canonical text of an instant: UTC with milliseconds and a Z suffix.

    The text of ``datetime.isoformat`` for years 1-9999, made by integer
    division: the date part is cached per UTC day, the time part is looked up.
    """
    day, rem = divmod(ms, MS_PER_DAY)
    minute, rem = divmod(rem, MS_PER_MINUTE)
    second, milli = divmod(rem, 1000)
    prefix = _DAY_TEXT.get(day) or _day_text(day)
    return prefix + _MINUTE_TEXT[minute] + _SECOND_TEXT[second] + _MILLI_TEXT[milli]


# ---------------------------------------------------------------------------
# Calendar: local dates of instants, months as ``month_index``, weeks as "YYYY-Www"


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

    def month(self, ms: int) -> int:
        """The ``month_index`` of the local date holding the instant ``ms``."""
        return month_of(self.day(ms)[0])


CALENDAR = Calendar(DEFAULT_TIMEZONE)  # dates every instant the audit reads


def month_of(day: dt.date) -> int:
    """The ``month_index`` of the month holding ``day``."""
    return day.year * 12 + day.month - 1


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


# ---------------------------------------------------------------------------
# Eras


class Era(enum.Enum):
    """Fare-semantics regimes of the export data, split at two month boundaries."""

    FIXED_COMMISSION = "fixed_commission"
    OPAQUE_GAP = "opaque_gap"
    DYNAMIC_PRICING = "dynamic_pricing"


@dataclass(frozen=True, slots=True)
class EraBoundaries:
    """The months in which the opaque gap and dynamic pricing begin."""

    opaque_start: str = "2022-02"
    dynamic_start: str = "2023-02"

    def __post_init__(self) -> None:
        if month_index(self.opaque_start) >= month_index(self.dynamic_start):
            raise RecordError(
                f"era boundaries out of order: {self.opaque_start} >= {self.dynamic_start}"
            )


DEFAULT_ERAS = EraBoundaries()


def era_of(month: int, boundaries: EraBoundaries = DEFAULT_ERAS) -> Era:
    """The era holding the month of ``month_index`` ``month``."""
    if month < month_index(boundaries.opaque_start):
        return Era.FIXED_COMMISSION
    if month < month_index(boundaries.dynamic_start):
        return Era.OPAQUE_GAP
    return Era.DYNAMIC_PRICING


# ---------------------------------------------------------------------------
# Records: none carries a driver id, which the bundle holding them has once


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
        if not math.isfinite(self.distance_miles):
            raise RecordError(f"non-finite distance: {self.distance_miles!r}")
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

    ts: int
    category: PaymentCategory
    amount: int  # pence
    memo: str | None = None


@dataclass(frozen=True, slots=True)
class DispatchOffer:
    offered_ts: int
    accepted: bool


@dataclass(frozen=True, slots=True)
class DriverProfile:
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

    login_ts: int
    logout_ts: int

    def __post_init__(self) -> None:
        if self.login_ts >= self.logout_ts:
            raise RecordError("empty or inverted session")


@dataclass(frozen=True)
class RpiSeries:
    """Year-on-year percent change by ``month_index``, contiguous coverage."""

    yoy_pct: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.yoy_pct:
            raise RecordError("empty inflation series")
        for month, pct in self.yoy_pct.items():
            if not math.isfinite(pct) or pct <= -100.0:
                raise RecordError(
                    f"year-on-year change for {month_label(month)} out of range: {pct!r}"
                )
        indexes = sorted(self.yoy_pct)
        if indexes != list(range(indexes[0], indexes[-1] + 1)):
            raise RecordError("inflation series has month gaps")
        object.__setattr__(self, "yoy_pct", dict(sorted(self.yoy_pct.items())))
