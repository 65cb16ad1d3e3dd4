"""Reconstruct standby / en-route / on-trip time and hours under both definitions.

Sessions give the envelope of logged-in time. Trips carve en-route and on-trip
intervals out of it; whatever remains inside the envelope is standby, the
waiting time one working-time definition counts and the other does not.
"""

from __future__ import annotations

import datetime as dt
import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    DEFAULT_TIMEZONE,
    ActivitySegment,
    ActivityState,
    AppSession,
    MS_PER_HOUR,
    Money,
    PaymentEvent,
    Timestamp,
    TripRecord,
    TripStatus,
    local_midnight,
    month_days,
)

Interval = tuple[int, int]  # [start_ms, end_ms)


class HoursDefinition(enum.Enum):
    TRIBUNAL = "tribunal"  # standby + en_route + on_trip
    PLATFORM = "platform"  # en_route + on_trip only


_STATES_FOR = {
    HoursDefinition.TRIBUNAL: frozenset(
        {ActivityState.STANDBY, ActivityState.EN_ROUTE, ActivityState.ON_TRIP}
    ),
    HoursDefinition.PLATFORM: frozenset({ActivityState.EN_ROUTE, ActivityState.ON_TRIP}),
}


@dataclass(frozen=True)
class Timeline:
    """Non-overlapping, time-sorted segments plus the trips found outside sessions."""

    driver_id: str
    segments: tuple[ActivitySegment, ...]
    orphan_trips: tuple[TripRecord, ...]


# ---------------------------------------------------------------------------
# Interval algebra on integer milliseconds


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def subtract_intervals(base: Sequence[Interval], holes: Sequence[Interval]) -> list[Interval]:
    """base minus holes; both must be merged (disjoint, sorted)."""
    out: list[Interval] = []
    hi = 0
    for start, end in base:
        cursor = start
        while hi < len(holes) and holes[hi][1] <= cursor:
            hi += 1
        j = hi
        while j < len(holes) and holes[j][0] < end:
            hs, he = holes[j]
            if hs > cursor:
                out.append((cursor, hs))
            cursor = max(cursor, he)
            if he >= end:
                break
            j += 1
        if cursor < end:
            out.append((cursor, end))
    return out


# ---------------------------------------------------------------------------
# Segment construction


def _trip_intervals(trip: TripRecord) -> tuple[Interval | None, Interval | None]:
    """(en_route, on_trip) intervals for one trip, either possibly None."""
    if trip.status is TripStatus.COMPLETED:
        en = (trip.accept_ts.epoch_ms, trip.pickup_ts.epoch_ms)
        on = (trip.pickup_ts.epoch_ms, trip.dropoff_ts.epoch_ms)
        return (en if en[1] > en[0] else None), (on if on[1] > on[0] else None)
    # cancelled: time from accept to the last known event counts as en route
    if trip.accept_ts is None:
        return None, None
    last = trip.dropoff_ts or trip.pickup_ts
    if last is None or last.epoch_ms <= trip.accept_ts.epoch_ms:
        return None, None
    return (trip.accept_ts.epoch_ms, last.epoch_ms), None


def build_segments(
    sessions: Sequence[AppSession], trips: Sequence[TripRecord], driver_id: str | None = None
) -> Timeline:
    """Derive the activity timeline for one driver.

    On-trip time wins over en-route wherever records overlap; standby is the
    session envelope minus both. Trip time falling outside every session is
    still emitted (pay-bearing time is never dropped) and the trip is flagged
    as an orphan.
    """
    if driver_id is None:
        driver_id = (
            sessions[0].driver_id
            if sessions
            else trips[0].driver_id
            if trips
            else ""
        )

    envelopes = merge_intervals((s.login_ts.epoch_ms, s.logout_ts.epoch_ms) for s in sessions)
    envelope_starts = [start for start, _ in envelopes]

    en_route_raw: list[Interval] = []
    on_trip_raw: list[Interval] = []
    orphans: list[TripRecord] = []
    for trip in trips:
        en, on = _trip_intervals(trip)
        spans = [iv for iv in (en, on) if iv is not None]
        if en is not None:
            en_route_raw.append(en)
        if on is not None:
            on_trip_raw.append(on)
        if spans:
            lo = min(iv[0] for iv in spans)
            hi = max(iv[1] for iv in spans)
            # envelopes are sorted, disjoint and non-touching, so a span is
            # covered only when it lies inside the one envelope starting at or
            # before it
            k = bisect_right(envelope_starts, lo) - 1
            if k < 0 or envelopes[k][1] < hi:
                orphans.append(trip)

    on_trip = merge_intervals(on_trip_raw)
    en_route = subtract_intervals(merge_intervals(en_route_raw), on_trip)
    busy = merge_intervals(list(on_trip) + list(en_route))
    standby = subtract_intervals(envelopes, busy)

    segments = sorted(
        [(iv, ActivityState.ON_TRIP) for iv in on_trip]
        + [(iv, ActivityState.EN_ROUTE) for iv in en_route]
        + [(iv, ActivityState.STANDBY) for iv in standby]
    , key=lambda pair: pair[0])

    built = tuple(
        ActivitySegment(driver_id, Timestamp(start), Timestamp(end), state)
        for (start, end), state in segments
    )
    return Timeline(driver_id, built, tuple(orphans))


# ---------------------------------------------------------------------------
# Time ledger

Period = tuple[dt.date, dt.date]  # local dates [first, stop)

_STATES = tuple(ActivityState)

_ONE_DAY = dt.timedelta(days=1)


def _each_day(period: Period) -> Iterator[dt.date]:
    day, stop = period
    while day < stop:
        yield day
        day += _ONE_DAY


@dataclass(frozen=True)
class TimeLedger:
    """One driver's milliseconds per state, and signed pay, per local date.

    Only dates with activity, or with payments, have entries. Weeks and months
    are runs of dates, so every period total is an exact sum over days.
    """

    time: Mapping[dt.date, Sequence[int]]  # milliseconds per state, in _STATES order
    pay: Mapping[dt.date, Money]

    def state_ms(self, period: Period) -> dict[ActivityState, int]:
        totals = [0] * len(_STATES)
        for day in _each_day(period):
            for i, ms in enumerate(self.time.get(day, ())):
                totals[i] += ms
        return dict(zip(_STATES, totals))

    def day_pay(self, period: Period) -> list[Money]:
        """Each date's pay in the period, in date order."""
        return [self.pay[day] for day in _each_day(period) if day in self.pay]


def build_ledger(
    segments: Iterable[ActivitySegment],
    payments: Iterable[PaymentEvent],
    tz: str = DEFAULT_TIMEZONE,
) -> TimeLedger:
    """Split every segment at local midnights and date every payment.

    Overlapping segments each count in full; two currencies on one date raise.
    """
    day, lo, hi = dt.date.min, 0, 0  # the last date looked up and its [lo, hi)

    def locate(ms: int) -> None:
        nonlocal day, lo, hi
        if not lo <= ms < hi:
            day = Timestamp(ms).local_date(tz)
            lo = local_midnight(day, tz).epoch_ms
            hi = local_midnight(day + _ONE_DAY, tz).epoch_ms

    time: dict[dt.date, list[int]] = {}
    for seg in segments:
        slot = _STATES.index(seg.state)
        start, end = seg.start_ts.epoch_ms, seg.end_ts.epoch_ms
        while start < end:
            locate(start)
            cut = min(end, hi)
            time.setdefault(day, [0] * len(_STATES))[slot] += cut - start
            start = cut

    pay: dict[dt.date, Money] = {}
    for p in payments:
        locate(p.ts.epoch_ms)
        pay[day] = pay.get(day, Money(0, p.amount.currency)) + p.amount
    return TimeLedger(time, pay)


def hours_worked(ledger: TimeLedger, period: Period, definition: HoursDefinition) -> float:
    """Hours on the period's dates under the chosen definition."""
    totals = ledger.state_ms(period)
    return sum(totals[state] for state in _STATES_FOR[definition]) / MS_PER_HOUR


@dataclass(frozen=True, slots=True)
class UtilisationDaily:
    standby_hours: float
    en_route_hours: float
    on_trip_hours: float
    active_days: int

    @property
    def total_hours(self) -> float:
        return self.standby_hours + self.en_route_hours + self.on_trip_hours


def utilisation_daily(ledger: TimeLedger, month: str) -> UtilisationDaily:
    """Average hours per active day in each state over one calendar month.

    An active day is a local date with any activity. With no activity the
    averages are zero and active_days is 0.
    """
    period = month_days(month)
    n = sum(1 for day in _each_day(period) if day in ledger.time)
    if n == 0:
        return UtilisationDaily(0.0, 0.0, 0.0, 0)
    totals = ledger.state_ms(period)
    return UtilisationDaily(
        standby_hours=totals[ActivityState.STANDBY] / MS_PER_HOUR / n,
        en_route_hours=totals[ActivityState.EN_ROUTE] / MS_PER_HOUR / n,
        on_trip_hours=totals[ActivityState.ON_TRIP] / MS_PER_HOUR / n,
        active_days=n,
    )
