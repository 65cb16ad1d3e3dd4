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
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .model import (
    CALENDAR,
    ActivityState,
    AppSession,
    MS_PER_HOUR,
    PaymentEvent,
    TripRecord,
    TripStatus,
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


Segment = tuple[int, int, ActivityState]  # [start_ms, end_ms) in one working state


class Timeline(NamedTuple):
    """Disjoint, non-empty segments plus the trips found outside sessions.

    Segments come grouped by state (on-trip, en-route, standby), each group in
    time order.
    """

    segments: list[Segment]
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
        en = (trip.accept_ts, trip.pickup_ts)
        on = (trip.pickup_ts, trip.dropoff_ts)
        return (en if en[1] > en[0] else None), (on if on[1] > on[0] else None)
    # cancelled: time from accept to the last known event counts as en route
    if trip.accept_ts is None:
        return None, None
    last = trip.pickup_ts if trip.dropoff_ts is None else trip.dropoff_ts
    if last is None or last <= trip.accept_ts:
        return None, None
    return (trip.accept_ts, last), None


def build_segments(sessions: Sequence[AppSession], trips: Sequence[TripRecord]) -> Timeline:
    """Derive the activity timeline for one driver.

    On-trip time wins over en-route wherever records overlap; standby is the
    session envelope minus both. Trip time falling outside every session is
    still emitted (pay-bearing time is never dropped) and the trip is flagged
    as an orphan.
    """
    envelopes = merge_intervals((s.login_ts, s.logout_ts) for s in sessions)
    envelope_starts = [start for start, _ in envelopes]

    en_route_raw: list[Interval] = []
    on_trip_raw: list[Interval] = []
    orphans: list[TripRecord] = []
    for trip in trips:
        en, on = _trip_intervals(trip)
        if en is not None:
            en_route_raw.append(en)
        if on is not None:
            on_trip_raw.append(on)
        if en or on:
            lo, hi = (en or on)[0], (on or en)[1]  # en-route ends where on-trip begins
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

    segments = [
        (start, end, state)
        for state, intervals in (
            (ActivityState.ON_TRIP, on_trip),
            (ActivityState.EN_ROUTE, en_route),
            (ActivityState.STANDBY, standby),
        )
        for start, end in intervals
    ]
    return Timeline(segments, tuple(orphans))


# ---------------------------------------------------------------------------
# Time ledger

Period = tuple[dt.date, dt.date]  # local dates [first, stop)

_STATES = tuple(ActivityState)
_SLOT = {state: i for i, state in enumerate(_STATES)}

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
    pay: Mapping[dt.date, int]  # pence

    def state_ms(self, period: Period) -> dict[ActivityState, int]:
        totals = [0] * len(_STATES)
        for day in _each_day(period):
            for i, ms in enumerate(self.time.get(day, ())):
                totals[i] += ms
        return dict(zip(_STATES, totals))

    def day_pay(self, period: Period) -> list[int]:
        """Each date's pay in the period, in date order."""
        return [self.pay[day] for day in _each_day(period) if day in self.pay]


def build_ledger(segments: Iterable[Segment], payments: Iterable[PaymentEvent]) -> TimeLedger:
    """Split every segment at local midnights and date every payment.

    Segments may come in any order; overlapping ones each count in full.
    """
    time: dict[dt.date, list[int]] = {}
    for start, end, state in segments:
        slot = _SLOT[state]
        while start < end:
            day, _, stop = CALENDAR.day(start)
            cut = min(end, stop)
            time.setdefault(day, [0] * len(_STATES))[slot] += cut - start
            start = cut

    pay: dict[dt.date, int] = {}
    for p in payments:
        day = CALENDAR.day(p.ts)[0]
        pay[day] = pay.get(day, 0) + p.amount
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
