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
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (
    CALENDAR,
    ActivityState,
    AppSession,
    DispatchOffer,
    MS_PER_HOUR,
    PaymentEvent,
    TripRecord,
    TripStatus,
    iso_week_label,
    month_of,
    trip_anchor,
)

Interval = tuple[int, int]  # [start_ms, end_ms)


class HoursDefinition(enum.Enum):
    TRIBUNAL = "tribunal"  # standby + en_route + on_trip
    PLATFORM = "platform"  # en_route + on_trip only


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

_SLOT = {ActivityState.STANDBY: 0, ActivityState.EN_ROUTE: 1, ActivityState.ON_TRIP: 2}


@dataclass(slots=True)
class Bucket:
    """Totals over one local date, ISO week or local month, of one driver or summed
    over several."""

    standby_ms: int = 0
    en_route_ms: int = 0
    on_trip_ms: int = 0
    pay: int | None = None  # pence; None when no payment falls in the bucket
    active_days: int = 0  # local dates with any activity
    trips: int = 0  # trips anchored in the bucket, whatever their status
    completed: int = 0  # of those, the completed trips
    offered: int = 0  # dispatch offers
    accepted: int = 0  # of those, the accepted offers

    def add(self, other: Bucket) -> None:
        """Add each of ``other``'s totals to this bucket's."""
        self.standby_ms += other.standby_ms
        self.en_route_ms += other.en_route_ms
        self.on_trip_ms += other.on_trip_ms
        if other.pay is not None:
            self.pay = (self.pay or 0) + other.pay
        self.active_days += other.active_days
        self.trips += other.trips
        self.completed += other.completed
        self.offered += other.offered
        self.accepted += other.accepted


@dataclass(frozen=True)
class TimeLedger:
    """One driver's buckets by ISO week label and by local ``month_index``.

    Only weeks and months with activity, payments, trips or offers have a
    bucket, and both mappings run in date order. Every total is an exact sum
    over the bucket's local dates.
    """

    weeks: Mapping[str, Bucket]
    months: Mapping[int, Bucket]


def build_ledger(
    segments: Iterable[Segment],
    payments: Iterable[PaymentEvent],
    trips: Iterable[TripRecord],
    offers: Iterable[DispatchOffer],
) -> TimeLedger:
    """Date every record once and fold each local date into its ISO week and
    its local month.

    Segments are split at local midnights and may come in any order;
    overlapping ones each count in full. A payment is dated by its instant, a
    trip by ``trip_anchor`` and an offer by its offer instant. Only a date with
    segment time is an active day.
    """
    time: dict[dt.date, list[int]] = {}
    for start, end, state in segments:
        slot = _SLOT[state]
        while start < end:
            day, _, stop = CALENDAR.day(start)
            cut = min(end, stop)
            time.setdefault(day, [0, 0, 0])[slot] += cut - start
            start = cut

    days: dict[dt.date, Bucket] = {}
    for day, (standby, en_route, on_trip) in time.items():
        days[day] = Bucket(standby, en_route, on_trip, active_days=1)
    for p in payments:
        bucket = days.setdefault(CALENDAR.day(p.ts)[0], Bucket())
        bucket.pay = (bucket.pay or 0) + p.amount
    for trip in trips:
        bucket = days.setdefault(CALENDAR.day(trip_anchor(trip))[0], Bucket())
        bucket.trips += 1
        bucket.completed += trip.status is TripStatus.COMPLETED
    for offer in offers:
        bucket = days.setdefault(CALENDAR.day(offer.offered_ts)[0], Bucket())
        bucket.offered += 1
        bucket.accepted += offer.accepted

    weeks: dict[str, Bucket] = {}
    months: dict[int, Bucket] = {}
    for day in sorted(days):
        totals = days[day]
        weeks.setdefault(iso_week_label(day), Bucket()).add(totals)
        months.setdefault(month_of(day), Bucket()).add(totals)
    return TimeLedger(weeks, months)


def hours_worked(totals: Bucket, definition: HoursDefinition) -> float:
    """Hours in one week or month bucket under the chosen definition."""
    ms = totals.en_route_ms + totals.on_trip_ms
    if definition is HoursDefinition.TRIBUNAL:
        ms += totals.standby_ms
    return ms / MS_PER_HOUR


@dataclass(frozen=True, slots=True)
class UtilisationDaily:
    standby_hours: float
    en_route_hours: float
    on_trip_hours: float
    active_days: int


def utilisation_daily(totals: Bucket) -> UtilisationDaily:
    """Average hours per active day in each state over one month bucket.

    An active day is a local date with any activity. With no activity the
    averages are zero and active_days is 0.
    """
    n = totals.active_days
    if n == 0:
        return UtilisationDaily(0.0, 0.0, 0.0, 0)
    return UtilisationDaily(
        standby_hours=totals.standby_ms / MS_PER_HOUR / n,
        en_route_hours=totals.en_route_ms / MS_PER_HOUR / n,
        on_trip_hours=totals.on_trip_ms / MS_PER_HOUR / n,
        active_days=n,
    )
