"""Join payment events to trips by timestamp proximity and derive money splits.

Exports carry no shared key between the trips table and the payments ledger,
so each trip-earnings payment is attached to the trip whose dropoff time is
nearest. Matching is deterministic and invariant under input row order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .model import (
    DEFAULT_ERAS,
    AuditError,
    Era,
    EraBoundaries,
    PaymentCategory,
    PaymentEvent,
    TripRecord,
    era_of,
    trip_anchor,
)

DEFAULT_WINDOW_S = 600.0


class ZeroFare(AuditError):
    pass


@dataclass(frozen=True, slots=True)
class LinkedTrip:
    """A trip with its matched earnings events and, where legal, fare split."""

    trip: TripRecord
    earnings: tuple[PaymentEvent, ...]
    driver_total: int  # pence
    rider_fare: int | None  # pence
    driver_share: float | None
    platform_share: float | None

    def __post_init__(self) -> None:
        both = (self.driver_share is None) == (self.platform_share is None)
        if not both:
            raise AuditError("shares must be present or absent together")


@dataclass(frozen=True)
class LinkResult:
    linked: tuple[LinkedTrip, ...]
    unmatched_trips: tuple[TripRecord, ...]
    unmatched_payments: tuple[PaymentEvent, ...]


def split_fraction(driver_total: int, rider_fare: int) -> tuple[float, float]:
    """Driver and platform shares of the rider fare.

    The driver share can exceed 1 (platform share negative) when the payout
    tops the fare.
    """
    if rider_fare == 0:
        raise ZeroFare("rider fare is zero")
    driver = driver_total / rider_fare
    return driver, 1.0 - driver


def _try_split(
    trip: TripRecord, total: int, boundaries: EraBoundaries
) -> tuple[float | None, float | None]:
    fare = trip.original_fare
    if fare is None or fare <= 0:
        return None, None
    if era_of(trip_anchor(trip), boundaries) is Era.OPAQUE_GAP:
        return None, None
    return split_fraction(total, fare)


def link(
    trips: Sequence[TripRecord],
    payments: Sequence[PaymentEvent],
    window_s: float = DEFAULT_WINDOW_S,
    boundaries: EraBoundaries = DEFAULT_ERAS,
) -> LinkResult:
    """Match trip-earnings payments to dropoffs within ``window_s`` seconds.

    Each earnings payment goes to the trip minimizing |payment.ts - dropoff|;
    a tie goes to the earlier dropoff. One trip can accumulate several
    payments; a payment never lands on more than one trip. Trips without a
    dropoff (cancellations) are not matching candidates. Only payments in the
    trip_earnings category participate; tips, promotions and fees are the
    caller's to keep.
    """
    if window_s <= 0:
        raise AuditError("window must be positive")
    window_ms = round(window_s * 1000)

    # canonical orderings make the result independent of input row order
    candidates = sorted(
        (t for t in trips if t.dropoff_ts is not None),
        key=lambda t: (t.dropoff_ts, t.request_ts, _trip_fingerprint(t)),
    )
    earnings = sorted(
        (p for p in payments if p.category is PaymentCategory.TRIP_EARNINGS),
        key=lambda p: (p.ts, p.amount, p.memo or ""),
    )

    drop_ms = [t.dropoff_ts for t in candidates]
    matched: dict[int, list[PaymentEvent]] = {}
    unmatched_payments: list[PaymentEvent] = []

    for payment in earnings:
        idx = _nearest_dropoff(drop_ms, payment.ts, window_ms)
        if idx is None:
            unmatched_payments.append(payment)
        else:
            matched.setdefault(idx, []).append(payment)

    linked: list[LinkedTrip] = []
    unmatched_trips: list[TripRecord] = []
    for i, trip in enumerate(candidates):
        events = matched.get(i)
        if not events:
            unmatched_trips.append(trip)
            continue
        total = sum(e.amount for e in events)
        d_share, p_share = _try_split(trip, total, boundaries)
        linked.append(
            LinkedTrip(
                trip=trip,
                earnings=tuple(events),
                driver_total=total,
                rider_fare=trip.original_fare,
                driver_share=d_share,
                platform_share=p_share,
            )
        )
    return LinkResult(tuple(linked), tuple(unmatched_trips), tuple(unmatched_payments))


def _trip_fingerprint(t: TripRecord) -> tuple:
    return (
        t.distance_miles,
        t.original_fare if t.original_fare is not None else -1,
        t.origin_tag,
        t.dest_tag,
        t.product,
    )


def _nearest_dropoff(drop_ms: list[int], ts_ms: int, window_ms: int) -> int | None:
    """Index of the in-window dropoff nearest to ts_ms; ties take the earlier.

    drop_ms is sorted. Runs of equal dropoff times are resolved to the first
    index of the run, whose trip is the canonical tie-break winner.
    """
    if not drop_ms:
        return None
    i = bisect_left(drop_ms, ts_ms)
    best: tuple[int, int, int] | None = None  # (|dt|, dropoff_ms, index)
    if i > 0:
        left_val = drop_ms[i - 1]
        left_start = bisect_left(drop_ms, left_val)
        best = (ts_ms - left_val, left_val, left_start)
    if i < len(drop_ms):
        right = (drop_ms[i] - ts_ms, drop_ms[i], i)
        # strict comparison keeps the earlier dropoff on equal distance
        if best is None or right[0] < best[0]:
            best = right
    if best is None or best[0] > window_ms:
        return None
    return best[2]

