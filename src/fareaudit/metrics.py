"""Audit metrics: pay rates, inflation, take rates, surplus, cohorts, densities.

Conventions shared by every metric: weeks are ISO-8601 (Monday start) in the
display timezone; per-hour aggregates are pooled ratios (total pay over total
hours), never means of weekly ratios; money stays in integer pence until the
final division.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linkage import LinkedTrip
from .model import (
    CALENDAR,
    DEFAULT_ERAS,
    MS_PER_HOUR,
    AuditError,
    DispatchOffer,
    DriverProfile,
    Era,
    EraBoundaries,
    RecordError,
    RpiSeries,
    TripRecord,
    TripStatus,
    era_of,
    iso_week_label,
    month_index,
    month_label,
    month_of,
    month_range,
    trip_anchor,
    week_days,
    week_monday,
)
from .worktime import HoursDefinition, TimeLedger, hours_worked

DEFAULT_SPLIT_BINS = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.5)


class ZeroHours(AuditError):
    pass


class MissingRpiMonth(AuditError):
    pass


class NoOffers(AuditError):
    pass


# ---------------------------------------------------------------------------
# Weekly pay


@dataclass(frozen=True, slots=True)
class WeeklyPayRow:
    driver_id: str
    iso_week: str
    net_pay: int  # pence
    hours_tribunal: float
    hours_platform: float

    def __post_init__(self) -> None:
        if self.hours_platform > self.hours_tribunal:
            raise RecordError("platform hours exceed tribunal hours")


def weekly_rows(driver_id: str, ledger: TimeLedger) -> tuple[WeeklyPayRow, ...]:
    """One row per ISO week with any pay or any working time.

    Pay is the signed sum of every payment category (the week's cash position),
    unlike take-rate inputs which use trip earnings only.
    """
    weeks = {iso_week_label(day) for day in {*ledger.time, *ledger.pay}}
    rows: list[WeeklyPayRow] = []
    for week in sorted(weeks, key=week_monday):
        period = week_days(week)
        tribunal = hours_worked(ledger, period, HoursDefinition.TRIBUNAL)
        platform = hours_worked(ledger, period, HoursDefinition.PLATFORM)
        net = sum(ledger.day_pay(period))
        if net == 0 and tribunal == 0.0:
            continue
        rows.append(WeeklyPayRow(driver_id, week, net, tribunal, platform))
    return tuple(rows)


def pay_per_hour(
    rows: Iterable[WeeklyPayRow],
    definition: HoursDefinition,
    weeks: set[str] | None = None,
) -> float:
    """Pooled pay per hour over the given rows, optionally filtered by week."""
    pence = 0
    hours = 0.0
    for row in rows:
        if weeks is not None and row.iso_week not in weeks:
            continue
        pence += row.net_pay
        hours += (
            row.hours_tribunal
            if definition is HoursDefinition.TRIBUNAL
            else row.hours_platform
        )
    if hours <= 0.0:
        raise ZeroHours("no working time under the chosen definition")
    return (pence / 100.0) / hours


# ---------------------------------------------------------------------------
# Inflation


def adjust_inflation(
    series: Mapping[str, float], rpi: RpiSeries, base_month: str
) -> dict[str, float]:
    """Rescale each month's pounds into base-month pounds.

    The published series is year-on-year percent change per month; each month
    gets the compounded monthly factor (1 + yoy/100)^(1/12), and a value moves
    to the base month through the product of the factors between them. An
    all-zero series leaves values bit-identical.
    """
    out: dict[str, float] = {}
    base_idx = month_index(base_month)
    for month in sorted(series, key=month_index):
        idx = month_index(month)
        factor = 1.0
        if idx < base_idx:
            needed = month_range(month, base_month)[1:]
            for k in needed:
                factor *= _monthly_factor(rpi, k)
        elif idx > base_idx:
            needed = month_range(base_month, month)[1:]
            for k in needed:
                factor /= _monthly_factor(rpi, k)
        out[month] = series[month] * factor
    return out


def _monthly_factor(rpi: RpiSeries, month: str) -> float:
    if not rpi.covers(month):
        raise MissingRpiMonth(f"inflation series does not cover {month}")
    yoy = rpi.yoy_pct[month]
    if yoy == 0.0:
        return 1.0
    return (1.0 + yoy / 100.0) ** (1.0 / 12.0)


# ---------------------------------------------------------------------------
# Share-valid trips as columns

ERAS = tuple(Era)

_DTYPES = {
    "driver": np.int32,
    "month": np.int32,
    "era": np.int8,
    "share": np.float64,
    "driver_pence": np.int64,
    "fare_pence": np.int64,
    "on_trip_minutes": np.float64,
}


@dataclass(frozen=True)
class TripColumns:
    """Share-valid linked trips as parallel numpy columns, one row per trip.

    Rows keep the order they were given in. ``driver`` indexes ``driver_ids``,
    ``month`` is the ``month_index`` of the local month of the trip's anchor,
    ``era`` indexes ``ERAS``, ``share`` is the driver share of the
    rider fare, and the pence are the trip's earnings and its rider fare.
    """

    driver_ids: tuple[str, ...]
    driver: np.ndarray
    month: np.ndarray
    era: np.ndarray
    share: np.ndarray
    driver_pence: np.ndarray
    fare_pence: np.ndarray
    on_trip_minutes: np.ndarray

    @classmethod
    def from_linked(
        cls, linked: Iterable[LinkedTrip], boundaries: EraBoundaries = DEFAULT_ERAS
    ) -> "TripColumns":
        valid = [lt for lt in linked if lt.driver_share is not None]
        driver_ids = tuple(sorted({lt.trip.driver_id for lt in valid}))
        code = {d: i for i, d in enumerate(driver_ids)}
        anchors = [trip_anchor(lt.trip) for lt in valid]
        days = [CALENDAR.day(a)[0] for a in anchors]
        values = {
            "driver": [code[lt.trip.driver_id] for lt in valid],
            "month": [d.year * 12 + d.month - 1 for d in days],
            "era": [ERAS.index(era_of(a, boundaries)) for a in anchors],
            "share": [lt.driver_share for lt in valid],
            "driver_pence": [lt.driver_total for lt in valid],
            "fare_pence": [lt.rider_fare for lt in valid],
            "on_trip_minutes": [lt.trip.on_trip_minutes for lt in valid],
        }
        return cls(driver_ids, **{k: np.array(v, _DTYPES[k]) for k, v in values.items()})

    @classmethod
    def concat(cls, parts: Sequence["TripColumns"]) -> "TripColumns":
        """The parts' rows one after another; their drivers must be distinct."""
        offsets = np.cumsum([0] + [len(p.driver_ids) for p in parts])
        columns = {
            name: np.concatenate([np.zeros(0, dtype)] + [getattr(p, name) for p in parts])
            for name, dtype in _DTYPES.items()
        }
        columns["driver"] = np.concatenate(
            [np.zeros(0, np.int32)] + [p.driver + k for p, k in zip(parts, offsets)]
        ).astype(np.int32)
        return cls(tuple(d for p in parts for d in p.driver_ids), **columns)

    def __len__(self) -> int:
        return len(self.share)


# ---------------------------------------------------------------------------
# Take rates


def bin_labels(bins: Sequence[float] = DEFAULT_SPLIT_BINS) -> tuple[str, ...]:
    pct = [f"{edge * 100:g}" for edge in bins]
    return tuple(f"{pct[i]}-{pct[i + 1]}" for i in range(len(bins) - 1))


def _bin_index(share: float, bins: Sequence[float]) -> int:
    # end bins absorb out-of-range shares so counts always conserve
    idx = bisect_right(bins, share) - 1
    return min(max(idx, 0), len(bins) - 2)


def take_rate_histogram(
    trips: TripColumns, bins: Sequence[float] = DEFAULT_SPLIT_BINS
) -> dict[str, int]:
    if list(bins) != sorted(bins) or len(bins) < 2:
        raise AuditError("bins must be ordered and define at least one interval")
    labels = bin_labels(bins)
    counts = dict.fromkeys(labels, 0)
    for share in trips.share.tolist():
        counts[labels[_bin_index(share, bins)]] += 1
    return counts


@dataclass(frozen=True, slots=True)
class TakeRateStats:
    mean: float
    median: float
    drivers_at_or_above_075: float
    n_trips: int
    n_drivers: int


def take_rate_stats(trips: TripColumns, group_by: str = "trip") -> TakeRateStats:
    """Mean and median driver share, plus the fraction of drivers holding 0.75.

    group_by="trip" pools all trips; group_by="driver" averages within driver
    first. The 0.75 statistic is always driver-based.
    """
    if group_by not in ("trip", "driver"):
        raise AuditError(f"unknown grouping {group_by!r}")
    per_driver: dict[int, list[float]] = {}
    all_shares = trips.share.tolist()
    for driver, share in zip(trips.driver.tolist(), all_shares):
        per_driver.setdefault(driver, []).append(share)
    if not all_shares:
        raise AuditError("no share-valid trips")

    driver_means = sorted(statistics.fmean(v) for v in per_driver.values())
    pool = all_shares if group_by == "trip" else driver_means
    at_or_above = sum(1 for m in driver_means if m >= 0.75) / len(driver_means)
    return TakeRateStats(
        mean=statistics.fmean(pool),
        median=statistics.median(sorted(pool)),
        drivers_at_or_above_075=at_or_above,
        n_trips=len(all_shares),
        n_drivers=len(per_driver),
    )


# ---------------------------------------------------------------------------
# Surplus


@dataclass(frozen=True, slots=True)
class SurplusPoint:
    month: str
    value: float | None  # pounds per on-trip hour; None when unresolvable
    interpolated: bool
    surplus_pence: int
    on_trip_hours: float


def surplus_series(
    trips: TripColumns, on_trip_ms: Mapping[str, Mapping[str, int]]
) -> tuple[SurplusPoint, ...]:
    """Monthly platform surplus per on-trip hour, with interior gaps interpolated.

    A month's direct value needs at least one share-valid linked trip; the
    denominator is the on-trip hours that month of the drivers contributing
    those trips (``on_trip_ms[driver_id][month]``), summed in integer
    milliseconds so that it does not depend on the order of the drivers.
    Months without a direct value between two valid months are filled
    linearly and flagged; gaps at either edge stay missing.
    """
    surplus: dict[str, int] = {}
    contributors: dict[str, set[str]] = {}
    for driver, month, fare, pay in zip(
        trips.driver.tolist(),
        trips.month.tolist(),
        trips.fare_pence.tolist(),
        trips.driver_pence.tolist(),
    ):
        label = month_label(month)
        surplus[label] = surplus.get(label, 0) + (fare - pay)
        contributors.setdefault(label, set()).add(trips.driver_ids[driver])
    if not surplus:
        return ()

    months = month_range(min(surplus, key=month_index), max(surplus, key=month_index))
    direct: dict[str, SurplusPoint] = {}
    for month in months:
        if month not in surplus:
            continue
        on_trip = sum(on_trip_ms[driver_id].get(month, 0) for driver_id in contributors[month])
        hours = on_trip / MS_PER_HOUR
        if hours > 0.0:
            direct[month] = SurplusPoint(
                month, (surplus[month] / 100.0) / hours, False, surplus[month], hours
            )

    points: list[SurplusPoint] = []
    valid_idx = [i for i, m in enumerate(months) if m in direct]
    for i, month in enumerate(months):
        if month in direct:
            points.append(direct[month])
            continue
        before = [j for j in valid_idx if j < i]
        after = [j for j in valid_idx if j > i]
        if before and after:
            j0, j1 = before[-1], after[0]
            v0, v1 = points[j0].value, direct[months[j1]].value
            t = (i - j0) / (j1 - j0)
            points.append(
                SurplusPoint(month, v0 + (v1 - v0) * t, True, 0, 0.0)
            )
        else:
            points.append(SurplusPoint(month, None, False, 0, 0.0))
    return tuple(points)


# ---------------------------------------------------------------------------
# Per-minute fare components by split band


@dataclass(frozen=True, slots=True)
class PerMinuteBin:
    label: str
    n_trips: int
    on_trip_minutes: float
    driver_pence: int
    platform_pence: int
    fare_pence: int
    driver_per_min: float
    platform_per_min: float

    def __post_init__(self) -> None:
        if self.driver_pence + self.platform_pence != self.fare_pence:
            raise RecordError("per-minute bin does not conserve fare")


def per_minute_fare_by_split(
    trips: TripColumns, bins: Sequence[float] = DEFAULT_SPLIT_BINS
) -> tuple[PerMinuteBin, ...]:
    """Driver and platform pounds per on-trip minute, bucketed by driver share.

    Conservation is exact in pence: driver + platform = fare within every bin.
    The per-minute floats share one denominator, so they sum to the fare rate
    up to float rounding only. Minutes are summed in row order.
    """
    labels = bin_labels(bins)
    acc: dict[int, list] = {}
    for share, minutes, driver, fare in zip(
        trips.share.tolist(),
        trips.on_trip_minutes.tolist(),
        trips.driver_pence.tolist(),
        trips.fare_pence.tolist(),
    ):
        if minutes <= 0.0:
            continue
        slot = acc.setdefault(_bin_index(share, bins), [0, 0.0, 0, 0])
        slot[0] += 1
        slot[1] += minutes
        slot[2] += driver
        slot[3] += fare
    out = []
    for idx in sorted(acc):
        n, minutes, driver, fare = acc[idx]
        out.append(
            PerMinuteBin(
                label=labels[idx],
                n_trips=n,
                on_trip_minutes=minutes,
                driver_pence=driver,
                platform_pence=fare - driver,
                fare_pence=fare,
                driver_per_min=driver / 100.0 / minutes,
                platform_per_min=(fare - driver) / 100.0 / minutes,
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Cohort pay change


@dataclass(frozen=True)
class CohortSplit:
    window_pre: tuple[str, str]
    window_post: tuple[str, str]
    qualified: tuple[str, ...]
    pre_rate: Mapping[str, float]
    post_rate: Mapping[str, float]
    pct_change: Mapping[str, float]
    paid_less: tuple[str, ...]
    paid_same_or_more: tuple[str, ...]
    pooled_pre: float
    pooled_post: float

    def __post_init__(self) -> None:
        if set(self.paid_less) | set(self.paid_same_or_more) != set(self.qualified):
            raise RecordError("cohort groups must partition qualified drivers")
        if set(self.paid_less) & set(self.paid_same_or_more):
            raise RecordError("cohort groups overlap")


def _window_months(window: tuple[str, str]) -> list[str]:
    return month_range(window[0], window[1])


def completed_months(trips: Iterable[TripRecord]) -> frozenset[str]:
    """The local months that hold at least one completed trip, by trip anchor."""
    return frozenset(
        month_of(CALENDAR.day(trip_anchor(t))[0])
        for t in trips
        if t.status is TripStatus.COMPLETED
    )


def cohort_pay_change(
    rows_by_driver: Mapping[str, Sequence[WeeklyPayRow]],
    active_months_by_driver: Mapping[str, Iterable[str]],
    window_pre: tuple[str, str],
    window_post: tuple[str, str],
) -> CohortSplit:
    """Split the always-active cohort by whether pay per hour fell.

    Qualification demands at least one completed trip in every calendar month
    of both windows (``completed_months``), plus positive tribunal hours in
    each window. A week belongs to a window when its Monday falls inside the
    window's months. Change of exactly zero lands in paid_same_or_more.
    """
    pre_months = _window_months(window_pre)
    post_months = _window_months(window_post)
    if len(pre_months) != len(post_months):
        raise AuditError("windows must cover the same number of months")
    if set(pre_months) & set(post_months):
        raise AuditError("windows must not overlap")
    pre_set, post_set = set(pre_months), set(post_months)

    def week_in(row: WeeklyPayRow, months: set[str]) -> bool:
        return month_of(week_monday(row.iso_week)) in months

    qualified: list[str] = []
    pre_rate: dict[str, float] = {}
    post_rate: dict[str, float] = {}
    pct: dict[str, float] = {}
    paid_less: list[str] = []
    paid_same_or_more: list[str] = []

    for driver_id in sorted(active_months_by_driver):
        active_months = set(active_months_by_driver[driver_id])
        if not (pre_set <= active_months and post_set <= active_months):
            continue
        rows = rows_by_driver.get(driver_id, ())
        try:
            pre = pay_per_hour(
                [r for r in rows if week_in(r, pre_set)], HoursDefinition.TRIBUNAL
            )
            post = pay_per_hour(
                [r for r in rows if week_in(r, post_set)], HoursDefinition.TRIBUNAL
            )
        except ZeroHours:
            continue
        qualified.append(driver_id)
        pre_rate[driver_id] = pre
        post_rate[driver_id] = post
        pct[driver_id] = (post - pre) / pre * 100.0 if pre != 0.0 else math.inf
        if post < pre:
            paid_less.append(driver_id)
        else:
            paid_same_or_more.append(driver_id)

    def pooled(months: set[str]) -> float:
        rows = [
            r
            for d in qualified
            for r in rows_by_driver.get(d, ())
            if week_in(r, months)
        ]
        try:
            return pay_per_hour(rows, HoursDefinition.TRIBUNAL)
        except ZeroHours:
            return math.nan

    return CohortSplit(
        window_pre=window_pre,
        window_post=window_post,
        qualified=tuple(qualified),
        pre_rate=pre_rate,
        post_rate=post_rate,
        pct_change=pct,
        paid_less=tuple(paid_less),
        paid_same_or_more=tuple(paid_same_or_more),
        pooled_pre=pooled(pre_set),
        pooled_post=pooled(post_set),
    )


# ---------------------------------------------------------------------------
# Acceptance rate


def offer_counts(offers: Iterable[DispatchOffer]) -> dict[str, tuple[int, int]]:
    """(accepted, offered) dispatch counts per local month of the offer."""
    counts: dict[str, list[int]] = {}
    for o in offers:
        slot = counts.setdefault(month_of(CALENDAR.day(o.offered_ts)[0]), [0, 0])
        slot[0] += o.accepted
        slot[1] += 1
    return {month: (accepted, total) for month, (accepted, total) in counts.items()}


def acceptance_rate(counts: Iterable[tuple[int, int]]) -> float:
    """The accepted share of the offers that (accepted, offered) pairs count."""
    accepted = offered = 0
    for a, n in counts:
        accepted += a
        offered += n
    if not offered:
        raise NoOffers("no dispatch offers")
    return accepted / offered


# ---------------------------------------------------------------------------
# Distribution comparison (kernel density)


@dataclass(frozen=True)
class DistributionComparison:
    grid: tuple[float, ...]
    density_a: tuple[float, ...]
    density_b: tuple[float, ...]
    bandwidth_a: float
    bandwidth_b: float


def silverman_bandwidth(values: Sequence[float]) -> float:
    """Classic rule of thumb: 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Degenerate samples (zero spread) fall back to a small fixed width so a
    point mass still renders as a peak.
    """
    n = len(values)
    if n == 0:
        raise AuditError("empty sample")
    sd = statistics.stdev(values) if n > 1 else 0.0
    if n >= 2:
        q = statistics.quantiles(sorted(values), n=4, method="inclusive")
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    spread = [v for v in (sd, iqr / 1.34) if v > 0.0]
    if not spread:
        return 1e-3
    return 0.9 * min(spread) * n ** (-0.2)


def _kde(values: Sequence[float], grid: np.ndarray, h: float) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * h * math.sqrt(2.0 * math.pi))


def distribution_compare(
    values_a: Sequence[float], values_b: Sequence[float], grid_points: int = 512
) -> DistributionComparison:
    """Gaussian KDEs of two samples on one shared grid, plot-ready."""
    if not values_a or not values_b:
        raise AuditError("both samples must be non-empty")
    h_a = silverman_bandwidth(values_a)
    h_b = silverman_bandwidth(values_b)
    pad = 4.0 * max(h_a, h_b)
    lo = min(min(values_a), min(values_b)) - pad
    hi = max(max(values_a), max(values_b)) + pad
    grid = np.linspace(lo, hi, grid_points)
    return DistributionComparison(
        grid=tuple(grid.tolist()),
        density_a=tuple(_kde(values_a, grid, h_a).tolist()),
        density_b=tuple(_kde(values_b, grid, h_b).tolist()),
        bandwidth_a=h_a,
        bandwidth_b=h_b,
    )


# ---------------------------------------------------------------------------
# Demographics


def cohort_summary(profiles: Sequence[DriverProfile]) -> dict:
    """Gender and age-band proportions over non-missing values."""
    genders = [p.gender for p in profiles if p.gender is not None]
    ages = [p.age_band for p in profiles if p.age_band is not None]

    def proportions(values: list[str]) -> dict[str, float]:
        if not values:
            return {}
        out: dict[str, float] = {}
        for v in values:
            out[v] = out.get(v, 0) + 1
        return {k: n / len(values) for k, n in sorted(out.items())}

    return {
        "n_profiles": len(profiles),
        "gender": proportions(genders),
        "gender_missing": len(profiles) - len(genders),
        "age_band": proportions(ages),
        "age_band_missing": len(profiles) - len(ages),
    }
