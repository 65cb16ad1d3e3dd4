"""Audit metrics: pay rates, inflation, take rates, surplus, cohorts, densities.

Conventions shared by every metric: weeks are ISO-8601 (Monday start) in the
display timezone; per-hour aggregates are pooled ratios (total pay over total
hours), never means of weekly ratios; money stays in integer pence until the
final division.
"""

from __future__ import annotations

import heapq
import math
import statistics
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .linkage import LinkedTrip
from .model import (
    CALENDAR,
    DEFAULT_ERAS,
    MS_PER_HOUR,
    AuditError,
    DriverProfile,
    Era,
    EraBoundaries,
    RecordError,
    RpiSeries,
    era_of,
    month_index,
    month_label,
    month_of,
    trip_anchor,
    week_monday,
)
from .worktime import Bucket, HoursDefinition, TimeLedger, hours_worked

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SPLIT_BINS = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.5)
KDE_BLOCK_ELEMENTS = 1 << 14


class MissingRpiMonth(AuditError):
    pass


# ---------------------------------------------------------------------------
# Weekly pay


def weekly_rows(ledger: TimeLedger) -> tuple[tuple[str, Bucket], ...]:
    """The ledger's (ISO week, bucket) pairs that hold any pay or any working
    time, in week order.

    Pay is the signed sum of every payment category (the week's cash position),
    unlike take-rate inputs which use trip earnings only.
    """
    return tuple(
        (week, totals)
        for week, totals in ledger.weeks.items()
        if totals.pay or hours_worked(totals, HoursDefinition.TRIBUNAL)
    )


def pay_per_hour(buckets: Iterable[Bucket], definition: HoursDefinition) -> float | None:
    """Pooled pay per hour over week or month buckets, summed in the order given;
    None when they hold no working time under the chosen definition."""
    pence = 0
    hours = 0.0
    for totals in buckets:
        pence += totals.pay or 0
        hours += hours_worked(totals, definition)
    if hours <= 0.0:
        return None
    return (pence / 100.0) / hours


# ---------------------------------------------------------------------------
# Inflation


def adjust_inflation(
    series: Mapping[int, float], rpi: RpiSeries, base_month: int
) -> dict[int, float]:
    """Rescale each month's pounds into base-month pounds; months are ``month_index``.

    The published series is year-on-year percent change per month; each month
    gets the compounded monthly factor (1 + yoy/100)^(1/12), and a value moves
    to the base month through the product of the factors of the months after
    the earlier of the two, up to the later. An all-zero series leaves values
    bit-identical.
    """
    out: dict[int, float] = {}
    for month in sorted(series):
        factor = 1.0
        for k in range(month + 1, base_month + 1):  # empty unless month < base_month
            factor *= _monthly_factor(rpi, k)
        for k in range(base_month + 1, month + 1):  # empty unless month > base_month
            factor /= _monthly_factor(rpi, k)
        out[month] = series[month] * factor
    return out


def _monthly_factor(rpi: RpiSeries, month: int) -> float:
    yoy = rpi.yoy_pct.get(month)
    if yoy is None:
        raise MissingRpiMonth(f"inflation series does not cover {month_label(month)}")
    if yoy == 0.0:
        return 1.0
    return (1.0 + yoy / 100.0) ** (1.0 / 12.0)


# ---------------------------------------------------------------------------
# Share-valid trips as columns

@dataclass(frozen=True)
class TripColumns:
    """One driver's share-valid linked trips as parallel ``array.array`` columns.

    Rows keep the order they were given in, one row per trip. ``month`` is
    the ``month_index`` of the local month of the trip's anchor, ``share`` is
    the driver share of the rider fare, and the pence are the trip's earnings
    and its rider fare. A fleet is its drivers' columns in driver order.
    """

    month: array  # int32
    share: array  # float64
    driver_pence: array  # int64
    fare_pence: array  # int64
    on_trip_minutes: array  # float64

    @classmethod
    def from_linked(
        cls, linked: Iterable[LinkedTrip], boundaries: EraBoundaries = DEFAULT_ERAS
    ) -> "TripColumns":
        """The share-valid trips of one driver's bundle.

        A trip in the opaque gap is left out: its exported fare is not the
        rider's price, so its share means nothing.
        """
        shared = [lt for lt in linked if lt.driver_share is not None]
        months = [CALENDAR.month(trip_anchor(lt.trip)) for lt in shared]
        gap = {m for m in set(months) if era_of(m, boundaries) is Era.OPAQUE_GAP}
        rows = [(lt, month) for lt, month in zip(shared, months) if month not in gap]
        valid = [lt for lt, _ in rows]
        return cls(
            month=array("i", [month for _, month in rows]),
            share=array("d", [lt.driver_share for lt in valid]),
            driver_pence=array("q", [lt.driver_total for lt in valid]),
            fare_pence=array("q", [lt.trip.original_fare for lt in valid]),
            on_trip_minutes=array("d", [lt.trip.on_trip_minutes for lt in valid]),
        )

    def __len__(self) -> int:
        return len(self.share)

    @cached_property
    def share_bin(self) -> array:
        """Each row's index into ``bin_labels()``, binned once for every section."""
        return array("b", [_bin_index(share) for share in self.share.tolist()])


def trips_per_era(months: Mapping[int, Bucket], boundaries: EraBoundaries) -> dict[str, int]:
    """How many trips the month buckets hold in each era; an era with none is left out."""
    counts: dict[str, int] = {}
    for month, totals in months.items():
        if totals.trips:
            era = era_of(month, boundaries).value
            counts[era] = counts.get(era, 0) + totals.trips
    return counts


# ---------------------------------------------------------------------------
# Take rates


def bin_labels() -> tuple[str, ...]:
    pct = [f"{edge * 100:g}" for edge in DEFAULT_SPLIT_BINS]
    return tuple(f"{pct[i]}-{pct[i + 1]}" for i in range(len(pct) - 1))


def _bin_index(share: float) -> int:
    # end bins absorb out-of-range shares so counts always conserve
    idx = bisect_right(DEFAULT_SPLIT_BINS, share) - 1
    return min(max(idx, 0), len(DEFAULT_SPLIT_BINS) - 2)


def take_rate_histogram(fleet: Sequence[TripColumns]) -> dict[str, int]:
    labels = bin_labels()
    counts = [0] * len(labels)
    for trips in fleet:
        for idx in trips.share_bin:
            counts[idx] += 1
    return dict(zip(labels, counts))


@dataclass(frozen=True, slots=True)
class TakeRateStats:
    mean: float
    median: float
    drivers_at_or_above_075: float
    n_trips: int
    n_drivers: int


def take_rate_stats(fleet: Sequence[TripColumns]) -> tuple[TakeRateStats, TakeRateStats]:
    """Driver-share statistics by trip and by driver.

    Each holds the mean and median driver share and the fraction of drivers
    holding 0.75. The first pools all trips; the second averages within driver
    first, over the drivers with any trip. The 0.75 statistic is driver-based
    in both.

    The pooled statistics are taken from each driver's column, never from one
    list of every share: the mean is ``fmean``'s exact sum over the columns in
    turn, and the median comes from merging each driver's sorted shares.
    """
    columns = [trips.share for trips in fleet if len(trips)]
    if not columns:
        raise AuditError("no share-valid trips")
    n_trips = sum(map(len, columns))
    driver_means = sorted(statistics.fmean(shares) for shares in columns)
    at_or_above = sum(1 for m in driver_means if m >= 0.75) / len(driver_means)
    by_trip, by_driver = (
        TakeRateStats(
            mean=mean,
            median=median,
            drivers_at_or_above_075=at_or_above,
            n_trips=n_trips,
            n_drivers=len(driver_means),
        )
        for mean, median in (
            (math.fsum(chain.from_iterable(columns)) / n_trips, _merged_median(columns)),
            (statistics.fmean(driver_means), statistics.median(driver_means)),
        )
    )
    return by_trip, by_driver


def _merged_median(columns: Sequence[array]) -> float:
    """``statistics.median`` of the columns joined end to end, holding them sorted
    one column at a time: ``merge`` takes equal values in column order, as the
    stable ``sorted`` of the joined columns has them, so even -0.0 and 0.0 come
    out alike."""
    n = sum(map(len, columns))
    merged = heapq.merge(*(array("d", sorted(shares)) for shares in columns))
    lower = next(islice(merged, (n - 1) // 2, None))
    return lower if n % 2 else (lower + next(merged)) / 2


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
    fleet: Iterable[tuple[TripColumns, Mapping[int, Bucket]]],
) -> tuple[SurplusPoint, ...]:
    """Monthly platform surplus per on-trip hour, with interior gaps interpolated.

    The fleet is each driver's trip columns with its ledger's month buckets.
    A month's direct value needs at least one share-valid linked trip; the
    denominator is the on-trip hours that month of the drivers contributing
    those trips, summed in integer milliseconds so that it does not depend on
    the order of the drivers. Months without a direct value between two valid
    months are filled linearly and flagged; gaps at either edge stay missing.
    """
    surplus: dict[int, int] = {}  # pence by month index
    on_trip_ms: dict[int, int] = {}
    for trips, buckets in fleet:
        for month, fare, pay in zip(
            trips.month.tolist(), trips.fare_pence.tolist(), trips.driver_pence.tolist()
        ):
            surplus[month] = surplus.get(month, 0) + (fare - pay)
        for month in set(trips.month):
            totals = buckets.get(month)
            on_trip_ms[month] = on_trip_ms.get(month, 0) + (totals.on_trip_ms if totals else 0)
    if not surplus:
        return ()

    months = range(min(surplus), max(surplus) + 1)
    direct: dict[int, SurplusPoint] = {}
    for month, pence in surplus.items():
        hours = on_trip_ms[month] / MS_PER_HOUR
        if hours > 0.0:
            direct[month] = SurplusPoint(
                month_label(month), (pence / 100.0) / hours, False, pence, hours
            )

    points: list[SurplusPoint] = []
    valid = sorted(direct)
    for month in months:
        k = bisect_right(valid, month)
        if month in direct:
            points.append(direct[month])
        elif 0 < k < len(valid):  # between two valid months
            m0, m1 = valid[k - 1], valid[k]
            v0, v1 = direct[m0].value, direct[m1].value
            t = (month - m0) / (m1 - m0)
            points.append(SurplusPoint(month_label(month), v0 + (v1 - v0) * t, True, 0, 0.0))
        else:
            points.append(SurplusPoint(month_label(month), None, False, 0, 0.0))
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


def per_minute_fare_by_split(fleet: Sequence[TripColumns]) -> tuple[PerMinuteBin, ...]:
    """Driver and platform pounds per on-trip minute, bucketed by driver share.

    Conservation is exact in pence: driver + platform = fare within every bin.
    The per-minute floats share one denominator, so they sum to the fare rate
    up to float rounding only. Minutes are summed in driver order, then row order.
    """
    labels = bin_labels()
    acc: dict[int, list] = {}
    for trips in fleet:
        for idx, minutes, driver, fare in zip(
            trips.share_bin,
            trips.on_trip_minutes.tolist(),
            trips.driver_pence.tolist(),
            trips.fare_pence.tolist(),
        ):
            if minutes <= 0.0:
                continue
            slot = acc.setdefault(idx, [0, 0.0, 0, 0])
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
    pooled_pre: float | None  # None when no driver qualified
    pooled_post: float | None

    def __post_init__(self) -> None:
        if set(self.paid_less) | set(self.paid_same_or_more) != set(self.qualified):
            raise RecordError("cohort groups must partition qualified drivers")
        if set(self.paid_less) & set(self.paid_same_or_more):
            raise RecordError("cohort groups overlap")


def cohort_months(pre: tuple[str, str], post: tuple[str, str]) -> tuple[set[int], set[int]]:
    """The month indexes of two cohort windows, which must be as long and must not overlap."""
    windows = []
    for first, last in (pre, post):
        if month_index(last) < month_index(first):
            raise RecordError(f"month range reversed: {first} > {last}")
        windows.append(set(range(month_index(first), month_index(last) + 1)))
    pre_months, post_months = windows
    if len(pre_months) != len(post_months):
        raise AuditError("windows must cover the same number of months")
    if pre_months & post_months:
        raise AuditError("windows must not overlap")
    return pre_months, post_months


def _in_window(rows: Sequence[tuple[str, Bucket]], months: set[int]) -> list[Bucket]:
    """The buckets of a driver's weekly rows whose week's Monday falls in the months."""
    return [totals for week, totals in rows if month_of(week_monday(week)) in months]


def cohort_pay_change(
    rows_by_driver: Mapping[str, Sequence[tuple[str, Bucket]]],
    months_by_driver: Mapping[str, Mapping[int, Bucket]],
    window_pre: tuple[str, str],
    window_post: tuple[str, str],
) -> CohortSplit:
    """Split the always-active cohort by whether pay per hour fell.

    Rows are each driver's ``weekly_rows`` and months its ledger's month
    buckets. Qualification demands at least one completed trip in every
    calendar month of both windows, plus positive tribunal hours in each
    window. A week belongs to a window when its Monday falls inside the
    window's months. Change of exactly zero lands in paid_same_or_more.
    """
    pre_set, post_set = cohort_months(window_pre, window_post)

    qualified: list[str] = []
    pre_rate: dict[str, float] = {}
    post_rate: dict[str, float] = {}
    pct: dict[str, float] = {}
    paid_less: list[str] = []
    paid_same_or_more: list[str] = []

    for driver_id in sorted(months_by_driver):
        months = months_by_driver[driver_id]
        active_months = {m for m, totals in months.items() if totals.completed}
        if not (pre_set <= active_months and post_set <= active_months):
            continue
        rows = rows_by_driver.get(driver_id, ())
        pre = pay_per_hour(_in_window(rows, pre_set), HoursDefinition.TRIBUNAL)
        post = pay_per_hour(_in_window(rows, post_set), HoursDefinition.TRIBUNAL)
        if pre is None or post is None:
            continue
        qualified.append(driver_id)
        pre_rate[driver_id] = pre
        post_rate[driver_id] = post
        pct[driver_id] = (post - pre) / pre * 100.0 if pre != 0.0 else math.inf
        if post < pre:
            paid_less.append(driver_id)
        else:
            paid_same_or_more.append(driver_id)

    pooled_pre, pooled_post = (
        pay_per_hour(
            [b for d in qualified for b in _in_window(rows_by_driver.get(d, ()), window)],
            HoursDefinition.TRIBUNAL,
        )
        for window in (pre_set, post_set)
    )
    return CohortSplit(
        window_pre=window_pre,
        window_post=window_post,
        qualified=tuple(qualified),
        pre_rate=pre_rate,
        post_rate=post_rate,
        pct_change=pct,
        paid_less=tuple(paid_less),
        paid_same_or_more=tuple(paid_same_or_more),
        pooled_pre=pooled_pre,
        pooled_post=pooled_post,
    )


# ---------------------------------------------------------------------------
# Acceptance rate


def acceptance_rate(totals: Bucket) -> float | None:
    """The accepted share of a bucket's dispatch offers; None without offers."""
    if not totals.offered:
        return None
    return totals.accepted / totals.offered


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
        q = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    spread = [v for v in (sd, iqr / 1.34) if v > 0.0]
    if not spread:
        return 1e-3
    return 0.9 * min(spread) * n ** (-0.2)


def _kde(values: Sequence[float], grid: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel density of ``values`` at each grid point.

    The grid is taken a block of rows at a time, each block about
    KDE_BLOCK_ELEMENTS kernel evaluations (at least one row), so the
    temporaries stay cache-sized rather than len(grid) x n. Each point's
    kernel sum is still taken over its own row, so the densities have the same
    bytes as with one matrix.
    """
    import numpy as np

    x = np.asarray(values, dtype=float)
    rows = max(1, KDE_BLOCK_ELEMENTS // len(x))
    sums = np.empty(len(grid))
    for lo in range(0, len(grid), rows):
        z = (grid[lo : lo + rows, None] - x[None, :]) / h
        sums[lo : lo + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    return sums / (len(x) * h * math.sqrt(2.0 * math.pi))


def distribution_compare(
    values_a: Sequence[float], values_b: Sequence[float], grid_points: int = 512
) -> DistributionComparison:
    """Gaussian KDEs of two samples on one shared grid, plot-ready.

    This is the only numpy the audit runs, so it is imported here: a fleet
    without both samples never loads it.
    """
    import numpy as np

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
