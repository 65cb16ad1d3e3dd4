import math
import pickle
import random
import statistics
import struct
import tracemalloc
from array import array
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fareaudit import report
from fareaudit.linkage import LinkedTrip, link
from fareaudit.metrics import (
    KDE_BLOCK_ELEMENTS,
    CohortSplit,
    DistributionComparison,
    MissingRpiMonth,
    PerMinuteBin,
    TripColumns,
    acceptance_rate,
    adjust_inflation,
    bin_labels,
    cohort_pay_change,
    cohort_summary,
    distribution_compare,
    pay_per_hour,
    per_minute_fare_by_split,
    silverman_bandwidth,
    surplus_series,
    take_rate_histogram,
    take_rate_stats,
    weekly_rows,
)
from fareaudit.model import (
    DEFAULT_ERAS,
    MS_PER_HOUR,
    AuditError,
    DriverProfile,
    Era,
    PaymentCategory,
    PaymentEvent,
    RpiSeries,
    TripRecord,
    TripStatus,
    era_of,
    iso_week_label,
    month_index,
    month_label,
    month_range,
    parse_pence,
)
from fareaudit.report import _distribution_section, _take_rate_section
from fareaudit.worktime import Bucket, HoursDefinition, build_ledger, build_segments, hours_worked
from conftest import at, instant, london, offer, payment, trip

MIN = 60_000


def trip_at(iso: str, on_min: int = 60, fare: str | None = "20.00"):
    t0 = instant(iso)
    return TripRecord(
        request_ts=t0,
        accept_ts=t0 + 1 * MIN,
        pickup_ts=t0 + 5 * MIN,
        dropoff_ts=t0 + (5 + on_min) * MIN,
        distance_miles=5.0,
        status=TripStatus.COMPLETED,
        original_fare=parse_pence(fare) if fare else None,
    )


def pay_at(iso: str, offset_min: float, amount: str):
    t0 = instant(iso)
    return PaymentEvent(
        t0 + round(offset_min * MIN),
        PaymentCategory.TRIP_EARNINGS, parse_pence(amount),
    )


def covering_session(t: TripRecord):
    from fareaudit.model import AppSession

    return AppSession(
        t.request_ts - 10 * MIN,
        (t.dropoff_ts or t.request_ts) + 10 * MIN,
    )


# ---------------------------------------------------------------------------
# Weekly pay


def test_weekly_pay_sums_all_categories_signed():
    pays = [
        payment(ts_min=10.0, amount="7.50"),
        payment(ts_min=20.0, amount="1.00", category=PaymentCategory.TIP),
        payment(ts_min=30.0, amount="-2.00", category=PaymentCategory.ADJUSTMENT),
    ]
    ((week, totals),) = weekly_rows(build_ledger([], pays, [], []))
    assert week == iso_week_label(london(pays[0].ts).date())
    assert totals.pay == 650


def test_weekly_rows_split_by_iso_week():
    p1 = pay_at("2021-03-01T12:00:00Z", 0, "10.00")  # Monday of 2021-W09
    p2 = pay_at("2021-03-08T12:00:00Z", 0, "20.00")  # Monday of 2021-W10
    t = trip_at("2021-03-01T10:00:00Z")
    sess = covering_session(t)
    segs = build_segments([sess], [t]).segments
    rows = weekly_rows(build_ledger(segs, [p1, p2], [], []))
    assert [week for week, _ in rows] == ["2021-W09", "2021-W10"]
    assert rows[0][1].pay == 1000
    assert hours_worked(rows[0][1], HoursDefinition.TRIBUNAL) > 0
    assert hours_worked(rows[1][1], HoursDefinition.TRIBUNAL) == 0.0  # pay, no time that week


def test_weekly_rows_platform_never_exceeds_tribunal():
    t = trip_at("2021-03-02T09:00:00Z", on_min=30)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows(build_ledger(segs, [pay_at("2021-03-02T09:40:00Z", 0, "9.00")], [t], []))
    for _week, totals in rows:
        assert hours_worked(totals, HoursDefinition.PLATFORM) <= hours_worked(
            totals, HoursDefinition.TRIBUNAL
        )


def test_pay_per_hour_pooled_and_week_filter():
    t = trip_at("2021-03-02T09:00:00Z", on_min=55)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows(build_ledger(segs, [pay_at("2021-03-02T10:05:00Z", 0, "12.00")], [t], []))
    rate = pay_per_hour([totals for _, totals in rows], HoursDefinition.TRIBUNAL)
    # session is 80 minutes: 10 before request + 70 through dropoff+10
    assert rate == pytest.approx(12.0 / (80 / 60))
    unworked = [totals for week, totals in rows if week in {"2099-W01"}]
    assert pay_per_hour(unworked, HoursDefinition.TRIBUNAL) is None


def test_pay_per_hour_platform_dominates_for_nonnegative_pay():
    t = trip_at("2021-03-02T09:00:00Z", on_min=55)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows(build_ledger(segs, [pay_at("2021-03-02T10:05:00Z", 0, "12.00")], [t], []))
    buckets = [totals for _, totals in rows]
    assert pay_per_hour(buckets, HoursDefinition.PLATFORM) >= pay_per_hour(
        buckets, HoursDefinition.TRIBUNAL
    )


# ---------------------------------------------------------------------------
# Inflation


def test_zero_rpi_is_exact_identity():
    rpi = RpiSeries({month_index(m): 0.0 for m in ("2021-01", "2021-02", "2021-03")})
    series = {
        month_index("2021-01"): 12.34,
        month_index("2021-02"): 56.78,
        month_index("2021-03"): 9.99,
    }
    out = adjust_inflation(series, rpi, month_index("2021-03"))
    assert out == series  # bit-identical floats


def test_constant_10pct_over_year_scales_by_1_1():
    months = [f"2021-{m:02d}" for m in range(1, 13)] + ["2022-01"]
    rpi = RpiSeries({month_index(m): 10.0 for m in months})
    out = adjust_inflation({month_index("2021-01"): 100.0}, rpi, month_index("2022-01"))
    assert abs(out[month_index("2021-01")] - 110.0) < 1e-9 * 110.0


def test_adjust_toward_earlier_base_deflates():
    months = ["2021-01", "2021-02"]
    rpi = RpiSeries({month_index(m): 10.0 for m in months})
    out = adjust_inflation({month_index("2021-02"): 110.0}, rpi, month_index("2021-01"))
    assert out[month_index("2021-02")] < 110.0


def test_missing_rpi_month_raises():
    rpi = RpiSeries({month_index("2021-01"): 1.0})
    with pytest.raises(MissingRpiMonth):
        adjust_inflation({month_index("2021-03"): 5.0}, rpi, month_index("2021-01"))


def test_inflation_matches_index_ratio_oracle():
    yoy = {
        month_index("2021-01"): 3.0,
        month_index("2021-02"): 5.0,
        month_index("2021-03"): -1.0,
        month_index("2021-04"): 12.0,
    }
    rpi = RpiSeries(yoy)
    series = {
        month_index("2021-01"): 50.0,
        month_index("2021-02"): 60.0,
        month_index("2021-03"): 70.0,
    }
    base = month_index("2021-04")
    out = adjust_inflation(series, rpi, base)
    # independent oracle: cumulative product of monthly factors
    months = sorted(yoy)
    index = {}
    level = 1.0
    for m in months:
        level *= (1.0 + yoy[m] / 100.0) ** (1.0 / 12.0)
        index[m] = level
    for m, v in series.items():
        assert out[m] == pytest.approx(v * index[base] / index[m], rel=1e-12)


def adjust_inflation_by_label(series, yoy, base_month):
    """``adjust_inflation`` written over "YYYY-MM" labels with ``month_range``:
    an oracle the month-index form must match bit for bit."""

    def factor_of(month):
        pct = yoy[month]
        return 1.0 if pct == 0.0 else (1.0 + pct / 100.0) ** (1.0 / 12.0)

    out = {}
    base_idx = month_index(base_month)
    for month in sorted(series, key=month_index):
        idx = month_index(month)
        factor = 1.0
        if idx < base_idx:
            for k in month_range(month, base_month)[1:]:
                factor *= factor_of(k)
        elif idx > base_idx:
            for k in month_range(base_month, month)[1:]:
                factor /= factor_of(k)
        out[month] = series[month] * factor
    return out


@st.composite
def inflation_across_new_year(draw):
    """A yoy series from a month in June-December up to a month after the next
    1 January, some of its months' values, and a base month inside it."""
    first = draw(st.integers(2019, 2024)) * 12 + draw(st.integers(5, 11))
    last = draw(st.integers(first + 12 - first % 12, first + 30))
    labels = month_range(month_label(first), month_label(last))
    pct = st.sampled_from([0.0, -99.5, 250.0]) | st.floats(-99.0, 60.0)
    yoy = {m: draw(pct) for m in labels}
    months = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    series = {m: draw(st.floats(-1e6, 1e6)) for m in months}
    return yoy, series, draw(st.sampled_from(labels))


@given(inflation_across_new_year())
@settings(max_examples=200, deadline=None)
def test_adjust_inflation_across_new_year_matches_the_label_oracle(case):
    yoy, series, base = case
    rpi = RpiSeries({month_index(m): pct for m, pct in yoy.items()})
    out = adjust_inflation({month_index(m): v for m, v in series.items()}, rpi, month_index(base))
    want = adjust_inflation_by_label(series, yoy, base)
    assert [month_label(m) for m in out] == list(want)
    assert float_bits(out.values()) == float_bits(want.values())


# ---------------------------------------------------------------------------
# Take rates


def linked_with_shares(rows):
    """Columns of one linked trip per (driver, fare_pounds, pay_pounds) row, fixed era.

    Each driver's rows are one bundle's columns, listed in order of first appearance.
    """
    by_driver: dict[str, list] = {}
    for i, (driver, fare, pays) in enumerate(rows):
        t = trip(
            req=i * 120.0, accept=i * 120.0 + 1, pickup=i * 120.0 + 5,
            dropoff=i * 120.0 + 25, fare=f"{fare:.2f}",
        )
        p = payment(ts_min=i * 120.0 + 26, amount=f"{pays:.2f}")
        by_driver.setdefault(driver, []).extend(link([t], [p]).linked)
    return [TripColumns.from_linked(v) for v in by_driver.values()]


def test_take_rate_stats_by_trip_and_driver():
    linked = linked_with_shares(
        [("a", 10, 8), ("a", 10, 6), ("b", 10, 7)]
    )  # a: 0.8, 0.6; b: 0.7
    by_trip, by_driver = take_rate_stats(linked)
    assert by_trip.mean == pytest.approx(0.7)
    assert by_trip.median == pytest.approx(0.7)
    assert by_driver.mean == pytest.approx((0.7 + 0.7) / 2)
    assert by_driver.n_drivers == 2
    # driver means are a:0.7, b:0.7 -> fraction at or above 0.75 is 0
    assert by_driver.drivers_at_or_above_075 == 0.0


def test_take_rate_histogram_end_bins_absorb():
    linked = linked_with_shares([("a", 10, 0.4 * 10), ("a", 10, 16)])
    hist = take_rate_histogram(linked)
    labels = bin_labels()
    assert hist[labels[0]] == 1  # 0.40 lands in 0-50
    assert hist[labels[-1]] == 1  # 1.60 absorbed by the last bin
    assert sum(hist.values()) == 2


# ---------------------------------------------------------------------------
# Surplus


def surplus_fixture():
    t_jan = trip_at("2021-01-05T09:00:00Z", on_min=60, fare="20.00")
    t_mar = trip_at("2021-03-05T09:00:00Z", on_min=60, fare="20.00")
    pays = [
        pay_at("2021-01-05T10:06:00Z", 0, "12.00"),  # surplus 8/h
        pay_at("2021-03-05T10:06:00Z", 0, "8.00"),  # surplus 12/h
    ]
    trips = [t_jan, t_mar]
    linked = link(trips, pays).linked
    segs = build_segments([covering_session(t) for t in trips], trips).segments
    return TripColumns.from_linked(linked), build_ledger(segs, pays, [], []).months


def test_surplus_interior_gap_interpolated_and_flagged():
    series = surplus_series([surplus_fixture()])
    by_month = {p.month: p for p in series}
    assert by_month["2021-01"].value == pytest.approx(8.0)
    assert not by_month["2021-01"].interpolated
    assert by_month["2021-02"].value == pytest.approx(10.0)
    assert by_month["2021-02"].interpolated
    assert by_month["2021-03"].value == pytest.approx(12.0)


def test_surplus_edge_gap_is_missing_not_extrapolated():
    by_month = {p.month: p for p in surplus_series([surplus_fixture()])}
    for month in ("2020-12", "2021-04"):
        assert month not in by_month or by_month[month].value is None


def test_surplus_gap_across_new_year_is_interpolated_and_labelled():
    trips = [
        trip_at("2020-11-05T09:00:00Z", on_min=60, fare="20.00"),
        trip_at("2021-02-04T09:00:00Z", on_min=60, fare="20.00"),
    ]
    pays = [
        pay_at("2020-11-05T10:06:00Z", 0, "12.00"),  # surplus 8/h
        pay_at("2021-02-04T10:06:00Z", 0, "8.00"),  # surplus 12/h
    ]
    segs = build_segments([covering_session(t) for t in trips], trips).segments
    ledger = build_ledger(segs, pays, [], [])
    series = surplus_series([(TripColumns.from_linked(link(trips, pays).linked), ledger.months)])
    assert [p.month for p in series] == ["2020-11", "2020-12", "2021-01", "2021-02"]
    assert [p.interpolated for p in series] == [False, True, True, False]
    assert [p.value for p in series] == pytest.approx([8.0, 8.0 + 4 / 3, 8.0 + 8 / 3, 12.0])


def test_surplus_denominator_only_contributing_drivers():
    # a second driver with on-trip time but no valid shares must not dilute
    t_other = trip_at("2021-01-07T09:00:00Z", on_min=120, fare=None)
    segs2 = build_segments([covering_session(t_other)], [t_other]).segments
    pays2 = [pay_at("2021-01-07T11:06:00Z", 0, "9.00")]
    linked2 = link([t_other], pays2).linked
    series = surplus_series(
        [
            surplus_fixture(),
            (TripColumns.from_linked(linked2), build_ledger(segs2, pays2, [], []).months),
        ]
    )
    jan = next(p for p in series if p.month == "2021-01")
    assert jan.value == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Trip columns


def float_bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


INT64_PENCE = st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)
# -0.0, the smallest subnormal, the largest subnormal and a negative one
SHARES = st.sampled_from([-0.0, 5e-324, 2.225073858507201e-308, -1e-310]) | st.floats(
    allow_nan=False
)
MS_2019, MS_2026 = instant("2019-01-01T00:00:00Z"), instant("2026-01-01T00:00:00Z")


@st.composite
def linked_trips(draw) -> LinkedTrip:
    pickup = draw(st.integers(MS_2019, MS_2026))
    dropoff = pickup + draw(st.integers(0, 10 * 3_600_000))
    record = TripRecord(
        request_ts=pickup, accept_ts=pickup, pickup_ts=pickup, dropoff_ts=dropoff,
        distance_miles=1.0, status=TripStatus.COMPLETED, original_fare=draw(INT64_PENCE),
    )
    return LinkedTrip(record, (), draw(INT64_PENCE), draw(st.none() | SHARES))


def column_values(columns: TripColumns) -> dict:
    """Every column as Python values, floats as their bits, with its typecode."""
    out = {}
    for name in ("month", "driver_pence", "fare_pence"):
        out[name] = (getattr(columns, name).typecode, getattr(columns, name).tolist())
    for name in ("share", "on_trip_minutes"):
        out[name] = (getattr(columns, name).typecode, float_bits(getattr(columns, name).tolist()))
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(linked_trips(), max_size=6), max_size=4))
def test_trip_columns_give_back_every_value_bit_for_bit(drivers):
    for linked in drivers:
        columns = TripColumns.from_linked(linked)
        # share-valid trips outside the opaque gap, 2022-02..2023-01 in London
        valid = [
            lt
            for lt in linked
            if lt.driver_share is not None
            and not "2022-02" <= f"{london(lt.trip.dropoff_ts):%Y-%m}" < "2023-02"
        ]
        local = [london(lt.trip.dropoff_ts) for lt in valid]
        assert column_values(columns) == {
            "month": ("i", [d.year * 12 + d.month - 1 for d in local]),
            "share": ("d", float_bits(lt.driver_share for lt in valid)),
            "driver_pence": ("q", [lt.driver_total for lt in valid]),
            "fare_pence": ("q", [lt.trip.original_fare for lt in valid]),
            "on_trip_minutes": (
                "d", float_bits((lt.trip.dropoff_ts - lt.trip.pickup_ts) / MIN for lt in valid)
            ),
        }
        assert len(columns) == len(valid)
        assert column_values(pickle.loads(pickle.dumps(columns))) == column_values(columns)


# ---------------------------------------------------------------------------
# The fleet metrics against one concatenated table


TRIP_COLUMNS = ("month", "share", "driver_pence", "fare_pence", "on_trip_minutes")


def one_table(fleet) -> dict[str, list]:
    """The fleet's rows one driver after another, with a driver index column."""
    table = {name: [] for name in ("driver", *TRIP_COLUMNS)}
    for k, trips in enumerate(fleet):
        table["driver"] += [k] * len(trips)
        for name in TRIP_COLUMNS:
            table[name] += getattr(trips, name).tolist()
    return table


def bin_of(share: float) -> int:
    edges = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.5)
    inside = [k for k in range(len(edges) - 1) if edges[k] <= share]
    return min(inside[-1], len(edges) - 2) if inside else 0


def table_histogram(table: dict) -> dict[str, int]:
    counts = [0] * len(bin_labels())
    for share in table["share"]:
        counts[bin_of(share)] += 1
    return dict(zip(bin_labels(), counts))


def table_stats(table: dict) -> list[dict]:
    """Take-rate statistics by trip and by driver, grouped by the driver index."""
    per_driver: dict[int, list[float]] = {}
    for driver, share in zip(table["driver"], table["share"]):
        per_driver.setdefault(driver, []).append(share)
    if not per_driver:
        raise AuditError("no share-valid trips")
    means = sorted(statistics.fmean(v) for v in per_driver.values())
    at_or_above = sum(1 for m in means if m >= 0.75) / len(means)
    return [
        {
            "mean": statistics.fmean(pool),
            "median": statistics.median(sorted(pool)),
            "drivers_at_or_above_075": at_or_above,
            "n_trips": len(table["share"]),
            "n_drivers": len(per_driver),
        }
        for pool in (table["share"], means)
    ]


def table_take_rates(table: dict) -> dict:
    if not table["share"]:
        return {"n_trips": 0}
    monthly: dict[int, list[float]] = {}
    for month, share in zip(table["month"], table["share"]):
        monthly.setdefault(month, []).append(share)
    by_trip, by_driver = table_stats(table)
    return {
        "by_trip": by_trip,
        "by_driver": by_driver,
        "histogram": table_histogram(table),
        "monthly_median_share": {
            month_label(m): statistics.median(sorted(v)) for m, v in sorted(monthly.items())
        },
        "n_trips": len(table["share"]),
    }


def table_per_minute(table: dict) -> list[tuple]:
    acc: dict[int, list] = {}
    for share, minutes, driver, fare in zip(
        table["share"], table["on_trip_minutes"], table["driver_pence"], table["fare_pence"]
    ):
        if minutes > 0.0:
            slot = acc.setdefault(bin_of(share), [0, 0.0, 0, 0])
            for k, value in enumerate((1, minutes, driver, fare)):
                slot[k] += value
    return [
        (bin_labels()[b], n, minutes, driver, fare - driver, fare,
         driver / 100.0 / minutes, (fare - driver) / 100.0 / minutes)
        for b, (n, minutes, driver, fare) in sorted(acc.items())
    ]


def table_surplus(table: dict, on_trip_ms: list[dict[int, int]]) -> list[tuple]:
    """Each month's surplus per on-trip hour of the drivers with trips that month."""
    pence: dict[int, int] = {}
    drivers: dict[int, set[int]] = {}
    for driver, month, fare, pay in zip(
        table["driver"], table["month"], table["fare_pence"], table["driver_pence"]
    ):
        pence[month] = pence.get(month, 0) + fare - pay
        drivers.setdefault(month, set()).add(driver)
    direct = {}
    for month in pence:
        hours = sum(on_trip_ms[d].get(month, 0) for d in drivers[month]) / MS_PER_HOUR
        if hours > 0.0:
            direct[month] = (pence[month] / 100.0 / hours, pence[month], hours)
    out = []
    for month in range(min(pence), max(pence) + 1) if pence else ():
        before = [m for m in direct if m < month]
        after = [m for m in direct if m > month]
        if month in direct:
            value, cut, hours = direct[month]
            out.append((month_label(month), value, False, cut, hours))
        elif before and after:
            m0, m1 = max(before), min(after)
            v0, v1 = direct[m0][0], direct[m1][0]
            value = v0 + (v1 - v0) * ((month - m0) / (m1 - m0))
            out.append((month_label(month), value, True, 0, 0.0))
        else:
            out.append((month_label(month), None, False, 0, 0.0))
    return out


def exact(value):
    """A value with each float as its bits, so that -0.0, NaN and inf compare exactly."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, array)):
        return [exact(v) for v in value]
    return value


def outcome(f, *args):
    """What ``f(*args)`` returns, exactly, or the type of what it raises."""
    try:
        return "returned", exact(f(*args))
    except Exception as exc:  # the oracle must raise the same
        return "raised", type(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(linked_trips(), max_size=6), max_size=4), st.data())
def test_fleet_metrics_match_one_concatenated_table(drivers, data):
    fleet = [TripColumns.from_linked(linked) for linked in drivers]
    # on-trip time in any month of the fleet's trips, whether the driver has trips in it or not
    months = sorted({month for trips in fleet for month in trips.month})
    ledgers = [
        data.draw(
            st.dictionaries(
                st.sampled_from(months) if months else st.nothing(),
                st.builds(Bucket, on_trip_ms=st.integers(0, 40 * MS_PER_HOUR)),
            )
        )
        for _ in fleet
    ]
    table = one_table(fleet)
    on_trip_ms = [{m: b.on_trip_ms for m, b in months.items()} for months in ledgers]

    assert outcome(take_rate_histogram, fleet) == outcome(table_histogram, table)
    assert outcome(lambda f: [asdict(s) for s in take_rate_stats(f)], fleet) == outcome(
        table_stats, table
    )
    assert outcome(_take_rate_section, fleet) == outcome(table_take_rates, table)
    assert outcome(
        lambda f: [tuple(asdict(b).values()) for b in per_minute_fare_by_split(f)], fleet
    ) == outcome(table_per_minute, table)
    assert outcome(
        lambda f: [tuple(asdict(p).values()) for p in surplus_series(zip(f, ledgers))], fleet
    ) == outcome(table_surplus, table, on_trip_ms)

    samples = []

    def split_only(*eras):  # the densities are not the fleet's concern
        samples.extend(eras)
        return DistributionComparison((), (), (), 0.0, 0.0)

    with mock.patch.object(report, "distribution_compare", split_only):
        _distribution_section(fleet, DEFAULT_ERAS)
    by_era = {era: [] for era in Era}
    for month, share in zip(table["month"], table["share"]):
        by_era[era_of(month, DEFAULT_ERAS)].append(share)
    fixed, dynamic = by_era[Era.FIXED_COMMISSION], by_era[Era.DYNAMIC_PRICING]
    assert exact(samples) == (exact([fixed, dynamic]) if fixed and dynamic else [])


def uniform_fleet(drivers: int, trips: int) -> list[TripColumns]:
    """Drivers with ``trips`` share-valid trips each, spread over 2021-07..2023-12."""
    months = [
        m
        for m in range(month_index("2021-07"), month_index("2023-12") + 1)
        if era_of(m, DEFAULT_ERAS) is not Era.OPAQUE_GAP
    ]
    fleet = []
    for k in range(drivers):
        rng = random.Random(k)
        fleet.append(
            TripColumns(
                month=array("i", sorted(rng.choice(months) for _ in range(trips))),
                share=array("d", [rng.uniform(0.4, 1.0) for _ in range(trips)]),
                driver_pence=array("q", [rng.randrange(300, 3000) for _ in range(trips)]),
                fare_pence=array("q", [rng.randrange(400, 4000) for _ in range(trips)]),
                on_trip_minutes=array("d", [rng.uniform(3.0, 60.0) for _ in range(trips)]),
            )
        )
    return fleet


# Traced peak bytes a share, above the fleet's own columns. A share costs 8
# bytes in an array('d') and 32 as a float object in a list: sections that
# copied the fleet's shares into lists read 82 and 54 bytes a share here.
@pytest.mark.parametrize(
    "section, bound",
    [
        (_take_rate_section, 40),
        (lambda fleet: _distribution_section(fleet, DEFAULT_ERAS), 42),
    ],
    ids=["take_rate", "distribution"],
)
def test_report_sections_keep_the_shares_unboxed(section, bound):
    fleet = uniform_fleet(8, 4000)
    tracemalloc.start()  # numpy is imported above, so its import is not traced
    try:
        section(fleet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 4000) < bound


# ---------------------------------------------------------------------------
# Per-minute fare components


def test_per_minute_conservation_and_rates():
    linked = linked_with_shares([("a", 10, 7.5), ("a", 20, 15.0), ("a", 10, 5.5)])
    bins = per_minute_fare_by_split(linked)
    for b in bins:
        assert b.driver_pence + b.platform_pence == b.fare_pence
    by_label = {b.label: b for b in bins}
    b75 = by_label["70-80"]
    assert b75.n_trips == 2
    assert b75.driver_per_min == pytest.approx(2250 / 100.0 / 40.0)


def test_per_minute_bin_rejects_nonconserving():
    with pytest.raises(AuditError):
        PerMinuteBin("x", 1, 10.0, 700, 400, 1000, 0.7, 0.4)


# ---------------------------------------------------------------------------
# Cohort pay change


def month_iso(month: str, day: int, hour: int) -> str:
    return f"{month}-{day:02d}T{hour:02d}:00:00Z"


def driver_rows(months: list[str], pounds_per_trip: float):
    trips, pays, sessions = [], [], []
    for m in months:
        for day in (9, 16):  # mid-month, away from ISO week edges
            t = trip_at(month_iso(m, day, 9), on_min=60, fare="20.00")
            trips.append(t)
            pays.append(pay_at(month_iso(m, day, 10), 6, f"{pounds_per_trip:.2f}"))
            sessions.append(covering_session(t))
    segs = build_segments(sessions, trips).segments
    return weekly_rows(build_ledger(segs, pays, trips, [])), trips


def active_months(trips_by_driver):
    """Each driver's month buckets, whose completed-trip counts decide the cohort."""
    return {d: build_ledger([], [], trips, []).months for d, trips in trips_by_driver.items()}


def test_cohort_partition_and_qualification():
    pre = ("2021-01", "2021-02")
    post = ("2021-04", "2021-05")
    months_all = ["2021-01", "2021-02", "2021-04", "2021-05"]

    rows = {}
    trips = {}
    # dropper: pay falls from 12 to 9
    r, t = driver_rows(months_all[:2], 12.0)
    r2, t2 = driver_rows(months_all[2:], 9.0)
    rows["drop"], trips["drop"] = tuple(r) + tuple(r2), tuple(t) + tuple(t2)
    # riser: pay rises
    r, t = driver_rows(months_all[:2], 9.0)
    r2, t2 = driver_rows(months_all[2:], 12.0)
    rows["rise"], trips["rise"] = tuple(r) + tuple(r2), tuple(t) + tuple(t2)
    # gapper: missing 2021-02 entirely
    r, t = driver_rows(["2021-01", "2021-04", "2021-05"], 12.0)
    rows["gap"], trips["gap"] = tuple(r), tuple(t)

    split = cohort_pay_change(rows, active_months(trips), pre, post)
    assert set(split.qualified) == {"drop", "rise"}
    assert split.paid_less == ("drop",)
    assert split.paid_same_or_more == ("rise",)
    assert "gap" not in split.qualified


def test_cohort_zero_change_counts_as_same_or_more():
    pre = ("2021-01", "2021-01")
    post = ("2021-04", "2021-04")
    r1, t1 = driver_rows(["2021-01"], 10.0)
    r2, t2 = driver_rows(["2021-04"], 10.0)
    split = cohort_pay_change(
        {"flat": tuple(r1) + tuple(r2)},
        active_months({"flat": tuple(t1) + tuple(t2)}),
        pre,
        post,
    )
    assert split.paid_same_or_more == ("flat",)
    assert split.pct_change["flat"] == pytest.approx(0.0)


def test_cohort_windows_validated():
    with pytest.raises(AuditError):
        cohort_pay_change({}, {}, ("2021-01", "2021-02"), ("2021-02", "2021-03"))
    with pytest.raises(AuditError):
        cohort_pay_change({}, {}, ("2021-01", "2021-02"), ("2021-04", "2021-06"))


def test_cohort_split_partition_enforced():
    with pytest.raises(AuditError):
        CohortSplit(
            ("2021-01", "2021-01"), ("2021-02", "2021-02"),
            qualified=("a", "b"), pre_rate={}, post_rate={}, pct_change={},
            paid_less=("a",), paid_same_or_more=(), pooled_pre=1.0, pooled_post=1.0,
        )


# ---------------------------------------------------------------------------
# Acceptance rate


def offer_totals(offers):
    """The offers' counts, pooled over the ledger's month buckets."""
    totals = Bucket()
    for bucket in build_ledger([], [], [], offers).months.values():
        totals.add(bucket)
    return totals


def test_acceptance_rate_window():
    offers = [offer(float(m), m % 3 != 0) for m in range(30)]
    assert acceptance_rate(offer_totals(offers)) == pytest.approx(20 / 30)
    assert acceptance_rate(offer_totals(offers[:1])) == 0.0
    assert acceptance_rate(offer_totals([])) is None


# ---------------------------------------------------------------------------
# Distribution comparison


def test_silverman_matches_formula():
    values = [0.1, 0.4, 0.2, 0.9, 0.5, 0.3, 0.8]
    import statistics

    sd = statistics.stdev(values)
    q = statistics.quantiles(sorted(values), n=4, method="inclusive")
    iqr = q[2] - q[0]
    expect = 0.9 * min(sd, iqr / 1.34) * len(values) ** -0.2
    assert silverman_bandwidth(values) == pytest.approx(expect)


def test_silverman_degenerate_fallback():
    assert silverman_bandwidth([0.5] * 10) == 1e-3


def test_kde_integrates_to_one():
    rng = np.random.default_rng(5)
    a = rng.normal(0.6, 0.1, 400).tolist()
    b = rng.normal(0.8, 0.05, 300).tolist()
    cmp = distribution_compare(a, b)
    grid = np.asarray(cmp.grid)
    dx = grid[1] - grid[0]
    for dens in (cmp.density_a, cmp.density_b):
        d = np.asarray(dens)
        total = float((0.5 * (d[0] + d[-1]) + d[1:-1].sum()) * dx)
        assert abs(total - 1.0) < 1e-3
    # the modes sit near the sample means
    assert abs(grid[int(np.argmax(cmp.density_a))] - 0.6) < 0.05
    assert abs(grid[int(np.argmax(cmp.density_b))] - 0.8) < 0.05


@pytest.mark.parametrize("n", [1, 7, 5000])
def test_kde_keeps_the_bytes_of_the_one_matrix_formula(n):
    # about 513 grid points, at least two whole blocks of grid rows and one
    # point into the next
    rows = max(1, KDE_BLOCK_ELEMENTS // n)
    grid_points = rows * max(2, 512 // rows) + 1
    rng = np.random.default_rng(n)
    a = rng.normal(0.7, 0.1, n).tolist()
    b = rng.gamma(4.0, 0.2, n).tolist()
    cmp = distribution_compare(a, b, grid_points=grid_points)
    grid = np.asarray(cmp.grid)
    samples = ((a, cmp.bandwidth_a, cmp.density_a), (b, cmp.bandwidth_b, cmp.density_b))
    for values, h, density in samples:
        x = np.asarray(values, dtype=float)
        z = (grid[:, None] - x[None, :]) / h
        want = np.exp(-0.5 * z * z).sum(axis=1) / (len(x) * h * math.sqrt(2.0 * math.pi))
        assert np.asarray(density).tobytes() == want.tobytes()


def test_distribution_compare_requires_data():
    with pytest.raises(AuditError):
        distribution_compare([], [1.0])


# ---------------------------------------------------------------------------
# Demographics


def test_cohort_summary_proportions():
    profiles = [
        DriverProfile(at(0.0), gender="M", age_band="30-39"),
        DriverProfile(at(0.0), gender="M", age_band="40-49"),
        DriverProfile(at(0.0), gender="F", age_band=None),
        DriverProfile(at(0.0), gender=None, age_band="30-39"),
    ]
    out = cohort_summary(profiles)
    assert out["gender"]["M"] == pytest.approx(2 / 3)
    assert out["gender_missing"] == 1
    assert out["age_band"]["30-39"] == pytest.approx(2 / 3)
    assert out["age_band_missing"] == 1
