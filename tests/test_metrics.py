import numpy as np
import pytest

from fareaudit.linkage import link
from fareaudit.metrics import (
    CohortSplit,
    MissingRpiMonth,
    NoOffers,
    PerMinuteBin,
    TripColumns,
    ZeroHours,
    acceptance_rate,
    adjust_inflation,
    bin_labels,
    cohort_pay_change,
    cohort_summary,
    completed_months,
    distribution_compare,
    offer_counts,
    pay_per_hour,
    per_minute_fare_by_split,
    silverman_bandwidth,
    surplus_series,
    take_rate_histogram,
    take_rate_stats,
    weekly_rows,
)
from fareaudit.model import (
    ActivityState,
    AuditError,
    DriverProfile,
    PaymentCategory,
    PaymentEvent,
    RpiSeries,
    TripRecord,
    TripStatus,
    iso_week_label,
    month_days,
    month_range,
    parse_pence,
)
from fareaudit.worktime import HoursDefinition, build_ledger, build_segments
from conftest import at, instant, london, offer, payment, trip

MIN = 60_000


def trip_at(iso: str, on_min: int = 60, fare: str | None = "20.00", driver="d1"):
    t0 = instant(iso)
    return TripRecord(
        driver_id=driver,
        request_ts=t0,
        accept_ts=t0 + 1 * MIN,
        pickup_ts=t0 + 5 * MIN,
        dropoff_ts=t0 + (5 + on_min) * MIN,
        distance_miles=5.0,
        status=TripStatus.COMPLETED,
        original_fare=parse_pence(fare) if fare else None,
    )


def pay_at(iso: str, offset_min: float, amount: str, driver="d1"):
    t0 = instant(iso)
    return PaymentEvent(
        driver, t0 + round(offset_min * MIN),
        PaymentCategory.TRIP_EARNINGS, parse_pence(amount),
    )


def covering_session(t: TripRecord):
    from fareaudit.model import AppSession

    return AppSession(
        t.driver_id,
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
    (row,) = weekly_rows("d1", build_ledger([], pays))
    assert row.iso_week == iso_week_label(london(pays[0].ts).date())
    assert row.net_pay == 650


def test_weekly_rows_split_by_iso_week():
    p1 = pay_at("2021-03-01T12:00:00Z", 0, "10.00")  # Monday of 2021-W09
    p2 = pay_at("2021-03-08T12:00:00Z", 0, "20.00")  # Monday of 2021-W10
    t = trip_at("2021-03-01T10:00:00Z")
    sess = covering_session(t)
    segs = build_segments([sess], [t]).segments
    rows = weekly_rows("d1", build_ledger(segs, [p1, p2]))
    assert [r.iso_week for r in rows] == ["2021-W09", "2021-W10"]
    assert rows[0].net_pay == 1000
    assert rows[0].hours_tribunal > 0
    assert rows[1].hours_tribunal == 0.0  # pay with no recorded time that week


def test_weekly_rows_platform_never_exceeds_tribunal():
    t = trip_at("2021-03-02T09:00:00Z", on_min=30)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows("d1", build_ledger(segs, [pay_at("2021-03-02T09:40:00Z", 0, "9.00")]))
    for row in rows:
        assert row.hours_platform <= row.hours_tribunal


def test_pay_per_hour_pooled_and_week_filter():
    t = trip_at("2021-03-02T09:00:00Z", on_min=55)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows("d1", build_ledger(segs, [pay_at("2021-03-02T10:05:00Z", 0, "12.00")]))
    rate = pay_per_hour(rows, HoursDefinition.TRIBUNAL)
    # session is 80 minutes: 10 before request + 70 through dropoff+10
    assert rate == pytest.approx(12.0 / (80 / 60))
    with pytest.raises(ZeroHours):
        pay_per_hour(rows, HoursDefinition.TRIBUNAL, weeks={"2099-W01"})


def test_pay_per_hour_platform_dominates_for_nonnegative_pay():
    t = trip_at("2021-03-02T09:00:00Z", on_min=55)
    segs = build_segments([covering_session(t)], [t]).segments
    rows = weekly_rows("d1", build_ledger(segs, [pay_at("2021-03-02T10:05:00Z", 0, "12.00")]))
    assert pay_per_hour(rows, HoursDefinition.PLATFORM) >= pay_per_hour(
        rows, HoursDefinition.TRIBUNAL
    )


# ---------------------------------------------------------------------------
# Inflation


def test_zero_rpi_is_exact_identity():
    rpi = RpiSeries({m: 0.0 for m in ("2021-01", "2021-02", "2021-03")})
    series = {"2021-01": 12.34, "2021-02": 56.78, "2021-03": 9.99}
    out = adjust_inflation(series, rpi, "2021-03")
    assert out == series  # bit-identical floats


def test_constant_10pct_over_year_scales_by_1_1():
    months = [f"2021-{m:02d}" for m in range(1, 13)] + ["2022-01"]
    rpi = RpiSeries({m: 10.0 for m in months})
    out = adjust_inflation({"2021-01": 100.0}, rpi, "2022-01")
    assert abs(out["2021-01"] - 110.0) < 1e-9 * 110.0


def test_adjust_toward_earlier_base_deflates():
    months = ["2021-01", "2021-02"]
    rpi = RpiSeries({m: 10.0 for m in months})
    out = adjust_inflation({"2021-02": 110.0}, rpi, "2021-01")
    assert out["2021-02"] < 110.0


def test_missing_rpi_month_raises():
    rpi = RpiSeries({"2021-01": 1.0})
    with pytest.raises(MissingRpiMonth):
        adjust_inflation({"2021-03": 5.0}, rpi, "2021-01")


def test_inflation_matches_index_ratio_oracle():
    yoy = {"2021-01": 3.0, "2021-02": 5.0, "2021-03": -1.0, "2021-04": 12.0}
    rpi = RpiSeries(yoy)
    series = {"2021-01": 50.0, "2021-02": 60.0, "2021-03": 70.0}
    base = "2021-04"
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


# ---------------------------------------------------------------------------
# Take rates


def linked_with_shares(rows):
    """Columns of one linked trip per (driver, fare_pounds, pay_pounds) row, fixed era."""
    out = []
    for i, (driver, fare, pays) in enumerate(rows):
        t = trip(
            req=i * 120.0, accept=i * 120.0 + 1, pickup=i * 120.0 + 5,
            dropoff=i * 120.0 + 25, driver=driver, fare=f"{fare:.2f}",
        )
        p = payment(ts_min=i * 120.0 + 26, amount=f"{pays:.2f}", driver=driver)
        out.extend(link([t], [p]).linked)
    return TripColumns.from_linked(out)


def test_take_rate_stats_by_trip_and_driver():
    linked = linked_with_shares(
        [("a", 10, 8), ("a", 10, 6), ("b", 10, 7)]
    )  # a: 0.8, 0.6; b: 0.7
    by_trip = take_rate_stats(linked, "trip")
    assert by_trip.mean == pytest.approx(0.7)
    assert by_trip.median == pytest.approx(0.7)
    by_driver = take_rate_stats(linked, "driver")
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
    return list(linked), {"d1": on_trip_by_month(build_ledger(segs, pays))}


def on_trip_by_month(ledger):
    """A driver's on-trip milliseconds in each month around the fixture's trips."""
    return {
        m: ledger.state_ms(month_days(m))[ActivityState.ON_TRIP]
        for m in month_range("2020-12", "2021-04")
    }


def test_surplus_interior_gap_interpolated_and_flagged():
    linked, on_trip = surplus_fixture()
    series = surplus_series(TripColumns.from_linked(linked), on_trip)
    by_month = {p.month: p for p in series}
    assert by_month["2021-01"].value == pytest.approx(8.0)
    assert not by_month["2021-01"].interpolated
    assert by_month["2021-02"].value == pytest.approx(10.0)
    assert by_month["2021-02"].interpolated
    assert by_month["2021-03"].value == pytest.approx(12.0)


def test_surplus_edge_gap_is_missing_not_extrapolated():
    linked, on_trip = surplus_fixture()
    by_month = {p.month: p for p in surplus_series(TripColumns.from_linked(linked), on_trip)}
    for month in ("2020-12", "2021-04"):
        assert month not in by_month or by_month[month].value is None


def test_surplus_denominator_only_contributing_drivers():
    linked, on_trip = surplus_fixture()
    # a second driver with on-trip time but no valid shares must not dilute
    t_other = trip_at("2021-01-07T09:00:00Z", on_min=120, fare=None, driver="d2")
    segs2 = build_segments([covering_session(t_other)], [t_other]).segments
    pays2 = [pay_at("2021-01-07T11:06:00Z", 0, "9.00", "d2")]
    linked2 = link([t_other], pays2).linked
    series = surplus_series(
        TripColumns.from_linked(linked + list(linked2)),
        {**on_trip, "d2": on_trip_by_month(build_ledger(segs2, pays2))},
    )
    jan = next(p for p in series if p.month == "2021-01")
    assert jan.value == pytest.approx(8.0)


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


def driver_rows(driver: str, months: list[str], pounds_per_trip: float):
    trips, pays, sessions = [], [], []
    for m in months:
        for day in (9, 16):  # mid-month, away from ISO week edges
            t = trip_at(month_iso(m, day, 9), on_min=60, fare="20.00", driver=driver)
            trips.append(t)
            pays.append(pay_at(month_iso(m, day, 10), 6, f"{pounds_per_trip:.2f}", driver))
            sessions.append(covering_session(t))
    segs = build_segments(sessions, trips).segments
    return weekly_rows(driver, build_ledger(segs, pays)), trips


def active_months(trips_by_driver):
    return {d: completed_months(trips) for d, trips in trips_by_driver.items()}


def test_cohort_partition_and_qualification():
    pre = ("2021-01", "2021-02")
    post = ("2021-04", "2021-05")
    months_all = ["2021-01", "2021-02", "2021-04", "2021-05"]

    rows = {}
    trips = {}
    # dropper: pay falls from 12 to 9
    r, t = driver_rows("drop", months_all[:2], 12.0)
    r2, t2 = driver_rows("drop", months_all[2:], 9.0)
    rows["drop"], trips["drop"] = tuple(r) + tuple(r2), tuple(t) + tuple(t2)
    # riser: pay rises
    r, t = driver_rows("rise", months_all[:2], 9.0)
    r2, t2 = driver_rows("rise", months_all[2:], 12.0)
    rows["rise"], trips["rise"] = tuple(r) + tuple(r2), tuple(t) + tuple(t2)
    # gapper: missing 2021-02 entirely
    r, t = driver_rows("gap", ["2021-01", "2021-04", "2021-05"], 12.0)
    rows["gap"], trips["gap"] = tuple(r), tuple(t)

    split = cohort_pay_change(rows, active_months(trips), pre, post)
    assert set(split.qualified) == {"drop", "rise"}
    assert split.paid_less == ("drop",)
    assert split.paid_same_or_more == ("rise",)
    assert "gap" not in split.qualified


def test_cohort_zero_change_counts_as_same_or_more():
    pre = ("2021-01", "2021-01")
    post = ("2021-04", "2021-04")
    r1, t1 = driver_rows("flat", ["2021-01"], 10.0)
    r2, t2 = driver_rows("flat", ["2021-04"], 10.0)
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


def test_acceptance_rate_window():
    offers = [offer(float(m), m % 3 != 0) for m in range(30)]
    assert acceptance_rate(offer_counts(offers).values()) == pytest.approx(20 / 30)
    assert acceptance_rate(offer_counts(offers[:1]).values()) == 0.0
    with pytest.raises(NoOffers):
        acceptance_rate(offer_counts([]).values())


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


def test_distribution_compare_requires_data():
    with pytest.raises(AuditError):
        distribution_compare([], [1.0])


# ---------------------------------------------------------------------------
# Demographics


def test_cohort_summary_proportions():
    profiles = [
        DriverProfile("a", at(0.0), gender="M", age_band="30-39"),
        DriverProfile("b", at(0.0), gender="M", age_band="40-49"),
        DriverProfile("c", at(0.0), gender="F", age_band=None),
        DriverProfile("d", at(0.0), gender=None, age_band="30-39"),
    ]
    out = cohort_summary(profiles)
    assert out["gender"]["M"] == pytest.approx(2 / 3)
    assert out["gender_missing"] == 1
    assert out["age_band"]["30-39"] == pytest.approx(2 / 3)
    assert out["age_band_missing"] == 1
