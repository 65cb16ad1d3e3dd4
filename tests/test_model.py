import datetime as dt

import pytest
from hypothesis import example, given, settings, strategies as st

from fareaudit.model import (
    DEFAULT_ERAS,
    CurrencyMismatch,
    Era,
    EraBoundaries,
    Money,
    MoneyParseError,
    RecordError,
    RpiSeries,
    Timestamp,
    TripStatus,
    era_of,
    iso_week_label,
    month_add,
    month_index,
    month_range,
    month_window,
    parse_iso_week,
    sum_money,
    week_monday,
    week_window,
)
from conftest import at, instant, trip


# ---------------------------------------------------------------------------
# Money


def test_money_parse_exact_pence():
    assert Money.parse("12.34").pence == 1234
    assert Money.parse("0.5").pence == 50
    assert Money.parse("-3.07").pence == -307
    assert Money.parse("+7").pence == 700
    assert str(Money.parse("12.34")) == "12.34"
    assert str(Money(-5)) == "-0.05"


@pytest.mark.parametrize("bad", ["1.234", "", "abc", "1,00", "0x10", "1.2.3", "NaN"])
def test_money_parse_rejects(bad):
    with pytest.raises(MoneyParseError):
        Money.parse(bad)


def test_money_arithmetic_and_currency_guard():
    a = Money.parse("1.00")
    b = Money.parse("0.25")
    assert (a - b).pence == 75
    assert sum_money([a, b, b]).pence == 150
    with pytest.raises(CurrencyMismatch):
        a + Money(10, "USD")


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_money_parse_str_roundtrip(p, q):
    m = Money(p) + Money(q)
    assert Money.parse(str(m)) == m


# ---------------------------------------------------------------------------
# Timestamps and calendar


def test_timestamp_iso_parse_variants():
    z, z_naive = Timestamp.parse("2021-03-02T09:00:00Z")
    offset, offset_naive = Timestamp.parse("2021-03-02T10:00:00+01:00")
    assert z.epoch_ms == offset.epoch_ms
    assert not z_naive and not offset_naive
    frac, frac_naive = Timestamp.parse("2021-03-02T09:00:00.250Z")
    assert frac.epoch_ms - z.epoch_ms == 250
    assert not frac_naive
    assert frac.iso() == "2021-03-02T09:00:00.250Z"
    assert Timestamp.parse(frac.iso()) == (frac, False)


def test_timestamp_naive_interpreted_utc():
    naive, was_naive = Timestamp.parse("2021-03-02T09:00:00")
    assert was_naive
    assert naive == Timestamp.parse("2021-03-02T09:00:00Z")[0]


def test_local_calendar_fields_respect_timezone():
    # 23:30 UTC on 30 June is 00:30 on 1 July in London (BST)
    ts = instant("2021-06-30T23:30:00Z")
    assert ts.month("Europe/London") == "2021-07"
    assert ts.month("UTC") == "2021-06"


def test_month_helpers():
    assert month_index("2021-01") + 1 == month_index("2021-02")
    assert month_add("2021-11", 3) == "2022-02"
    assert month_range("2021-11", "2022-01") == ["2021-11", "2021-12", "2022-01"]
    lo, hi = month_window("2021-03", "UTC")
    assert lo.iso() == "2021-03-01T00:00:00.000Z"
    assert hi.iso() == "2021-04-01T00:00:00.000Z"


def test_iso_week_helpers():
    # 2021-01-01 is a Friday in ISO week 2020-W53
    assert iso_week_label(dt.date(2021, 1, 1)) == "2020-W53"
    assert week_monday("2020-W53") == dt.date(2020, 12, 28)
    assert parse_iso_week("2021-W07") == (2021, 7)
    lo, hi = week_window("2021-W09", "UTC")
    assert (hi.epoch_ms - lo.epoch_ms) == 7 * 24 * 3600 * 1000


def test_week_window_dst_transition_is_not_168h():
    # clocks go forward 2021-03-28 in London; that week is an hour short
    lo, hi = week_window("2021-W12", "Europe/London")
    assert (hi.epoch_ms - lo.epoch_ms) == (7 * 24 - 1) * 3600 * 1000


# ---------------------------------------------------------------------------
# Eras


def test_era_partition():
    assert era_of(instant("2022-01-31T12:00:00Z")) is Era.FIXED_COMMISSION
    assert era_of(instant("2022-02-01T12:00:00Z")) is Era.OPAQUE_GAP
    assert era_of(instant("2023-01-15T12:00:00Z")) is Era.OPAQUE_GAP
    assert era_of(instant("2023-02-01T12:00:00Z")) is Era.DYNAMIC_PRICING


def test_era_boundary_uses_local_month():
    # London is an hour ahead of UTC in summer, so a boundary month begins at
    # 23:00 UTC on the last day of the month before
    summer = EraBoundaries("2021-07", "2021-09")
    assert era_of(instant("2021-06-30T22:59:59.999Z"), summer) is Era.FIXED_COMMISSION
    assert era_of(instant("2021-06-30T23:30:00Z"), summer) is Era.OPAQUE_GAP
    assert era_of(instant("2021-08-31T22:59:59.999Z"), summer) is Era.OPAQUE_GAP
    assert era_of(instant("2021-08-31T23:00:00Z"), summer) is Era.DYNAMIC_PRICING
    # in winter London is on UTC, so the default boundaries start at UTC midnight
    assert era_of(instant("2023-01-31T23:30:00Z"), DEFAULT_ERAS) is Era.OPAQUE_GAP
    assert era_of(instant("2022-01-31T23:30:00Z")) is Era.FIXED_COMMISSION


ERA_MONTHS = month_range("2020-01", "2023-12")
TWO_DAYS_MS = 2 * 24 * 3_600_000


def utc_month_start_ms(label: str) -> int:
    year, month = (int(part) for part in label.split("-"))
    return Timestamp.from_datetime(dt.datetime(year, month, 1, tzinfo=dt.timezone.utc)).epoch_ms


@given(
    pair=st.lists(st.sampled_from(ERA_MONTHS), min_size=2, max_size=2, unique=True).map(sorted),
    near=st.sampled_from(["opaque", "dynamic", "2021-03-28T01:00:00Z", "2021-10-31T01:00:00Z"]),
    offset_ms=st.integers(-TWO_DAYS_MS, TWO_DAYS_MS),
)
@example(pair=["2021-07", "2021-09"], near="opaque", offset_ms=-30 * 60_000)
@example(pair=["2021-07", "2021-09"], near="dynamic", offset_ms=-60 * 60_000)
@example(pair=["2021-03", "2021-04"], near="dynamic", offset_ms=-1)
@settings(max_examples=300, deadline=None)
def test_era_of_matches_local_month_labels(pair, near, offset_ms):
    """Instants near the boundaries and the 2021 clock changes, against month labels."""
    boundaries = EraBoundaries(*pair)
    if near == "opaque":
        centre = utc_month_start_ms(pair[0])
    elif near == "dynamic":
        centre = utc_month_start_ms(pair[1])
    else:
        centre = instant(near).epoch_ms
    ts = Timestamp(centre + offset_ms)
    label = month_index(ts.month(boundaries.tz))
    if label < month_index(pair[0]):
        expected = Era.FIXED_COMMISSION
    elif label < month_index(pair[1]):
        expected = Era.OPAQUE_GAP
    else:
        expected = Era.DYNAMIC_PRICING
    assert era_of(ts, boundaries) is expected


def test_era_boundaries_validated():
    with pytest.raises(RecordError):
        EraBoundaries("2023-02", "2022-02")
    with pytest.raises(RecordError):
        EraBoundaries("2022-02", "2022-02")
    with pytest.raises(RecordError):
        EraBoundaries("2022-13", "2023-02")
    custom = EraBoundaries("2020-06", "2021-06")
    assert era_of(instant("2020-07-15T12:00:00Z"), custom) is Era.OPAQUE_GAP
    assert era_of(instant("2021-06-15T12:00:00Z"), custom) is Era.DYNAMIC_PRICING


# ---------------------------------------------------------------------------
# Records


def test_trip_timestamp_chain_validated():
    with pytest.raises(RecordError):
        trip(req=10.0, accept=5.0)
    with pytest.raises(RecordError):
        trip(pickup=None)  # completed must have all four
    t = trip(pickup=None, dropoff=None, status=TripStatus.RIDER_CANCELLED)
    assert t.on_trip_minutes == 0.0


def test_trip_rejects_negative_distance():
    with pytest.raises(RecordError):
        trip(distance=-1.0)


def test_on_trip_minutes():
    assert trip(pickup=5.0, dropoff=20.0).on_trip_minutes == 15.0


def test_session_must_be_nonempty():
    from fareaudit.model import AppSession

    with pytest.raises(RecordError):
        AppSession("d1", at(5.0), at(5.0))


def test_profile_label_validation():
    from fareaudit.model import DriverProfile

    with pytest.raises(RecordError):
        DriverProfile("d1", at(0.0), gender="X")
    with pytest.raises(RecordError):
        DriverProfile("d1", at(0.0), age_band="13-19")
    p = DriverProfile("d1", at(0.0), gender="F", age_band="30-39")
    assert p.age_band == "30-39"


# ---------------------------------------------------------------------------
# RPI series


def test_rpi_requires_contiguous_months():
    with pytest.raises(RecordError):
        RpiSeries({"2021-01": 1.0, "2021-03": 2.0})
    series = RpiSeries({"2021-02": 2.0, "2021-01": 1.0})
    assert list(series.yoy_pct) == ["2021-01", "2021-02"]


def test_rpi_from_csv(tmp_path):
    path = tmp_path / "rpi.csv"
    path.write_text("month,yoy_pct\n2021-01,1.5\n2021-02,2.0\n")
    series = RpiSeries.from_csv(path)
    assert series.yoy_pct["2021-02"] == 2.0
