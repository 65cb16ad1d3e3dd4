import ast
import datetime as dt
import math
import re
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

import fareaudit
from fareaudit.ingest import load_rpi
from fareaudit.model import (
    CALENDAR,
    DEFAULT_ERAS,
    Calendar,
    Era,
    EraBoundaries,
    MoneyParseError,
    RecordError,
    RpiSeries,
    TripStatus,
    era_of,
    format_instant,
    format_pence,
    iso_week_label,
    month_add,
    month_days,
    month_index,
    month_label,
    month_of,
    month_range,
    parse_instant,
    parse_iso_week,
    parse_pence,
    week_monday,
)
from conftest import DAY_S, S_1990, S_2041, at, instant, offset_changes, trip


# ---------------------------------------------------------------------------
# Amounts in pence


def test_money_parse_exact_pence():
    assert parse_pence("12.34") == 1234
    assert parse_pence("0.5") == 50
    assert parse_pence("-3.07") == -307
    assert parse_pence("+7") == 700
    assert parse_pence(" 0.00 ") == 0
    assert format_pence(parse_pence("12.34")) == "12.34"
    assert format_pence(-5) == "-0.05"
    assert format_pence(0) == "0.00"


@pytest.mark.parametrize("bad", ["1.234", "", "abc", "1,00", "0x10", "1.2.3", "NaN"])
def test_money_parse_rejects(bad):
    with pytest.raises(MoneyParseError, match=re.escape(f"not a money amount: {bad!r}")):
        parse_pence(bad)


def test_money_parse_rejects_amounts_above_a_billion_pounds():
    # a bundle's sums of pence then stay inside int64 up to 92 million rows
    assert parse_pence("1000000000.00") == 100_000_000_000
    assert parse_pence("-1000000000.00") == -100_000_000_000
    for bad in ("1000000000.01", "-1000000000.01", "99999999999999999999.00"):
        with pytest.raises(MoneyParseError, match=re.escape(f"above 1000000000.00: {bad!r}")):
            parse_pence(bad)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_money_parse_str_roundtrip(p, q):
    assert parse_pence(format_pence(p + q)) == p + q


# ---------------------------------------------------------------------------
# Instants and calendar


def test_timestamp_iso_parse_variants():
    z, z_naive = parse_instant("2021-03-02T09:00:00Z")
    offset, offset_naive = parse_instant("2021-03-02T10:00:00+01:00")
    assert z == offset
    assert not z_naive and not offset_naive
    frac, frac_naive = parse_instant("2021-03-02T09:00:00.250Z")
    assert frac - z == 250
    assert not frac_naive
    assert format_instant(frac) == "2021-03-02T09:00:00.250Z"
    assert parse_instant(format_instant(frac)) == (frac, False)


def test_timestamp_naive_interpreted_utc():
    naive, was_naive = parse_instant("2021-03-02T09:00:00")
    assert was_naive
    assert naive == parse_instant("2021-03-02T09:00:00Z")[0]


def rewrite_then_parse(text: str) -> tuple[int, bool]:
    """parse_instant's slow path alone: strip, rewrite a Z suffix, fromisoformat;
    and the instants of UTC 0001-01-02 up to 9998-12-31, which every calendar dates."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = dt.datetime.fromisoformat(raw)
    naive = parsed.tzinfo is None
    ms = epoch_ms(parsed.replace(tzinfo=dt.timezone.utc) if naive else parsed)
    if not MS_FIRST <= ms <= MS_LAST:
        raise ValueError("outside the calendar")
    return ms, naive


def _iso_text(day, time, fraction, separator, basic, offset, pad):
    hour, minute, second = time
    if basic:
        date_text, time_text = day.strftime("%Y%m%d"), f"{hour:02d}{minute:02d}{second:02d}"
    else:
        date_text, time_text = day.isoformat(), f"{hour:02d}:{minute:02d}:{second:02d}"
    return f"{pad[0]}{date_text}{separator}{time_text}{fraction}{offset}{pad[1]}"


ISO_TEXTS = st.builds(
    _iso_text,
    st.dates(),
    st.tuples(st.integers(0, 24), st.integers(0, 60), st.integers(0, 60)),
    st.sampled_from(["", ".5", ".250", ".123456", ".1234567", ","]),
    st.sampled_from(["T", " ", "t", ""]),
    st.booleans(),
    st.sampled_from(
        ["", "Z", "z", "ZZ", "Zz", "+00:00", "-00:00", "+01:00", "-0530", "+14", "+00:00Z", "Z "]
    ),
    st.tuples(*[st.sampled_from(["", " ", "\t", "\n", "\u3000"])] * 2),
)


@given(st.one_of(ISO_TEXTS, st.text(alphabet="0123456789-+:.TZz WT", max_size=30)))
@example("2021-03-02T09:00:00.250Z")
@example("2021-03-02T09:00:00.250z")
@example(" 2021-03-02T09:00:00Z\n")
@example("20210302T090000Z")
@example("2021-03-02T09:00:00+01:00")
@example("2021-03-02Z")
def test_fromisoformat_first_accepts_what_the_rewrite_accepts(text):
    # parse_instant tries fromisoformat on the text as given before it strips
    # and rewrites; both paths must accept the same texts, with the same result
    try:
        want = rewrite_then_parse(text)
    except ValueError:
        want = None
    try:
        got = parse_instant(text)
    except RecordError:
        got = None
    assert got == want


def epoch_ms(moment: dt.datetime) -> int:
    return (moment - dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)) // dt.timedelta(milliseconds=1)


def utc_ms(*fields: int) -> int:
    return epoch_ms(dt.datetime(*fields, tzinfo=dt.timezone.utc))


MS_YEAR_1 = utc_ms(1, 1, 1)
MS_YEAR_1000 = utc_ms(1000, 1, 1)
MS_END = utc_ms(9999, 12, 31, 23, 59, 59, 999_000)  # the last millisecond of 9999
# the first and last instants the calendar dates: a day inside years 1-9998,
# so that no zone's local date leaves the years it can tabulate
MS_FIRST = utc_ms(1, 1, 2)
MS_LAST = utc_ms(9998, 12, 30, 23, 59, 59, 999_000)


@given(st.integers(MS_FIRST, MS_LAST))
@example(-1)
@example(0)
@example(MS_FIRST)
@example(MS_LAST)
def test_iso_round_trips_through_parse(ms):
    assert parse_instant(format_instant(ms)) == (ms, False)


@pytest.mark.parametrize("tz", ["Europe/London", "Pacific/Kiritimati", "Pacific/Pago_Pago"])
def test_parse_accepts_only_instants_the_calendar_dates(tz):
    # a 9999-12-31 null-date sentinel, or an instant before the zone's first
    # midnight of 0001, would make the calendar raise on a year 0 or 10000
    calendar = Calendar(tz)
    for ms in (MS_FIRST, MS_LAST):
        assert parse_instant(format_instant(ms)) == (ms, False)
        day, start, stop = calendar.day(ms)
        assert start <= ms < stop
        assert calendar.month(ms) == day.year * 12 + day.month - 1
    for ms in (MS_YEAR_1, MS_FIRST - 1, MS_LAST + 1, MS_END):
        text = format_instant(ms)
        with pytest.raises(RecordError, match=re.escape(f"outside the calendar: {text!r}")):
            parse_instant(text)


@given(st.integers(MS_YEAR_1, MS_END))
@example(-1)
@example(0)
@example(MS_YEAR_1)
@example(MS_END)
@example(utc_ms(2021, 3, 28, 23, 59, 59, 999_000))  # the last ms of a day
@example(utc_ms(2021, 3, 28, 12, 34, 59, 999_000))  # of a minute
@example(utc_ms(2021, 3, 28, 12, 34, 56, 999_000))  # of a second
@example(utc_ms(999, 12, 31, 23, 59, 59, 999_000))  # of a three-digit year
def test_iso_matches_datetime_isoformat(ms):
    moment = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc) + dt.timedelta(milliseconds=ms)
    assert format_instant(ms) == moment.isoformat(timespec="milliseconds")[:-6] + "Z"


@given(st.integers(MS_YEAR_1000, MS_END))
@example(-1)
def test_iso_matches_strftime_for_four_digit_years(ms):
    d = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc) + dt.timedelta(milliseconds=ms)
    want = d.strftime("%Y-%m-%dT%H:%M:%S.") + f"{d.microsecond // 1000:03d}Z"
    assert format_instant(ms) == want


def test_local_calendar_fields_respect_timezone():
    # 23:30 UTC on 30 June is 00:30 on 1 July in London (BST)
    ts = instant("2021-06-30T23:30:00Z")
    assert month_of(Calendar("Europe/London").day(ts)[0]) == month_index("2021-07")
    assert month_of(Calendar("UTC").day(ts)[0]) == month_index("2021-06")


def test_month_helpers():
    assert month_index("2021-01") + 1 == month_index("2021-02")
    assert month_add("2021-11", 3) == "2022-02"
    assert month_range("2021-11", "2022-01") == ["2021-11", "2021-12", "2022-01"]
    assert month_days("2021-03") == (dt.date(2021, 3, 1), dt.date(2021, 4, 1))
    assert month_days("2021-12") == (dt.date(2021, 12, 1), dt.date(2022, 1, 1))


def test_iso_week_helpers():
    # 2021-01-01 is a Friday in ISO week 2020-W53
    assert iso_week_label(dt.date(2021, 1, 1)) == "2020-W53"
    assert week_monday("2020-W53") == dt.date(2020, 12, 28)
    assert parse_iso_week("2021-W07") == (2021, 7)
    utc = Calendar("UTC")
    lo = utc.day(instant("2021-03-01T12:00:00Z"))[1]  # Monday of 2021-W09
    hi = utc.day(instant("2021-03-08T12:00:00Z"))[1]
    assert week_monday("2021-W09") == utc.day(lo)[0]
    assert hi - lo == 7 * 24 * 3600 * 1000


def test_week_window_dst_transition_is_not_168h():
    # clocks go forward 2021-03-28 in London; that week is an hour short
    london = Calendar("Europe/London")
    lo = london.day(instant("2021-03-22T12:00:00Z"))[1]
    hi = london.day(instant("2021-03-29T12:00:00Z"))[1]
    assert week_monday("2021-W12") == london.day(lo)[0]
    assert hi - lo == (7 * 24 - 1) * 3600 * 1000


# The calendar against zoneinfo. Lord Howe shifts by 30 minutes, at 02:00.
CALENDAR_ZONES = ("Europe/London", "America/New_York", "Australia/Lord_Howe")
CHANGES = {tz: offset_changes(tz) for tz in CALENDAR_ZONES}
CALENDARS = {tz: Calendar(tz) for tz in CALENDAR_ZONES}  # shared, as the pipeline's is


def check_calendar(tz: str, ms: int) -> None:
    zone = ZoneInfo(tz)

    def local(instant_ms: int) -> dt.datetime:
        return dt.datetime.fromtimestamp(instant_ms // 1000, zone)

    calendar = CALENDARS[tz]
    want = local(ms)
    day, start, stop = calendar.day(ms)
    assert day == want.date()
    # [start, stop) is exactly the run of instants whose local date is day
    assert start <= ms < stop
    assert local(start).date() == day > local(start - 1).date()
    assert local(stop - 1).date() == day < local(stop).date()
    assert month_label(month_of(day)) == f"{want.year:04d}-{want.month:02d}"
    year, week, weekday = want.isocalendar()
    assert iso_week_label(day) == f"{year:04d}-W{week:02d}"
    assert (day.year, day.weekday() + 1) == (want.year, weekday)
    assert calendar.hour(ms) == want.hour
    assert calendar.month(ms) == want.year * 12 + want.month - 1


def test_calendar_zones_change_offset_twice_a_year():
    for tz, changes in CHANGES.items():
        assert len(changes) == 2 * 51, tz


@pytest.mark.parametrize("tz", CALENDAR_ZONES)
def test_calendar_matches_zoneinfo_at_every_offset_change(tz):
    for change_s in CHANGES[tz]:
        for delta_ms in (-3_600_001, -1, 0, 1, 1_799_999, 3_600_000):
            check_calendar(tz, change_s * 1000 + delta_ms)


@pytest.mark.parametrize("tz", CALENDAR_ZONES)
def test_calendar_matches_zoneinfo_across_new_year(tz):
    # each year's dates are read in one piece, so step over the seams both ways
    zone = ZoneInfo(tz)
    for year in range(1990, 2042):
        new_year = epoch_ms(dt.datetime(year, 1, 1, tzinfo=zone))
        for ms in (new_year - 1, new_year, new_year - 1, new_year + 1):
            check_calendar(tz, ms)


@given(
    st.sampled_from(CALENDAR_ZONES).flatmap(
        lambda tz: st.tuples(
            st.just(tz),
            st.one_of(
                st.sampled_from(CHANGES[tz]).flatmap(
                    lambda s: st.integers(s * 1000 - 2 * DAY_S * 1000, s * 1000 + 2 * DAY_S * 1000)
                ),
                st.integers(S_1990 * 1000, S_2041 * 1000 - 1),
            ),
        )
    )
)
@settings(max_examples=500, deadline=None)
def test_calendar_matches_zoneinfo(zoned):
    check_calendar(*zoned)


def test_only_the_calendar_and_the_generator_import_zoneinfo():
    importers = set()
    for path in Path(fareaudit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "zoneinfo" for m in modules):
                importers.add(path.name)
    assert importers == {"model.py", "synthgen.py"}


# ---------------------------------------------------------------------------
# Eras


def test_era_partition():
    assert era_of(month_index("2022-01")) is Era.FIXED_COMMISSION
    assert era_of(month_index("2022-02")) is Era.OPAQUE_GAP
    assert era_of(month_index("2023-01")) is Era.OPAQUE_GAP
    assert era_of(month_index("2023-02")) is Era.DYNAMIC_PRICING


def era_at(text: str, boundaries: EraBoundaries = DEFAULT_ERAS) -> Era:
    """The era of an instant's local month."""
    return era_of(CALENDAR.month(instant(text)), boundaries)


def test_era_boundary_uses_local_month():
    # London is an hour ahead of UTC in summer, so a boundary month begins at
    # 23:00 UTC on the last day of the month before
    summer = EraBoundaries("2021-07", "2021-09")
    assert era_at("2021-06-30T22:59:59.999Z", summer) is Era.FIXED_COMMISSION
    assert era_at("2021-06-30T23:30:00Z", summer) is Era.OPAQUE_GAP
    assert era_at("2021-08-31T22:59:59.999Z", summer) is Era.OPAQUE_GAP
    assert era_at("2021-08-31T23:00:00Z", summer) is Era.DYNAMIC_PRICING
    # in winter London is on UTC, so the default boundaries start at UTC midnight
    assert era_at("2023-01-31T23:30:00Z") is Era.OPAQUE_GAP
    assert era_at("2022-01-31T23:30:00Z") is Era.FIXED_COMMISSION


ERA_MONTHS = month_range("2020-01", "2023-12")
TWO_DAYS_MS = 2 * 24 * 3_600_000


def utc_month_start_ms(label: str) -> int:
    year, month = (int(part) for part in label.split("-"))
    return utc_ms(year, month, 1)


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
    """Instants near the boundaries and the 2021 clock changes, through their local
    month, against month labels of zoneinfo's dates."""
    boundaries = EraBoundaries(*pair)
    if near == "opaque":
        centre = utc_month_start_ms(pair[0])
    elif near == "dynamic":
        centre = utc_month_start_ms(pair[1])
    else:
        centre = instant(near)
    ts = centre + offset_ms
    local = dt.datetime.fromtimestamp(ts // 1000, ZoneInfo(CALENDAR.tz))
    label = local.year * 12 + local.month - 1
    if label < month_index(pair[0]):
        expected = Era.FIXED_COMMISSION
    elif label < month_index(pair[1]):
        expected = Era.OPAQUE_GAP
    else:
        expected = Era.DYNAMIC_PRICING
    assert era_of(CALENDAR.month(ts), boundaries) is expected


def test_era_boundaries_validated():
    with pytest.raises(RecordError):
        EraBoundaries("2023-02", "2022-02")
    with pytest.raises(RecordError):
        EraBoundaries("2022-02", "2022-02")
    with pytest.raises(RecordError):
        EraBoundaries("2022-13", "2023-02")
    # boundaries far apart are months, not instants the calendar must date
    assert era_of(month_index("2023-01"), EraBoundaries("2022-02", "9999-01")) is Era.OPAQUE_GAP
    custom = EraBoundaries("2020-06", "2021-06")
    assert era_at("2020-07-15T12:00:00Z", custom) is Era.OPAQUE_GAP
    assert era_at("2021-06-15T12:00:00Z", custom) is Era.DYNAMIC_PRICING


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
        AppSession(at(5.0), at(5.0))


def test_profile_label_validation():
    from fareaudit.model import DriverProfile

    with pytest.raises(RecordError):
        DriverProfile(at(0.0), gender="X")
    with pytest.raises(RecordError):
        DriverProfile(at(0.0), age_band="13-19")
    p = DriverProfile(at(0.0), gender="F", age_band="30-39")
    assert p.age_band == "30-39"


# ---------------------------------------------------------------------------
# RPI series


def test_rpi_requires_contiguous_months():
    with pytest.raises(RecordError):
        RpiSeries({month_index("2021-01"): 1.0, month_index("2021-03"): 2.0})
    series = RpiSeries({month_index("2021-02"): 2.0, month_index("2021-01"): 1.0})
    assert list(series.yoy_pct) == [month_index("2021-01"), month_index("2021-02")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -100.0, -150.0])
def test_rpi_rejects_non_finite_or_total_deflation(bad):
    with pytest.raises(RecordError):
        RpiSeries({month_index("2021-01"): 1.0, month_index("2021-02"): bad})


def test_rpi_from_csv(tmp_path):
    path = tmp_path / "rpi.csv"
    path.write_text("month,yoy_pct\n2021-01,1.5\n2021-02,2.0\n")
    series = load_rpi(path)
    assert series.yoy_pct[month_index("2021-02")] == 2.0
