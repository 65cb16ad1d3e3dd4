import datetime as dt

from hypothesis import example, given, settings, strategies as st

from fareaudit.metrics import weekly_rows
from fareaudit.model import (
    ActivityState,
    AppSession,
    DispatchOffer,
    PaymentCategory,
    PaymentEvent,
    TripRecord,
    TripStatus,
    month_index,
)
from fareaudit.worktime import (
    Bucket,
    HoursDefinition,
    build_ledger,
    build_segments,
    hours_worked,
    merge_intervals,
    subtract_intervals,
    utilisation_daily,
)
from conftest import at, instant, london, london_midnight, segment, session, trip

MIN = 60_000
DAY = dt.timedelta(days=1)
BASE_WEEK = "2021-W09"  # the ISO week of conftest's base instant, Tuesday 2 March


def iso_label(monday: dt.date) -> str:
    year, number, _ = monday.isocalendar()
    return f"{year:04d}-W{number:02d}"


def london_week(monday: dt.date) -> tuple[int, int]:
    """The instants [Monday 00:00, next Monday 00:00) of an ISO week in London."""
    return london_midnight(monday), london_midnight(monday + 7 * DAY)


def london_month(year: int, month: int) -> tuple[int, int]:
    """The instants [1st 00:00, 1st of next month 00:00) of a month in London."""
    first = dt.date(year, month, 1)
    return london_midnight(first), london_midnight((first + 31 * DAY).replace(day=1))


def test_merge_intervals():
    assert merge_intervals([(5, 10), (0, 3), (9, 12), (3, 4)]) == [(0, 4), (5, 12)]
    assert merge_intervals([]) == []


def test_subtract_intervals():
    assert subtract_intervals([(0, 10)], [(2, 4), (6, 8)]) == [(0, 2), (4, 6), (8, 10)]
    assert subtract_intervals([(0, 10)], [(0, 10)]) == []
    assert subtract_intervals([(0, 10)], []) == [(0, 10)]
    assert subtract_intervals([(0, 5), (7, 9)], [(4, 8)]) == [(0, 4), (8, 9)]


@given(
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 50)), max_size=20),
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 50)), max_size=20),
)
def test_subtract_never_overlaps_holes(base_raw, holes_raw):
    base = [(s, s + d) for s, d in base_raw]
    holes = [(s, s + d) for s, d in holes_raw]
    out = subtract_intervals(merge_intervals(base), merge_intervals(holes))
    for s, e in out:
        assert s < e
        for hs, he in holes:
            assert e <= hs or he <= s


def test_timeline_states_partition_session():
    sessions = [session(0.0, 60.0)]
    trips = [trip(req=10.0, accept=11.0, pickup=15.0, dropoff=30.0)]
    tl = build_segments(sessions, trips)
    total = {s: 0 for s in ActivityState}
    for start, end, state in tl.segments:
        total[state] += end - start
    minute = 60_000
    assert total[ActivityState.EN_ROUTE] == 4 * minute  # accept..pickup
    assert total[ActivityState.ON_TRIP] == 15 * minute  # pickup..dropoff
    assert total[ActivityState.STANDBY] == 41 * minute  # the rest
    assert sum(total.values()) == 60 * minute
    assert not tl.orphan_trips


def test_segments_never_overlap():
    sessions = [session(0.0, 120.0)]
    trips = [
        trip(req=5.0, accept=6.0, pickup=10.0, dropoff=40.0),
        trip(req=35.0, accept=36.0, pickup=42.0, dropoff=70.0),  # en-route overlaps prior on-trip
    ]
    tl = build_segments(sessions, trips)
    spans = sorted(tl.segments)
    for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
        assert e1 <= s2
    on = sum(e - s for s, e, state in spans if state is ActivityState.ON_TRIP)
    assert on == (30 + 28) * 60_000  # on-trip time fully preserved


def test_orphan_trip_time_still_emitted():
    sessions = [session(0.0, 10.0)]
    trips = [trip(req=30.0, accept=31.0, pickup=33.0, dropoff=45.0)]
    tl = build_segments(sessions, trips)
    assert tl.orphan_trips == (trips[0],)
    on = [start for start, _end, state in tl.segments if state is ActivityState.ON_TRIP]
    assert on == [at(33.0)]


def test_trip_partly_inside_session_is_orphan():
    trips = [trip(req=49.0, accept=50.0, pickup=55.0, dropoff=70.0)]
    tl = build_segments([session(0.0, 60.0)], trips)
    assert len(tl.orphan_trips) == 1


def test_trip_across_touching_sessions_is_not_orphan():
    sessions = [session(0.0, 30.0), session(30.0, 60.0)]  # merge into one envelope
    tl = build_segments(sessions, [trip(req=19.0, accept=20.0, pickup=25.0, dropoff=40.0)])
    assert tl.orphan_trips == ()


def test_trip_across_session_gap_is_orphan():
    sessions = [session(0.0, 30.0), session(31.0, 60.0)]
    tl = build_segments(sessions, [trip(req=19.0, accept=20.0, pickup=25.0, dropoff=40.0)])
    assert len(tl.orphan_trips) == 1


def test_trip_equal_to_session_is_not_orphan():
    trips = [trip(req=9.0, accept=10.0, pickup=15.0, dropoff=40.0)]
    tl = build_segments([session(10.0, 40.0)], trips)
    assert tl.orphan_trips == ()


@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), max_size=6),
    st.lists(st.tuples(st.integers(0, 70), st.integers(0, 10), st.integers(1, 15)), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_orphans_match_minute_enumeration(sess_raw, trips_raw):
    sessions = [session(float(s), float(s + d)) for s, d in sess_raw if d > 0]
    trips = [
        trip(req=float(a), accept=float(a), pickup=float(a + en), dropoff=float(a + en + on))
        for a, en, on in trips_raw
    ]
    logged_in = {m for s, d in sess_raw for m in range(s, s + d)}
    want = tuple(
        t for t, (a, en, on) in zip(trips, trips_raw)
        if not all(m in logged_in for m in range(a, a + en + on))
    )
    assert build_segments(sessions, trips).orphan_trips == want


def test_cancelled_trip_contributes_en_route():
    sessions = [session(0.0, 60.0)]
    cancelled = trip(
        req=10.0, accept=12.0, pickup=20.0, dropoff=None,
        status=TripStatus.DRIVER_CANCELLED,
    )
    tl = build_segments(sessions, [cancelled])
    en = sum(end - start for start, end, state in tl.segments if state is ActivityState.EN_ROUTE)
    assert en == 8 * 60_000  # accept to last known point (pickup)


# Independent per-minute oracle for the timeline: each minute takes the
# strongest state that covers it, and every segment is non-empty.
@given(
    st.lists(st.tuples(st.integers(0, 120), st.integers(1, 40)), max_size=5),
    st.lists(
        st.tuples(st.integers(0, 110), st.integers(0, 15), st.integers(0, 25), st.booleans()),
        max_size=6,
    ),
)
@example([(0, 60)], [(10, 5, 20, False), (20, 10, 5, False)])  # en-route under on-trip
@example([(0, 30), (30, 30)], [(50, 5, 20, True)])  # touching sessions, cancelled trip
@settings(max_examples=200, deadline=None)
def test_segments_match_minute_oracle(sess_raw, trips_raw):
    sessions = [session(float(s), float(s + d)) for s, d in sess_raw]
    trips = [
        trip(
            req=float(a),
            accept=float(a),
            pickup=float(a + en),
            dropoff=None if cancelled else float(a + en + on),
            status=TripStatus.DRIVER_CANCELLED if cancelled else TripStatus.COMPLETED,
        )
        for a, en, on, cancelled in trips_raw
    ]
    want = {}
    for m in range(200):
        if any(a + en <= m < a + en + on for a, en, on, cancelled in trips_raw if not cancelled):
            want[m] = ActivityState.ON_TRIP
        elif any(a <= m < a + en for a, en, _on, _cancelled in trips_raw):
            want[m] = ActivityState.EN_ROUTE
        elif any(s <= m < s + d for s, d in sess_raw):
            want[m] = ActivityState.STANDBY

    got = {}
    base = at(0.0)
    for start, end, state in build_segments(sessions, trips).segments:
        assert start < end, "empty or inverted segment"
        assert (start - base) % MIN == 0 and (end - base) % MIN == 0
        for m in range((start - base) // MIN, (end - base) // MIN):
            assert m not in got, f"minute {m} in two segments"
            got[m] = state
    assert got == want


def test_hours_definitions():
    sessions = [session(0.0, 60.0)]
    trips = [trip(req=10.0, accept=11.0, pickup=15.0, dropoff=30.0)]
    ledger = build_ledger(build_segments(sessions, trips).segments, [], [], [])
    tribunal = hours_worked(ledger.weeks[BASE_WEEK], HoursDefinition.TRIBUNAL)
    platform = hours_worked(ledger.weeks[BASE_WEEK], HoursDefinition.PLATFORM)
    assert tribunal == 1.0
    assert platform == (4 + 15) / 60.0
    assert platform <= tribunal


def test_hours_clipped_to_period():
    sessions = [
        session(8040.0, 8220.0),  # 23:00 Sunday 7 March to 02:00 Monday (GMT)
        session(42540.0, 42720.0),  # 23:00 Wednesday 31 March to 02:00 Thursday (BST)
    ]
    ledger = build_ledger(build_segments(sessions, []).segments, [], [], [])
    weeks = {w: hours_worked(t, HoursDefinition.TRIBUNAL) for w, t in ledger.weeks.items()}
    months = {m: hours_worked(t, HoursDefinition.TRIBUNAL) for m, t in ledger.months.items()}
    assert weeks == {"2021-W09": 1.0, "2021-W10": 2.0, "2021-W13": 3.0}
    assert months == {month_index("2021-03"): 4.0, month_index("2021-04"): 2.0}


@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(10, 300)), min_size=1, max_size=8
    ),
    st.lists(
        st.tuples(st.integers(0, 700), st.integers(1, 5), st.integers(1, 5), st.integers(5, 60)),
        max_size=10,
    ),
)
@settings(max_examples=80, deadline=None)
def test_platform_hours_never_exceed_tribunal(sess_raw, trips_raw):
    sessions = []
    cursor = 0
    for gap, dur in sess_raw:
        cursor += gap + 1
        sessions.append(session(float(cursor), float(cursor + dur)))
        cursor += dur
    trips = []
    for off, wait, en, dur in trips_raw:
        trips.append(
            trip(
                req=float(off),
                accept=float(off + wait),
                pickup=float(off + wait + en),
                dropoff=float(off + wait + en + dur),
            )
        )
    ledger = build_ledger(build_segments(sessions, trips).segments, [], [], [])
    for totals in [*ledger.weeks.values(), *ledger.months.values()]:
        platform = hours_worked(totals, HoursDefinition.PLATFORM)
        tribunal = hours_worked(totals, HoursDefinition.TRIBUNAL)
        assert platform <= tribunal + 1e-12


def test_utilisation_counts_active_days():
    sessions = [session(0.0, 60.0), session(24 * 60.0, 24 * 60.0 + 120.0)]
    ledger = build_ledger(build_segments(sessions, []).segments, [], [], [])
    u = utilisation_daily(ledger.months[month_index("2021-03")])
    assert u.active_days == 2
    assert u.standby_hours == (1.0 + 2.0) / 2
    assert u.on_trip_hours == 0.0


def test_utilisation_empty_month():
    assert build_ledger([], [], [], []).months == {}
    # a month with a payment and no activity has a bucket, but no active day
    ledger = build_ledger([], [PaymentEvent(at(0.0), PaymentCategory.TIP, 100)], [], [])
    u = utilisation_daily(ledger.months[month_index("2021-03")])
    assert u.active_days == 0
    assert (u.standby_hours, u.en_route_hours, u.on_trip_hours) == (0.0, 0.0, 0.0)


def test_state_hours_breakdown():
    sessions = [session(0.0, 60.0)]
    trips = [trip(req=10.0, accept=11.0, pickup=15.0, dropoff=30.0)]
    ledger = build_ledger(build_segments(sessions, trips).segments, [], [], [])
    for totals in (ledger.weeks[BASE_WEEK], ledger.months[month_index("2021-03")]):
        assert totals.on_trip_ms == 15 * MIN
        assert totals.en_route_ms == 4 * MIN
        assert totals.standby_ms == 41 * MIN
        assert totals.pay is None
        assert totals.active_days == 1


def test_zero_pay_is_pay_but_makes_no_weekly_row():
    payments = [
        PaymentEvent(at(0.0), PaymentCategory.TIP, 500),
        PaymentEvent(at(60.0), PaymentCategory.ADJUSTMENT, -500),
    ]
    ledger = build_ledger([], payments, [], [])
    assert ledger.weeks[BASE_WEEK] == Bucket(pay=0)
    assert ledger.months[month_index("2021-03")] == Bucket(pay=0)
    assert weekly_rows(ledger) == ()


# Independent clip-and-sum oracle for hours: which states each definition
# counts is spelled out here rather than read from the module under test.
_ORACLE_STATES = {
    HoursDefinition.TRIBUNAL: {
        ActivityState.STANDBY, ActivityState.EN_ROUTE, ActivityState.ON_TRIP
    },
    HoursDefinition.PLATFORM: {ActivityState.EN_ROUTE, ActivityState.ON_TRIP},
}


def clip_and_sum_hours(segments, lo_ms, hi_ms, definition):
    total = 0
    for start, end, state in segments:
        if state in _ORACLE_STATES[definition]:
            total += max(0, min(end, hi_ms) - max(start, lo_ms))
    return total / 3_600_000


# Segments cross midnights, week and month ends and the 2021-03-28 clock
# change (26 days after the base); every week and month bucket is checked.
ORACLE_MONDAYS = [dt.date(2021, 2, 22) + k * 7 * DAY for k in range(8)]
ORACLE_MONTHS = [(2021, 2), (2021, 3), (2021, 4), (2021, 5)]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 30 * 24 * 60),
            st.integers(1, 3 * 24 * 60),
            st.sampled_from(list(ActivityState)),
        ),
        max_size=12,
    ),
)
@example([(26 * 24 * 60 - 600, 26 * 60, ActivityState.EN_ROUTE)])  # the 23-hour day
# unsorted and overlapping
@example([(2000, 600, ActivityState.ON_TRIP), (0, 2400, ActivityState.ON_TRIP)])
@settings(max_examples=300, deadline=None)
def test_hours_worked_matches_clip_and_sum(raw):
    segments = [segment(float(s), float(s + d), state) for s, d, state in raw]
    ledger = build_ledger(segments, [], [], [])
    periods = [(ledger.weeks, iso_label(monday), london_week(monday)) for monday in ORACLE_MONDAYS]
    periods += [
        (ledger.months, month_index(f"{y:04d}-{m:02d}"), london_month(y, m))
        for y, m in ORACLE_MONTHS
    ]
    for buckets, label, (lo, hi) in periods:
        want = {d: clip_and_sum_hours(segments, lo, hi, d) for d in HoursDefinition}
        if want[HoursDefinition.TRIBUNAL] == 0:
            assert label not in buckets
            continue
        for definition in HoursDefinition:
            assert hours_worked(buckets[label], definition) == want[definition], label


# Europe/London springs forward on Sunday 2021-03-28, the last day of 2021-W12.
WEEKS_BASE = instant("2021-03-15T00:00:00Z")  # Monday of 2021-W11


@given(
    st.lists(
        st.tuples(
            st.integers(0, 30 * 24 * 60),
            st.integers(1, 10 * 24 * 60),
            st.sampled_from(list(ActivityState)),
        ),
        min_size=1,
        max_size=10,
    )
)
@example([(13 * 24 * 60 + 30, 60, ActivityState.ON_TRIP)])  # across the 01:00 UTC clock change
@example([(14 * 24 * 60 - 90, 60, ActivityState.STANDBY)])  # across Monday 00:00 BST = 23:00 UTC
@example([(6 * 24 * 60, 9 * 24 * 60, ActivityState.STANDBY)])  # holds all of 2021-W12
@settings(max_examples=100, deadline=None)
def test_weekly_rows_hours_match_clip_and_sum(raw):
    segments = [
        (WEEKS_BASE + s * MIN, WEEKS_BASE + (s + d) * MIN, state)
        for s, d, state in raw
    ]
    want = {}
    monday = dt.date(2021, 3, 8)
    while monday < dt.date(2021, 5, 10):
        week = iso_label(monday)
        lo, hi = london_week(monday)
        tribunal = clip_and_sum_hours(segments, lo, hi, HoursDefinition.TRIBUNAL)
        platform = clip_and_sum_hours(segments, lo, hi, HoursDefinition.PLATFORM)
        if tribunal > 0:
            want[week] = (tribunal, platform)
        monday += dt.timedelta(days=7)
    rows = weekly_rows(build_ledger(segments, [], [], []))
    assert {
        week: (
            hours_worked(totals, HoursDefinition.TRIBUNAL),
            hours_worked(totals, HoursDefinition.PLATFORM),
        )
        for week, totals in rows
    } == want


# Both 2021 clock changes fall on a Sunday, the last day of an ISO week:
# 2021-03-28 four days before the end of March, 2021-10-31 the last day of
# October. Each anchor is a Friday 00:00 UTC two days before the change.
LEDGER_ANCHORS = (
    instant("2021-03-26T00:00:00Z"),
    instant("2021-10-29T00:00:00Z"),
)
LEDGER_WEEKS = ("2021-W11", "2021-W12", "2021-W13", "2021-W42", "2021-W43", "2021-W44")
LEDGER_MONTHS = ("2021-02", "2021-03", "2021-04", "2021-10", "2021-11")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(LEDGER_ANCHORS),
            st.integers(-2 * 24 * 60, 7 * 24 * 60),
            st.integers(1, 3 * 24 * 60),
            st.sampled_from(list(ActivityState)),
        ),
        max_size=10,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(LEDGER_ANCHORS),
            st.integers(-2 * 24 * 60, 9 * 24 * 60),
            st.integers(-5000, 5000),
        ),
        max_size=10,
    ),
)
@example([(LEDGER_ANCHORS[0], 2 * 24 * 60 + 30, 60, ActivityState.ON_TRIP)], [])  # 00:30-01:30 UTC
@example([(LEDGER_ANCHORS[1], 3 * 24 * 60 - 30, 60, ActivityState.STANDBY)], [])  # across 1 Nov
@example(
    [],
    [
        (LEDGER_ANCHORS[0], 3 * 24 * 60 - 30, 100),  # 00:30 BST on Monday 29 March
        (LEDGER_ANCHORS[1], 3 * 24 * 60 - 1, 200),  # 23:59 GMT on Sunday 31 October
        (LEDGER_ANCHORS[1], 3 * 24 * 60 + 30, 400),  # 00:30 GMT on Monday 1 November
    ],
)
@settings(max_examples=150, deadline=None)
def test_ledger_matches_clip_and_sum_across_clock_changes(raw_segments, raw_payments):
    segments = [
        (anchor + s * MIN, anchor + (s + d) * MIN, state)
        for anchor, s, d, state in raw_segments
    ]
    payments = [
        PaymentEvent(anchor + s * MIN, PaymentCategory.TIP, pence)
        for anchor, s, pence in raw_payments
    ]
    ledger = build_ledger(segments, payments, [], [])

    def want_ms(state, lo, hi):
        return sum(
            max(0, min(end, hi) - max(start, lo))
            for start, end, seg_state in segments
            if seg_state is state
        )

    def want_pay(lo, hi):
        pence = [p.amount for p in payments if lo <= p.ts < hi]
        return sum(pence) if pence else None

    weeks = [dt.date.fromisocalendar(int(w[:4]), int(w[6:]), 1) for w in LEDGER_WEEKS]
    months = [(int(m[:4]), int(m[5:])) for m in LEDGER_MONTHS]
    for buckets, label, (lo, hi) in [
        *((ledger.weeks, w, london_week(monday)) for w, monday in zip(LEDGER_WEEKS, weeks)),
        *(
            (ledger.months, month_index(m), london_month(*ym))
            for m, ym in zip(LEDGER_MONTHS, months)
        ),
    ]:
        got = buckets.get(label, Bucket())
        for state in ActivityState:
            assert getattr(got, f"{state.value}_ms") == want_ms(state, lo, hi), (label, state)
        assert got.pay == want_pay(lo, hi), label

    for month, ym in zip(LEDGER_MONTHS, months):
        lo, hi = london_month(*ym)
        active = set()
        for start, end, _state in segments:
            s = max(start, lo)
            e = min(end, hi)
            if e > s:
                day = london(s).date()
                while day <= london(e - 1).date():
                    active.add(day)
                    day += DAY
        assert ledger.months.get(month_index(month), Bucket()).active_days == len(active), month


def test_segment_spanning_a_whole_month_counts_in_it():
    whole_february = (
        instant("2021-01-31T12:00:00Z"),
        instant("2021-03-01T12:00:00Z"),
        ActivityState.STANDBY,
    )
    ledger = build_ledger([whole_february], [], [], [])
    u = utilisation_daily(ledger.months[month_index("2021-02")])
    assert u.active_days == 28
    assert u.standby_hours == 24.0


# Trips and offers drawn round both 2021 clock changes. A completed trip may
# drop off at exactly a London midnight, so its anchor date has none of its
# time; a cancelled trip may have no dropoff (dated by its request) and no
# segment at all. Sessions cover only some trips and offers.
TRIP_KINDS = ("completed", "dropoff_at_midnight", "cancelled_without_dropoff")


def drawn_trip(anchor: int, offset_min: int, on_trip_min: int, kind: str) -> TripRecord:
    at_ms = anchor + offset_min * MIN
    if kind == "cancelled_without_dropoff":
        return TripRecord(at_ms, at_ms + MIN, None, None, 0.0, TripStatus.RIDER_CANCELLED)
    dropoff = at_ms + (5 + on_trip_min) * MIN
    if kind == "dropoff_at_midnight":
        dropoff = london_midnight(london(at_ms).date())
    pickup = dropoff - on_trip_min * MIN
    return TripRecord(
        pickup - 5 * MIN, pickup - 4 * MIN, pickup, dropoff, 3.0, TripStatus.COMPLETED
    )


def london_month_index(ms: int) -> int:
    local = london(ms)
    return month_index(f"{local.year:04d}-{local.month:02d}")


COUNT_MINUTES = st.integers(-2 * 24 * 60, 9 * 24 * 60)


@given(
    st.lists(
        st.tuples(st.sampled_from(LEDGER_ANCHORS), COUNT_MINUTES, st.integers(1, 6 * 60)),
        max_size=4,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(LEDGER_ANCHORS),
            COUNT_MINUTES,
            st.integers(1, 90),
            st.sampled_from(TRIP_KINDS),
        ),
        max_size=10,
    ),
    st.lists(
        st.tuples(st.sampled_from(LEDGER_ANCHORS), COUNT_MINUTES, st.booleans()), max_size=10
    ),
)
# on the trip's own time the clocks go back; it drops off at 00:00 GMT on
# Monday 1 November, which opens a month and an ISO week holding no time
@example([], [(LEDGER_ANCHORS[1], 3 * 24 * 60 + 30, 30, "dropoff_at_midnight")], [])
# a cancelled trip and offers on both clock-change days, outside every session
@example(
    [(LEDGER_ANCHORS[0], 0, 60)],
    [(LEDGER_ANCHORS[0], 2 * 24 * 60 + 90, 1, "cancelled_without_dropoff")],
    [(LEDGER_ANCHORS[0], 2 * 24 * 60 + 59, True), (LEDGER_ANCHORS[1], 2 * 24 * 60 + 61, False)],
)
@settings(max_examples=150, deadline=None)
def test_ledger_counts_trips_and_offers_by_local_month(raw_sessions, raw_trips, raw_offers):
    sessions = [AppSession(a + s * MIN, a + (s + d) * MIN) for a, s, d in raw_sessions]
    trips = [drawn_trip(*raw) for raw in raw_trips]
    offers = [DispatchOffer(a + s * MIN, accepted) for a, s, accepted in raw_offers]
    segments = build_segments(sessions, trips).segments
    ledger = build_ledger(segments, [], trips, offers)

    want: dict[int, list[int]] = {}  # month -> trips, completed, offered, accepted
    for t in trips:
        anchor = t.request_ts if t.dropoff_ts is None else t.dropoff_ts
        counts = want.setdefault(london_month_index(anchor), [0, 0, 0, 0])
        counts[0] += 1
        counts[1] += t.status is TripStatus.COMPLETED
    for o in offers:
        counts = want.setdefault(london_month_index(o.offered_ts), [0, 0, 0, 0])
        counts[2] += 1
        counts[3] += o.accepted
    got = {
        month: [b.trips, b.completed, b.offered, b.accepted]
        for month, b in ledger.months.items()
        if b.trips or b.offered
    }
    assert got == want
    assert sum(b.trips for b in ledger.weeks.values()) == len(trips)
    assert sum(b.offered for b in ledger.weeks.values()) == len(offers)

    # only London dates holding segment time are active days or make weekly rows
    active = set()
    for start, end, _state in segments:
        day = london(start).date()
        while day <= london(end - 1).date():
            active.add(day)
            day += DAY
    active_months = {month_index(f"{d.year:04d}-{d.month:02d}") for d in active}
    assert set(ledger.months) == active_months | set(want)
    for month, bucket in ledger.months.items():
        assert bucket.active_days == sum(
            1 for d in active if month_index(f"{d.year:04d}-{d.month:02d}") == month
        ), month
    assert {week for week, _ in weekly_rows(ledger)} == {iso_label(d) for d in active}
