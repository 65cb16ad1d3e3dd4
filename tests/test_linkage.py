import pytest
from hypothesis import given, settings, strategies as st

from fareaudit.linkage import link
from fareaudit.metrics import TripColumns
from fareaudit.model import (
    AuditError,
    PaymentCategory,
    TripStatus,
)
from conftest import at, instant, payment, trip


def test_basic_pairing_within_window():
    t = trip(dropoff=20.0)
    p = payment(ts_min=21.0)
    result = link([t], [p])
    assert len(result.linked) == 1
    assert result.linked[0].driver_total == 750
    assert not result.unmatched_trips and not result.unmatched_payments


def test_payment_outside_window_unmatched():
    result = link([trip(dropoff=20.0)], [payment(ts_min=40.0)], window_s=600)
    assert len(result.linked) == 0
    assert len(result.unmatched_payments) == 1
    assert len(result.unmatched_trips) == 1


def test_nearest_dropoff_wins():
    t1 = trip(req=0.0, accept=1.0, pickup=5.0, dropoff=20.0)
    t2 = trip(req=30.0, accept=31.0, pickup=35.0, dropoff=50.0)
    p = payment(ts_min=48.0)
    result = link([t1, t2], [p])
    matched = [lt for lt in result.linked if lt.earnings]
    assert len(matched) == 1
    assert matched[0].trip == t2


def test_tie_goes_to_earlier_dropoff():
    t1 = trip(req=0.0, accept=1.0, pickup=5.0, dropoff=20.0)
    t2 = trip(req=21.0, accept=22.0, pickup=25.0, dropoff=30.0)
    p = payment(ts_min=25.0)  # equidistant: 5 min from both dropoffs
    result = link([t1, t2], [p])
    matched = [lt for lt in result.linked if lt.earnings]
    assert matched[0].trip == t1


def test_multiple_payments_one_trip():
    t = trip()
    parts = [payment(ts_min=21.0, amount="5.00"), payment(ts_min=22.0, amount="2.50")]
    result = link([t], parts)
    assert len(result.linked) == 1
    assert result.linked[0].driver_total == 750


def test_non_earnings_categories_ignored():
    t = trip()
    tip = payment(ts_min=21.0, amount="1.00", category=PaymentCategory.TIP)
    result = link([t], [tip])
    assert len(result.linked) == 0
    assert len(result.unmatched_payments) == 0  # tips are not candidates at all


def test_cancelled_trips_not_candidates():
    cancelled = trip(req=19.0, accept=20.0, pickup=None, dropoff=None,
                     status=TripStatus.RIDER_CANCELLED)
    p = payment(ts_min=21.0)
    result = link([cancelled, trip()], [p])
    matched = [lt for lt in result.linked if lt.earnings]
    assert matched and matched[0].trip.status is TripStatus.COMPLETED


def test_window_must_be_positive():
    with pytest.raises(AuditError):
        link([], [], window_s=0)


def test_share_computed_fixed_era():
    result = link([trip(fare="10.00")], [payment(amount="7.50")])
    lt = result.linked[0]
    assert lt.driver_share == 0.75


def test_share_none_in_opaque_gap():
    """The audit holds no share for an opaque-gap trip; linkage still counts its pay."""
    shifted = instant("2022-06-01T09:00:00Z") - at(0.0)
    opaque_trip = trip(
        req=shifted / 60000.0,
        accept=shifted / 60000.0 + 1,
        pickup=shifted / 60000.0 + 5,
        dropoff=shifted / 60000.0 + 20,
    )
    p = payment(ts_min=shifted / 60000.0 + 21)
    result = link([opaque_trip], [p])
    lt = result.linked[0]
    assert lt.driver_total == 750  # pay still counted
    # linkage knows no eras; the audit's columns leave the gap's share out
    assert lt.driver_share == 0.75
    assert len(TripColumns.from_linked([lt])) == 0


def test_share_none_when_fare_missing():
    for fare in (None, "0.00", "-5.00"):
        (lt,) = link([trip(fare=fare)], [payment()]).linked
        assert lt.driver_share is None, fare
        assert lt.driver_total == 750  # pay still counted


def test_split_fraction_zero_fare_rejected():
    # a zero fare is no denominator: the split is refused, not divided by zero
    (lt,) = link([trip(fare="0.00")], [payment(amount="1.00")]).linked
    assert lt.trip.original_fare == 0
    assert lt.driver_share is None
    assert lt.driver_total == 100


def test_share_above_one_when_pay_tops_fare():
    (lt,) = link([trip(fare="10.00")], [payment(amount="11.00")]).linked
    assert lt.driver_share == 1.1


@given(st.integers(1, 500000), st.integers(0, 750000))
@settings(max_examples=60, deadline=None)
def test_share_is_pay_over_fare(fare_pence, pay_pence):
    t = trip(fare=f"{fare_pence / 100:.2f}")
    (lt,) = link([t], [payment(amount=f"{pay_pence / 100:.2f}")]).linked
    assert lt.driver_share == pay_pence / fare_pence


@given(
    st.lists(
        st.tuples(st.integers(0, 6000), st.integers(5, 40), st.integers(1, 30)),
        min_size=1,
        max_size=25,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_link_permutation_invariant(raw, rnd):
    trips = []
    payments = []
    cursor = 0
    for gap, dur, pay_off in raw:
        cursor += gap + 60
        trips.append(
            trip(req=cursor, accept=cursor + 1, pickup=cursor + 2, dropoff=cursor + 2 + dur)
        )
        payments.append(payment(ts_min=cursor + 2 + dur + pay_off / 10.0))
        cursor += 2 + dur
    base = link(trips, payments)
    shuffled_t = list(trips)
    shuffled_p = list(payments)
    rnd.shuffle(shuffled_t)
    rnd.shuffle(shuffled_p)
    perm = link(shuffled_t, shuffled_p)
    assert base.linked == perm.linked
    assert set(base.unmatched_payments) == set(perm.unmatched_payments)


@given(
    st.lists(
        st.tuples(st.integers(0, 3000), st.integers(5, 40), st.integers(-500, 500)),
        min_size=1,
        max_size=20,
    ),
    st.integers(1, 600),
    st.integers(1, 600),
)
@settings(max_examples=60, deadline=None)
def test_unmatched_monotone_under_window_shrink(raw, w1, w2):
    small, big = sorted((w1, w2))
    trips = []
    payments = []
    cursor = 0
    for gap, dur, pay_off in raw:
        cursor += gap + 60
        trips.append(
            trip(req=cursor, accept=cursor + 1, pickup=cursor + 2, dropoff=cursor + 2 + dur)
        )
        payments.append(payment(ts_min=cursor + 2 + dur + pay_off / 60.0))
        cursor += 2 + dur
    r_small = link(trips, payments, window_s=small)
    r_big = link(trips, payments, window_s=big)
    assert len(r_small.unmatched_payments) >= len(r_big.unmatched_payments)
    # every payment matched under the small window stays matched under the big
    matched_small = {
        p for lt in r_small.linked for p in lt.earnings
    }
    matched_big = {p for lt in r_big.linked for p in lt.earnings}
    assert matched_small <= matched_big


def test_payment_never_double_assigned():
    trips = [
        trip(req=0.0, accept=1.0, pickup=2.0, dropoff=10.0),
        trip(req=10.5, accept=11.0, pickup=12.0, dropoff=20.0),
    ]
    p = payment(ts_min=15.0)
    result = link(trips, [p])
    owners = [lt for lt in result.linked if p in lt.earnings]
    assert len(owners) == 1


def test_split_on_linked_trip():
    result = link([trip(fare="20.00")], [payment(amount="15.00")])
    assert result.linked[0].driver_share == 0.75
    (opaque,) = link([trip(fare=None)], [payment(amount="15.00")]).linked
    assert opaque.driver_share is None
