import warnings
from dataclasses import replace

import numpy as np
import pytest

from fareaudit.linkage import LinkedTrip
from fareaudit.model import AuditError, TripRecord, TripStatus
from fareaudit.predictability import (
    DegenerateColumn,
    FeatureSchema,
    build_schema,
    feature_blocks,
    featurize,
    fit_ols,
    r2,
    stack_blocks,
    year_matrix,
)
from conftest import instant, london, trip

MIN = 60_000


def make_linked(
    iso: str,
    on_min: float = 20.0,
    en_min: float = 4.0,
    wait_min: float = 1.0,
    dist: float = 5.0,
    pay: float = 15.0,
    product: str = "standard",
    origin: str = "zone-1",
) -> LinkedTrip:
    t0 = instant(iso)
    t = TripRecord(
        driver_id="d1",
        request_ts=t0,
        accept_ts=t0 + round(wait_min * MIN),
        pickup_ts=t0 + round((wait_min + en_min) * MIN),
        dropoff_ts=t0 + round((wait_min + en_min + on_min) * MIN),
        distance_miles=dist,
        status=TripStatus.COMPLETED,
        original_fare=None,
        origin_tag=origin,
        dest_tag="zone-2",
        product=product,
    )
    return LinkedTrip(
        trip=t,
        earnings=(),
        driver_total=round(pay * 100),
        rider_fare=None,
        driver_share=None,
        platform_share=None,
    )


def test_schema_dimension():
    schema = FeatureSchema(products=("comfort", "standard"))
    # 12 numerics + 7 flags + 24 hours + 7 dows + 12 months + 2 products
    assert schema.dim == 64
    assert len(schema.names) == len(set(schema.names))


def test_featurize_known_values():
    lt = make_linked(
        "2021-07-03T08:30:00Z",  # Saturday, 09:30 London (BST), peak-am hour
        on_min=20.0, en_min=4.0, wait_min=1.0, dist=5.0, pay=15.0,
        origin="heathrow-airport",
    )
    values, codes, y = featurize(lt)
    assert y == 15.0
    assert codes == (9, 5, 6)  # hour, weekday (Monday 0), month - 1
    schema, matrices = stack_blocks([feature_blocks([lt])])
    (vec,), (target,) = matrices[2021]
    assert target == y
    v = dict(zip(schema.names, vec))
    assert tuple(vec[: len(values)]) == values
    assert vec[len(values):].sum() == 4.0  # the hour, weekday, month and product one-hots
    assert v["on_trip_minutes"] == pytest.approx(20.0)
    assert v["en_route_minutes"] == pytest.approx(4.0)
    assert v["wait_minutes"] == pytest.approx(1.0)
    assert v["distance_miles"] == 5.0
    assert v["speed_mph"] == pytest.approx(15.0)  # 5 miles in 20 min
    assert v["is_airport_origin"] == 1.0 and v["is_airport_any"] == 1.0
    assert v["is_weekend"] == 1.0
    assert v["is_peak_morning"] == 1.0  # pickup 09:35 local
    assert v["hour_09"] == 1.0
    assert v["dow_sat"] == 1.0
    assert v["month_07"] == 1.0
    assert v["product_standard"] == 1.0


def test_featurize_rejects_incomplete():
    bad = LinkedTrip(
        trip=trip(pickup=None, dropoff=None, status=TripStatus.RIDER_CANCELLED),
        earnings=(), driver_total=100, rider_fare=None,
        driver_share=None, platform_share=None,
    )
    from fareaudit.predictability import IncompleteTrip

    with pytest.raises(IncompleteTrip):
        featurize(bad)


def rand_linked(rng, n, year=2021, coef=None):
    out = []
    for i in range(n):
        on = float(rng.uniform(5, 60))
        en = float(rng.uniform(2, 15))
        wait = float(rng.uniform(0.2, 3))
        dist = float(rng.uniform(0.5, 20))
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 28))
        hour = int(rng.integers(0, 24))
        iso = f"{year}-{month:02d}-{day:02d}T{hour:02d}:15:00Z"
        if coef is None:
            pay = float(rng.uniform(5, 40))
        else:
            a, b, c = coef
            pay = a + b * on + c * dist
        out.append(make_linked(iso, on, en, wait, dist, pay))
    return out


def test_ols_recovers_exact_linear_coefficients():
    # identifiable design: independent columns, exact linear response
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 25))
    w = rng.normal(size=25)
    y = X @ w + 4.0
    model = fit_ols(X, y)
    assert np.abs(model.coefficients - w).max() < 1e-6
    assert model.intercept == pytest.approx(4.0, abs=1e-6)
    assert r2(model, X, y) == pytest.approx(1.0, abs=1e-9)


def test_ols_predicts_through_collinear_schema():
    # the trip schema's one-hot blocks are collinear with the intercept, so
    # individual coefficients are not identifiable there; predictions are
    rng = np.random.default_rng(0)
    linked = rand_linked(rng, 400, coef=(2.5, 0.3, 0.8))
    schema, matrices = stack_blocks([feature_blocks(linked)])
    X, y = matrices[2021]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateColumn)
        model = fit_ols(X, y, schema.names)
    by_name = dict(zip(schema.names, model.coefficients))
    assert by_name["on_trip_minutes"] == pytest.approx(0.3, abs=1e-2)
    assert np.abs(model.predict(X) - y).max() < 1e-1
    assert r2(model, X, y) > 0.999999


def test_ols_agrees_with_pinv_oracle():
    rng = np.random.default_rng(1)
    for _ in range(3):
        X = rng.normal(size=(300, 40))
        beta = rng.normal(size=40)
        y = X @ beta + rng.normal(scale=0.5, size=300)
        model = fit_ols(X, y)
        # oracle: pseudo-inverse on the centered design with intercept column
        Xa = np.hstack([np.ones((len(y), 1)), X])
        w = np.linalg.pinv(Xa) @ y
        resid_oracle = y - Xa @ w
        ss_res = float(resid_oracle @ resid_oracle)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2_oracle = 1.0 - ss_res / ss_tot
        assert r2(model, X, y) == pytest.approx(r2_oracle, abs=1e-6)


def test_zero_variance_columns_dropped_with_warning():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 5))
    X[:, 3] = 7.0  # constant column
    y = X[:, 0] * 2.0 + 1.0
    with pytest.warns(DegenerateColumn):
        model = fit_ols(X, y)
    assert "x3" in model.dropped
    assert model.coefficients[3] == 0.0
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)


def test_underdetermined_rejected():
    from fareaudit.predictability import Underdetermined

    with pytest.raises(Underdetermined):
        fit_ols(np.ones((2, 5)), np.ones(2))


def test_year_matrix_requires_two_years():
    rng = np.random.default_rng(3)
    with pytest.raises(AuditError):
        year_matrix([feature_blocks(rand_linked(rng, 50, year=2021))])


def test_year_matrix_shape_and_seeding():
    rng = np.random.default_rng(4)
    linked = rand_linked(rng, 300, 2020, coef=(1.0, 0.5, 0.2)) + rand_linked(
        rng, 300, 2021, coef=(1.0, 0.5, 0.2)
    )
    blocks = [feature_blocks(linked)]
    m1 = year_matrix(blocks, seed=7)
    m2 = year_matrix(blocks, seed=7)
    assert m1.cells == m2.cells
    m3 = year_matrix(blocks, seed=8)
    assert m1.cells[(2021, 0)] != m3.cells[(2021, 0)]  # different test split
    assert m1.test_years == (2020, 2021)
    assert set(m1.cells) == {(2020, 0), (2021, 0), (2021, 1)}
    # exact linear, stationary: every populated cell near 1
    for value in m1.cells.values():
        assert value is not None and value > 0.999


def test_cumulative_mode_trains_on_more_rows():
    rng = np.random.default_rng(5)
    linked = (
        rand_linked(rng, 250, 2019, coef=(1, 0.4, 0.1))
        + rand_linked(rng, 250, 2020, coef=(1, 0.4, 0.1))
        + rand_linked(rng, 250, 2021, coef=(1, 0.4, 0.1))
    )
    blocks = [feature_blocks(linked)]
    single = year_matrix(blocks, mode="single_year", seed=0)
    cumulative = year_matrix(blocks, mode="cumulative", seed=0)
    assert cumulative.counts[(2021, 1)][0] > single.counts[(2021, 1)][0]
    assert cumulative.counts[(2021, 0)][0] > single.counts[(2021, 0)][0]


def test_year_matrix_csv_layout():
    rng = np.random.default_rng(6)
    linked = rand_linked(rng, 200, 2020, coef=(1, 0.4, 0.1)) + rand_linked(
        rng, 200, 2021, coef=(1, 0.4, 0.1)
    )
    out = year_matrix([feature_blocks(linked)]).to_csv()
    lines = out.strip().split("\n")
    assert lines[0] == "test_year,Y,Y-1"
    assert lines[1].startswith("2020,")
    assert lines[2].startswith("2021,")


def test_stacked_blocks_equal_the_fleet_feature_matrix():
    # two drivers with different product sets, one trip without a product:
    # the stacked blocks must carry the one-hot columns of the fleet schema
    rng = np.random.default_rng(9)
    first = rand_linked(rng, 40, 2020) + rand_linked(rng, 40, 2021)
    second = rand_linked(rng, 40, 2020) + rand_linked(rng, 40, 2021)
    first = [
        replace(lt, trip=replace(lt.trip, product=("comfort", "standard")[i % 2]))
        for i, lt in enumerate(first)
    ]
    second = [
        replace(lt, trip=replace(lt.trip, driver_id="d2", product=("xl", "", "standard")[i % 3]))
        for i, lt in enumerate(second)
    ]
    everyone = first + second
    schema, matrices = stack_blocks([feature_blocks(first), feature_blocks(second)])
    want_schema = build_schema(everyone)
    assert schema.names == want_schema.names
    assert sorted(matrices) == [2020, 2021]
    for year, (X, y) in matrices.items():
        group = [lt for lt in everyone if london(lt.trip.dropoff_ts).year == year]
        want = [full_row(lt, want_schema) for lt in group]
        assert np.array_equal(X, np.array([row for row, _ in want]))
        assert np.array_equal(y, np.array([target for _, target in want]))


def full_row(lt: LinkedTrip, schema: FeatureSchema) -> tuple[list[float], float]:
    """One trip's schema row, its one-hots set by column name."""
    values, (hour, dow, month), y = featurize(lt)
    row = dict.fromkeys(schema.names, 0.0)
    row.update(zip(schema.names, values))
    row[f"hour_{hour:02d}"] = 1.0
    row[("dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun")[dow]] = 1.0
    row[f"month_{month + 1:02d}"] = 1.0
    if lt.trip.product:
        row[f"product_{lt.trip.product}"] = 1.0
    return list(row.values()), y

