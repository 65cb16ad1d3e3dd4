import pickle
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fareaudit.linkage import LinkedTrip
from fareaudit.model import DEFAULT_ERAS, AuditError, EraBoundaries, TripRecord, TripStatus
from fareaudit.predictability import (
    FeatureBlocks,
    FeatureSchema,
    feature_blocks,
    featurize,
    fit_ols,
    r2,
    stack_blocks,
    year_matrix,
)
from fareaudit.report import AuditOptions, process_bundle
from fareaudit.synthgen import GenConfig, generate
from conftest import instant, london, trip

MIN = 60_000

# the schema's column names, in its order, written out apart from the package
NUMERIC_NAMES = (
    "on_trip_minutes",
    "en_route_minutes",
    "distance_miles",
    "wait_minutes",
    "speed_mph",
    "distance_sq",
    "duration_sq",
    "log_distance",
    "log_duration",
    "duration_x_distance",
    "distance_x_weekend",
    "duration_x_peak",
    "is_airport_origin",
    "is_airport_dest",
    "is_airport_any",
    "is_weekend",
    "is_peak_morning",
    "is_peak_evening",
    "is_night",
)
DOW_NAMES = ("dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun")


def schema_names(schema: FeatureSchema) -> tuple[str, ...]:
    return (
        NUMERIC_NAMES
        + tuple(f"hour_{h:02d}" for h in range(24))
        + DOW_NAMES
        + tuple(f"month_{m:02d}" for m in range(1, 13))
        + tuple(f"product_{p}" for p in schema.products)
    )


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
    return LinkedTrip(trip=t, earnings=(), driver_total=round(pay * 100), driver_share=None)


def test_schema_dimension():
    schema = FeatureSchema(products=("comfort", "standard"))
    # 12 numerics + 7 flags + 24 hours + 7 dows + 12 months + 2 products
    assert schema.dim == 64 == len(schema_names(schema))
    assert len(set(schema_names(schema))) == 64


def test_featurize_known_values():
    lt = make_linked(
        "2021-07-03T08:30:00Z",  # Saturday, 09:30 London (BST), peak-am hour
        on_min=20.0, en_min=4.0, wait_min=1.0, dist=5.0, pay=15.0,
        origin="heathrow-airport",
    )
    values, codes, y = featurize(lt)
    assert y == 15.0
    assert codes == (9, 5, 6)  # hour, weekday (Monday 0), month - 1
    schema, Y, spans, dense = stack_blocks([feature_blocks([lt])])
    assert spans == {2021: (0, 1)}
    (vec,), (target,) = dense(slice(None)), Y
    assert target == y
    v = dict(zip(schema_names(schema), vec))
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
        earnings=(), driver_total=100, driver_share=None,
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
    schema, y, _, dense = stack_blocks([feature_blocks(linked)])
    X = dense(slice(None))
    model = fit_ols(X, y)
    by_name = dict(zip(schema_names(schema), model.coefficients))
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


def test_zero_variance_columns_get_zero_coefficients():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 5))
    X[:, 3] = 7.0  # constant column
    y = X[:, 0] * 2.0 + 1.0
    model = fit_ols(X, y)
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


def test_feature_blocks_do_not_depend_on_era_boundaries(tmp_path):
    # 2022-01..2023-03 crosses both default boundaries; the moved ones put
    # every month of the fleet in a different era
    config = GenConfig(
        seed=23, n_drivers=2, first_month="2022-01", last_month="2023-03",
        work_prob=0.2, session_min_h=1.0, session_max_h=2.0,
    )
    generate(config, tmp_path)
    moved = EraBoundaries("2022-11", "2022-12")
    for driver_id in ("driver000", "driver001"):
        directory = str(tmp_path / driver_id)
        default, shifted = (
            process_bundle(directory, AuditOptions(eras=eras, features_only=True))
            for eras in (DEFAULT_ERAS, moved)
        )
        assert isinstance(default, FeatureBlocks)
        assert set(default.arrays) == {2022, 2023}
        assert shifted.products == default.products
        assert shifted.arrays.keys() == default.arrays.keys()
        for year, arrays in default.arrays.items():
            got = shifted.arrays[year]
            assert [a.typecode for a in got] == [a.typecode for a in arrays]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]


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
        replace(lt, trip=replace(lt.trip, product=("xl", "", "standard")[i % 3]))
        for i, lt in enumerate(second)
    ]
    everyone = first + second
    schema, y, spans, dense = stack_blocks([feature_blocks(first), feature_blocks(second)])
    want_schema = FeatureSchema(tuple(sorted({lt.trip.product for lt in everyone} - {""})))
    assert schema == want_schema
    # one fleet: each year's rows follow the last year's, in block then link order
    assert spans == {2020: (0, 80), 2021: (80, 160)}
    X = dense(slice(None))
    assert X.shape == (160, schema.dim) and y.shape == (160,)
    for year, (start, stop) in spans.items():
        group = [lt for lt in everyone if london(lt.trip.dropoff_ts).year == year]
        want = [full_row(lt, want_schema) for lt in group]
        assert np.array_equal(X[start:stop], np.array([row for row, _ in want]))
        assert np.array_equal(y[start:stop], np.array([target for _, target in want]))
    # a run of rows and an index array give the same rows as the whole fleet
    assert np.array_equal(dense(slice(70, 90)), X[70:90])
    picked = np.array([159, 3, 80, 3])
    assert np.array_equal(dense(picked), X[picked])


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
INT32_EDGES = st.sampled_from([-(2**31), -1, 0, 2**31 - 1])


@st.composite
def stdlib_blocks(draw):
    """A FeatureBlocks made straight from drawn values, edge cases included."""
    years = {}
    for year in draw(st.sets(st.integers(2000, 2030), max_size=3)):
        n = draw(st.integers(0, 4))
        values = st.one_of(EDGE_FLOATS, st.floats(allow_subnormal=True))
        X = array("d", draw(st.lists(values, min_size=19 * n, max_size=19 * n)))
        y = array("d", draw(st.lists(values, min_size=n, max_size=n)))
        codes = st.one_of(INT32_EDGES, st.integers(-(2**31), 2**31 - 1))
        years[year] = (X, y, array("i", draw(st.lists(codes, min_size=4 * n, max_size=4 * n))))
    return FeatureBlocks(tuple(draw(st.lists(st.text(max_size=3), max_size=3))), years)


@given(stdlib_blocks())
def test_feature_blocks_keep_every_bit_through_pickle(blocks):
    copy = pickle.loads(pickle.dumps(blocks))
    assert copy.products == blocks.products
    assert copy.arrays.keys() == blocks.arrays.keys()
    for year, arrays in blocks.arrays.items():
        got = copy.arrays[year]
        assert [a.typecode for a in got] == ["d", "d", "i"]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
        # the numpy views read the same bytes, one row per trip
        X, y, codes = copy.years[year]
        assert X.shape == (len(y), 19) and codes.shape == (len(y), 4)
        assert [v.tobytes() for v in (X, y, codes)] == [a.tobytes() for a in arrays]


def matrix_as_built_before(blocks):
    """The dense fleet matrix as it was built before the fleet was kept compact:
    zeros, the numeric features copied in and each one-hot set, block by block."""
    schema = FeatureSchema(tuple(sorted({p for b in blocks for p in b.products})))
    sizes = {}
    for b in blocks:
        for year, (_, y, _) in b.years.items():
            sizes[year] = sizes.get(year, 0) + len(y)
    spans, n = {}, 0
    for year, size in sorted(sizes.items()):
        spans[year] = (n, n + size)
        n += size
    fleet_X, fleet_y = np.zeros((n, schema.dim)), np.empty(n)
    filled = {year: start for year, (start, _) in spans.items()}
    bases = np.array([19, 19 + 24, 19 + 24 + 7])
    for b in blocks:
        column = np.array([schema.product_column[p] for p in b.products], dtype=np.intp)
        for year, (X, y, codes) in b.years.items():
            lo = filled[year]
            filled[year] = hi = lo + len(y)
            full = fleet_X[lo:hi]
            full[:, :19] = X
            rows = np.arange(len(y))
            full[rows[:, None], bases + codes[:, :3]] = 1.0
            has = np.flatnonzero(codes[:, 3] >= 0)
            full[has, column[codes[has, 3]]] = 1.0
            fleet_y[lo:hi] = y
    return schema, fleet_X, fleet_y, spans


TRIPS = st.lists(
    st.tuples(
        st.sampled_from([2019, 2020, 2021]),
        st.integers(1, 12),
        st.integers(1, 28),
        st.integers(0, 23),
        st.floats(0.5, 90),
        st.floats(0.0, 30),
        st.sampled_from(["", "comfort", "standard", "xl"]),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(TRIPS, min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_dense_compact_fleet_equals_the_matrix_built_before(fleets, rnd):
    blocks = [
        feature_blocks(
            [
                make_linked(f"{y}-{m:02d}-{d:02d}T{h:02d}:15:00Z", on, 4.0, 1.0, dist, product=p)
                for y, m, d, h, on, dist, p in trips
            ]
        )
        for trips in fleets
    ]
    want_schema, want_X, want_y, want_spans = matrix_as_built_before(blocks)
    schema, y, spans, dense = stack_blocks(iter(blocks))
    assert schema == want_schema and spans == want_spans
    assert y.tobytes() == want_y.tobytes()
    X = dense(slice(None))
    assert X.shape == want_X.shape and X.tobytes() == want_X.tobytes()
    rows = np.array([rnd.randrange(len(y)) for _ in range(len(y))], dtype=np.intp)
    assert dense(rows).tobytes() == want_X[rows].tobytes()
    for start, stop in spans.values():
        assert dense(slice(start, stop)).tobytes() == want_X[start:stop].tobytes()


def full_row(lt: LinkedTrip, schema: FeatureSchema) -> tuple[list[float], float]:
    """One trip's schema row, its one-hots set by column name."""
    values, (hour, dow, month), y = featurize(lt)
    names = schema_names(schema)
    assert len(names) == schema.dim
    row = dict.fromkeys(names, 0.0)
    row.update(zip(names, values))
    row[f"hour_{hour:02d}"] = 1.0
    row[DOW_NAMES[dow]] = 1.0
    row[f"month_{month + 1:02d}"] = 1.0
    if lt.trip.product:
        row[f"product_{lt.trip.product}"] = 1.0
    return list(row.values()), y


@pytest.mark.parametrize(
    "mode, years",
    [
        pytest.param("single_year", (2019, 2020, 2021), id="single_year"),
        pytest.param("cumulative", (2019, 2020, 2021), id="cumulative"),
        pytest.param("single_year", (2019, 2021), id="single_year-no_2020"),
        pytest.param("cumulative", (2019, 2021), id="cumulative-no_2020"),
    ],
)
def test_year_matrix_matches_the_copying_reference(mode, years):
    # three drivers with different product sets; the reference stacks
    # per-block arrays with np.vstack, copies every training set and
    # standardizes out of place, and every R² must keep its bits. Without
    # 2020 the lag from 2021 to 2020 is skipped, and cumulative training
    # sets run across the gap.
    rng = np.random.default_rng(11)
    products = (("comfort", "standard", "comfort"), ("xl", "", "standard"), ("standard",) * 3)
    fleet = []
    for choices in products:
        linked = [lt for year in years for lt in rand_linked(rng, 120, year)]
        fleet.append(
            [
                replace(lt, trip=replace(lt.trip, product=choices[i % 3]))
                for i, lt in enumerate(linked)
            ]
        )
    blocks = [feature_blocks(linked) for linked in fleet]
    got = year_matrix(blocks, mode=mode, seed=3)
    cells, counts = copying_year_matrix(blocks, mode, seed=3)
    assert got.counts == counts
    assert got.cells.keys() == cells.keys()
    for key, value in cells.items():
        assert np.float64(got.cells[key]).tobytes() == np.float64(value).tobytes(), key


def copying_year_matrix(blocks, mode, seed):
    """year_matrix's cells and counts, computed with a copy at every step."""
    schema = FeatureSchema(tuple(sorted({p for b in blocks for p in b.products})))
    parts = {}
    for b in blocks:
        for year, (X, y, codes) in b.years.items():
            full = np.zeros((len(y), schema.dim))
            base = X.shape[1]
            full[:, :base] = X
            for row, (hour, dow, month, product) in enumerate(codes):
                full[row, [base + hour, base + 24 + dow, base + 31 + month]] = 1.0
                if product >= 0:
                    full[row, schema.product_column[b.products[product]]] = 1.0
            parts.setdefault(year, []).append((full, y))
    matrices = {
        year: (np.vstack([X for X, _ in group]), np.concatenate([y for _, y in group]))
        for year, group in sorted(parts.items())
    }
    years = sorted(matrices)
    cells, counts = {}, {}
    for year in years:
        for lag in range(year - years[0] + 1):
            if lag == 0:
                X, y = matrices[year]
                perm = np.random.default_rng([seed, year]).permutation(len(y))
                cut = int(len(y) * 0.8)
                train = [matrices[p] for p in years if p < year] if mode == "cumulative" else []
                train.append((X[perm[:cut]], y[perm[:cut]]))
                X_test, y_test = X[perm[cut:]], y[perm[cut:]]
            else:
                last = year - lag
                if last not in matrices:
                    continue
                cumulative = mode == "cumulative"
                train = [matrices[p] for p in years if p == last or (cumulative and p < last)]
                X_test, y_test = matrices[year]
            X_train = np.vstack([X for X, _ in train])
            y_train = np.concatenate([y for _, y in train])
            counts[(year, lag)] = (len(y_train), len(y_test))
            mean, std = X_train.mean(axis=0), X_train.std(axis=0)
            keep = std > 0.0
            Xs = (X_train[:, keep] - mean[keep]) / std[keep]
            gram = Xs.T @ Xs
            k = gram.shape[0]
            eps = 1e-8 * float(np.trace(gram)) / k
            y_mean = float(y_train.mean())
            beta = np.linalg.solve(gram + eps * np.eye(k), Xs.T @ (y_train - y_mean))
            coefficients = np.zeros(schema.dim)
            coefficients[keep] = beta / std[keep]
            pred = X_test @ coefficients + (y_mean - float(coefficients @ mean))
            ss_tot = float(((y_test - y_test.mean()) ** 2).sum())
            cells[(year, lag)] = 1.0 - float(((y_test - pred) ** 2).sum()) / ss_tot
    return cells, counts
