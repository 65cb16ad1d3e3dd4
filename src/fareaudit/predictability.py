"""Pay predictability: featurize trips, fit OLS across years, tabulate R².

The experiment asks whether the pay of a trip can be predicted from trip
attributes learned in an earlier period. Fits use ridge-stabilized normal
equations on standardized features; evaluation is plain out-of-sample R².
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .linkage import LinkedTrip
from .model import CALENDAR, AuditError, TripStatus, trip_anchor

RIDGE_SCALE = 1e-8
TRAIN_FRACTION = 0.8


class IncompleteTrip(AuditError):
    pass


class Underdetermined(AuditError):
    pass


class ZeroVarianceTarget(AuditError):
    pass


AIRPORT_MARKER = "airport"

_HOURS = tuple(f"hour_{h:02d}" for h in range(24))
_DOWS = ("dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun")
_MONTHS = tuple(f"month_{m:02d}" for m in range(1, 13))

_BASE_NUMERIC = (
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
)
_FLAGS = (
    "is_airport_origin",
    "is_airport_dest",
    "is_airport_any",
    "is_weekend",
    "is_peak_morning",
    "is_peak_evening",
    "is_night",
)
_NUMERIC = len(_BASE_NUMERIC + _FLAGS)
# where the hour, weekday and month one-hot groups begin in a schema's row
_CODE_BASES = np.array([_NUMERIC, _NUMERIC + len(_HOURS), _NUMERIC + len(_HOURS + _DOWS)])
_PRODUCT_BASE = _NUMERIC + len(_HOURS + _DOWS + _MONTHS)


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed feature layout for one experiment; includes the product vocabulary."""

    products: tuple[str, ...]

    @cached_property
    def names(self) -> tuple[str, ...]:
        product_names = tuple(f"product_{p}" for p in self.products)
        return _BASE_NUMERIC + _FLAGS + _HOURS + _DOWS + _MONTHS + product_names

    @cached_property
    def dim(self) -> int:
        return len(self.names)

    @cached_property
    def product_column(self) -> dict[str, int]:
        return {p: _PRODUCT_BASE + i for i, p in enumerate(self.products)}


def build_schema(linked: Sequence[LinkedTrip]) -> FeatureSchema:
    products = sorted({lt.trip.product for lt in linked if lt.trip.product})
    return FeatureSchema(tuple(products))


def featurize(linked: LinkedTrip) -> tuple[tuple[float, ...], tuple[int, int, int], float]:
    """One completed linked trip's numeric and flag features, codes and target pounds.

    The codes are the local hour, weekday and month - 1 of the pickup: each
    indexes its one-hot group of the schema, which ``stack_blocks`` fills in.
    """
    trip = linked.trip
    if trip.status is not TripStatus.COMPLETED or None in (
        trip.accept_ts,
        trip.pickup_ts,
        trip.dropoff_ts,
    ):
        raise IncompleteTrip("featurization needs a completed trip with all timestamps")

    on_trip = (trip.dropoff_ts - trip.pickup_ts) / 60_000.0
    en_route = (trip.pickup_ts - trip.accept_ts) / 60_000.0
    wait = (trip.accept_ts - trip.request_ts) / 60_000.0
    dist = trip.distance_miles
    speed = dist / (on_trip / 60.0) if on_trip > 0 else 0.0

    pickup = trip.pickup_ts
    day = CALENDAR.day(pickup)[0]
    hour, dow, month = CALENDAR.hour(pickup), day.weekday(), day.month
    weekend = 1.0 if dow >= 5 else 0.0
    peak_am = 1.0 if 7 <= hour < 10 else 0.0
    peak_pm = 1.0 if 16 <= hour < 19 else 0.0
    night = 1.0 if hour >= 22 or hour < 5 else 0.0
    air_o = 1.0 if AIRPORT_MARKER in trip.origin_tag.lower() else 0.0
    air_d = 1.0 if AIRPORT_MARKER in trip.dest_tag.lower() else 0.0

    numeric = (
        on_trip,
        en_route,
        dist,
        wait,
        speed,
        dist * dist,
        on_trip * on_trip,
        math.log1p(dist),
        math.log1p(max(on_trip, 0.0)),
        on_trip * dist,
        dist * weekend,
        on_trip * (peak_am + peak_pm),
    )
    flags = (air_o, air_d, max(air_o, air_d), weekend, peak_am, peak_pm, night)
    return numeric + flags, (hour, dow, month - 1), linked.driver_total / 100.0


def feature_matrix(linked: Sequence[LinkedTrip]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, codes) of the trips in order: ``featurize``'s values, targets and codes."""
    featured = [featurize(lt) for lt in linked]
    n = len(featured)
    return (
        np.array([values for values, _, _ in featured], dtype=float).reshape(n, _NUMERIC),
        np.array([y for _, _, y in featured], dtype=float),
        np.array([codes for _, codes, _ in featured], dtype=np.int32).reshape(n, len(_CODE_BASES)),
    )


@dataclass(frozen=True)
class FeatureBlocks:
    """One driver's usable linked trips, featurized per anchor year.

    ``years[year]`` is ``(X, y, codes)`` in link order: X holds the numeric
    and flag features, and each row of ``codes`` the trip's hour, weekday and
    month codes and its index into ``products``, or -1 for a trip without one.
    """

    products: tuple[str, ...]
    years: Mapping[int, tuple[np.ndarray, np.ndarray, np.ndarray]]


def feature_blocks(linked: Sequence[LinkedTrip]) -> FeatureBlocks:
    """Featurize the completed trips that have every timestamp, year by year."""
    usable = [
        lt
        for lt in linked
        if lt.trip.status is TripStatus.COMPLETED
        and None not in (lt.trip.accept_ts, lt.trip.pickup_ts, lt.trip.dropoff_ts)
    ]
    products = build_schema(usable).products
    code = {p: i for i, p in enumerate(products)}
    by_year: dict[int, list[LinkedTrip]] = {}
    for lt in usable:
        by_year.setdefault(CALENDAR.day(trip_anchor(lt.trip))[0].year, []).append(lt)
    years = {}
    for year, group in sorted(by_year.items()):
        X, y, codes = feature_matrix(group)
        product = np.array([code.get(lt.trip.product, -1) for lt in group], dtype=np.int32)
        years[year] = (X, y, np.column_stack((codes, product)))
    return FeatureBlocks(products, years)


def stack_blocks(
    blocks: Sequence[FeatureBlocks],
) -> tuple[FeatureSchema, np.ndarray, np.ndarray, dict[int, tuple[int, int]]]:
    """The fleet's full (X, y), sorted by year, and each year's [start, stop) rows.

    Within a year the rows run in the order of the blocks given, then in link
    order. The product vocabulary is the sorted union of the drivers' own,
    which is what ``build_schema`` gives over all their trips; every row's
    hour, weekday, month and product one-hots are filled in against it.
    """
    schema = FeatureSchema(tuple(sorted({p for b in blocks for p in b.products})))
    sizes: dict[int, int] = {}
    for b in blocks:
        for year, (_, y, _) in b.years.items():
            sizes[year] = sizes.get(year, 0) + len(y)
    spans: dict[int, tuple[int, int]] = {}
    n = 0
    for year, size in sorted(sizes.items()):
        spans[year] = (n, n + size)
        n += size
    fleet_X, fleet_y = np.zeros((n, schema.dim)), np.empty(n)
    filled = {year: start for year, (start, _) in spans.items()}
    for b in blocks:
        column = np.array([schema.product_column[p] for p in b.products], dtype=np.intp)
        for year, (X, y, codes) in b.years.items():
            lo = filled[year]
            filled[year] = hi = lo + len(y)
            full = fleet_X[lo:hi]  # a view: the fills below land in the fleet matrix
            full[:, :_NUMERIC] = X
            rows = np.arange(len(y))
            full[rows[:, None], _CODE_BASES + codes[:, : len(_CODE_BASES)]] = 1.0
            product = codes[:, len(_CODE_BASES)]
            has = np.flatnonzero(product >= 0)
            full[has, column[product[has]]] = 1.0
            fleet_y[lo:hi] = y
    return schema, fleet_X, fleet_y, spans


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class OlsModel:
    coefficients: np.ndarray  # original-unit coefficients, full schema width
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coefficients + self.intercept


def fit_ols(X: np.ndarray, y: np.ndarray) -> OlsModel:
    """Least squares via ridge-stabilized normal equations on standardized data.

    Zero-variance columns are left out of the fit and get a coefficient of
    zero; epsilon is 1e-8 * trace(XtX) / d, which makes the one-hot blocks
    solvable alongside an intercept without visibly biasing coefficients.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n <= d:
        raise Underdetermined(f"{n} rows cannot determine {d} features")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0.0
    Xs = X[:, keep]  # boolean indexing copies, so X itself is never changed
    Xs -= mean[keep]
    Xs /= std[keep]
    y_mean = float(y.mean())

    gram = Xs.T @ Xs
    k = gram.shape[0]
    eps = RIDGE_SCALE * float(np.trace(gram)) / k if k else 0.0
    beta_s = np.linalg.solve(gram + eps * np.eye(k), Xs.T @ (y - y_mean))

    coefficients = np.zeros(d)
    coefficients[keep] = beta_s / std[keep]
    intercept = y_mean - float(coefficients @ mean)
    return OlsModel(coefficients, intercept)


def r2(model: OlsModel, X: np.ndarray, y: np.ndarray) -> float:
    """Out-of-sample R² about the test mean; 1 is perfect, negatives possible."""
    y = np.asarray(y, dtype=float)
    pred = model.predict(np.asarray(X, dtype=float))
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ZeroVarianceTarget("test target has no variance")
    ss_res = float(((y - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Year-by-year matrix


@dataclass(frozen=True)
class YearMatrix:
    mode: str
    test_years: tuple[int, ...]
    max_lag: int
    cells: Mapping[tuple[int, int], float | None]  # (test_year, lag) -> R²
    counts: Mapping[tuple[int, int], tuple[int, int]]  # (train_n, test_n)

    def lag_label(self, lag: int) -> str:
        return "Y" if lag == 0 else f"Y-{lag}"

    def to_csv(self) -> str:
        lags = list(range(self.max_lag + 1))
        lines = ["test_year," + ",".join(self.lag_label(n) for n in lags)]
        for year in self.test_years:
            row = [str(year)]
            for lag in lags:
                value = self.cells.get((year, lag))
                row.append("" if value is None else f"{value:.3f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "cells": []}
        for (year, lag), value in sorted(self.cells.items()):
            train_n, test_n = self.counts[(year, lag)]
            out["cells"].append(
                {
                    "test_year": year,
                    "lag": self.lag_label(lag),
                    "r2": value,
                    "train_n": train_n,
                    "test_n": test_n,
                }
            )
        return out


def year_matrix(
    blocks: Sequence[FeatureBlocks], mode: str = "single_year", seed: int = 0
) -> YearMatrix:
    """R² of models trained on earlier years and tested on later ones.

    Rows are the drivers' feature blocks stacked in the order given, in one
    matrix sorted by year. single_year trains on the one year Y-n; cumulative
    trains on every year up to and including Y-n, so beyond lag 0 a training
    set is a run of the matrix's rows. Lag 0 uses a seeded 80/20 split within
    the test year (train years strictly before Y join the training side in
    cumulative mode). Cells without enough training rows stay empty.
    """
    if mode not in ("single_year", "cumulative"):
        raise AuditError(f"unknown mode {mode!r}")
    schema, X, y, spans = stack_blocks(blocks)
    years = sorted(spans)
    if len(years) < 2:
        raise AuditError("need at least two calendar years of trips")

    cells: dict[tuple[int, int], float | None] = {}
    counts: dict[tuple[int, int], tuple[int, int]] = {}
    for year in years:
        start, stop = spans[year]
        for lag in range(0, year - years[0] + 1):
            source = year - lag
            if source not in spans:
                continue
            first = 0 if mode == "cumulative" else spans[source][0]
            if lag == 0:
                perm = np.random.default_rng([seed, year]).permutation(stop - start)
                cut = int((stop - start) * TRAIN_FRACTION)
                train = np.concatenate((np.arange(first, start), start + perm[:cut]))
                test = start + perm[cut:]
            else:
                train, test = slice(first, spans[source][1]), slice(start, stop)
            # a slice of rows is a view; only lag 0 gathers its training rows
            y_train, y_test = y[train], y[test]
            counts[(year, lag)] = (len(y_train), len(y_test))
            if len(y_train) <= schema.dim or len(y_test) < 2:
                cells[(year, lag)] = None
                continue
            model = fit_ols(X[train], y_train)
            try:
                # lag 0's test rows are gathered only now, once the fit's copies are gone
                cells[(year, lag)] = r2(model, X[test], y_test)
            except ZeroVarianceTarget:
                cells[(year, lag)] = None

    return YearMatrix(
        mode=mode,
        test_years=tuple(years),
        max_lag=years[-1] - years[0],
        cells=cells,
        counts=counts,
    )
