"""Pay predictability: featurize trips, fit OLS across years, tabulate R².

The experiment asks whether the pay of a trip can be predicted from trip
attributes learned in an earlier period. Fits use ridge-stabilized normal
equations on standardized features; evaluation is plain out-of-sample R².
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linkage import LinkedTrip
from .model import DEFAULT_TIMEZONE, AuditError, TripStatus, trip_anchor

RIDGE_SCALE = 1e-8
TRAIN_FRACTION = 0.8


class IncompleteTrip(AuditError):
    pass


class Underdetermined(AuditError):
    pass


class ZeroVarianceTarget(AuditError):
    pass


class DegenerateColumn(UserWarning):
    """A zero-variance feature was dropped from a fit."""


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


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed feature layout for one experiment; includes the product vocabulary."""

    products: tuple[str, ...]
    tz: str = DEFAULT_TIMEZONE

    @property
    def names(self) -> tuple[str, ...]:
        product_names = tuple(f"product_{p}" for p in self.products)
        return _BASE_NUMERIC + _FLAGS + _HOURS + _DOWS + _MONTHS + product_names

    @property
    def dim(self) -> int:
        return len(self.names)


def build_schema(linked: Sequence[LinkedTrip], tz: str = DEFAULT_TIMEZONE) -> FeatureSchema:
    products = sorted({lt.trip.product for lt in linked if lt.trip.product})
    return FeatureSchema(tuple(products), tz)


def featurize(linked: LinkedTrip, schema: FeatureSchema) -> tuple[np.ndarray, float]:
    """(feature vector, target pounds) for one completed linked trip."""
    trip = linked.trip
    if trip.status is not TripStatus.COMPLETED or None in (
        trip.accept_ts,
        trip.pickup_ts,
        trip.dropoff_ts,
    ):
        raise IncompleteTrip("featurization needs a completed trip with all timestamps")

    on_trip = (trip.dropoff_ts.epoch_ms - trip.pickup_ts.epoch_ms) / 60_000.0
    en_route = (trip.pickup_ts.epoch_ms - trip.accept_ts.epoch_ms) / 60_000.0
    wait = (trip.accept_ts.epoch_ms - trip.request_ts.epoch_ms) / 60_000.0
    dist = trip.distance_miles
    speed = dist / (on_trip / 60.0) if on_trip > 0 else 0.0

    local = trip.pickup_ts.to_datetime(schema.tz)
    hour, dow, month = local.hour, local.weekday(), local.month
    weekend = 1.0 if dow >= 5 else 0.0
    peak_am = 1.0 if 7 <= hour < 10 else 0.0
    peak_pm = 1.0 if 16 <= hour < 19 else 0.0
    night = 1.0 if hour >= 22 or hour < 5 else 0.0
    air_o = 1.0 if AIRPORT_MARKER in trip.origin_tag.lower() else 0.0
    air_d = 1.0 if AIRPORT_MARKER in trip.dest_tag.lower() else 0.0

    vec = np.zeros(schema.dim)
    vec[0:12] = (
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
    vec[12:19] = (air_o, air_d, max(air_o, air_d), weekend, peak_am, peak_pm, night)
    base = 19
    vec[base + hour] = 1.0
    vec[base + 24 + dow] = 1.0
    vec[base + 31 + (month - 1)] = 1.0
    if trip.product in schema.products:
        vec[base + 43 + schema.products.index(trip.product)] = 1.0

    return vec, linked.driver_total.pence / 100.0


def feature_matrix(
    linked: Sequence[LinkedTrip], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    targets = []
    for lt in linked:
        vec, y = featurize(lt, schema)
        rows.append(vec)
        targets.append(y)
    if not rows:
        return np.zeros((0, schema.dim)), np.zeros(0)
    return np.vstack(rows), np.asarray(targets)


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class OlsModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray  # original-unit coefficients, full schema width
    intercept: float
    train_mean: np.ndarray
    train_std: np.ndarray
    dropped: tuple[str, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coefficients + self.intercept


def fit_ols(X: np.ndarray, y: np.ndarray, feature_names: Sequence[str] | None = None) -> OlsModel:
    """Least squares via ridge-stabilized normal equations on standardized data.

    Zero-variance columns are dropped (their coefficients are zero) with a
    DegenerateColumn warning; epsilon is 1e-8 * trace(XtX) / d, which makes the
    one-hot blocks solvable alongside an intercept without visibly biasing
    coefficients.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(d))
    if len(feature_names) != d:
        raise AuditError("feature name list does not match matrix width")
    if n <= d:
        raise Underdetermined(f"{n} rows cannot determine {d} features")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0.0
    if not keep.all():
        names = tuple(feature_names[i] for i in np.flatnonzero(~keep))
        warnings.warn(f"dropping zero-variance features: {', '.join(names)}", DegenerateColumn)
    Xs = (X[:, keep] - mean[keep]) / std[keep]
    y_mean = float(y.mean())

    gram = Xs.T @ Xs
    k = gram.shape[0]
    eps = RIDGE_SCALE * float(np.trace(gram)) / k if k else 0.0
    beta_s = np.linalg.solve(gram + eps * np.eye(k), Xs.T @ (y - y_mean))

    coefficients = np.zeros(d)
    coefficients[keep] = beta_s / std[keep]
    intercept = y_mean - float(coefficients @ mean)
    return OlsModel(
        feature_names=tuple(feature_names),
        coefficients=coefficients,
        intercept=intercept,
        train_mean=mean,
        train_std=std,
        dropped=tuple(feature_names[i] for i in np.flatnonzero(~keep)),
    )


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
    linked: Sequence[LinkedTrip],
    mode: str = "single_year",
    seed: int = 0,
    tz: str = DEFAULT_TIMEZONE,
    schema: FeatureSchema | None = None,
) -> YearMatrix:
    """R² of models trained on earlier years and tested on later ones.

    single_year trains on the one year Y-n; cumulative trains on every year up
    to and including Y-n. Lag 0 uses a seeded 80/20 split within the test year
    (train years strictly before Y join the training side in cumulative mode).
    Cells without enough training rows stay empty.
    """
    if mode not in ("single_year", "cumulative"):
        raise AuditError(f"unknown mode {mode!r}")
    usable = [
        lt
        for lt in linked
        if lt.trip.status is TripStatus.COMPLETED
        and lt.trip.pickup_ts is not None
        and lt.trip.accept_ts is not None
        and lt.trip.dropoff_ts is not None
    ]
    if schema is None:
        schema = build_schema(usable, tz)

    by_year: dict[int, list[LinkedTrip]] = {}
    for lt in usable:
        by_year.setdefault(trip_anchor(lt.trip).year(tz), []).append(lt)
    years = sorted(by_year)
    if len(years) < 2:
        raise AuditError("need at least two calendar years of trips")

    matrices = {year: feature_matrix(by_year[year], schema) for year in years}

    cells: dict[tuple[int, int], float | None] = {}
    counts: dict[tuple[int, int], tuple[int, int]] = {}
    for year in years:
        for lag in range(0, year - years[0] + 1):
            train_parts: list[tuple[np.ndarray, np.ndarray]] = []
            if lag == 0:
                X, y = matrices[year]
                rng = np.random.default_rng([seed, year])
                perm = rng.permutation(len(y))
                cut = int(len(y) * TRAIN_FRACTION)
                train_idx, test_idx = perm[:cut], perm[cut:]
                if mode == "cumulative":
                    train_parts = [matrices[p] for p in years if p < year]
                train_parts.append((X[train_idx], y[train_idx]))
                X_test, y_test = X[test_idx], y[test_idx]
            else:
                source = year - lag
                if source not in by_year:
                    continue
                if mode == "single_year":
                    train_parts = [matrices[source]]
                else:
                    train_parts = [matrices[p] for p in years if p <= source]
                X_test, y_test = matrices[year]

            X_train = np.vstack([p[0] for p in train_parts])
            y_train = np.concatenate([p[1] for p in train_parts])
            counts[(year, lag)] = (len(y_train), len(y_test))
            if len(y_train) <= schema.dim or len(y_test) < 2:
                cells[(year, lag)] = None
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateColumn)
                model = fit_ols(X_train, y_train, schema.names)
            try:
                cells[(year, lag)] = r2(model, X_test, y_test)
            except ZeroVarianceTarget:
                cells[(year, lag)] = None

    return YearMatrix(
        mode=mode,
        test_years=tuple(years),
        max_lag=years[-1] - years[0],
        cells=cells,
        counts=counts,
    )
