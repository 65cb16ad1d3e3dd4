"""Pay predictability: featurize trips, fit OLS across years, tabulate R².

The experiment asks whether the pay of a trip can be predicted from trip
attributes learned in an earlier period. Fits use ridge-stabilized normal
equations on standardized features; evaluation is plain out-of-sample R².
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .linkage import LinkedTrip
from .model import CALENDAR, AuditError, TripRecord, TripStatus, trip_anchor

if TYPE_CHECKING:  # numpy loads in the functions that compute with it, never in a worker
    import numpy as np

RIDGE_SCALE = 1e-8
TRAIN_FRACTION = 0.8


class IncompleteTrip(AuditError):
    pass


class Underdetermined(AuditError):
    pass


class ZeroVarianceTarget(AuditError):
    pass


AIRPORT_MARKER = "airport"

# a schema row: the 12 numeric features and 7 flags in ``featurize``'s order,
# one-hots of the 24 local hours, the 7 weekdays (Monday first) and the 12
# months, then one column per product of the schema's vocabulary
_NUMERIC = 12 + 7
# where the hour, weekday and month one-hot groups begin in a schema's row
_CODE_BASES = (_NUMERIC, _NUMERIC + 24, _NUMERIC + 24 + 7)
_PRODUCT_BASE = _NUMERIC + 24 + 7 + 12


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed feature layout for one experiment; includes the product vocabulary."""

    products: tuple[str, ...]

    @property
    def dim(self) -> int:
        return _PRODUCT_BASE + len(self.products)

    @cached_property
    def product_column(self) -> dict[str, int]:
        return {p: _PRODUCT_BASE + i for i, p in enumerate(self.products)}


def _usable(trip: TripRecord) -> bool:
    stamps = (trip.accept_ts, trip.pickup_ts, trip.dropoff_ts)
    return trip.status is TripStatus.COMPLETED and None not in stamps


def featurize(linked: LinkedTrip) -> tuple[tuple[float, ...], tuple[int, int, int], float]:
    """One completed linked trip's numeric and flag features, codes and target pounds.

    The codes are the local hour, weekday and month - 1 of the pickup: each
    indexes its one-hot group of the schema, which ``stack_blocks`` fills in.
    """
    trip = linked.trip
    if not _usable(trip):
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


def feature_matrix(
    linked: Sequence[LinkedTrip], products: Mapping[str, int]
) -> tuple[array, array, array]:
    """(X, y, codes) of the trips, row after row: ``featurize``'s values, targets and
    codes, each code row ending in the index of the trip's product in ``products``, or -1."""
    X, y, codes = array("d"), array("d"), array("i")
    for lt in linked:
        values, (hour, dow, month), target = featurize(lt)
        X.extend(values)
        y.append(target)
        codes.extend((hour, dow, month, products.get(lt.trip.product, -1)))
    return X, y, codes


@dataclass(frozen=True)
class FeatureBlocks:
    """One driver's usable linked trips, featurized per anchor year.

    ``arrays[year]`` is ``feature_matrix``'s ``(X, y, codes)``: stdlib arrays,
    so a worker never loads numpy and a block pickles to its values' bytes.
    """

    products: tuple[str, ...]
    arrays: Mapping[int, tuple[array, array, array]]

    @property
    def years(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``arrays`` as numpy views of one row per trip."""
        import numpy as np

        return {
            year: (
                np.frombuffer(X).reshape(len(y), _NUMERIC),
                np.frombuffer(y),
                np.frombuffer(codes, np.intc).reshape(len(y), len(_CODE_BASES) + 1),
            )
            for year, (X, y, codes) in self.arrays.items()
        }


def feature_blocks(linked: Sequence[LinkedTrip]) -> FeatureBlocks:
    """Featurize the completed trips that have every timestamp, year by year."""
    usable = [lt for lt in linked if _usable(lt.trip)]
    products = tuple(sorted({lt.trip.product for lt in usable if lt.trip.product}))
    code = {p: i for i, p in enumerate(products)}
    by_year: dict[int, list[LinkedTrip]] = {}
    for lt in usable:
        by_year.setdefault(CALENDAR.month(trip_anchor(lt.trip)) // 12, []).append(lt)
    years = {year: feature_matrix(group, code) for year, group in sorted(by_year.items())}
    return FeatureBlocks(products, years)


def stack_blocks(
    blocks: Iterable[FeatureBlocks],
) -> tuple[FeatureSchema, np.ndarray, dict[int, tuple[int, int]], Callable[..., np.ndarray]]:
    """The fleet's targets sorted by year, each year's [start, stop) rows, and ``dense``.

    Within a year the rows run in the order of the blocks given, then in link
    order; the products are the sorted union of the drivers' own. The fleet is
    kept compact, and ``dense(rows)`` gives the schema rows of a range or an
    index array in a new matrix. Each year's block arrays are let go once copied.
    """
    import numpy as np

    parts: dict[int, list[tuple]] = {}
    products: set[str] = set()
    for b in blocks:
        products.update(b.products)
        for year, part in b.years.items():
            parts.setdefault(year, []).append((b.products, *part))
    schema = FeatureSchema(tuple(sorted(products)))
    spans, n = {}, 0
    for year in sorted(parts):
        spans[year] = (n, n := n + sum(len(y) for _, _, y, _ in parts[year]))
    fleet_X, fleet_y = np.empty((n, _NUMERIC)), np.empty(n)
    fleet_columns = np.empty((n, len(_CODE_BASES) + 1), np.intc)
    for year, (lo, _) in spans.items():
        for names, X, y, codes in parts.pop(year):
            hi = lo + len(y)
            fleet_X[lo:hi], fleet_y[lo:hi] = X, y
            # the one-hot columns of the hour, weekday, month and product (or the hour again)
            columns = fleet_columns[lo:hi]  # a view: the fills below land in the fleet
            columns[:, :3] = codes[:, :3] + _CODE_BASES
            product = np.array([schema.product_column[p] for p in names] + [-1])[codes[:, 3]]
            columns[:, 3] = np.where(product >= 0, product, columns[:, 0])
            lo = hi

    def dense(rows: slice | np.ndarray) -> np.ndarray:
        numeric = fleet_X[rows]
        out = np.zeros((len(numeric), schema.dim))
        out[:, :_NUMERIC] = numeric
        out[np.arange(len(out))[:, None], fleet_columns[rows]] = 1.0
        return out

    return schema, fleet_y, spans, dense


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class OlsModel:
    coefficients: np.ndarray  # original-unit coefficients, full schema width
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coefficients + self.intercept


def fit_ols(X: np.ndarray, y: np.ndarray, *, overwrite_x: bool = False) -> OlsModel:
    """Least squares via ridge-stabilized normal equations on standardized data.

    Zero-variance columns are left out of the fit and get a coefficient of
    zero; epsilon is 1e-8 * trace(XtX) / d, which makes the one-hot blocks
    solvable alongside an intercept without visibly biasing coefficients.
    With ``overwrite_x``, a float X that keeps every column is standardized in place.
    """
    import numpy as np

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n <= d:
        raise Underdetermined(f"{n} rows cannot determine {d} features")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0.0
    Xs = X if overwrite_x and keep.all() else X[:, keep]  # boolean indexing copies
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
    import numpy as np

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
    cells: Mapping[tuple[int, int], float | None]  # (test_year, lag) -> R²
    counts: Mapping[tuple[int, int], tuple[int, int]]  # (train_n, test_n)

    def lag_label(self, lag: int) -> str:
        return "Y" if lag == 0 else f"Y-{lag}"

    def to_csv(self) -> str:
        lags = range(self.test_years[-1] - self.test_years[0] + 1)
        lines = ["test_year," + ",".join(self.lag_label(n) for n in lags)]
        for year in self.test_years:
            values = [self.cells.get((year, lag)) for lag in lags]
            lines.append(",".join([str(year)] + ["" if v is None else f"{v:.3f}" for v in values]))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        keys = ("test_year", "lag", "r2", "train_n", "test_n")
        cells = [
            dict(zip(keys, (year, self.lag_label(lag), value, *self.counts[(year, lag)])))
            for (year, lag), value in sorted(self.cells.items())
        ]
        return {"mode": self.mode, "cells": cells}


def year_matrix(
    blocks: Iterable[FeatureBlocks], mode: str = "single_year", seed: int = 0
) -> YearMatrix:
    """R² of models trained on earlier years and tested on later ones.

    Rows are the drivers' feature blocks stacked in the order given, in one
    compact fleet sorted by year. single_year trains on the one year Y-n;
    cumulative trains on every year up to and including Y-n. Lag 0 uses a
    seeded 80/20 split within the test year (train years strictly before Y
    join the training side in cumulative mode). Cells without enough training
    rows stay empty. A fit's test rows are made dense once it is done.
    """
    import numpy as np

    if mode not in ("single_year", "cumulative"):
        raise AuditError(f"unknown mode {mode!r}")
    schema, y, spans, dense = stack_blocks(blocks)
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
            y_train, y_test = y[train], y[test]
            counts[(year, lag)] = (len(y_train), len(y_test))
            if len(y_train) <= schema.dim or len(y_test) < 2:
                cells[(year, lag)] = None
                continue
            model = fit_ols(dense(train), y_train, overwrite_x=True)
            try:
                cells[(year, lag)] = r2(model, dense(test), y_test)
            except ZeroVarianceTarget:
                cells[(year, lag)] = None

    return YearMatrix(mode, tuple(years), cells, counts)
