"""Audit orchestration: per-bundle processing and report assembly.

``process_bundle`` is a pure function of (directory, options) so bundles can
be fanned out across processes. It reduces each bundle in the worker to
integer and float columns of its share-valid trips and one time ledger of
per-week and per-month totals, so little crosses the process boundary;
``build_report`` folds the results back together in sorted driver order,
which keeps the report byte-identical no matter how many workers ran.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import IO, TYPE_CHECKING, Collection, Mapping, Sequence

from .ingest import IngestReport, load_bundle, normalize
from .linkage import DEFAULT_WINDOW_S, link
from .metrics import (
    MissingRpiMonth,
    TripColumns,
    acceptance_rate,
    adjust_inflation,
    cohort_months,
    cohort_pay_change,
    cohort_summary,
    distribution_compare,
    pay_per_hour,
    per_minute_fare_by_split,
    surplus_series,
    take_rate_histogram,
    take_rate_stats,
    trips_per_era,
    weekly_rows,
)
from .model import (
    CALENDAR,
    DEFAULT_ERAS,
    AuditError,
    DriverProfile,
    Era,
    EraBoundaries,
    RpiSeries,
    era_of,
    left_sum,
    month_label,
)
from .worktime import (
    Bucket,
    HoursDefinition,
    TimeLedger,
    build_ledger,
    build_segments,
    hours_worked,
    utilisation_daily,
)

if TYPE_CHECKING:
    from .predictability import FeatureBlocks


@dataclass(frozen=True)
class AuditOptions:
    """Everything an audit run needs; picklable for worker processes.

    The cohort windows come as a pair of equal length that do not overlap.
    """

    link_window_s: float = DEFAULT_WINDOW_S
    eras: EraBoundaries = DEFAULT_ERAS
    weeks: tuple[str, ...] | None = None
    cohort_pre: tuple[str, str] | None = None
    cohort_post: tuple[str, str] | None = None
    features_only: bool = False  # predict: stop after linkage with feature blocks

    def __post_init__(self) -> None:
        if (self.cohort_pre is None) != (self.cohort_post is None):
            raise AuditError("the pre and post cohort windows go together")
        if self.cohort_pre is not None:
            cohort_months(self.cohort_pre, self.cohort_post)


@dataclass(frozen=True)
class DriverResult:
    """One bundle reduced to what ``build_report`` reads; no record objects."""

    driver_id: str
    report: IngestReport
    link_counts: tuple[int, int, int]  # linked, unmatched trips, unmatched payments
    orphan_trips: int
    ledger: TimeLedger  # time, pay, trips and offers per ISO week and local month
    trips: TripColumns  # share-valid linked trips, in link order
    profile: DriverProfile | None


# a bundle that fails with one of these is skipped, and its reason reported
BUNDLE_ERRORS = (AuditError, OSError, ValueError)


@dataclass(frozen=True)
class BundleFailure:
    driver_id: str
    reason: str

    @classmethod
    def of(cls, directory: str, exc: Exception) -> BundleFailure:
        """The failure of the bundle in ``directory``; a toolkit error is its own reason."""
        reason = str(exc) if isinstance(exc, AuditError) else f"{type(exc).__name__}: {exc}"
        return cls(Path(directory).name, reason)


def process_bundle(
    directory: str, options: AuditOptions
) -> DriverResult | FeatureBlocks | BundleFailure:
    """Load, normalize, link and time-account one driver's bundle.

    With ``options.features_only`` the bundle stops after linkage and comes
    back as its feature blocks for the predictability matrix.
    """
    try:
        bundle, report = normalize(load_bundle(directory))
        links = link(bundle.trips, bundle.payments, options.link_window_s)
        if options.features_only:
            from .predictability import feature_blocks  # loads only for predict

            return feature_blocks(links.linked)
        timeline = build_segments(bundle.sessions, bundle.trips)
        ledger = build_ledger(
            timeline.segments, bundle.payments, bundle.trips, bundle.dispatches
        )
    except BUNDLE_ERRORS as exc:
        return BundleFailure.of(directory, exc)
    return DriverResult(
        driver_id=bundle.driver_id,
        report=report,
        link_counts=(
            len(links.linked),
            len(links.unmatched_trips),
            len(links.unmatched_payments),
        ),
        orphan_trips=len(timeline.orphan_trips),
        ledger=ledger,
        # the one place a worker meets the era boundaries
        trips=TripColumns.from_linked(links.linked, options.eras),
        profile=bundle.profile,
    )


# ---------------------------------------------------------------------------
# Report assembly


def _round6(value: float) -> float:
    return float(f"{value:.6g}")


def json_ready(obj):
    """Sorted-key friendly copy with floats at 6 significant digits."""
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return None
        return _round6(obj)
    if isinstance(obj, Mapping):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def dumps_report(report: Mapping, fh: IO[str]) -> None:
    """Write the report's JSON to ``fh`` chunk by chunk as it is encoded.

    With an indent, ``json.dump`` runs the same encoder as ``json.dumps``, so
    the bytes are those of the whole text, which is never held at once.
    """
    json.dump(json_ready(report), fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")


def _weekly_pooled(rows: Sequence[tuple[str, Bucket]]) -> dict:
    """Each week's buckets pooled; a driver has at most one row a week."""
    by_week: dict[str, list[Bucket]] = {}
    for week, totals in rows:
        by_week.setdefault(week, []).append(totals)
    out = {}
    for week in sorted(by_week):
        group = by_week[week]
        out[week] = {
            "net_pay_pounds": sum(b.pay or 0 for b in group) / 100.0,
            "hours_tribunal": left_sum(hours_worked(b, HoursDefinition.TRIBUNAL) for b in group),
            "hours_platform": left_sum(hours_worked(b, HoursDefinition.PLATFORM) for b in group),
            "rate_tribunal": pay_per_hour(group, HoursDefinition.TRIBUNAL),
            "rate_platform": pay_per_hour(group, HoursDefinition.PLATFORM),
            "drivers": len(group),
        }
    return out


def _monthly_real_rates(results: Sequence[DriverResult], rpi: RpiSeries) -> dict:
    """Nominal and inflation-adjusted pooled pay per tribunal hour by month."""
    months = {m for res in results for m, t in res.ledger.months.items() if t.pay is not None}
    if not months:
        return {"error": "no payments"}
    nominal: dict[int, float] = {}
    for month in range(min(months), max(months) + 1):
        buckets = [res.ledger.months[month] for res in results if month in res.ledger.months]
        rate = pay_per_hour(buckets, HoursDefinition.TRIBUNAL)
        if rate is not None:
            nominal[month] = rate
    if not nominal:
        return {"error": "no working months"}
    base = max(nominal)
    labelled = {month_label(m): rate for m, rate in nominal.items()}
    try:
        real = adjust_inflation(nominal, rpi, base)
    except MissingRpiMonth as exc:
        return {"error": str(exc), "nominal": labelled}
    real = {month_label(m): rate for m, rate in real.items()}
    return {"base_month": month_label(base), "nominal": labelled, "real": real}


def _take_rate_section(fleet: Sequence[TripColumns]) -> dict:
    n_trips = sum(len(trips) for trips in fleet)
    if not n_trips:
        return {"n_trips": 0}
    monthly: dict[int, array] = defaultdict(partial(array, "d"))  # labelled once per month
    for trips in fleet:
        for month, share in zip(trips.month, trips.share):
            monthly[month].append(share)

    by_trip, by_driver = take_rate_stats(fleet)
    return {
        "by_trip": asdict(by_trip),
        "by_driver": asdict(by_driver),
        "histogram": take_rate_histogram(fleet),
        "monthly_median_share": {
            month_label(m): statistics.median(v) for m, v in sorted(monthly.items())
        },
        "n_trips": n_trips,
    }


def _utilisation_section(pooled: Mapping[int, Bucket]) -> dict:
    out = {}
    for month, bucket in sorted(pooled.items()):
        if not bucket.active_days:
            continue
        u = utilisation_daily(bucket)
        out[month_label(month)] = {
            "standby_hours": u.standby_hours,
            "en_route_hours": u.en_route_hours,
            "on_trip_hours": u.on_trip_hours,
            "active_driver_days": u.active_days,
        }
    return out


def _acceptance_section(pooled: Mapping[int, Bucket]) -> dict:
    offered = {m: bucket for m, bucket in sorted(pooled.items()) if bucket.offered}
    if not offered:
        return {"overall": None, "monthly": {}}
    every = Bucket()
    for bucket in offered.values():
        every.add(bucket)
    return {
        "overall": acceptance_rate(every),
        "monthly": {month_label(m): acceptance_rate(bucket) for m, bucket in offered.items()},
        "n_offers": every.offered,
    }


def _distribution_section(fleet: Sequence[TripColumns], eras: EraBoundaries) -> dict | None:
    by_era = {e: array("d") for e in Era}
    for trips in fleet:
        era = {month: era_of(month, eras) for month in set(trips.month)}
        for month, share in zip(trips.month, trips.share):
            by_era[era[month]].append(share)
    fixed = by_era[Era.FIXED_COMMISSION]
    dynamic = by_era[Era.DYNAMIC_PRICING]
    if not fixed or not dynamic:
        return None
    cmp = distribution_compare(fixed, dynamic)
    return {
        "grid": list(cmp.grid),
        "density_fixed_commission": list(cmp.density_a),
        "density_dynamic_pricing": list(cmp.density_b),
        "bandwidth_fixed_commission": cmp.bandwidth_a,
        "bandwidth_dynamic_pricing": cmp.bandwidth_b,
        "n_fixed_commission": len(fixed),
        "n_dynamic_pricing": len(dynamic),
    }


def build_report(
    outcomes: Sequence[DriverResult | BundleFailure],
    options: AuditOptions,
    rpi: RpiSeries | None = None,
) -> dict:
    """Assemble the full audit report; deterministic for fixed inputs."""
    results = sorted(
        (r for r in outcomes if isinstance(r, DriverResult)), key=lambda r: r.driver_id
    )
    failures = sorted(
        (r for r in outcomes if isinstance(r, BundleFailure)), key=lambda r: r.driver_id
    )

    rows = {res.driver_id: weekly_rows(res.ledger) for res in results}
    all_rows = [row for driver_rows in rows.values() for row in driver_rows]
    fleet = [res.trips for res in results]
    pooled: dict[int, Bucket] = {}  # every driver's month buckets, summed exactly
    for res in results:
        for month, totals in res.ledger.months.items():
            pooled.setdefault(month, Bucket()).add(totals)
    weeks = set(options.weeks) if options.weeks else None
    chosen = [totals for week, totals in all_rows if weeks is None or week in weeks]

    report: dict = {
        "parameters": {
            "link_window_seconds": options.link_window_s,
            "era_boundaries": {
                "opaque_start": options.eras.opaque_start,
                "dynamic_start": options.eras.dynamic_start,
            },
            "timezone": CALENDAR.tz,
            "weeks_filter": sorted(weeks) if weeks else None,
            "cohort_pre": list(options.cohort_pre) if options.cohort_pre else None,
            "cohort_post": list(options.cohort_post) if options.cohort_post else None,
        },
        "bundles": {
            res.driver_id: {
                "ingest": {
                    **asdict(res.report),
                    "trips_per_era": trips_per_era(res.ledger.months, options.eras),
                },
                "linkage": dict(
                    zip(("linked", "unmatched_trips", "unmatched_payments"), res.link_counts)
                ),
                "orphan_trips": res.orphan_trips,
            }
            for res in results
        },
        "failures": [{"driver_id": f.driver_id, "reason": f.reason} for f in failures],
        "drivers": len(results),
    }

    report["weekly_pay"] = {
        "rows": [
            {
                "driver_id": res.driver_id,
                "iso_week": week,
                "net_pay_pounds": (totals.pay or 0) / 100.0,
                "hours_tribunal": hours_worked(totals, HoursDefinition.TRIBUNAL),
                "hours_platform": hours_worked(totals, HoursDefinition.PLATFORM),
            }
            for res in results  # in driver order, each driver's rows in week order
            for week, totals in rows[res.driver_id]
        ],
        "pooled_rate_tribunal": pay_per_hour(chosen, HoursDefinition.TRIBUNAL),
        "pooled_rate_platform": pay_per_hour(chosen, HoursDefinition.PLATFORM),
        "weekly_pooled": _weekly_pooled(all_rows),
    }

    if rpi is not None:
        report["inflation"] = _monthly_real_rates(results, rpi)

    report["take_rates"] = _take_rate_section(fleet)
    report["surplus"] = [
        asdict(p) for p in surplus_series((res.trips, res.ledger.months) for res in results)
    ]
    report["per_minute_by_split"] = [asdict(b) for b in per_minute_fare_by_split(fleet)]

    report["utilisation"] = _utilisation_section(pooled)
    report["acceptance"] = _acceptance_section(pooled)

    if options.cohort_pre:
        split = cohort_pay_change(
            rows,
            {res.driver_id: res.ledger.months for res in results},
            options.cohort_pre,
            options.cohort_post,
        )
        report["cohort"] = {
            "window_pre": list(split.window_pre),
            "window_post": list(split.window_post),
            "qualified": list(split.qualified),
            "paid_less": list(split.paid_less),
            "paid_same_or_more": list(split.paid_same_or_more),
            "pooled_pre": split.pooled_pre,
            "pooled_post": split.pooled_post,
            "per_driver": {
                d: {
                    "pre_rate": split.pre_rate[d],
                    "post_rate": split.post_rate[d],
                    "pct_change": split.pct_change[d],
                }
                for d in split.qualified
            },
        }

    distribution = _distribution_section(fleet, options.eras)
    if distribution is not None:
        report["share_distribution"] = distribution

    profiles = [res.profile for res in results if res.profile is not None]
    report["demographics"] = cohort_summary(profiles)

    report["trips_per_era"] = trips_per_era(pooled, options.eras)

    return report


# ---------------------------------------------------------------------------
# Charts


def _columns(rows: Collection[Mapping], **fields: str) -> dict[str, list]:
    """One series per keyword: its field of each row, in row order."""
    return {name: [row[field] for row in rows] for name, field in fields.items()}


def render_charts(report: Mapping) -> list[tuple[str, str]]:
    """(filename, svg) pairs derived from report data only, one per non-empty section."""
    from . import charts  # loaded only when charts are asked for

    weekly = report["weekly_pay"]["weekly_pooled"]
    hist = report["take_rates"].get("histogram", {})  # absent without share-valid trips
    surplus = report["surplus"]
    util = report["utilisation"]
    per_min = report["per_minute_by_split"]
    kde = report.get("share_distribution", {})  # absent unless both eras have trips
    table = (  # file, drawing, title, y label, x labels (one per entry), series
        (
            "weekly_rates.svg", charts.line_chart, "Pooled pay per hour by week", "GBP/hour",
            list(weekly),
            _columns(weekly.values(), tribunal="rate_tribunal", platform="rate_platform"),
        ),
        (
            "take_rate_hist.svg", charts.bar_chart, "Driver share of rider fare", "trips",
            list(hist),
            list(hist.values()),
        ),
        (
            "surplus.svg", charts.line_chart, "Platform surplus per on-trip hour", "GBP/hour",
            [p["month"] for p in surplus],
            _columns(surplus, surplus="value"),
        ),
        (
            "utilisation.svg", charts.stacked_bar_chart, "Hours per active day", "hours",
            list(util),
            _columns(
                util.values(),
                on_trip="on_trip_hours",
                en_route="en_route_hours",
                standby="standby_hours",
            ),
        ),
        (
            "per_minute_by_split.svg", charts.line_chart,
            "Fare per on-trip minute by driver share", "GBP/min",
            [b["label"] for b in per_min],
            _columns(per_min, driver="driver_per_min", platform="platform_per_min"),
        ),
        (
            "share_kde.svg", charts.line_chart, "Driver share density by era", "density",
            [f"{g:.2f}" for g in kde.get("grid", ())],
            {era: kde.get(f"density_{era}") for era in ("fixed_commission", "dynamic_pricing")},
        ),
    )
    return [
        (name, draw(title, labels, series, y_label))
        for name, draw, title, y_label, labels, series in table
        if labels
    ]
