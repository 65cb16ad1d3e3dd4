"""Audit orchestration: per-bundle processing and report assembly.

``process_bundle`` is a pure function of (directory, options) so bundles can
be fanned out across processes; ``build_report`` folds the results back
together in sorted driver order, which keeps the report byte-identical no
matter how many workers ran.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import charts
from .ingest import IngestReport, NormalizedBundle, load_bundle, normalize
from .linkage import DEFAULT_WINDOW_S, LinkResult, link
from .metrics import (
    MissingRpiMonth,
    WeeklyPayRow,
    ZeroHours,
    acceptance_rate,
    adjust_inflation,
    cohort_pay_change,
    cohort_summary,
    distribution_compare,
    pay_per_hour,
    per_minute_fare_by_split,
    surplus_series,
    take_rate_histogram,
    take_rate_stats,
    weekly_rows,
)
from .model import (
    DEFAULT_TIMEZONE,
    AuditError,
    Era,
    EraBoundaries,
    RpiSeries,
    era_of,
    month_days,
    month_range,
    trip_anchor,
)
from .worktime import (
    HoursDefinition,
    TimeLedger,
    build_ledger,
    build_segments,
    hours_worked,
    utilisation_daily,
)


@dataclass(frozen=True)
class AuditOptions:
    """Everything an audit run needs; picklable for worker processes."""

    link_window_s: float = DEFAULT_WINDOW_S
    opaque_start: str = "2022-02"
    dynamic_start: str = "2023-02"
    tz: str = DEFAULT_TIMEZONE
    weeks: tuple[str, ...] | None = None
    cohort_pre: tuple[str, str] | None = None
    cohort_post: tuple[str, str] | None = None
    charts: bool = False

    @property
    def boundaries(self) -> EraBoundaries:
        return EraBoundaries(self.opaque_start, self.dynamic_start, self.tz)


@dataclass(frozen=True)
class DriverResult:
    driver_id: str
    report: IngestReport
    bundle: NormalizedBundle
    links: LinkResult
    ledger: TimeLedger
    orphan_trips: int
    rows: tuple[WeeklyPayRow, ...]


@dataclass(frozen=True)
class BundleFailure:
    driver_id: str
    reason: str


def process_bundle(directory: str, options: AuditOptions) -> DriverResult | BundleFailure:
    """Load, normalize, link and time-account one driver's bundle."""
    driver_id = Path(directory).name
    try:
        raw = load_bundle(directory)
        bundle, report = normalize(raw, options.boundaries)
        links = link(
            bundle.trips, bundle.payments, options.link_window_s, options.boundaries
        )
        timeline = build_segments(bundle.sessions, bundle.trips)
        ledger = build_ledger(timeline.segments, bundle.payments, options.tz)
        rows = weekly_rows(bundle.driver_id, ledger)
    except AuditError as exc:
        return BundleFailure(driver_id, str(exc))
    except (OSError, ValueError) as exc:
        return BundleFailure(driver_id, f"{type(exc).__name__}: {exc}")
    return DriverResult(
        bundle.driver_id, report, bundle, links, ledger, len(timeline.orphan_trips), rows
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


def dumps_report(report: Mapping) -> str:
    return json.dumps(json_ready(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pooled_rate(rows: Sequence[WeeklyPayRow], definition: HoursDefinition,
                 weeks: set[str] | None) -> float | None:
    try:
        return pay_per_hour(rows, definition, weeks)
    except ZeroHours:
        return None


def _weekly_pooled(rows: Sequence[WeeklyPayRow]) -> dict:
    by_week: dict[str, list[WeeklyPayRow]] = {}
    for row in rows:
        by_week.setdefault(row.iso_week, []).append(row)
    out = {}
    for week in sorted(by_week):
        group = by_week[week]
        out[week] = {
            "net_pay_pounds": sum(r.net_pay.pence for r in group) / 100.0,
            "hours_tribunal": sum(r.hours_tribunal for r in group),
            "hours_platform": sum(r.hours_platform for r in group),
            "rate_tribunal": _pooled_rate(group, HoursDefinition.TRIBUNAL, None),
            "rate_platform": _pooled_rate(group, HoursDefinition.PLATFORM, None),
            "drivers": len({r.driver_id for r in group}),
        }
    return out


def _monthly_real_rates(results: Sequence[DriverResult], rpi: RpiSeries) -> dict:
    """Nominal and inflation-adjusted pooled pay per tribunal hour by month."""
    months = {f"{day:%Y-%m}" for res in results for day in res.ledger.pay}
    if not months:
        return {"error": "no payments"}
    nominal: dict[str, float] = {}
    for month in month_range(min(months), max(months)):
        period = month_days(month)
        pence = 0
        hours = 0.0
        for res in results:
            pence += sum(amount.pence for amount in res.ledger.day_pay(period))
            hours += hours_worked(res.ledger, period, HoursDefinition.TRIBUNAL)
        if hours > 0.0:
            nominal[month] = (pence / 100.0) / hours
    if not nominal:
        return {"error": "no working months"}
    base = max(nominal)
    try:
        real = adjust_inflation(nominal, rpi, base)
    except MissingRpiMonth as exc:
        return {"error": str(exc), "nominal": nominal}
    return {"base_month": base, "nominal": nominal, "real": real}


def _take_rate_section(linked_all, tz: str) -> dict:
    shares = [lt for lt in linked_all if lt.driver_share is not None]
    if not shares:
        return {"n_trips": 0}
    hist = take_rate_histogram(shares)
    monthly: dict[str, list[float]] = {}
    for lt in shares:
        monthly.setdefault(trip_anchor(lt.trip).month(tz), []).append(lt.driver_share)

    def stats_dict(group_by: str) -> dict:
        s = take_rate_stats(shares, group_by)
        return {
            "mean": s.mean,
            "median": s.median,
            "drivers_at_or_above_075": s.drivers_at_or_above_075,
            "n_trips": s.n_trips,
            "n_drivers": s.n_drivers,
        }

    return {
        "by_trip": stats_dict("trip"),
        "by_driver": stats_dict("driver"),
        "histogram": hist,
        "monthly_median_share": {
            m: statistics.median(sorted(v)) for m, v in sorted(monthly.items())
        },
        "n_trips": len(shares),
    }


def _utilisation_section(results: Sequence[DriverResult]) -> dict:
    months = {f"{day:%Y-%m}" for res in results for day in res.ledger.time}
    out = {}
    for month in sorted(months):
        standby = en_route = on_trip = 0.0
        days = 0
        for res in results:
            u = utilisation_daily(res.ledger, month)
            if u.active_days == 0:
                continue
            standby += u.standby_hours * u.active_days
            en_route += u.en_route_hours * u.active_days
            on_trip += u.on_trip_hours * u.active_days
            days += u.active_days
        if days == 0:
            continue
        out[month] = {
            "standby_hours": standby / days,
            "en_route_hours": en_route / days,
            "on_trip_hours": on_trip / days,
            "active_driver_days": days,
        }
    return out


def _acceptance_section(results: Sequence[DriverResult], tz: str) -> dict:
    offers = [o for res in results for o in res.bundle.dispatches]
    if not offers:
        return {"overall": None, "monthly": {}}
    by_month: dict[str, list] = {}
    for o in offers:
        by_month.setdefault(o.offered_ts.month(tz), []).append(o)
    monthly = {month: acceptance_rate(by_month[month]) for month in sorted(by_month)}
    return {"overall": acceptance_rate(offers), "monthly": monthly, "n_offers": len(offers)}


def _distribution_section(linked_all, boundaries: EraBoundaries) -> dict | None:
    fixed: list[float] = []
    dynamic: list[float] = []
    for lt in linked_all:
        if lt.driver_share is None:
            continue
        era = era_of(trip_anchor(lt.trip), boundaries)
        if era is Era.FIXED_COMMISSION:
            fixed.append(lt.driver_share)
        elif era is Era.DYNAMIC_PRICING:
            dynamic.append(lt.driver_share)
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
    tz = options.tz
    boundaries = options.boundaries

    all_rows = [row for res in results for row in res.rows]
    linked_all = [lt for res in results for lt in res.links.linked]
    weeks = set(options.weeks) if options.weeks else None

    report: dict = {
        "parameters": {
            "link_window_seconds": options.link_window_s,
            "era_boundaries": {
                "opaque_start": options.opaque_start,
                "dynamic_start": options.dynamic_start,
            },
            "timezone": tz,
            "weeks_filter": sorted(weeks) if weeks else None,
            "cohort_pre": list(options.cohort_pre) if options.cohort_pre else None,
            "cohort_post": list(options.cohort_post) if options.cohort_post else None,
        },
        "bundles": {
            res.driver_id: {
                "ingest": res.report.to_dict(),
                "linkage": {
                    "linked": len(res.links.linked),
                    "unmatched_trips": len(res.links.unmatched_trips),
                    "unmatched_payments": len(res.links.unmatched_payments),
                },
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
                "driver_id": row.driver_id,
                "iso_week": row.iso_week,
                "net_pay_pounds": row.net_pay.pence / 100.0,
                "hours_tribunal": row.hours_tribunal,
                "hours_platform": row.hours_platform,
            }
            for row in sorted(all_rows, key=lambda r: (r.driver_id, r.iso_week))
        ],
        "pooled_rate_tribunal": _pooled_rate(all_rows, HoursDefinition.TRIBUNAL, weeks),
        "pooled_rate_platform": _pooled_rate(all_rows, HoursDefinition.PLATFORM, weeks),
        "weekly_pooled": _weekly_pooled(all_rows),
    }

    if rpi is not None:
        report["inflation"] = _monthly_real_rates(results, rpi)

    report["take_rates"] = _take_rate_section(linked_all, tz)

    linked_by_driver = {res.driver_id: res.links.linked for res in results}
    ledgers_by_driver = {res.driver_id: res.ledger for res in results}
    report["surplus"] = [
        {
            "month": p.month,
            "value": p.value,
            "interpolated": p.interpolated,
            "surplus_pence": p.surplus_pence,
            "on_trip_hours": p.on_trip_hours,
        }
        for p in surplus_series(linked_by_driver, ledgers_by_driver, tz)
    ]

    report["per_minute_by_split"] = [
        {
            "label": b.label,
            "n_trips": b.n_trips,
            "on_trip_minutes": b.on_trip_minutes,
            "driver_pence": b.driver_pence,
            "platform_pence": b.platform_pence,
            "fare_pence": b.fare_pence,
            "driver_per_min": b.driver_per_min,
            "platform_per_min": b.platform_per_min,
        }
        for b in per_minute_fare_by_split(linked_all)
    ]

    report["utilisation"] = _utilisation_section(results)
    report["acceptance"] = _acceptance_section(results, tz)

    if options.cohort_pre and options.cohort_post:
        split = cohort_pay_change(
            {res.driver_id: res.rows for res in results},
            {res.driver_id: res.bundle.trips for res in results},
            options.cohort_pre,
            options.cohort_post,
            tz,
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

    distribution = _distribution_section(linked_all, boundaries)
    if distribution is not None:
        report["share_distribution"] = distribution

    profiles = [res.bundle.profile for res in results if res.bundle.profile is not None]
    report["demographics"] = cohort_summary(profiles)

    era_totals: dict[str, int] = {}
    for res in results:
        for era_name, n in res.report.trips_per_era.items():
            era_totals[era_name] = era_totals.get(era_name, 0) + n
    report["trips_per_era"] = era_totals

    return report


# ---------------------------------------------------------------------------
# Charts


def render_charts(report: Mapping) -> list[tuple[str, str]]:
    """(filename, svg) pairs derived from report data only."""
    out: list[tuple[str, str]] = []

    weekly = report.get("weekly_pay", {}).get("weekly_pooled", {})
    if weekly:
        labels = list(weekly)
        out.append(
            (
                "weekly_rates.svg",
                charts.line_chart(
                    "Pooled pay per hour by week",
                    labels,
                    {
                        "tribunal": [weekly[w]["rate_tribunal"] for w in labels],
                        "platform": [weekly[w]["rate_platform"] for w in labels],
                    },
                    y_label="GBP/hour",
                ),
            )
        )

    hist = report.get("take_rates", {}).get("histogram")
    if hist:
        labels = list(hist)
        out.append(
            (
                "take_rate_hist.svg",
                charts.bar_chart(
                    "Driver share of rider fare", labels, [hist[k] for k in labels],
                    y_label="trips",
                ),
            )
        )

    surplus = report.get("surplus", [])
    if surplus:
        labels = [p["month"] for p in surplus]
        out.append(
            (
                "surplus.svg",
                charts.line_chart(
                    "Platform surplus per on-trip hour",
                    labels,
                    {"surplus": [p["value"] for p in surplus]},
                    y_label="GBP/hour",
                ),
            )
        )

    util = report.get("utilisation", {})
    if util:
        labels = list(util)
        out.append(
            (
                "utilisation.svg",
                charts.stacked_bar_chart(
                    "Hours per active day",
                    labels,
                    {
                        "on_trip": [util[m]["on_trip_hours"] for m in labels],
                        "en_route": [util[m]["en_route_hours"] for m in labels],
                        "standby": [util[m]["standby_hours"] for m in labels],
                    },
                    y_label="hours",
                ),
            )
        )

    per_min = report.get("per_minute_by_split", [])
    if per_min:
        labels = [b["label"] for b in per_min]
        out.append(
            (
                "per_minute_by_split.svg",
                charts.line_chart(
                    "Fare per on-trip minute by driver share",
                    labels,
                    {
                        "driver": [b["driver_per_min"] for b in per_min],
                        "platform": [b["platform_per_min"] for b in per_min],
                    },
                    y_label="GBP/min",
                ),
            )
        )

    dist = report.get("share_distribution")
    if dist:
        grid = dist["grid"]
        labels = [f"{g:.2f}" for g in grid]
        out.append(
            (
                "share_kde.svg",
                charts.line_chart(
                    "Driver share density by era",
                    labels,
                    {
                        "fixed_commission": list(dist["density_fixed_commission"]),
                        "dynamic_pricing": list(dist["density_dynamic_pricing"]),
                    },
                    y_label="density",
                ),
            )
        )

    return out
