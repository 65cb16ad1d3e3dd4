"""Release gate: eleven end-to-end criteria, one test and one verdict line each.

Every criterion exercises the public pipeline against generator ground truth
(or an independent numeric oracle) at a pinned tolerance. Tests print
"criterion NN ... PASS/FAIL" so a gate run reads as a checklist.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fareaudit.anonymize import anonymize, pseudonym
from fareaudit.cli import main
from fareaudit.ingest import load_bundle, normalize, write_bundle
from fareaudit.linkage import link
from fareaudit.metrics import (
    TripColumns,
    adjust_inflation,
    per_minute_fare_by_split,
    surplus_series,
    take_rate_histogram,
    weekly_rows,
    cohort_pay_change,
)
from fareaudit.model import (
    MS_PER_HOUR,
    AppSession,
    PaymentCategory,
    PaymentEvent,
    RpiSeries,
    TripRecord,
    TripStatus,
    format_instant,
    format_pence,
    month_index,
    parse_pence,
)
from fareaudit.predictability import feature_blocks, fit_ols, r2, year_matrix
from fareaudit.synthgen import (
    MARKER_PREFIX,
    CohortPlan,
    FareRule,
    GenConfig,
    generate,
)
from fareaudit.worktime import (
    Bucket,
    HoursDefinition,
    build_ledger,
    build_segments,
    hours_worked,
)
from conftest import instant, load_ground_truth

MIN = 60_000
SECOND_H = 1.0 / 3600.0


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d} [{label}]: FAIL")
        raise
    print(f"criterion {n:02d} [{label}]: PASS")


def process_fleet(root: Path) -> dict[str, SimpleNamespace]:
    """Run ingest -> linkage -> worktime -> weekly rows on every bundle."""
    out: dict[str, SimpleNamespace] = {}
    for directory in sorted(p for p in Path(root).iterdir() if p.is_dir()):
        bundle, _report = normalize(load_bundle(directory))
        links = link(bundle.trips, bundle.payments)
        timeline = build_segments(bundle.sessions, bundle.trips)
        ledger = build_ledger(
            timeline.segments, bundle.payments, bundle.trips, bundle.dispatches
        )
        rows = weekly_rows(ledger)
        out[bundle.driver_id] = SimpleNamespace(
            bundle=bundle, links=links, ledger=ledger, rows=rows
        )
    return out


# ---------------------------------------------------------------------------
# Shared fixtures (module scope: generated once, reused across criteria)


@pytest.fixture(scope="module")
def fixed_fleet(tmp_path_factory):
    """50 drivers x 1 year, 25% commission, 60s payment jitter."""
    root = tmp_path_factory.mktemp("fixed_fleet")
    cfg = GenConfig(
        seed=101,
        n_drivers=50,
        first_month="2021-01",
        last_month="2021-12",
        commission="0.25",
        jitter_sd_s=60.0,
        # shorter shifts keep the gate quick without changing the economics
        work_prob=0.5,
        session_min_h=2.0,
        session_max_h=4.0,
    )
    t0 = time.monotonic()
    generate(cfg, root)
    drivers = process_fleet(root)
    seconds = time.monotonic() - t0
    return SimpleNamespace(
        root=root, truth=load_ground_truth(root), drivers=drivers, seconds=seconds
    )


@pytest.fixture(scope="module")
def dynamic_fleet(tmp_path_factory):
    """Dynamic-pricing era only, sized for >=10k linked trips."""
    root = tmp_path_factory.mktemp("dynamic_fleet")
    cfg = GenConfig(
        seed=202, n_drivers=6, first_month="2023-03", last_month="2023-10"
    )
    generate(cfg, root)
    drivers = process_fleet(root)
    linked = [lt for d in drivers.values() for lt in d.links.linked]
    columns = [TripColumns.from_linked(d.links.linked) for d in drivers.values()]
    return SimpleNamespace(
        root=root, truth=load_ground_truth(root), drivers=drivers, linked=linked, columns=columns
    )


# ---------------------------------------------------------------------------
# 1. Fixed-era oracle round trip


def test_criterion_01_fixed_era_round_trip(fixed_fleet):
    with criterion(1, "fixed-era oracle round trip"):
        shares = [
            lt.driver_share
            for d in fixed_fleet.drivers.values()
            for lt in d.links.linked
        ]
        assert len(shares) > 10_000
        assert all(s == 0.75 for s in shares), "driver share must be exactly 0.75"

        truth_pairs = 0
        recovered = 0
        for driver_id, data in fixed_fleet.drivers.items():
            want = {
                tuple(pair)
                for pair in fixed_fleet.truth["drivers"][driver_id]["pairs"]
            }
            got = {
                (format_instant(lt.trip.request_ts), format_instant(p.ts), format_pence(p.amount))
                for lt in data.links.linked
                for p in lt.earnings
            }
            truth_pairs += len(want)
            recovered += len(want & got)
        assert truth_pairs > 0
        assert recovered / truth_pairs >= 0.99, (
            f"pair recovery {recovered}/{truth_pairs}"
        )
        assert fixed_fleet.seconds < 60.0, f"took {fixed_fleet.seconds:.1f}s"


# ---------------------------------------------------------------------------
# 2. Dynamic-era share recovery


def test_criterion_02_dynamic_share_recovery(dynamic_fleet):
    with criterion(2, "dynamic-era share recovery"):
        shares = [lt.driver_share for lt in dynamic_fleet.linked]
        assert len(shares) >= 10_000
        assert all(s is not None for s in shares)
        truth = dynamic_fleet.truth
        assert abs(statistics.fmean(shares) - truth["dynamic_share_mean"]) <= 0.005
        assert abs(statistics.median(shares) - truth["dynamic_share_median"]) <= 0.005

        counts = take_rate_histogram(dynamic_fleet.columns)
        total = sum(counts.values())
        for label, prob in truth["analytic_bin_probs"].items():
            mass = counts.get(label, 0) / total
            assert abs(mass - prob) <= 0.02, f"bin {label}: {mass:.4f} vs {prob:.4f}"


# ---------------------------------------------------------------------------
# 3. Working-time dominance on every driver-week


def test_criterion_03_working_time_dominance(fixed_fleet):
    with criterion(3, "working-time dominance per week"):
        weeks_checked = 0
        for driver_id, data in fixed_fleet.drivers.items():
            for _week, totals in data.rows:
                net_pay = totals.pay or 0
                hours_tribunal = hours_worked(totals, HoursDefinition.TRIBUNAL)
                hours_platform = hours_worked(totals, HoursDefinition.PLATFORM)
                assert hours_platform <= hours_tribunal
                if net_pay >= 0 and hours_tribunal > 0.0:
                    rate_t = net_pay / hours_tribunal
                    rate_p = (
                        net_pay / hours_platform
                        if hours_platform > 0.0
                        else math.inf
                        if net_pay > 0
                        else 0.0
                    )
                    assert rate_p >= rate_t or math.isclose(rate_p, rate_t)

            truth_weekly = fixed_fleet.truth["drivers"][driver_id]["weekly"]
            for week, want in truth_weekly.items():
                totals = data.ledger.weeks.get(week, Bucket())
                assert abs(totals.standby_ms / MS_PER_HOUR - want["standby_h"]) <= SECOND_H
                assert abs(totals.en_route_ms / MS_PER_HOUR - want["en_route_h"]) <= SECOND_H
                assert abs(totals.on_trip_ms / MS_PER_HOUR - want["on_trip_h"]) <= SECOND_H
                weeks_checked += 1
        assert weeks_checked > 1_000


# ---------------------------------------------------------------------------
# 4. Per-minute fare decomposition across share bins


def test_criterion_04_per_minute_split_pattern(dynamic_fleet):
    with criterion(4, "per-minute fare split pattern"):
        bins = [
            b
            for b in per_minute_fare_by_split(dynamic_fleet.columns)
            if b.n_trips
        ]
        assert len(bins) >= 3
        # per_minute_fare_by_split returns ascending-share bins; walk them in
        # descending share order
        descending = list(reversed(bins))
        for earlier, later in zip(descending, descending[1:]):
            assert later.platform_per_min > earlier.platform_per_min
            assert later.driver_per_min <= earlier.driver_per_min
        for b in bins:
            assert b.driver_pence + b.platform_pence == b.fare_pence


# ---------------------------------------------------------------------------
# 5. Predictability: stationary vs regime switch


def test_criterion_05_predictability_shift(tmp_path_factory):
    with criterion(5, "predictability stationary vs regime switch"):
        t0 = time.monotonic()
        stat_root = tmp_path_factory.mktemp("stationary")
        generate(
            GenConfig(
                seed=303, n_drivers=12, first_month="2019-01", last_month="2021-12"
            ),
            stat_root,
        )
        truth = load_ground_truth(stat_root)
        n_trips = sum(d["n_trip_rows"] for d in truth["drivers"].values())
        assert n_trips >= 100_000

        drivers = process_fleet(stat_root)
        blocks = [feature_blocks(d.links.linked) for d in drivers.values()]
        matrix = year_matrix(blocks, mode="single_year", seed=0)
        assert set(matrix.test_years) == {2019, 2020, 2021}
        for cell, value in matrix.cells.items():
            assert value is not None and value >= 0.9, f"cell {cell}: {value}"
        seconds = time.monotonic() - t0
        assert seconds < 120.0, f"took {seconds:.1f}s for {n_trips} trips"

        switch_root = tmp_path_factory.mktemp("switch")
        generate(
            GenConfig(
                seed=304,
                n_drivers=4,
                first_month="2019-01",
                last_month="2021-12",
                switch_year=2021,
                switch_rule=FareRule(100, 20, 85),
            ),
            switch_root,
        )
        drivers = process_fleet(switch_root)
        blocks = [feature_blocks(d.links.linked) for d in drivers.values()]
        matrix = year_matrix(blocks, mode="single_year", seed=0)
        cross = {(2021, 1), (2021, 2)}  # trained pre-switch, tested post-switch
        for cell in cross:
            assert matrix.cells[cell] < 0.3, f"cell {cell}: {matrix.cells[cell]}"
        for cell in set(matrix.cells) - cross:
            value = matrix.cells[cell]
            assert value is not None and value >= 0.9, f"cell {cell}: {value}"


# ---------------------------------------------------------------------------
# 6. Surplus gap handling


def trip_at(iso: str, on_min: int, fare: str) -> TripRecord:
    t0 = instant(iso)
    return TripRecord(
        request_ts=t0,
        accept_ts=t0 + 1 * MIN,
        pickup_ts=t0 + 5 * MIN,
        dropoff_ts=t0 + (5 + on_min) * MIN,
        distance_miles=5.0,
        status=TripStatus.COMPLETED,
        original_fare=parse_pence(fare),
    )


def pay_at(iso: str, amount: str) -> PaymentEvent:
    return PaymentEvent(
        instant(iso),
        PaymentCategory.TRIP_EARNINGS,
        parse_pence(amount),
    )


def test_criterion_06_surplus_gap_handling():
    with criterion(6, "surplus interpolation and edge gaps"):
        trips = [
            trip_at("2021-01-05T09:00:00Z", 60, "20.00"),
            trip_at("2021-03-05T09:00:00Z", 60, "20.00"),
        ]
        pays = [
            pay_at("2021-01-05T10:06:00Z", "12.00"),  # surplus 8 pounds/hour
            pay_at("2021-03-05T10:06:00Z", "8.00"),  # surplus 12 pounds/hour
        ]
        linked = TripColumns.from_linked(link(trips, pays).linked)
        segments = build_segments(
            [
                AppSession(
                    t.request_ts - 10 * MIN,
                    t.dropoff_ts + 10 * MIN,
                )
                for t in trips
            ],
            trips,
        ).segments
        ledger = build_ledger(segments, pays, [], [])
        series = {p.month: p for p in surplus_series([(linked, ledger.months)])}
        feb = series["2021-02"]
        assert feb.interpolated
        assert abs(feb.value - 10.0) < 1e-9
        assert not series["2021-01"].interpolated
        assert not series["2021-03"].interpolated
        # edge gaps are missing cells, never extrapolations
        assert set(series) == {"2021-01", "2021-02", "2021-03"}


# ---------------------------------------------------------------------------
# 7. Inflation identity and compounding


def test_criterion_07_inflation_identity_and_compounding():
    with criterion(7, "inflation identity and compounding"):
        months = range(month_index("2021-01"), month_index("2022-01") + 1)
        series = {m: 100.0 + 7.0 * i for i, m in enumerate(months)}
        zero = RpiSeries({m: 0.0 for m in months})
        adjusted = adjust_inflation(series, zero, month_index("2022-01"))
        assert all(adjusted[m] == series[m] for m in months)  # bit-identical

        ten = RpiSeries({m: 10.0 for m in months})
        adjusted = adjust_inflation({months[0]: 100.0}, ten, month_index("2022-01"))
        assert abs(adjusted[months[0]] - 110.0) <= 1e-9 * 110.0


# ---------------------------------------------------------------------------
# 8. Regression correctness against independent oracles


def test_criterion_08_ols_against_oracles():
    with criterion(8, "least squares vs oracle"):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(400, 30))
        beta = rng.normal(size=30)
        y = X @ beta + 2.5
        model = fit_ols(X, y)
        assert np.max(np.abs(model.coefficients - beta)) < 1e-6
        assert abs(model.intercept - 2.5) < 1e-6

        for seed in (80, 81, 82):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(500, 60))
            y = X @ rng.normal(size=60) + rng.normal(scale=5.0, size=500)
            model = fit_ols(X, y)
            ones = np.column_stack([np.ones(len(X)), X])
            theta = np.linalg.pinv(ones) @ y
            resid = y - ones @ theta
            oracle = 1.0 - (resid @ resid) / ((y - y.mean()) @ (y - y.mean()))
            assert abs(r2(model, X, y) - oracle) < 1e-6


# ---------------------------------------------------------------------------
# 9. Cohort partition recovery


def test_criterion_09_cohort_partition(tmp_path_factory):
    with criterion(9, "cohort partition recovery"):
        root = tmp_path_factory.mktemp("cohort")
        plan = CohortPlan(
            window_pre=("2021-02", "2021-03"),
            window_post=("2021-05", "2021-06"),
            cut_fraction=0.5,
            gap_drivers=1,
        )
        generate(
            GenConfig(
                seed=404,
                n_drivers=6,
                first_month="2021-01",
                last_month="2021-07",
                cohort=plan,
            ),
            root,
        )
        truth = load_ground_truth(root)["cohort"]
        drivers = process_fleet(root)
        split = cohort_pay_change(
            {d: data.rows for d, data in drivers.items()},
            {d: data.ledger.months for d, data in drivers.items()},
            plan.window_pre,
            plan.window_post,
        )
        assert sorted(split.qualified) == sorted(truth["qualified"])
        assert sorted(split.paid_less) == sorted(truth["paid_less"])
        assert sorted(split.paid_same_or_more) == sorted(truth["paid_same_or_more"])
        assert truth["excluded"]
        for driver_id in truth["excluded"]:
            assert driver_id not in split.qualified


# ---------------------------------------------------------------------------
# 10. Anonymization sweep


def test_criterion_10_anonymization_sweep(fixed_fleet, tmp_path):
    with criterion(10, "anonymization marker sweep"):
        marker = MARKER_PREFIX
        raw_hits = sum(
            path.read_text().count(marker)
            for path in fixed_fleet.root.rglob("*.csv")
        )
        assert raw_hits > 0, "fixture must contain strippable markers"

        salt = b"acceptance-salt-0123456789"
        out = tmp_path / "anon"
        names = []
        for directory in sorted(p for p in fixed_fleet.root.iterdir() if p.is_dir()):
            bundle, _ = normalize(load_bundle(directory))
            clean = anonymize(bundle, salt)
            write_bundle(clean, out / clean.driver_id)
            names.append(clean.driver_id)
            assert clean.driver_id == pseudonym(bundle.driver_id, salt)  # stable

        assert len(set(names)) == len(names) == 50
        for path in out.rglob("*"):
            if path.is_file():
                assert marker not in path.read_text(), path


# ---------------------------------------------------------------------------
# 11. Determinism of the command line pipeline


def test_criterion_11_cli_determinism(tmp_path_factory):
    with criterion(11, "byte-identical reruns"):
        root = tmp_path_factory.mktemp("determinism")
        generate(
            GenConfig(
                seed=505, n_drivers=2, first_month="2021-09", last_month="2022-08"
            ),
            root,
        )
        out = tmp_path_factory.mktemp("out")

        audits = []
        for name, jobs in (("a1", "1"), ("a2", "1"), ("a3", "3")):
            dest = out / name
            assert main(["audit", str(root), "--out", str(dest), "--jobs", jobs]) == 0
            audits.append((dest / "audit_report.json").read_bytes())
        assert audits[0] == audits[1] == audits[2]
        json.loads(audits[0])  # parses cleanly

        predicts = []
        for name, jobs in (("p1", "1"), ("p2", "1"), ("p3", "3")):
            dest = out / name
            assert main(["predict", str(root), "--out", str(dest), "--jobs", jobs]) == 0
            predicts.append(
                (dest / "predict_matrix.csv").read_bytes()
                + (dest / "predict_matrix.json").read_bytes()
            )
        assert predicts[0] == predicts[1] == predicts[2]
