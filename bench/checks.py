"""Output checks for the benchmark, computed apart from the program.

Every expectation comes from the generator's ``ground_truth.json``, from the
raw CSV files the generator wrote, or from a property the method must have.
Nothing here imports ``fareaudit``, and nothing compares against a stored copy
of earlier output. Each check returns a list of problems; an empty list passes.

Reports round floats to six significant digits, so float comparisons allow for
that rounding and nothing more.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

SECOND_H = 1.0 / 3600.0
CHART_FILES = (
    "per_minute_by_split.svg",
    "share_kde.svg",
    "surplus.svg",
    "take_rate_hist.svg",
    "utilisation.svg",
    "weekly_rates.svg",
)
MAX_PROBLEMS = 20


def round6(value: float) -> float:
    """The report's documented rounding: six significant digits."""
    return float(f"{value:.6g}")


def rounding_slack(value: float) -> float:
    """Twice the largest error six-significant-digit rounding can add."""
    return 1e-5 * abs(value)


def month_add(month: str, n: int) -> str:
    year, mon = int(month[:4]), int(month[5:7])
    index = year * 12 + mon - 1 + n
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


# ---------------------------------------------------------------------------
# Expectations read from the generated inputs


def truth_totals(truth: dict) -> dict:
    drivers = truth["drivers"].values()
    return {
        "trip_rows": sum(d["n_trip_rows"] for d in drivers),
        "pairs": sum(len(d["pairs"]) for d in drivers),
        "offers": sum(d["offers_total"] for d in drivers),
        "accepted": sum(d["offers_accepted"] for d in drivers),
    }


def injected_rows(fleet: Path, truth: dict) -> dict[str, dict[str, dict[str, int]]]:
    """Expected per-table dedupe and quarantine counts of each bundle.

    The generator appends corrupt rows after the good ones: duplicated
    payment lines, then malformed-money payment lines, and trip lines with
    pickup and dropoff swapped. Two swapped copies of one trip are identical
    lines, so the second one counts as a duplicate, not as a bad row.
    """
    out: dict[str, dict[str, dict[str, int]]] = {}
    for driver_id, info in truth["drivers"].items():
        plan = info["corruptions"]
        inverted = plan.get("inverted_trips", 0)
        distinct = 0
        if inverted:
            lines = (fleet / driver_id / "trips.csv").read_text(encoding="utf-8").splitlines()
            distinct = len(set(lines[-inverted:]))
        out[driver_id] = {
            "trips": {"rows_deduped": inverted - distinct, "rows_quarantined": distinct},
            "payments": {
                "rows_deduped": plan.get("duplicate_payments", 0),
                "rows_quarantined": plan.get("malformed_money", 0),
            },
        }
    return out


# ---------------------------------------------------------------------------
# audit_report.json


def check_audit_common(report: dict, truth: dict, fleet: Path) -> list[str]:
    problems: list[str] = []
    totals = truth_totals(truth)
    drivers = truth["drivers"]

    if report.get("failures"):
        problems.append(f"failed bundles: {report['failures']}")
    if sorted(report.get("bundles", {})) != sorted(drivers):
        problems.append("bundle list differs from the generated drivers")
        return problems

    expected_rows = injected_rows(fleet, truth)
    for driver_id, bundle in sorted(report["bundles"].items()):
        tables = bundle["ingest"]["tables"]
        for table, want in expected_rows[driver_id].items():
            got = {k: tables[table][k] for k in want}
            if got != want:
                problems.append(f"{driver_id} {table}: counts {got}, injected {want}")
        linked = bundle["linkage"]["linked"]
        pairs = len(drivers[driver_id]["pairs"])
        if linked != pairs:
            problems.append(f"{driver_id}: linked {linked}, truth pairs {pairs}")

    era_total = sum(report["trips_per_era"].values())
    if era_total != totals["trip_rows"]:
        problems.append(
            f"trips_per_era sums to {era_total}, truth has {totals['trip_rows']} good trip rows"
        )

    problems += check_weekly_rows(report["weekly_pay"]["rows"], truth)

    want = totals["accepted"] / totals["offers"]
    got = report["acceptance"]["overall"]
    if got is None or abs(got - want) > rounding_slack(want):
        problems.append(f"overall acceptance {got}, truth {want}")
    return problems


def check_weekly_rows(rows: list[dict], truth: dict) -> list[str]:
    """Pay exact to the penny, hours within one second of the generator's schedule."""
    problems: list[str] = []
    expected = set()
    for driver_id, info in truth["drivers"].items():
        for week, w in info["weekly"].items():
            hours = w["standby_h"] + w["en_route_h"] + w["on_trip_h"]
            if w["pay_pence"] != 0 or hours > 0.0:
                expected.add((driver_id, week))
    seen = set()
    for row in rows:
        key = (row["driver_id"], row["iso_week"])
        seen.add(key)
        want = truth["drivers"].get(key[0], {}).get("weekly", {}).get(key[1])
        if want is None:
            problems.append(f"{key}: week not in ground truth")
            continue
        pay = round6(want["pay_pence"] / 100.0)
        if row["net_pay_pounds"] != pay:
            problems.append(f"{key}: net pay {row['net_pay_pounds']}, truth {pay}")
        platform = want["en_route_h"] + want["on_trip_h"]
        tribunal = platform + want["standby_h"]
        for name, truth_h in (("hours_tribunal", tribunal), ("hours_platform", platform)):
            if abs(row[name] - truth_h) > SECOND_H + rounding_slack(truth_h):
                problems.append(f"{key}: {name} {row[name]}, truth {truth_h}")
        if row["hours_platform"] > row["hours_tribunal"]:
            problems.append(f"{key}: platform hours exceed tribunal hours")
    if seen != expected:
        problems.append(
            f"weekly rows: {len(seen - expected)} unexpected, {len(expected - seen)} missing"
        )
    return problems[:MAX_PROBLEMS]


def check_audit_wide(report: dict, truth: dict, fleet: Path, out: Path) -> list[str]:
    problems = check_audit_common(report, truth, fleet)
    medians = report["take_rates"].get("monthly_median_share", {})
    if not medians:
        problems.append("no monthly median shares")
    for month, share in sorted(medians.items()):
        if share != 0.75:
            problems.append(f"monthly median share {month}: {share}, expected exactly 0.75")
    return problems


def check_audit_eras(report: dict, truth: dict, fleet: Path, out: Path) -> list[str]:
    problems = check_audit_common(report, truth, fleet)
    config = truth["config"]

    opaque = [
        p["month"]
        for p in report["surplus"]
        if config["opaque_start"] <= p["month"] < config["dynamic_start"]
    ]
    if not opaque:
        problems.append("surplus series has no opaque-gap months")
    for point in report["surplus"]:
        in_gap = config["opaque_start"] <= point["month"] < config["dynamic_start"]
        if point["interpolated"] != in_gap:
            problems.append(
                f"surplus {point['month']}: interpolated={point['interpolated']}, "
                f"opaque gap={in_gap}"
            )

    problems += check_inflation(report.get("inflation"), fleet / "rpi.csv")

    want = truth["cohort"]
    got = report.get("cohort")
    if got is None:
        problems.append("no cohort section")
    else:
        for key in ("qualified", "paid_less", "paid_same_or_more"):
            if sorted(got[key]) != sorted(want[key]):
                problems.append(f"cohort {key}: {got[key]}, truth {want[key]}")

    for name in CHART_FILES:
        path = out / name
        if not path.is_file():
            problems.append(f"chart {name} missing")
            continue
        try:
            ET.parse(path)
        except ET.ParseError as exc:
            problems.append(f"chart {name} is not XML: {exc}")
    return problems


def check_inflation(section: dict | None, rpi_path: Path) -> list[str]:
    """Each real rate is the nominal one compounded monthly up to the base month."""
    if not section or "real" not in section:
        return [f"no inflation-adjusted series: {section}"]
    yoy = {}
    for line in rpi_path.read_text(encoding="utf-8").splitlines()[1:]:
        month, pct = line.split(",")
        yoy[month] = float(pct)
    base = section["base_month"]
    problems = []
    for month, nominal in sorted(section["nominal"].items()):
        factor = 1.0
        cursor = month
        while cursor < base:
            cursor = month_add(cursor, 1)
            factor *= (1.0 + yoy[cursor] / 100.0) ** (1.0 / 12.0)
        want = nominal * factor
        got = section["real"][month]
        if abs(got - want) > 2 * rounding_slack(want):
            problems.append(f"real rate {month}: {got}, compounded {want}")
    if sorted(section["real"]) != sorted(section["nominal"]):
        problems.append("real and nominal series cover different months")
    return problems


# ---------------------------------------------------------------------------
# predict_matrix.{csv,json}


def check_predict_long(out: Path, truth: dict, fleet: Path) -> list[str]:
    problems: list[str] = []
    payload = json.loads((out / "predict_matrix.json").read_text(encoding="utf-8"))
    cells = {(c["test_year"], c["lag"]): c for c in payload["cells"]}
    switch = truth["config"]["switch_year"]

    years = {year for year, _ in cells}
    if years != {2019, 2020, 2021}:
        problems.append(f"test years {sorted(years)}")

    for (year, lag), cell in sorted(cells.items()):
        lag_n = 0 if lag == "Y" else int(lag[2:])
        crosses = year >= switch > year - lag_n
        value = cell["r2"]
        if value is None:
            problems.append(f"cell {year} {lag} is empty")
        elif crosses and not value < 0.3:
            problems.append(f"cell {year} {lag} trained before the switch: R2 {value} >= 0.3")
        elif not crosses and not value >= 0.9:
            problems.append(f"cell {year} {lag}: R2 {value} < 0.9")

    per_year = {
        year: c["train_n"] + c["test_n"] for (year, lag), c in cells.items() if lag == "Y"
    }
    for (year, lag), cell in sorted(cells.items()):
        if lag == "Y":
            continue
        source = year - int(lag[2:])
        if (cell["train_n"], cell["test_n"]) != (per_year.get(source), per_year.get(year)):
            problems.append(f"cell {year} {lag}: counts do not match the year totals")
    pairs = truth_totals(truth)["pairs"]
    if sum(per_year.values()) != pairs:
        problems.append(f"matrix holds {sum(per_year.values())} linked trips, truth {pairs} pairs")

    lines = (out / "predict_matrix.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")[1:]
    csv_cells = {}
    for line in lines[1:]:
        fields = line.split(",")
        for lag, text in zip(header, fields[1:]):
            if text:
                csv_cells[(int(fields[0]), lag)] = float(text)
    json_cells = {k: c["r2"] for k, c in cells.items() if c["r2"] is not None}
    if set(csv_cells) != set(json_cells):
        problems.append("CSV and JSON carry different cells")
    else:
        for key, value in csv_cells.items():
            if abs(value - json_cells[key]) > 0.0005 + rounding_slack(value):
                problems.append(f"cell {key}: CSV {value}, JSON {json_cells[key]}")
    return problems


def check_output(kind: str, out: Path, fleet: Path) -> list[str]:
    """Check one finished CLI run's output directory; ``kind`` names the workload."""
    truth = json.loads((fleet / "ground_truth.json").read_text(encoding="utf-8"))
    try:
        if kind == "predict_long":
            return check_predict_long(out, truth, fleet)
        report = json.loads((out / "audit_report.json").read_text(encoding="utf-8"))
        check = check_audit_wide if kind == "audit_wide" else check_audit_eras
        return check(report, truth, fleet, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of output files that are not byte-identical between two runs."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        n for n in names
        if not ((a / n).is_file() and (b / n).is_file()
                and (a / n).read_bytes() == (b / n).read_bytes())
    ]

