"""Tests of the benchmark itself: each output check must reject a wrong output.

    python3 bench/selftest.py

Run from the root of a checkout. It generates each workload's fleet, runs the
workload's command once, asserts that the checks pass on that output, then
alters one thing at a time and asserts that the checks fail.
It also asserts that a traced run's self times add up to its span totals, and
that ``BENCHMARK.json`` names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest

import checks
import run
import tracer

ROOT = run.BENCH_DIR.parent
WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
MINUTE_H = 1.0 / 60.0


def setUpModule() -> None:
    WORK.mkdir(parents=True)


def tearDownModule() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


class Fleet:
    """A workload's fleet, generated with seed 1, and one ``--jobs 1`` output of it."""

    def __init__(self, name: str, spans: bool = False) -> None:
        spec = run.WORKLOADS[name]
        self.name = name
        self.work = WORK / name
        self.work.mkdir()
        cli = run.Cli(ROOT, self.work)
        self.fleet = self.work / "fleet"
        cli.synth({**spec["config"], "seed": 1}, self.fleet)
        run.add_pinned(cli, spec, self.fleet)
        self.out = self.work / "out"
        self.spans = self.work / "spans.json" if spans else None
        code = cli.run(run.command(spec, self.fleet, self.out, 1), 0, self.spans)[2]
        assert code == 0, f"{name}: CLI exit code {code}"
        self.truth = json.loads((self.fleet / "ground_truth.json").read_text())

    def report(self) -> dict:
        return json.loads((self.out / "audit_report.json").read_text())


class AuditChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.wide = Fleet("audit_wide")
        cls.eras = Fleet("audit_eras", spans=True)

    def assertRejects(self, fleet: Fleet, mutate) -> None:
        report = fleet.report()
        mutate(report)
        check = checks.check_audit_wide if fleet.name == "audit_wide" else checks.check_audit_eras
        self.assertTrue(check(report, fleet.truth, fleet.fleet, fleet.out))

    def test_unaltered_outputs_pass(self) -> None:
        for fleet in (self.wide, self.eras):
            self.assertEqual(checks.check_output(fleet.name, fleet.out, fleet.fleet), [])

    def test_weekly_hour_shifted_by_a_minute(self) -> None:
        def shift(report):
            report["weekly_pay"]["rows"][3]["hours_tribunal"] += MINUTE_H

        self.assertRejects(self.wide, shift)

    def test_platform_hours_above_tribunal(self) -> None:
        def swap(report):
            row = report["weekly_pay"]["rows"][0]
            row["hours_tribunal"], row["hours_platform"] = row["hours_platform"], row["hours_tribunal"]

        self.assertRejects(self.wide, swap)

    def test_weekly_pay_off_by_a_penny(self) -> None:
        def penny(report):
            report["weekly_pay"]["rows"][-1]["net_pay_pounds"] += 0.01

        self.assertRejects(self.eras, penny)

    def test_weekly_row_missing(self) -> None:
        self.assertRejects(self.wide, lambda r: r["weekly_pay"]["rows"].pop(5))

    def test_failed_bundle(self) -> None:
        def fail(report):
            report["failures"] = [{"driver_id": "driver009", "reason": "boom"}]

        self.assertRejects(self.wide, fail)

    def test_quarantine_count(self) -> None:
        def count(report):
            tables = report["bundles"]["driver001"]["ingest"]["tables"]
            tables["payments"]["rows_quarantined"] -= 1

        self.assertRejects(self.eras, count)

    def test_dedupe_count(self) -> None:
        def count(report):
            tables = report["bundles"]["driver000"]["ingest"]["tables"]
            tables["payments"]["rows_deduped"] += 1

        self.assertRejects(self.eras, count)

    def test_trips_per_era_total(self) -> None:
        def count(report):
            report["trips_per_era"]["fixed_commission"] -= 1

        self.assertRejects(self.wide, count)

    def test_linked_count(self) -> None:
        def count(report):
            report["bundles"]["driver002"]["linkage"]["linked"] -= 1

        self.assertRejects(self.wide, count)

    def test_acceptance(self) -> None:
        def rate(report):
            report["acceptance"]["overall"] += 0.001

        self.assertRejects(self.eras, rate)

    def test_median_share_not_exact(self) -> None:
        def share(report):
            month = sorted(report["take_rates"]["monthly_median_share"])[0]
            report["take_rates"]["monthly_median_share"][month] = 0.750001

        self.assertRejects(self.wide, share)

    def test_interpolation_flag(self) -> None:
        def flip(report):
            point = next(p for p in report["surplus"] if p["interpolated"])
            point["interpolated"] = False

        self.assertRejects(self.eras, flip)

    def test_inflation_not_compounded(self) -> None:
        def rate(report):
            month = sorted(report["inflation"]["real"])[0]
            report["inflation"]["real"][month] *= 1.001

        self.assertRejects(self.eras, rate)

    def test_cohort_lists_swapped(self) -> None:
        def swap(report):
            cohort = report["cohort"]
            cohort["paid_less"], cohort["paid_same_or_more"] = (
                cohort["paid_same_or_more"],
                cohort["paid_less"],
            )

        self.assertRejects(self.eras, swap)

    def test_chart_not_xml(self) -> None:
        out = self.eras.work / "broken_charts"
        shutil.copytree(self.eras.out, out)
        svg = out / "surplus.svg"
        svg.write_text(svg.read_text()[:-20])
        self.assertTrue(checks.check_output("audit_eras", out, self.eras.fleet))

    def test_rerun_comparison(self) -> None:
        out = self.eras.work / "altered"
        shutil.copytree(self.eras.out, out)
        self.assertEqual(checks.differing_files(self.eras.out, out), [])
        (out / "utilisation.svg").write_text((out / "utilisation.svg").read_text() + " ")
        self.assertEqual(checks.differing_files(self.eras.out, out), ["utilisation.svg"])

    def test_self_times_add_up(self) -> None:
        spans = json.loads(self.eras.spans.read_text())
        own = tracer.self_times(spans)
        children: dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        for i, span in enumerate(spans):
            self.assertGreaterEqual(own[i], 0.0)
            self.assertAlmostEqual(
                own[i] + children.get(i, 0.0), span["end"] - span["start"], places=9
            )
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        self.assertAlmostEqual(sum(own), roots, places=9)

        layers = tracer.layer_metrics(spans)
        build = next(
            i for i, s in enumerate(spans) if s["name"] == "report.build_report"
        )
        self.assertAlmostEqual(layers["report.build_report_self_s"], own[build], places=9)
        self.assertGreater(layers["worktime.hours_worked_calls"], 0)
        self.assertGreater(layers["ingest.rows_quarantined"], 0)


class PredictChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.long = Fleet("predict_long")

    def rejects(self, mutate) -> list[str]:
        out = self.long.work / "altered"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(self.long.out, out)
        payload = json.loads((out / "predict_matrix.json").read_text())
        csv_lines = (out / "predict_matrix.csv").read_text().splitlines()
        mutate(payload, csv_lines)
        (out / "predict_matrix.json").write_text(json.dumps(payload))
        (out / "predict_matrix.csv").write_text("\n".join(csv_lines) + "\n")
        problems = checks.check_output("predict_long", out, self.long.fleet)
        self.assertTrue(problems)
        return problems

    def cell(self, payload: dict, year: int, lag: str) -> dict:
        return next(c for c in payload["cells"] if (c["test_year"], c["lag"]) == (year, lag))

    def test_unaltered_output_passes(self) -> None:
        self.assertEqual(checks.check_output("predict_long", self.long.out, self.long.fleet), [])

    def test_cross_switch_cell_above_threshold(self) -> None:
        self.rejects(lambda p, c: self.cell(p, 2021, "Y-1").update(r2=0.31))

    def test_stationary_cell_below_threshold(self) -> None:
        self.rejects(lambda p, c: self.cell(p, 2020, "Y-1").update(r2=0.89))

    def test_csv_disagrees_with_json(self) -> None:
        def edit(payload, csv_lines):
            csv_lines[1] = csv_lines[1].replace("1.000", "0.990", 1)

        self.rejects(edit)

    def test_missing_test_year(self) -> None:
        def drop(payload, csv_lines):
            payload["cells"] = [c for c in payload["cells"] if c["test_year"] != 2019]
            del csv_lines[1]

        self.rejects(drop)

    def test_linked_total(self) -> None:
        self.rejects(lambda p, c: self.cell(p, 2020, "Y").update(test_n=self.cell(p, 2020, "Y")["test_n"] - 1))


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            sorted(m["name"] for m in spec["end_to_end"]), sorted(run.END_TO_END_UNITS)
        )
        traced = set(tracer.layer_metrics([])) | {"trace.overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, traced)
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], tracer.unit(metric["name"]))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_layer_metrics_of_nested_spans(self) -> None:
        spans = [
            {"name": "report.build_report", "parent": None, "start": 0.0, "end": 10.0},
            {"name": "worktime.hours_worked", "parent": 0, "start": 1.0, "end": 3.0},
            {"name": "metrics.surplus_series", "parent": 0, "start": 4.0, "end": 8.0},
            {"name": "worktime.hours_worked", "parent": 2, "start": 5.0, "end": 6.0},
        ]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 3.0, 1.0])
        layers = tracer.layer_metrics(spans)
        self.assertEqual(layers["report.build_report_s"], 10.0)
        self.assertEqual(layers["report.build_report_self_s"], 4.0)
        self.assertEqual(layers["worktime.hours_worked_s"], 3.0)
        self.assertEqual(layers["worktime.hours_worked_calls"], 2)


if __name__ == "__main__":
    if not (ROOT / "src" / "fareaudit" / "cli.py").is_file():
        sys.exit("run from a fareaudit checkout")
    unittest.main()
