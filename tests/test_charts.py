"""What the SVG charts draw, and which charts `audit --charts` writes for a
fleet whose report leaves a section empty."""

import pytest

from fareaudit.charts import line_chart
from fareaudit.cli import main
from fareaudit.synthgen import GenConfig, generate

ALL_CHARTS = {
    "weekly_rates.svg",
    "take_rate_hist.svg",
    "surplus.svg",
    "utilisation.svg",
    "per_minute_by_split.svg",
    "share_kde.svg",
}


def test_a_lone_point_is_a_circle_and_a_run_is_a_polyline():
    svg = line_chart("t", ["a", "b", "c", "d"], {"s": [1.0, None, 2.0, 3.0]}, "y")
    assert svg.count("<circle") == 1
    assert svg.count("<polyline") == 1
    assert "no data" not in svg


def test_a_series_of_only_gaps_draws_the_no_data_frame():
    svg = line_chart("t", ["a", "b"], {"s": [None, None]}, "y")
    assert "no data" in svg
    assert "<circle" not in svg and "<polyline" not in svg
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


@pytest.mark.parametrize(
    "config, left_out",
    [
        # fixed commission only: no dynamic-pricing trips to compare shares with
        (
            GenConfig(seed=21, n_drivers=2, first_month="2021-05", last_month="2021-06"),
            {"share_kde.svg"},
        ),
        # every trip in the opaque gap, where no trip has a share: time and pay
        # are still charted
        (
            GenConfig(seed=22, n_drivers=2, first_month="2022-04", last_month="2022-05"),
            {"take_rate_hist.svg", "surplus.svg", "per_minute_by_split.svg", "share_kde.svg"},
        ),
    ],
)
def test_audit_writes_no_chart_for_an_empty_section(tmp_path, config, left_out):
    fleet, out = tmp_path / "fleet", tmp_path / "out"
    generate(config, fleet)
    assert main(["audit", str(fleet), "--out", str(out), "--charts"]) == 0
    assert {path.name for path in out.glob("*.svg")} == ALL_CHARTS - left_out
