import hashlib
import json
import math
from pathlib import Path

import pytest

from fareaudit.ingest import load_bundle, normalize
from fareaudit.model import Era, TripStatus, era_of
from fareaudit.synthgen import (
    CohortPlan,
    CorruptionPlan,
    FareRule,
    GenConfig,
    InvalidConfig,
    analytic_bin_probs,
    generate,
)
from conftest import load_ground_truth, london


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


SMALL = dict(seed=5, n_drivers=2, first_month="2021-02", last_month="2021-04")


def test_config_validation():
    with pytest.raises(InvalidConfig):
        GenConfig(n_drivers=0)
    with pytest.raises(InvalidConfig):
        GenConfig(first_month="2021-05", last_month="2021-01")
    with pytest.raises(InvalidConfig):
        GenConfig(commission="1.50")
    with pytest.raises(InvalidConfig):
        GenConfig(gender_mix=(("M", 0.5),))  # weights must sum to 1
    with pytest.raises(InvalidConfig):
        GenConfig(cohort=CohortPlan(("2021-01", "2021-03"), ("2021-02", "2021-04")))


def test_config_from_json_roundtrip(tmp_path):
    cfg = GenConfig(**SMALL)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = GenConfig.from_json(path)
    assert again == cfg


def test_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    with pytest.raises(InvalidConfig):
        GenConfig.from_json(path)


def test_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(GenConfig(**SMALL), a)
    generate(GenConfig(**SMALL), b)
    assert tree_digest(a) == tree_digest(b)
    c = tmp_path / "c"
    generate(GenConfig(**{**SMALL, "seed": 6}), c)
    assert tree_digest(a) != tree_digest(c)


def test_ground_truth_row_counts_match_files(tmp_path):
    generate(GenConfig(**SMALL), tmp_path)
    truth = load_ground_truth(tmp_path)
    for driver_id, d in truth["drivers"].items():
        trips_lines = (tmp_path / driver_id / "trips.csv").read_text().strip().split("\n")
        pay_lines = (tmp_path / driver_id / "payments.csv").read_text().strip().split("\n")
        assert len(trips_lines) - 1 == d["n_trip_rows"]
        assert len(pay_lines) - 1 == d["n_payment_rows"]
        assert d["n_completed"] + d["n_cancelled"] == d["n_trip_rows"]


def test_generated_bundles_normalize_cleanly(tmp_path):
    generate(GenConfig(**SMALL), tmp_path)
    truth = load_ground_truth(tmp_path)
    for driver_id in truth["drivers"]:
        bundle, report = normalize(load_bundle(tmp_path / driver_id))
        for table in report.tables.values():
            assert table.rows_quarantined == 0
        statuses = {t.status for t in bundle.trips}
        assert TripStatus.COMPLETED in statuses


def test_fixed_era_pay_is_exact_commission(tmp_path):
    generate(GenConfig(**SMALL, commission="0.25"), tmp_path)
    truth = load_ground_truth(tmp_path)
    assert truth["fixed_share"] == 0.75
    for d in truth["drivers"].values():
        for share in d["shares"].values():
            assert share == 0.75


def test_opaque_gap_trips_have_pay_valued_fare(tmp_path):
    cfg = GenConfig(seed=9, n_drivers=1, first_month="2022-03", last_month="2022-04")
    generate(cfg, tmp_path)
    truth = load_ground_truth(tmp_path)
    (driver_id,) = truth["drivers"]
    bundle, _ = normalize(load_bundle(tmp_path / driver_id))
    for t in bundle.trips:
        if t.status is not TripStatus.COMPLETED:
            continue
        assert era_of(t.dropoff_ts) is Era.OPAQUE_GAP
        assert t.original_fare is not None
    assert truth["drivers"][driver_id]["shares"] == {}


def test_corruptions_are_appended_rows(tmp_path):
    plan = CorruptionPlan(duplicate_payments=3, inverted_trips=2, malformed_money=2)
    cfg = GenConfig(**SMALL, corrupt=plan)
    clean_dir = tmp_path / "clean"
    dirty_dir = tmp_path / "dirty"
    generate(GenConfig(**SMALL), clean_dir)
    generate(cfg, dirty_dir)
    truth = load_ground_truth(dirty_dir)
    total = {"duplicate_payments": 0, "inverted_trips": 0, "malformed_money": 0}
    for driver_id, d in truth["drivers"].items():
        for kind, n in d["corruptions"].items():
            total[kind] += n
        bundle, report = normalize(load_bundle(dirty_dir / driver_id))
        bad = d["corruptions"]
        assert report.tables["payments"].rows_deduped >= bad["duplicate_payments"]
        quarantined = report.tables["payments"].rows_quarantined + report.tables[
            "trips"
        ].rows_quarantined
        assert quarantined == bad["inverted_trips"] + bad["malformed_money"]
    assert total["duplicate_payments"] == 3
    assert total["inverted_trips"] == 2
    assert total["malformed_money"] == 2


def test_markers_present_before_anonymization(tmp_path):
    generate(GenConfig(**SMALL), tmp_path)
    truth = load_ground_truth(tmp_path)
    marker = truth["config"]["marker_prefix"]
    blob = b"".join(
        p.read_bytes() for p in sorted(tmp_path.rglob("*.csv"))
    )
    assert marker.encode() in blob


def test_analytic_bin_probs_normalized():
    cfg = GenConfig(seed=1, n_drivers=1, first_month="2023-03", last_month="2023-06")
    probs = analytic_bin_probs(cfg)
    assert probs
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0 for p in probs.values())


def test_analytic_bin_probs_match_monte_carlo():
    cfg = GenConfig(seed=1, n_drivers=1, first_month="2023-03", last_month="2023-06")
    probs = analytic_bin_probs(cfg)

    # crude Monte Carlo oracle over the same generative model
    import numpy as np

    from fareaudit.metrics import DEFAULT_SPLIT_BINS, bin_labels, _bin_index

    rng = np.random.default_rng(123)
    dm = cfg.duration_dynamic
    mu = math.log(dm.median_s)
    n = 200_000
    samples = []
    while len(samples) < n:
        draw = rng.lognormal(mu, dm.sigma, n)
        draw = draw[(draw >= dm.lo_s) & (draw <= dm.hi_s)]
        samples.extend(draw.tolist())
    samples = np.asarray(samples[:n])
    minutes = samples / 60.0
    fare = np.maximum(np.round(cfg.dynamic_per_min_pence * minutes), 100.0)
    mean_share = cfg.share.intercept - cfg.share.per_pound * fare / 100.0
    share = np.clip(
        mean_share + rng.normal(0.0, cfg.share.noise_sd, n), cfg.share.lo, cfg.share.hi
    )
    labels = bin_labels(DEFAULT_SPLIT_BINS)
    counts = dict.fromkeys(labels, 0)
    for s in share:
        counts[labels[_bin_index(float(s), DEFAULT_SPLIT_BINS)]] += 1
    for label in labels:
        assert abs(counts[label] / n - probs.get(label, 0.0)) < 0.005


def test_cohort_truth_groups_and_exclusions(tmp_path):
    plan = CohortPlan(
        window_pre=("2021-02", "2021-03"),
        window_post=("2021-05", "2021-06"),
        cut_fraction=0.5,
        gap_drivers=1,
    )
    cfg = GenConfig(
        seed=21, n_drivers=5, first_month="2021-01", last_month="2021-07", cohort=plan
    )
    generate(cfg, tmp_path)
    truth = load_ground_truth(tmp_path)
    cohort = truth["cohort"]
    assert cohort is not None
    assert set(cohort["paid_less"]) | set(cohort["paid_same_or_more"]) == set(
        cohort["qualified"]
    )
    assert cohort["excluded"]  # the gap driver
    for driver_id in cohort["excluded"]:
        months = set(truth["drivers"][driver_id]["active_months"])
        window_months = {"2021-02", "2021-03", "2021-05", "2021-06"}
        assert not window_months <= months  # genuinely missing a month


def test_switch_rule_changes_fixed_era_fares(tmp_path):
    cfg = GenConfig(
        seed=2,
        n_drivers=1,
        first_month="2020-11",
        last_month="2021-02",
        switch_year=2021,
        switch_rule=FareRule(base_pence=100, per_mile_pence=20, per_min_pence=85),
    )
    generate(cfg, tmp_path)
    truth = load_ground_truth(tmp_path)
    (driver_id,) = truth["drivers"]
    bundle, _ = normalize(load_bundle(tmp_path / driver_id))
    pre = [t for t in bundle.trips if t.dropoff_ts and london(t.dropoff_ts).year < 2021]
    post = [t for t in bundle.trips if t.dropoff_ts and london(t.dropoff_ts).year >= 2021]
    assert pre and post

    def rule_residual(trips, rule):
        err = 0.0
        for t in trips:
            if t.status is not TripStatus.COMPLETED or t.original_fare is None:
                continue
            raw = rule.fare_pence(t.distance_miles, t.on_trip_minutes)
            err = max(err, abs(t.original_fare - raw))
        return err

    # quantization to the commission denominator shifts fares by < 4 pence
    assert rule_residual(pre, cfg.fixed_rule) <= 4
    assert rule_residual(post, cfg.switch_rule) <= 4
    assert rule_residual(post, cfg.fixed_rule) > 100  # rules genuinely differ
