import ast
import datetime as dt
import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from fareaudit import synthgen
from fareaudit.ingest import load_bundle, normalize
from fareaudit.model import TripStatus, iso_week_label, week_monday
from fareaudit.synthgen import (
    CohortPlan,
    CorruptionPlan,
    FareRule,
    GenConfig,
    InvalidConfig,
    _LocalDays,
    _week_totals,
    analytic_bin_probs,
    generate,
)
from conftest import S_1990, S_2041, load_ground_truth, london, offset_changes


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
        GenConfig(cohort=CohortPlan(("2021-01", "2021-03"), ("2021-02", "2021-04")))
    with pytest.raises(InvalidConfig):
        GenConfig(opaque_start="2023-02", dynamic_start="2023-02")


def test_config_rejects_non_finite_numbers():
    # a config made in Python never passes the JSON reader, which rejects them too
    for value in (math.nan, math.inf, -math.inf):
        for name in ("work_prob", "session_min_h", "session_max_h", "jitter_sd_s", "rpi_yoy"):
            with pytest.raises(InvalidConfig):
                GenConfig(**{name: value})
        with pytest.raises(InvalidConfig):
            CohortPlan(("2021-01", "2021-02"), ("2021-03", "2021-04"), cut_fraction=value)


def test_truth_dates_eras_without_the_audit_calendar():
    # the truth picks each trip's era from its own zoneinfo dating, so that it
    # checks the audit's era rule instead of repeating it
    source = Path(synthgen.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names.isdisjoint({"CALENDAR", "Calendar", "EraBoundaries", "era_of"})


def test_config_from_json_roundtrip(tmp_path):
    cfg = GenConfig(**SMALL)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
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
        assert "2022-02" <= f"{london(t.dropoff_ts):%Y-%m}" < "2023-02"  # the opaque gap
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
    probs = analytic_bin_probs()
    assert probs
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= 0 for p in probs.values())


def test_analytic_bin_probs_match_monte_carlo():
    probs = analytic_bin_probs()

    # crude Monte Carlo oracle over the same generative model
    import numpy as np

    from fareaudit.metrics import bin_labels, _bin_index

    rng = np.random.default_rng(123)
    dm = synthgen.DURATION_DYNAMIC
    mu = math.log(dm.median_s)
    n = 200_000
    samples = []
    while len(samples) < n:
        draw = rng.lognormal(mu, dm.sigma, n)
        draw = draw[(draw >= dm.lo_s) & (draw <= dm.hi_s)]
        samples.extend(draw.tolist())
    samples = np.asarray(samples[:n])
    minutes = samples / 60.0
    fare = np.maximum(np.round(synthgen.DYNAMIC_PER_MIN_PENCE * minutes), 100.0)
    sm = synthgen.SHARE
    mean_share = sm.intercept - sm.per_pound * fare / 100.0
    share = np.clip(mean_share + rng.normal(0.0, sm.noise_sd, n), sm.lo, sm.hi)
    labels = bin_labels()
    counts = dict.fromkeys(labels, 0)
    for s in share:
        counts[labels[_bin_index(float(s))]] += 1
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
    assert rule_residual(pre, synthgen.FIXED_RULE) <= 4
    assert rule_residual(post, cfg.switch_rule) <= 4
    assert rule_residual(post, synthgen.FIXED_RULE) > 100  # rules genuinely differ


# Every file synth writes for a small fleet with three eras, a fare-rule switch
# (2022-01 is fixed-era and after it), a cohort with a gap driver, RPI and
# corrupt rows. The digests were taken before the writers were sped up; a
# change that moves one byte of the generator's output must be deliberate.
# ground_truth.json is pinned without its analytic_bin_probs.
GOLDEN = GenConfig(
    seed=13,
    n_drivers=3,
    first_month="2021-12",
    last_month="2023-03",
    work_prob=0.5,
    session_min_h=0.75,
    session_max_h=1.25,
    switch_year=2022,
    switch_rule=FareRule(100, 20, 85),
    rpi_yoy=4.0,
    cohort=CohortPlan(
        ("2022-10", "2022-11"), ("2023-02", "2023-03"), cut_fraction=0.5, gap_drivers=1
    ),
    corrupt=CorruptionPlan(duplicate_payments=2, inverted_trips=2, malformed_money=1),
)
GOLDEN_SHA256 = {
    "driver000/dispatches.csv": "b0a32d17ec6308c72dede7a92fe758317c0ba3aa4f86c9dcd7710d11f704ab10",
    "driver000/payments.csv": "b67699c7cd022ab44691b70ee358049af30ddfa5f828df9af2f6bcc77ab46e6b",
    "driver000/profile.csv": "b53beef963007c34f9354bb151b2e5fc001f68d7c3fbc03b8bada7bc42ca5174",
    "driver000/sessions.csv": "20f857e042b84d6dd3ba14e35e5ef4d95b0bcd49c8b45b496ae5ae730fe8ffcd",
    "driver000/trips.csv": "a6a592e2922db8fabb68a736f89ccac0a13cac57751c5c0e0dbed99569c476ce",
    "driver001/dispatches.csv": "77c246f24d40e47980ae778c9732bd7a562bf6cc3b9e8a79cdc599629aa9fe8a",
    "driver001/payments.csv": "2eae2d3f991363adaf5a239f40274b266618be1d91f1055356173ed9b3008991",
    "driver001/profile.csv": "69bf96e39a2226a77a893d1c4bc73ba3b29e091939a6df551ccd5ba85cda20c2",
    "driver001/sessions.csv": "c9eb19e8ffa5ba801fa10c88805a65c0279cae5270fcb248ec474de29a307244",
    "driver001/trips.csv": "7a58462258056b3932df5222c185340d1ce68905c46b209179b1fff7ee0689eb",
    "driver002/dispatches.csv": "d59ffca258d31d0867c93efab13c0fc5387923121ae83ed8a1ca55c0229bf3e6",
    "driver002/payments.csv": "43748b082e03f83a6bdf49483a20c03911375952d87bf23e6d19bf3077a790de",
    "driver002/profile.csv": "f972d5b4ea21ac3245b345a81158f0d970e57558571fcd56f1d4752d7633ef5f",
    "driver002/sessions.csv": "2eba5d37fc5b526b10f179f62b1cc5508ac062d87de0c655e931295fc6ffcfcd",
    "driver002/trips.csv": "b21008351e8899edd07b5be1041dff2b252fa57d4c25958817e8416ee20e94a1",
    "ground_truth.json": "2a89ea742090c812942fa8e6a0fa17a871e075b90465eb27537aad741494548b",
    "rpi.csv": "7f89b1962e3f69c0441253bca81f66ebb59fa9698e11b22f0e864b27e40b1474",
}


def test_synth_files_keep_their_golden_digests(tmp_path):
    generate(GOLDEN, tmp_path)
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    # the quadrature oracle's last bits follow numpy's LAPACK and SIMD kernels,
    # which vary by CPU; it is checked against itself and the rest is pinned
    truth = load_ground_truth(tmp_path)
    assert truth.pop("analytic_bin_probs") == analytic_bin_probs()
    text = json.dumps(truth, sort_keys=True, indent=1) + "\n"
    got["ground_truth.json"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_SHA256


# The truth's memoized local dates and ISO weeks against plain zoneinfo. Sao
# Paulo changed its clocks at midnight until 2018, so some of its local days
# began at 01:00 and some ran to 23:59:59 twice.
TRUTH_ZONES = ("Europe/London", "America/New_York", "Australia/Lord_Howe", "America/Sao_Paulo")
ONE_DAY = dt.timedelta(days=1)


def plain_date(ms: int, zone: ZoneInfo) -> dt.date:
    return dt.datetime.fromtimestamp(ms // 1000, zone).date()


def plain_midnight(day: dt.date, zone: ZoneInfo) -> int:
    return int(dt.datetime(day.year, day.month, day.day, tzinfo=zone).timestamp()) * 1000


def plain_week(ms: int, zone: ZoneInfo) -> tuple[str, int]:
    label = iso_week_label(plain_date(ms, zone))
    return label, plain_midnight(week_monday(label) + 7 * ONE_DAY, zone)


def plain_week_totals(intervals: list[tuple[int, int]], zone: ZoneInfo) -> dict[str, int]:
    """Each interval split at the ends of ISO weeks, with no memo."""
    out: dict[str, int] = {}
    for start, end in intervals:
        cursor = start
        while cursor < end:
            week, stop = plain_week(cursor, zone)
            piece = min(end, stop) - cursor
            out[week] = out.get(week, 0) + piece
            cursor += piece
    return out


TRUTH_CHANGES = {tz: [s * 1000 for s in offset_changes(tz)] for tz in TRUTH_ZONES}  # epoch ms


def check_truth_dates(days: _LocalDays, ms: int, zone: ZoneInfo, week_first: bool) -> None:
    if week_first:
        assert days.week(ms) == plain_week(ms, zone)
    assert days.date(ms) == plain_date(ms, zone)
    assert days.week(ms) == plain_week(ms, zone)


@pytest.mark.parametrize("tz", TRUTH_ZONES)
def test_truth_dates_and_weeks_at_every_offset_change(tz):
    zone = ZoneInfo(tz)
    days = _LocalDays(zone)
    for change in TRUTH_CHANGES[tz]:
        day = plain_date(change, zone)
        monday = day - day.weekday() * ONE_DAY
        # the last and first ms of each local day and ISO week around the change,
        # walked forward, so a memo that keeps a day or a week too long shows
        edges = [plain_midnight(day + k * ONE_DAY, zone) for k in (-1, 0, 1, 2)]
        edges += [plain_midnight(monday + k * 7 * ONE_DAY, zone) for k in (0, 1)]
        for ms in [change - 1, change, *(e + d for e in sorted(edges) for d in (-1, 0)), change]:
            check_truth_dates(days, ms, zone, week_first=False)
    assert tz != "America/Sao_Paulo" or any(
        plain_midnight(plain_date(c, zone), zone) == c for c in TRUTH_CHANGES[tz]
    )  # some of its days begin at a clock change


@given(
    zoned=st.sampled_from(TRUTH_ZONES).flatmap(
        lambda tz: st.tuples(
            st.just(tz),
            st.one_of(st.sampled_from(TRUTH_CHANGES[tz]), st.integers(S_1990 * 1000, S_2041 * 1000)),
        )
    ),
    # half hours either side, to a millisecond, so local midnights and week ends are hit
    offsets=st.lists(
        st.tuples(st.integers(-9 * 48, 9 * 48), st.integers(-1, 1)), min_size=1, max_size=40
    ),
    week_first=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_truth_dates_and_weeks_match_plain_zoneinfo_in_any_order(zoned, offsets, week_first):
    tz, base = zoned
    zone = ZoneInfo(tz)
    days = _LocalDays(zone)
    instants = [base + halves * 1_800_000 + ms for halves, ms in offsets]
    for i, ms in enumerate(instants):  # in the order drawn, so the memo is often stale
        check_truth_dates(days, ms, zone, week_first=week_first ^ bool(i % 2))
    ordered = sorted(instants)
    intervals = list(zip(ordered[::2], ordered[1::2]))
    assert _week_totals(intervals, _LocalDays(zone)) == plain_week_totals(intervals, zone)
