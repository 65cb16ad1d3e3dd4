"""Synthetic bundle generator with exact ground truth.

Stands in for the private dataset: emits canonical per-driver bundle
directories plus a ground_truth.json recording everything the generator knows
(trip-payment pairings, segment schedules, realized shares, cohort groups,
injected corruptions), so pipeline recovery can be asserted exactly.

Amounts are constructed so that audits land on exact values: fixed-era fares are
quantized to multiples of the commission denominator, making pay/fare equal
1 - c in float division with no tolerance needed.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .ingest import NormalizedBundle, write_bundle
from .metrics import DEFAULT_SPLIT_BINS, bin_labels
from .model import (
    DEFAULT_TIMEZONE,
    AppSession,
    AuditError,
    DispatchOffer,
    DriverProfile,
    Era,
    EraBoundaries,
    PaymentCategory,
    PaymentEvent,
    TripRecord,
    TripStatus,
    era_of,
    format_instant,
    format_pence,
    iso_week_label,
    month_add,
    month_days,
    month_index,
    month_of,
    month_range,
    week_monday,
)

MS = 1000
JITTER_CLAMP_SIGMA = 4.0


class InvalidConfig(AuditError):
    pass


# ---------------------------------------------------------------------------
# Config


@dataclass(frozen=True)
class FareRule:
    """Linear time+distance pricing in pence."""

    base_pence: int = 250
    per_mile_pence: int = 110
    per_min_pence: int = 12

    def fare_pence(self, distance_miles: float, minutes: float) -> float:
        return (
            self.base_pence
            + self.per_mile_pence * distance_miles
            + self.per_min_pence * minutes
        )


@dataclass(frozen=True)
class ShareModel:
    """Dynamic-era driver share: clamp(intercept - per_pound*fare + noise)."""

    intercept: float = 1.08
    per_pound: float = 0.025
    noise_sd: float = 0.07
    lo: float = 0.35
    hi: float = 1.12

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi:
            raise InvalidConfig("share clamp bounds out of order")
        if self.noise_sd < 0:
            raise InvalidConfig("negative share noise")

    def mean_share(self, fare_pounds: float) -> float:
        return self.intercept - self.per_pound * fare_pounds


@dataclass(frozen=True)
class DurationModel:
    """Truncated lognormal trip duration in seconds."""

    median_s: float = 840.0
    sigma: float = 0.45
    lo_s: float = 360.0
    hi_s: float = 2400.0

    def __post_init__(self) -> None:
        if not 0 < self.lo_s < self.hi_s:
            raise InvalidConfig("duration bounds out of order")


@dataclass(frozen=True)
class CohortPlan:
    """Assign post-window pay factors so cohort group membership is known."""

    window_pre: tuple[str, str]
    window_post: tuple[str, str]
    cut_fraction: float = 0.8
    cut_factor: float = 0.85
    raise_factor: float = 1.10
    gap_drivers: int = 0  # drivers that skip one post-window month entirely

    def __post_init__(self) -> None:
        pre = month_range(*self.window_pre)
        post = month_range(*self.window_post)
        if len(pre) != len(post):
            raise InvalidConfig("cohort windows must cover equal month counts")
        if set(pre) & set(post):
            raise InvalidConfig("cohort windows overlap")
        if not 0.0 <= self.cut_fraction <= 1.0:
            raise InvalidConfig("cut_fraction out of [0,1]")


@dataclass(frozen=True)
class CorruptionPlan:
    duplicate_payments: int = 0
    inverted_trips: int = 0
    malformed_money: int = 0

    def __post_init__(self) -> None:
        if min(self.duplicate_payments, self.inverted_trips, self.malformed_money) < 0:
            raise InvalidConfig("corruption counts must be non-negative")


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    n_drivers: int = 10
    first_month: str = "2021-01"
    last_month: str = "2021-12"
    tz: str = DEFAULT_TIMEZONE
    opaque_start: str = "2022-02"
    dynamic_start: str = "2023-02"

    commission: str = "0.25"  # exact decimal or a/b fraction text
    fixed_rule: FareRule = field(default_factory=FareRule)
    switch_year: int | None = None  # fixed-rule regime switch (predictability fixtures)
    switch_rule: FareRule = field(default_factory=lambda: FareRule(100, 20, 85))
    pay_noise_sd: float = 0.0  # relative noise on fixed-era pay; breaks share exactness

    dynamic_per_min_pence: int = 140
    share: ShareModel = field(default_factory=ShareModel)
    duration_fixed: DurationModel = field(default_factory=DurationModel)
    duration_dynamic: DurationModel = field(
        default_factory=lambda: DurationModel(780.0, 0.45, 300.0, 2400.0)
    )

    work_prob: float = 0.75
    session_min_h: float = 4.0
    session_max_h: float = 9.0
    standby_min_s: int = 300
    standby_mean_s: int = 600
    standby_inflation_post: float = 1.0
    en_route_min_s: int = 180
    en_route_max_s: int = 720
    wait_min_s: int = 5
    wait_max_s: int = 60

    speed_mph: float = 18.0
    distance_noise_sd: float = 0.08
    jitter_sd_s: float = 60.0
    tip_prob: float = 0.15
    tip_max_pence: int = 500
    cancel_prob: float = 0.05
    acceptance_rate: float = 0.8
    airport_prob: float = 0.06
    products: tuple[tuple[str, float], ...] = (
        ("standard", 0.7),
        ("comfort", 0.2),
        ("exec", 0.1),
    )
    gender_mix: tuple[tuple[str, float], ...] = (("M", 0.96), ("F", 0.04))
    age_mix: tuple[tuple[str, float], ...] = (
        ("20-29", 0.23),
        ("30-39", 0.35),
        ("40-49", 0.28),
        ("50+", 0.14),
    )

    cohort: CohortPlan | None = None
    corrupt: CorruptionPlan = field(default_factory=CorruptionPlan)
    marker_prefix: str = "ZZMARK"
    rpi_yoy: float | None = None

    def __post_init__(self) -> None:
        for name in ("work_prob", "tip_prob", "cancel_prob", "acceptance_rate", "airport_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfig(f"{name} must lie in [0,1], got {value}")
        if self.jitter_sd_s < 0:
            raise InvalidConfig("jitter must be >= 0")
        if self.n_drivers < 1:
            raise InvalidConfig("need at least one driver")
        if month_index(self.first_month) > month_index(self.last_month):
            raise InvalidConfig("month range reversed")
        if self.acceptance_rate <= 0.0:
            raise InvalidConfig("acceptance rate must be positive")
        c = self.commission_fraction
        if not 0 <= c < 1:
            raise InvalidConfig("commission must lie in [0,1)")
        for mix_name in ("products", "gender_mix", "age_mix"):
            mix = getattr(self, mix_name)
            if not mix or any(w <= 0 for _, w in mix):
                raise InvalidConfig(f"{mix_name} weights must be positive")
            if abs(sum(w for _, w in mix) - 1.0) > 1e-9:
                raise InvalidConfig(f"{mix_name} weights must sum to 1")
            if len({k for k, _ in mix}) != len(mix):
                raise InvalidConfig(f"{mix_name} labels must be unique")

    @property
    def commission_fraction(self) -> Fraction:
        try:
            return Fraction(self.commission)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"bad commission text: {self.commission!r}") from exc

    @property
    def boundaries(self) -> EraBoundaries:
        return EraBoundaries(self.opaque_start, self.dynamic_start, self.tz)

    @property
    def fixed_share_float(self) -> float:
        c = self.commission_fraction
        return (c.denominator - c.numerator) / c.denominator

    def to_dict(self) -> dict:
        # asdict output round-trips through from_dict (and through JSON:
        # tuples decode as lists, which from_dict re-tuples).
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "GenConfig":
        data = dict(raw)
        try:
            if "fixed_rule" in data:
                data["fixed_rule"] = FareRule(**data["fixed_rule"])
            if "switch_rule" in data:
                data["switch_rule"] = FareRule(**data["switch_rule"])
            if "share" in data:
                data["share"] = ShareModel(**data["share"])
            if "duration_fixed" in data:
                data["duration_fixed"] = DurationModel(**data["duration_fixed"])
            if "duration_dynamic" in data:
                data["duration_dynamic"] = DurationModel(**data["duration_dynamic"])
            if "cohort" in data and data["cohort"] is not None:
                plan = dict(data["cohort"])
                plan["window_pre"] = tuple(plan["window_pre"])
                plan["window_post"] = tuple(plan["window_post"])
                data["cohort"] = CohortPlan(**plan)
            if "corrupt" in data:
                data["corrupt"] = CorruptionPlan(**data["corrupt"])
            for key in ("products", "gender_mix", "age_mix"):
                if key in data:
                    data[key] = tuple((str(k), float(v)) for k, v in data[key])
            return cls(**data)
        except TypeError as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "GenConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidConfig("config root must be a JSON object")
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# Ground truth


@dataclass
class DriverTruth:
    driver_id: str
    pairs: list  # [request_iso, payment_iso, amount_str]
    shares: dict  # request_iso -> realized share (float)
    weekly: dict  # iso_week -> {pay_pence, standby_h, en_route_h, on_trip_h}
    active_months: list  # local months with >=1 completed trip (by dropoff)
    offers_total: int
    offers_accepted: int
    profile: dict
    n_trip_rows: int
    n_payment_rows: int
    n_completed: int
    n_cancelled: int
    pay_factor: float
    corruptions: dict


@dataclass
class GroundTruth:
    config: dict
    fixed_share: float
    drivers: dict[str, DriverTruth]
    dynamic_share_mean: float | None
    dynamic_share_median: float | None
    dynamic_share_n: int
    analytic_bin_probs: dict
    cohort: dict | None


def load_ground_truth(root: str | Path) -> dict:
    with open(Path(root) / "ground_truth.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Analytic histogram oracle (quadrature over the configured distributions)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def analytic_bin_probs(
    config: GenConfig, bins: Sequence[float] = DEFAULT_SPLIT_BINS, nodes: int = 400
) -> dict[str, float]:
    """Exact-by-quadrature share-bin probabilities for the dynamic era.

    Integrates the share model over the truncated-lognormal duration law with
    Gauss-Legendre nodes; the normal share noise integrates in closed form.
    Clamp atoms fall inside the end bins, matching the histogram's absorption.
    """
    dur = config.duration_dynamic
    sm = config.share
    mu_ln = math.log(dur.median_s)
    a = (math.log(dur.lo_s) - mu_ln) / dur.sigma
    b = (math.log(dur.hi_s) - mu_ln) / dur.sigma
    z_norm = _phi(b) - _phi(a)

    x, w = np.polynomial.legendre.leggauss(nodes)
    m = 0.5 * (dur.hi_s - dur.lo_s) * x + 0.5 * (dur.hi_s + dur.lo_s)
    scale = 0.5 * (dur.hi_s - dur.lo_s)
    z = (np.log(m) - mu_ln) / dur.sigma
    pdf = np.exp(-0.5 * z * z) / (m * dur.sigma * math.sqrt(2.0 * math.pi)) / z_norm

    fare_pounds = config.dynamic_per_min_pence * (m / 60.0) / 100.0
    mu_share = sm.intercept - sm.per_pound * fare_pounds

    labels = bin_labels(bins)
    probs = dict.fromkeys(labels, 0.0)
    sd = sm.noise_sd
    for i, label in enumerate(labels):
        lo_edge, hi_edge = bins[i], bins[i + 1]
        if sd == 0.0:
            inside = np.where(
                (mu_share >= lo_edge) & (mu_share < hi_edge), 1.0, 0.0
            ) if 0 < i < len(labels) - 1 else None
            if i == 0:
                inside = np.where(mu_share < hi_edge, 1.0, 0.0)
            elif i == len(labels) - 1:
                inside = np.where(mu_share >= lo_edge, 1.0, 0.0)
            mass = inside
        else:
            hi_cdf = (
                np.ones_like(mu_share)
                if i == len(labels) - 1
                else _phi_vec((hi_edge - mu_share) / sd)
            )
            lo_cdf = (
                np.zeros_like(mu_share) if i == 0 else _phi_vec((lo_edge - mu_share) / sd)
            )
            mass = hi_cdf - lo_cdf
        probs[label] = float(np.sum(w * scale * pdf * mass))

    total = sum(probs.values())
    return {k: v / total for k, v in probs.items()}


def _phi_vec(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Sampling helpers


def _trunc_lognormal(rng: np.random.Generator, model: DurationModel) -> float:
    while True:
        x = model.median_s * math.exp(model.sigma * rng.standard_normal())
        if model.lo_s <= x <= model.hi_s:
            return x


def _quota_assign(n: int, mix: Sequence[tuple[str, float]]) -> list[str]:
    """Largest-remainder allocation so realized counts match the mix exactly."""
    ideal = [(label, n * weight) for label, weight in mix]
    base = [(label, int(x)) for label, x in ideal]
    short = n - sum(c for _, c in base)
    remainders = sorted(
        ((ideal[i][1] - base[i][1], i) for i in range(len(base))),
        key=lambda t: (-t[0], t[1]),
    )
    counts = [c for _, c in base]
    for k in range(short):
        counts[remainders[k][1]] += 1
    out: list[str] = []
    for (label, _), count in zip(mix, counts):
        out.extend([label] * count)
    return out


def _pick_weighted(rng: np.random.Generator, items: Sequence[tuple[str, float]]) -> str:
    r = rng.random()
    acc = 0.0
    for label, weight in items:
        acc += weight
        if r < acc:
            return label
    return items[-1][0]


# ---------------------------------------------------------------------------
# Per-driver generation


class _UniqueClock:
    """Hands out unique millisecond timestamps within one driver."""

    def __init__(self) -> None:
        self.used: set[int] = set()

    def claim(self, ms: int) -> int:
        while ms in self.used:
            ms += 1
        self.used.add(ms)
        return ms


# the truth dates instants with zoneinfo itself, so it checks model.Calendar
def _local_date(ms: int, zone: ZoneInfo) -> dt.date:
    return dt.datetime.fromtimestamp(ms // 1000, zone).date()


def _midnight(day: dt.date, zone: dt.tzinfo) -> int:
    return int(dt.datetime(day.year, day.month, day.day, tzinfo=zone).timestamp()) * MS


def _week_totals(intervals: Sequence[tuple[int, int]], zone: ZoneInfo) -> dict[str, int]:
    """Milliseconds of the given intervals falling in each ISO week."""
    out: dict[str, int] = {}
    for start, end in intervals:
        cursor = start
        while cursor < end:
            week = iso_week_label(_local_date(cursor, zone))
            piece = min(end, _midnight(week_monday(week) + dt.timedelta(days=7), zone)) - cursor
            out[week] = out.get(week, 0) + piece
            cursor += piece
    return out


def _gen_driver(
    config: GenConfig,
    index: int,
    gender: str,
    age_band: str,
    pay_factor: float,
    skip_months: set[str],
) -> tuple[NormalizedBundle, DriverTruth, list[float]]:
    rng = np.random.default_rng([config.seed, index])
    clock = _UniqueClock()
    driver_id = f"driver{index:03d}"
    zone = ZoneInfo(config.tz)
    boundaries = config.boundaries
    c = config.commission_fraction
    q = c.denominator
    pay_num = c.denominator - c.numerator
    post_months = (
        set(month_range(*config.cohort.window_post)) if config.cohort else set()
    )

    trips: list[TripRecord] = []
    payments: list[PaymentEvent] = []
    offers: list[DispatchOffer] = []
    sessions: list[AppSession] = []
    pairs: list = []
    shares: dict[str, float] = {}
    dyn_shares: list[float] = []
    session_iv: list[tuple[int, int]] = []
    en_iv: list[tuple[int, int]] = []
    on_iv: list[tuple[int, int]] = []
    n_completed = 0
    n_cancelled = 0
    marker_n = 0
    active_months: set[str] = set()

    def marker() -> str:
        nonlocal marker_n
        marker_n += 1
        return f"{config.marker_prefix}d{index}n{marker_n}"

    day = month_days(config.first_month)[0]
    last_day = month_days(config.last_month)[1] - dt.timedelta(days=1)
    start_ms = _midnight(day, zone)
    first_trip_ms: int | None = None

    while day <= last_day:
        month = f"{day.year:04d}-{day.month:02d}"
        if month in skip_months or rng.random() >= config.work_prob:
            day += dt.timedelta(days=1)
            continue

        midnight = _midnight(day, dt.timezone.utc)
        start_offset_s = int(7 * 3600 + rng.random() * 6 * 3600)
        session_start = clock.claim(midnight + start_offset_s * MS)
        session_hours = config.session_min_h + rng.random() * (
            config.session_max_h - config.session_min_h
        )
        session_end = clock.claim(session_start + int(session_hours * 3600) * MS)
        sessions.append(AppSession(driver_id, session_start, session_end))
        session_iv.append((session_start, session_end))

        era_here = era_of(session_start, boundaries)
        standby_scale = (
            config.standby_inflation_post if era_here is Era.DYNAMIC_PRICING else 1.0
        )

        cursor = session_start
        while True:
            gap_s = config.standby_min_s + rng.exponential(
                max(config.standby_mean_s - config.standby_min_s, 1) * standby_scale
            )
            request_ms = cursor + int(gap_s) * MS
            wait_s = config.wait_min_s + rng.random() * (config.wait_max_s - config.wait_min_s)
            accept_ms = request_ms + int(wait_s) * MS

            # rejected offers before this accepted one (geometric count)
            n_reject = int(rng.geometric(config.acceptance_rate)) - 1
            for _ in range(n_reject):
                pos = cursor + int(rng.random() * max(request_ms - cursor - MS, MS))
                offers.append(
                    DispatchOffer(driver_id, clock.claim(pos), False)
                )

            en_route_s = config.en_route_min_s + rng.random() * (
                config.en_route_max_s - config.en_route_min_s
            )
            pickup_ms = accept_ms + int(en_route_s) * MS

            era = era_of(pickup_ms, boundaries)
            if era is Era.DYNAMIC_PRICING:
                duration_s = _trunc_lognormal(rng, config.duration_dynamic)
            else:
                duration_s = _trunc_lognormal(rng, config.duration_fixed)
            dropoff_ms = pickup_ms + int(duration_s) * MS

            if dropoff_ms > session_end - 60 * MS:
                break

            # trips straddling an era boundary are skipped (time stays standby)
            drop_era = era_of(dropoff_ms, boundaries)
            if drop_era is not era:
                cursor = dropoff_ms
                continue

            request_ms = clock.claim(request_ms)
            accept_ms = clock.claim(accept_ms)
            offers.append(DispatchOffer(driver_id, request_ms, True))

            if rng.random() < config.cancel_prob:
                status = (
                    TripStatus.RIDER_CANCELLED
                    if rng.random() < 0.5
                    else TripStatus.DRIVER_CANCELLED
                )
                trips.append(
                    TripRecord(
                        driver_id=driver_id,
                        request_ts=request_ms,
                        accept_ts=accept_ms,
                        pickup_ts=None,
                        dropoff_ts=None,
                        distance_miles=0.0,
                        status=status,
                        original_fare=None,
                        origin_tag=f"zone-{int(rng.integers(1, 9))}#{marker()}",
                        dest_tag=f"zone-{int(rng.integers(1, 9))}#{marker()}",
                        product=_pick_weighted(rng, config.products),
                    )
                )
                n_cancelled += 1
                cursor = accept_ms + int(60 + rng.random() * 120) * MS
                continue

            pickup_ms = clock.claim(pickup_ms)
            dropoff_ms = clock.claim(dropoff_ms)
            minutes = (dropoff_ms - pickup_ms) / 60_000.0

            year = _local_date(pickup_ms, zone).year
            drop_month = month_of(_local_date(dropoff_ms, zone))
            if era is Era.DYNAMIC_PRICING:
                fare_pence = max(int(round(config.dynamic_per_min_pence * minutes)), 100)
                raw_share = (
                    config.share.mean_share(fare_pence / 100.0)
                    + rng.standard_normal() * config.share.noise_sd
                )
                share_true = min(max(raw_share, config.share.lo), config.share.hi)
                pay_pence = max(int(round(share_true * fare_pence)), 1)
                fare_out: int | None = fare_pence
                distance = config.speed_mph * (minutes / 60.0) * (
                    1.0 + rng.standard_normal() * config.distance_noise_sd
                )
            else:
                rule = config.fixed_rule
                if config.switch_year is not None and year >= config.switch_year:
                    rule = config.switch_rule
                distance = config.speed_mph * (minutes / 60.0) * (
                    1.0 + rng.standard_normal() * config.distance_noise_sd
                )
                raw = rule.fare_pence(distance, minutes)
                fare_pence = max(int(round(raw / q)) * q, q * math.ceil(100 / q))
                pay_pence = fare_pence * pay_num // q
                if config.pay_noise_sd > 0.0:
                    pay_pence = max(
                        int(round(pay_pence * (1.0 + rng.standard_normal() * config.pay_noise_sd))),
                        1,
                    )
                fare_out = fare_pence

            distance = max(round(distance, 2), 0.1)
            if pay_factor != 1.0 and drop_month in post_months:
                pay_pence = max(int(round(pay_pence * pay_factor)), 1)

            airport = rng.random() < config.airport_prob
            origin = (
                f"airport-LHR#{marker()}" if airport else f"zone-{int(rng.integers(1, 9))}#{marker()}"
            )
            dest = f"zone-{int(rng.integers(1, 9))}#{marker()}"

            # opaque-gap exports show a driver-side figure in the fare column
            if era is Era.OPAQUE_GAP:
                fare_out = pay_pence

            trip = TripRecord(
                driver_id=driver_id,
                request_ts=request_ms,
                accept_ts=accept_ms,
                pickup_ts=pickup_ms,
                dropoff_ts=dropoff_ms,
                distance_miles=distance,
                status=TripStatus.COMPLETED,
                original_fare=fare_out,
                origin_tag=origin,
                dest_tag=dest,
                product=_pick_weighted(rng, config.products),
            )
            trips.append(trip)
            n_completed += 1
            active_months.add(drop_month)
            if first_trip_ms is None:
                first_trip_ms = request_ms
            en_iv.append((accept_ms, pickup_ms))
            on_iv.append((pickup_ms, dropoff_ms))

            jitter_s = rng.standard_normal() * config.jitter_sd_s
            clamp = JITTER_CLAMP_SIGMA * config.jitter_sd_s
            jitter_s = min(max(jitter_s, -clamp), clamp)
            pay_ms = clock.claim(dropoff_ms + int(round(jitter_s * MS)))
            payment = PaymentEvent(
                driver_id=driver_id,
                ts=pay_ms,
                category=PaymentCategory.TRIP_EARNINGS,
                amount=pay_pence,
                memo=f"payout#{marker()}",
            )
            payments.append(payment)

            request_iso = format_instant(request_ms)
            pairs.append([request_iso, format_instant(pay_ms), format_pence(pay_pence)])
            if era is not Era.OPAQUE_GAP:
                realized = pay_pence / fare_pence
                shares[request_iso] = realized
                if era is Era.DYNAMIC_PRICING:
                    dyn_shares.append(realized)

            if rng.random() < config.tip_prob:
                tip_ms = clock.claim(dropoff_ms + int((600 + rng.random() * 3000)) * MS)
                tip = int(rng.integers(50, config.tip_max_pence + 1))
                payments.append(
                    PaymentEvent(
                        driver_id=driver_id,
                        ts=tip_ms,
                        category=PaymentCategory.TIP,
                        amount=tip,
                        memo=f"tip#{marker()}",
                    )
                )

            cursor = dropoff_ms

        day += dt.timedelta(days=1)

    profile = DriverProfile(
        driver_id=driver_id,
        first_trip_ts=first_trip_ms if first_trip_ms is not None else start_ms,
        gender=gender,
        age_band=age_band,
    )
    bundle = NormalizedBundle(
        driver_id=driver_id,
        trips=tuple(trips),
        payments=tuple(payments),
        dispatches=tuple(offers),
        sessions=tuple(sessions),
        profile=profile,
    )

    # weekly truth: ledger pence and per-state hours from the native schedule
    pay_weeks: dict[str, int] = {}
    for p in payments:
        week = iso_week_label(_local_date(p.ts, zone))
        pay_weeks[week] = pay_weeks.get(week, 0) + p.amount
    sess_w = _week_totals(session_iv, zone)
    en_w = _week_totals(en_iv, zone)
    on_w = _week_totals(on_iv, zone)
    weekly: dict[str, dict] = {}
    for week in sorted(set(pay_weeks) | set(sess_w)):
        sess_ms = sess_w.get(week, 0)
        en_ms = en_w.get(week, 0)
        on_ms = on_w.get(week, 0)
        weekly[week] = {
            "pay_pence": pay_weeks.get(week, 0),
            "standby_h": (sess_ms - en_ms - on_ms) / 3_600_000.0,
            "en_route_h": en_ms / 3_600_000.0,
            "on_trip_h": on_ms / 3_600_000.0,
        }

    truth = DriverTruth(
        driver_id=driver_id,
        pairs=pairs,
        shares=shares,
        weekly=weekly,
        active_months=sorted(active_months),
        offers_total=len(offers),
        offers_accepted=sum(1 for o in offers if o.accepted),
        profile={"gender": gender, "age_band": age_band},
        n_trip_rows=len(trips),
        n_payment_rows=len(payments),
        n_completed=n_completed,
        n_cancelled=n_cancelled,
        pay_factor=pay_factor,
        corruptions={},
    )
    return bundle, truth, dyn_shares


# ---------------------------------------------------------------------------
# Corruption injection (appended raw rows; never touches good rows)


def _inject_corruption(
    directory: Path, rng: np.random.Generator, plan: dict[str, int]
) -> dict:
    applied = {"duplicate_payments": 0, "inverted_trips": 0, "malformed_money": 0}

    pay_path = directory / "payments.csv"
    lines = pay_path.read_text(encoding="utf-8").splitlines()
    if len(lines) > 1 and plan["duplicate_payments"] > 0:
        extra = []
        for _ in range(plan["duplicate_payments"]):
            extra.append(lines[1 + int(rng.integers(0, len(lines) - 1))])
        pay_path.write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
        lines = lines + extra
        applied["duplicate_payments"] = len(extra)

    if plan["malformed_money"] > 0:
        rows = []
        for k in range(plan["malformed_money"]):
            rows.append(f"2020-01-01T00:00:{k:02d}.000Z,trip_earnings,12.3456,GBP,junk{k}")
        with open(pay_path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        applied["malformed_money"] = plan["malformed_money"]

    trip_path = directory / "trips.csv"
    tlines = trip_path.read_text(encoding="utf-8").splitlines()
    if len(tlines) > 1 and plan["inverted_trips"] > 0:
        header = tlines[0].split(",")
        pick_i = header.index("pickup_ts")
        drop_i = header.index("dropoff_ts")
        extra = []
        for _ in range(plan["inverted_trips"]):
            src = tlines[1 + int(rng.integers(0, len(tlines) - 1))].split(",")
            if not src[pick_i] or not src[drop_i] or src[pick_i] == src[drop_i]:
                src = next(
                    (
                        line.split(",")
                        for line in tlines[1:]
                        if line.split(",")[pick_i] and line.split(",")[drop_i]
                    ),
                    None,
                )
                if src is None:
                    break
            src[pick_i], src[drop_i] = src[drop_i], src[pick_i]
            extra.append(",".join(src))
        if extra:
            with open(trip_path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(extra) + "\n")
            applied["inverted_trips"] = len(extra)
    return applied


def _split_counts(total: int, n: int) -> list[int]:
    return [total // n + (1 if i < total % n else 0) for i in range(n)]


# ---------------------------------------------------------------------------
# Cohort truth


def _cohort_truth(config: GenConfig, truths: list[DriverTruth]) -> dict | None:
    plan = config.cohort
    if plan is None:
        return None
    pre_months = set(month_range(*plan.window_pre))
    post_months = set(month_range(*plan.window_post))

    def month_of_week(week: str) -> str:
        monday = week_monday(week)
        return f"{monday.year:04d}-{monday.month:02d}"

    qualified: list[str] = []
    pre_rate: dict[str, float] = {}
    post_rate: dict[str, float] = {}
    paid_less: list[str] = []
    paid_same_or_more: list[str] = []
    excluded: list[str] = []

    for truth in truths:
        active = set(truth.active_months)
        if not (pre_months <= active and post_months <= active):
            excluded.append(truth.driver_id)
            continue

        def pooled(months: set[str]) -> float | None:
            pence = 0
            hours = 0.0
            for week, row in truth.weekly.items():
                if month_of_week(week) in months:
                    pence += row["pay_pence"]
                    hours += row["standby_h"] + row["en_route_h"] + row["on_trip_h"]
            return (pence / 100.0) / hours if hours > 0 else None

        pre = pooled(pre_months)
        post = pooled(post_months)
        if pre is None or post is None:
            excluded.append(truth.driver_id)
            continue
        qualified.append(truth.driver_id)
        pre_rate[truth.driver_id] = pre
        post_rate[truth.driver_id] = post
        (paid_less if post < pre else paid_same_or_more).append(truth.driver_id)

    return {
        "window_pre": list(plan.window_pre),
        "window_post": list(plan.window_post),
        "qualified": qualified,
        "pre_rate": pre_rate,
        "post_rate": post_rate,
        "paid_less": paid_less,
        "paid_same_or_more": paid_same_or_more,
        "excluded": excluded,
    }


# ---------------------------------------------------------------------------
# Entry point


def generate(config: GenConfig, out_root: str | Path) -> GroundTruth:
    """Write all bundles plus ground_truth.json; returns the truth object."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)

    genders = _quota_assign(config.n_drivers, config.gender_mix)
    ages = _quota_assign(config.n_drivers, config.age_mix)

    factors = [1.0] * config.n_drivers
    skip: list[set[str]] = [set() for _ in range(config.n_drivers)]
    if config.cohort is not None:
        plan = config.cohort
        regular = config.n_drivers - plan.gap_drivers
        n_cut = int(round(regular * plan.cut_fraction))
        for i in range(regular):
            factors[i] = plan.cut_factor if i < n_cut else plan.raise_factor
        gap_month = month_range(*plan.window_post)[0]
        for i in range(regular, config.n_drivers):
            skip[i] = {gap_month}

    dup = _split_counts(config.corrupt.duplicate_payments, config.n_drivers)
    inv = _split_counts(config.corrupt.inverted_trips, config.n_drivers)
    mal = _split_counts(config.corrupt.malformed_money, config.n_drivers)

    truths: list[DriverTruth] = []
    all_dyn_shares: list[float] = []
    for i in range(config.n_drivers):
        bundle, truth, dyn = _gen_driver(
            config, i, genders[i], ages[i], factors[i], skip[i]
        )
        directory = out_root / bundle.driver_id
        write_bundle(bundle, directory)
        corruption_rng = np.random.default_rng([config.seed, i, 7])
        truth.corruptions = _inject_corruption(
            directory,
            corruption_rng,
            {
                "duplicate_payments": dup[i],
                "inverted_trips": inv[i],
                "malformed_money": mal[i],
            },
        )
        truths.append(truth)
        all_dyn_shares.extend(dyn)

    if config.rpi_yoy is not None:
        months = month_range(
            month_add(config.first_month, -13), month_add(config.last_month, 1)
        )
        lines = ["month,yoy_pct"] + [f"{m},{config.rpi_yoy:g}" for m in months]
        (out_root / "rpi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    dyn_sorted = sorted(all_dyn_shares)
    n_dyn = len(dyn_sorted)
    if n_dyn:
        mid = n_dyn // 2
        median = (
            dyn_sorted[mid]
            if n_dyn % 2
            else (dyn_sorted[mid - 1] + dyn_sorted[mid]) / 2.0
        )
        mean = sum(dyn_sorted) / n_dyn
    else:
        median = None
        mean = None

    truth = GroundTruth(
        config=_config_dict(config),
        fixed_share=config.fixed_share_float,
        drivers={t.driver_id: t for t in truths},
        dynamic_share_mean=mean,
        dynamic_share_median=median,
        dynamic_share_n=n_dyn,
        analytic_bin_probs=analytic_bin_probs(config) if n_dyn else {},
        cohort=_cohort_truth(config, truths),
    )
    with open(out_root / "ground_truth.json", "w", encoding="utf-8") as fh:
        # a driver's truth is filed under its id, so the id is not repeated inside
        payload = asdict(truth, dict_factory=lambda kv: {k: v for k, v in kv if k != "driver_id"})
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return truth


def _config_dict(config: GenConfig) -> dict:
    return {
        "seed": config.seed,
        "n_drivers": config.n_drivers,
        "first_month": config.first_month,
        "last_month": config.last_month,
        "tz": config.tz,
        "opaque_start": config.opaque_start,
        "dynamic_start": config.dynamic_start,
        "commission": config.commission,
        "fixed_rule": asdict(config.fixed_rule),
        "switch_year": config.switch_year,
        "dynamic_per_min_pence": config.dynamic_per_min_pence,
        "share": asdict(config.share),
        "jitter_sd_s": config.jitter_sd_s,
        "acceptance_rate": config.acceptance_rate,
        "marker_prefix": config.marker_prefix,
        "n_corrupt": asdict(config.corrupt),
    }
