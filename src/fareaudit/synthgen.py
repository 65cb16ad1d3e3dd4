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
    PaymentCategory,
    PaymentEvent,
    TripRecord,
    TripStatus,
    format_instant,
    format_pence,
    iso_week_label,
    month_add,
    month_days,
    month_index,
    month_label,
    month_of,
    month_range,
    week_monday,
)

MS = 1000
_DAY = dt.timedelta(days=1)
JITTER_CLAMP_SIGMA = 4.0


class InvalidConfig(AuditError):
    pass


# ---------------------------------------------------------------------------
# Config


def _whole(config: object, *names: str) -> None:
    """Each named field must be an int; a bool is an int subclass but no count."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise InvalidConfig(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class FareRule:
    """Linear time+distance pricing in pence."""

    base_pence: int = 250
    per_mile_pence: int = 110
    per_min_pence: int = 12

    def __post_init__(self) -> None:
        _whole(self, "base_pence", "per_mile_pence", "per_min_pence")

    def fare_pence(self, distance_miles: float, minutes: float) -> float:
        return self.base_pence + self.per_mile_pence * distance_miles + self.per_min_pence * minutes


@dataclass(frozen=True)
class ShareModel:
    """Dynamic-era driver share: clamp(intercept - per_pound*fare + noise)."""

    intercept: float
    per_pound: float
    noise_sd: float
    lo: float
    hi: float

    def mean_share(self, fare_pounds: float) -> float:
        return self.intercept - self.per_pound * fare_pounds


@dataclass(frozen=True)
class DurationModel:
    """Truncated lognormal trip duration in seconds."""

    median_s: float
    sigma: float
    lo_s: float
    hi_s: float


@dataclass(frozen=True)
class CohortPlan:
    """Assign post-window pay factors so cohort group membership is known."""

    window_pre: tuple[str, str]
    window_post: tuple[str, str]
    cut_fraction: float = 0.8
    gap_drivers: int = 0  # drivers that skip one post-window month entirely

    def __post_init__(self) -> None:
        pre = month_range(*self.window_pre)
        post = month_range(*self.window_post)
        if len(pre) != len(post):
            raise InvalidConfig("cohort windows must cover equal month counts")
        if set(pre) & set(post):
            raise InvalidConfig("cohort windows overlap")
        if isinstance(self.cut_fraction, bool) or not 0.0 <= self.cut_fraction <= 1.0:
            raise InvalidConfig("cut_fraction out of [0,1]")
        _whole(self, "gap_drivers")
        if self.gap_drivers < 0:
            raise InvalidConfig("gap_drivers must be >= 0")


@dataclass(frozen=True)
class CorruptionPlan:
    duplicate_payments: int = 0
    inverted_trips: int = 0
    malformed_money: int = 0

    def __post_init__(self) -> None:
        _whole(self, "duplicate_payments", "inverted_trips", "malformed_money")
        if min(self.duplicate_payments, self.inverted_trips, self.malformed_money) < 0:
            raise InvalidConfig("corruption counts must be non-negative")


def _finite(text: str) -> float:
    """A JSON number of a config; NaN and the infinities are not numbers here."""
    value = float(text)
    if not math.isfinite(value):
        raise InvalidConfig(f"not a finite number: {text}")
    return value


# What every fleet shares. A config sets only what some fleet varies.
FIXED_RULE = FareRule()  # fixed-era pricing, until a switch_year
DYNAMIC_PER_MIN_PENCE = 140
SHARE = ShareModel(intercept=1.08, per_pound=0.025, noise_sd=0.07, lo=0.35, hi=1.12)
DURATION_FIXED = DurationModel(median_s=840.0, sigma=0.45, lo_s=360.0, hi_s=2400.0)
DURATION_DYNAMIC = DurationModel(median_s=780.0, sigma=0.45, lo_s=300.0, hi_s=2400.0)
STANDBY_MIN_S, STANDBY_MEAN_S = 300, 600
EN_ROUTE_MIN_S, EN_ROUTE_MAX_S = 180, 720
WAIT_MIN_S, WAIT_MAX_S = 5, 60
SPEED_MPH = 18.0
DISTANCE_NOISE_SD = 0.08
TIP_PROB = 0.15
TIP_MAX_PENCE = 500
CANCEL_PROB = 0.05
ACCEPTANCE_RATE = 0.8
AIRPORT_PROB = 0.06
PRODUCTS = (("standard", 0.7), ("comfort", 0.2), ("exec", 0.1))
GENDER_MIX = (("M", 0.96), ("F", 0.04))
AGE_MIX = (("20-29", 0.23), ("30-39", 0.35), ("40-49", 0.28), ("50+", 0.14))
MARKER_PREFIX = "ZZMARK"  # in every free-text field, for the anonymization sweep
CUT_FACTOR, RAISE_FACTOR = 0.85, 1.10  # post-window pay of a cohort's cut and raised drivers

# the nested configs that from_dict builds from JSON objects
_CONFIG_PARTS = dict(switch_rule=FareRule, corrupt=CorruptionPlan)


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    n_drivers: int = 10
    first_month: str = "2021-01"
    last_month: str = "2021-12"
    opaque_start: str = "2022-02"
    dynamic_start: str = "2023-02"

    commission: str = "0.25"  # exact decimal or a/b fraction text
    switch_year: int | None = None  # fixed-rule regime switch (predictability fixtures)
    switch_rule: FareRule = field(default_factory=lambda: FareRule(100, 20, 85))

    work_prob: float = 0.75
    session_min_h: float = 4.0
    session_max_h: float = 9.0
    jitter_sd_s: float = 60.0

    cohort: CohortPlan | None = None
    corrupt: CorruptionPlan = field(default_factory=CorruptionPlan)
    rpi_yoy: float | None = None

    def __post_init__(self) -> None:
        _whole(self, "seed", "n_drivers")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.switch_year is not None:
            _whole(self, "switch_year")
        for name in ("work_prob", "session_min_h", "session_max_h", "jitter_sd_s", "rpi_yoy"):
            value = getattr(self, name)  # a bool is an int subclass but no number
            if isinstance(value, bool) or value is not None and not math.isfinite(value):
                raise InvalidConfig(f"{name} must be a finite number, got {value}")
        if not 0.0 <= self.work_prob <= 1.0:
            raise InvalidConfig(f"work_prob must lie in [0,1], got {self.work_prob}")
        if self.jitter_sd_s < 0:
            raise InvalidConfig("jitter must be >= 0")
        if not 0 < self.session_min_h <= self.session_max_h:
            raise InvalidConfig("sessions need 0 < session_min_h <= session_max_h")
        if self.n_drivers < 1:
            raise InvalidConfig("need at least one driver")
        if self.cohort is not None and self.cohort.gap_drivers > self.n_drivers:
            raise InvalidConfig("gap_drivers must not exceed n_drivers")
        first, last = month_index(self.first_month), month_index(self.last_month)
        if first > last:
            raise InvalidConfig("month range reversed")
        if first < month_index("0001-02") or last > month_index("9998-11"):
            # the months whose every day the calendar dates
            raise InvalidConfig("months must lie in 0001-02..9998-11")
        if self.rpi_yoy is not None and self.rpi_yoy <= -100.0:
            raise InvalidConfig(f"rpi_yoy must be above -100, got {self.rpi_yoy}")
        if month_index(self.opaque_start) >= month_index(self.dynamic_start):
            raise InvalidConfig("era boundaries out of order")
        if not isinstance(self.commission, str):  # a float such as 0.1 is not exact
            raise InvalidConfig(f"commission must be text, got {self.commission!r}")
        c = self.commission_fraction
        if not 0 <= c < 1:
            raise InvalidConfig("commission must lie in [0,1)")

    @property
    def commission_fraction(self) -> Fraction:
        try:
            return Fraction(self.commission)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"bad commission text: {self.commission!r}") from exc

    @property
    def fixed_share_float(self) -> float:
        c = self.commission_fraction
        return (c.denominator - c.numerator) / c.denominator

    @classmethod
    def from_dict(cls, raw: Mapping) -> "GenConfig":
        data = dict(raw)
        try:
            for key, part in _CONFIG_PARTS.items():
                if key in data:
                    data[key] = part(**data[key])
            if "cohort" in data and data["cohort"] is not None:
                plan = dict(data["cohort"])
                plan["window_pre"] = tuple(plan["window_pre"])
                plan["window_post"] = tuple(plan["window_post"])
                data["cohort"] = CohortPlan(**plan)
            return cls(**data)
        except KeyError as exc:
            raise InvalidConfig(f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "GenConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
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


# ---------------------------------------------------------------------------
# Analytic histogram oracle (quadrature over the dynamic era's distributions)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def analytic_bin_probs() -> dict[str, float]:
    """Exact-by-quadrature share-bin probabilities for the dynamic era.

    Integrates the share model over the truncated-lognormal duration law with
    Gauss-Legendre nodes; the normal share noise integrates in closed form.
    Clamp atoms fall inside the end bins, matching the histogram's absorption.
    """
    dur = DURATION_DYNAMIC
    mu_ln = math.log(dur.median_s)
    a = (math.log(dur.lo_s) - mu_ln) / dur.sigma
    b = (math.log(dur.hi_s) - mu_ln) / dur.sigma
    z_norm = _phi(b) - _phi(a)

    x, w = np.polynomial.legendre.leggauss(400)
    m = 0.5 * (dur.hi_s - dur.lo_s) * x + 0.5 * (dur.hi_s + dur.lo_s)
    scale = 0.5 * (dur.hi_s - dur.lo_s)
    z = (np.log(m) - mu_ln) / dur.sigma
    pdf = np.exp(-0.5 * z * z) / (m * dur.sigma * math.sqrt(2.0 * math.pi)) / z_norm

    fare_pounds = DYNAMIC_PER_MIN_PENCE * (m / 60.0) / 100.0
    mu_share = SHARE.intercept - SHARE.per_pound * fare_pounds

    labels = bin_labels()
    probs = dict.fromkeys(labels, 0.0)
    sd = SHARE.noise_sd
    for i, label in enumerate(labels):
        lo_edge, hi_edge = DEFAULT_SPLIT_BINS[i : i + 2]
        first, last = i == 0, i == len(labels) - 1  # the end bins are open-ended
        hi_cdf = np.ones_like(mu_share) if last else _phi_vec((hi_edge - mu_share) / sd)
        lo_cdf = np.zeros_like(mu_share) if first else _phi_vec((lo_edge - mu_share) / sd)
        probs[label] = float(np.sum(w * scale * pdf * (hi_cdf - lo_cdf)))

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


def _midnight(day: dt.date, zone: dt.tzinfo) -> int:
    return int(dt.datetime(day.year, day.month, day.day, tzinfo=zone).timestamp()) * MS


class _LocalDays:
    """Local dates and ISO weeks of instants in one zone, read from zoneinfo.

    The truth dates instants this way, not with ``model.Calendar``, so that it
    checks it. The bounds of the local day and the ISO week found last are
    kept, and answer while instants fall inside them; that holds where each
    local date runs from its midnight to the next, as in every zone whose
    clock changes do not jump over a midnight.
    """

    def __init__(self, zone: ZoneInfo) -> None:
        self.zone = zone
        self._day: tuple[dt.date, int, int] = (dt.date.min, 0, 0)  # date, start, stop
        self._week: tuple[str, int, int] = ("", 0, 0)  # label, start, stop

    def date(self, ms: int) -> dt.date:
        day, start, stop = self._day
        if not start <= ms < stop:
            day = dt.datetime.fromtimestamp(ms // 1000, self.zone).date()
            self._day = day, _midnight(day, self.zone), _midnight(day + _DAY, self.zone)
        return day

    def week(self, ms: int) -> tuple[str, int]:
        """The ISO week of the instant's local date, and the instant that week ends."""
        label, start, stop = self._week
        if not start <= ms < stop:
            label = iso_week_label(self.date(ms))
            monday = week_monday(label)
            start, stop = _midnight(monday, self.zone), _midnight(monday + 7 * _DAY, self.zone)
            self._week = label, start, stop
        return label, stop


def _week_totals(intervals: Sequence[tuple[int, int]], days: _LocalDays) -> dict[str, int]:
    """Milliseconds of the given intervals falling in each ISO week."""
    out: dict[str, int] = {}
    for start, end in intervals:
        cursor = start
        while cursor < end:
            week, stop = days.week(cursor)
            piece = min(end, stop) - cursor
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
    zone = ZoneInfo(DEFAULT_TIMEZONE)
    days = _LocalDays(zone)
    opaque, dynamic = month_index(config.opaque_start), month_index(config.dynamic_start)
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

    def era_at(ms: int) -> Era:
        """The era of the instant's local month, dated by the truth's own calendar."""
        local = days.date(ms)
        month = local.year * 12 + local.month - 1
        if month < opaque:
            return Era.FIXED_COMMISSION
        return Era.OPAQUE_GAP if month < dynamic else Era.DYNAMIC_PRICING

    def marker() -> str:
        nonlocal marker_n
        marker_n += 1
        return f"{MARKER_PREFIX}d{index}n{marker_n}"

    day = month_days(config.first_month)[0]
    last_day = month_days(config.last_month)[1] - _DAY
    start_ms = _midnight(day, zone)
    first_trip_ms: int | None = None

    while day <= last_day:
        month = f"{day.year:04d}-{day.month:02d}"
        if month in skip_months or rng.random() >= config.work_prob:
            day += _DAY
            continue

        midnight = _midnight(day, dt.timezone.utc)
        start_offset_s = int(7 * 3600 + rng.random() * 6 * 3600)
        session_start = clock.claim(midnight + start_offset_s * MS)
        session_hours = config.session_min_h + rng.random() * (
            config.session_max_h - config.session_min_h
        )
        session_end = clock.claim(session_start + int(session_hours * 3600) * MS)
        sessions.append(AppSession(session_start, session_end))
        session_iv.append((session_start, session_end))

        cursor = session_start
        while True:
            gap_s = STANDBY_MIN_S + rng.exponential(STANDBY_MEAN_S - STANDBY_MIN_S)
            request_ms = cursor + int(gap_s) * MS
            wait_s = WAIT_MIN_S + rng.random() * (WAIT_MAX_S - WAIT_MIN_S)
            accept_ms = request_ms + int(wait_s) * MS

            # rejected offers before this accepted one (geometric count)
            n_reject = int(rng.geometric(ACCEPTANCE_RATE)) - 1
            for _ in range(n_reject):
                pos = cursor + int(rng.random() * max(request_ms - cursor - MS, MS))
                offers.append(DispatchOffer(clock.claim(pos), False))

            en_route_s = EN_ROUTE_MIN_S + rng.random() * (EN_ROUTE_MAX_S - EN_ROUTE_MIN_S)
            pickup_ms = accept_ms + int(en_route_s) * MS

            era = era_at(pickup_ms)
            duration = DURATION_DYNAMIC if era is Era.DYNAMIC_PRICING else DURATION_FIXED
            duration_s = _trunc_lognormal(rng, duration)
            dropoff_ms = pickup_ms + int(duration_s) * MS

            if dropoff_ms > session_end - 60 * MS:
                break

            # trips straddling an era boundary are skipped (time stays standby)
            drop_era = era_at(dropoff_ms)
            if drop_era is not era:
                cursor = dropoff_ms
                continue

            request_ms = clock.claim(request_ms)
            accept_ms = clock.claim(accept_ms)
            offers.append(DispatchOffer(request_ms, True))

            if rng.random() < CANCEL_PROB:
                status = (
                    TripStatus.RIDER_CANCELLED
                    if rng.random() < 0.5
                    else TripStatus.DRIVER_CANCELLED
                )
                trips.append(
                    TripRecord(
                        request_ts=request_ms,
                        accept_ts=accept_ms,
                        pickup_ts=None,
                        dropoff_ts=None,
                        distance_miles=0.0,
                        status=status,
                        original_fare=None,
                        origin_tag=f"zone-{int(rng.integers(1, 9))}#{marker()}",
                        dest_tag=f"zone-{int(rng.integers(1, 9))}#{marker()}",
                        product=_pick_weighted(rng, PRODUCTS),
                    )
                )
                n_cancelled += 1
                cursor = accept_ms + int(60 + rng.random() * 120) * MS
                continue

            pickup_ms = clock.claim(pickup_ms)
            dropoff_ms = clock.claim(dropoff_ms)
            minutes = (dropoff_ms - pickup_ms) / 60_000.0

            year = days.date(pickup_ms).year
            drop_month = month_label(month_of(days.date(dropoff_ms)))
            if era is Era.DYNAMIC_PRICING:
                fare_pence = max(int(round(DYNAMIC_PER_MIN_PENCE * minutes)), 100)
                noise = rng.standard_normal() * SHARE.noise_sd
                raw_share = SHARE.mean_share(fare_pence / 100.0) + noise
                share_true = min(max(raw_share, SHARE.lo), SHARE.hi)
                pay_pence = max(int(round(share_true * fare_pence)), 1)
                fare_out: int | None = fare_pence
                distance = SPEED_MPH * (minutes / 60.0) * (
                    1.0 + rng.standard_normal() * DISTANCE_NOISE_SD
                )
            else:
                rule = FIXED_RULE
                if config.switch_year is not None and year >= config.switch_year:
                    rule = config.switch_rule
                distance = SPEED_MPH * (minutes / 60.0) * (
                    1.0 + rng.standard_normal() * DISTANCE_NOISE_SD
                )
                raw = rule.fare_pence(distance, minutes)
                fare_pence = max(int(round(raw / q)) * q, q * math.ceil(100 / q))
                pay_pence = fare_pence * pay_num // q
                fare_out = fare_pence

            distance = max(round(distance, 2), 0.1)
            if pay_factor != 1.0 and drop_month in post_months:
                pay_pence = max(int(round(pay_pence * pay_factor)), 1)

            airport = rng.random() < AIRPORT_PROB
            origin = (
                f"airport-LHR#{marker()}" if airport else f"zone-{int(rng.integers(1, 9))}#{marker()}"
            )
            dest = f"zone-{int(rng.integers(1, 9))}#{marker()}"

            # opaque-gap exports show a driver-side figure in the fare column
            if era is Era.OPAQUE_GAP:
                fare_out = pay_pence

            trip = TripRecord(
                request_ts=request_ms,
                accept_ts=accept_ms,
                pickup_ts=pickup_ms,
                dropoff_ts=dropoff_ms,
                distance_miles=distance,
                status=TripStatus.COMPLETED,
                original_fare=fare_out,
                origin_tag=origin,
                dest_tag=dest,
                product=_pick_weighted(rng, PRODUCTS),
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

            if rng.random() < TIP_PROB:
                tip_ms = clock.claim(dropoff_ms + int((600 + rng.random() * 3000)) * MS)
                tip = int(rng.integers(50, TIP_MAX_PENCE + 1))
                payments.append(
                    PaymentEvent(
                        ts=tip_ms,
                        category=PaymentCategory.TIP,
                        amount=tip,
                        memo=f"tip#{marker()}",
                    )
                )

            cursor = dropoff_ms

        day += _DAY

    profile = DriverProfile(
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
        week = days.week(p.ts)[0]
        pay_weeks[week] = pay_weeks.get(week, 0) + p.amount
    sess_w = _week_totals(session_iv, days)
    en_w = _week_totals(en_iv, days)
    on_w = _week_totals(on_iv, days)
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
    if not any(plan.values()):
        return applied

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
                if month_label(month_of(week_monday(week))) in months:
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

    genders = _quota_assign(config.n_drivers, GENDER_MIX)
    ages = _quota_assign(config.n_drivers, AGE_MIX)

    factors = [1.0] * config.n_drivers
    skip: list[set[str]] = [set() for _ in range(config.n_drivers)]
    if config.cohort is not None:
        plan = config.cohort
        regular = config.n_drivers - plan.gap_drivers
        n_cut = int(round(regular * plan.cut_fraction))
        for i in range(regular):
            factors[i] = CUT_FACTOR if i < n_cut else RAISE_FACTOR
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
        counts = {"duplicate_payments": dup[i], "inverted_trips": inv[i], "malformed_money": mal[i]}
        truth.corruptions = _inject_corruption(directory, corruption_rng, counts)
        truths.append(truth)
        all_dyn_shares.extend(dyn)

    if config.rpi_yoy is not None:
        months = month_range(
            month_add(config.first_month, -13), month_add(config.last_month, 1)
        )
        lines = ["month,yoy_pct"] + [f"{m},{config.rpi_yoy:g}" for m in months]
        (out_root / "rpi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    dyn_sorted = sorted(all_dyn_shares)
    n_dyn, mid = len(dyn_sorted), len(dyn_sorted) // 2
    median = mean = None
    if n_dyn:
        median = dyn_sorted[mid] if n_dyn % 2 else (dyn_sorted[mid - 1] + dyn_sorted[mid]) / 2.0
        mean = sum(dyn_sorted) / n_dyn

    truth = GroundTruth(
        config=_config_dict(config),
        fixed_share=config.fixed_share_float,
        drivers={t.driver_id: t for t in truths},
        dynamic_share_mean=mean,
        dynamic_share_median=median,
        dynamic_share_n=n_dyn,
        analytic_bin_probs=analytic_bin_probs() if n_dyn else {},
        cohort=_cohort_truth(config, truths),
    )
    with open(out_root / "ground_truth.json", "w", encoding="utf-8") as fh:
        # a driver's truth is filed under its id, so the id is not repeated
        # inside; vars() shares the truth's lists and dicts instead of copying
        drivers = {
            name: {k: v for k, v in vars(t).items() if k != "driver_id"}
            for name, t in truth.drivers.items()
        }
        json.dump({**vars(truth), "drivers": drivers}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return truth


def _config_dict(config: GenConfig) -> dict:
    return {
        "seed": config.seed,
        "n_drivers": config.n_drivers,
        "first_month": config.first_month,
        "last_month": config.last_month,
        "tz": DEFAULT_TIMEZONE,
        "opaque_start": config.opaque_start,
        "dynamic_start": config.dynamic_start,
        "commission": config.commission,
        "fixed_rule": asdict(FIXED_RULE),
        "switch_year": config.switch_year,
        "dynamic_per_min_pence": DYNAMIC_PER_MIN_PENCE,
        "share": asdict(SHARE),
        "jitter_sd_s": config.jitter_sd_s,
        "acceptance_rate": ACCEPTANCE_RATE,
        "marker_prefix": MARKER_PREFIX,
        "n_corrupt": asdict(config.corrupt),
    }
