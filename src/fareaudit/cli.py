"""Command line entry point.

Subcommands: synth (generate fixtures), audit (full report), predict
(pay-predictability matrix), anon (pseudonymize + strip a bundle tree).
Exit codes: 0 ok, 2 invalid config/arguments, 3 no usable data, 4 weak salt.
Logs go to stderr; data only ever lands under --out.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .anonymize import DEFAULT_STRIP_POLICY, WeakSalt, anonymize, load_salt
from .ingest import MalformedTable, MissingTable, load_bundle, normalize, write_bundle
from .linkage import DEFAULT_WINDOW_S
from .model import AuditError, RpiSeries
from .predictability import year_matrix
from .report import (
    AuditOptions,
    BundleFailure,
    DriverResult,
    build_report,
    dumps_report,
    json_ready,
    process_bundle,
    render_charts,
)
from .synthgen import GenConfig, InvalidConfig, generate

log = logging.getLogger("fareaudit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_DATA = 3
EXIT_WEAK_SALT = 4


def _bundle_dirs(root: str) -> list[str]:
    base = Path(root)
    if not base.is_dir():
        return []
    return [str(p) for p in sorted(base.iterdir()) if p.is_dir()]


def _month_pair(text: str) -> tuple[str, str]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected YYYY-MM:YYYY-MM")
    return lo, hi


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step; a failed write leaves it whole."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _run_bundles(dirs: list[str], options: AuditOptions, jobs: int):
    if jobs > 1 and len(dirs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(process_bundle, dirs, [options] * len(dirs)))
    return [process_bundle(d, options) for d in dirs]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        config = GenConfig.from_json(args.config)
    except (InvalidConfig, OSError, json.JSONDecodeError) as exc:
        log.error("invalid config: %s", exc)
        return EXIT_CONFIG
    generate(config, args.out)
    log.info(
        "wrote %d bundles to %s (seed=%d)", config.n_drivers, args.out, config.seed
    )
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        options = AuditOptions(
            link_window_s=args.link_window_seconds,
            opaque_start=args.era_boundaries[0],
            dynamic_start=args.era_boundaries[1],
            weeks=tuple(args.weeks) if args.weeks else None,
            cohort_pre=args.cohort_pre,
            cohort_post=args.cohort_post,
        )
        options.boundaries  # validates ordering early
    except AuditError as exc:
        log.error("invalid options: %s", exc)
        return EXIT_CONFIG

    dirs = _bundle_dirs(args.bundle_root)
    if not dirs:
        log.error("no bundle directories under %s", args.bundle_root)
        return EXIT_NO_DATA

    outcomes = _run_bundles(dirs, options, args.jobs)
    for outcome in outcomes:
        if isinstance(outcome, BundleFailure):
            log.warning("bundle %s skipped: %s", outcome.driver_id, outcome.reason)
    if not any(isinstance(o, DriverResult) for o in outcomes):
        log.error("no valid bundles")
        return EXIT_NO_DATA

    rpi = None
    rpi_path = args.rpi or str(Path(args.bundle_root) / "rpi.csv")
    if Path(rpi_path).is_file():
        try:
            rpi = RpiSeries.from_csv(rpi_path)
        except (AuditError, ValueError) as exc:
            log.error("bad rpi file %s: %s", rpi_path, exc)
            return EXIT_CONFIG
    elif args.rpi:
        log.error("rpi file not found: %s", args.rpi)
        return EXIT_CONFIG

    try:
        report = build_report(outcomes, options, rpi)
    except AuditError as exc:
        log.error("report failed: %s", exc)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "audit_report.json", dumps_report(report))
    if args.charts:
        for name, svg in render_charts(report):
            _write_atomic(out / name, svg)
    log.info("report written to %s", out / "audit_report.json")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    options = AuditOptions(link_window_s=args.link_window_seconds, features_only=True)
    dirs = _bundle_dirs(args.bundle_root)
    if not dirs:
        log.error("no bundle directories under %s", args.bundle_root)
        return EXIT_NO_DATA

    outcomes = _run_bundles(dirs, options, args.jobs)
    blocks = []
    for outcome in outcomes:
        if isinstance(outcome, BundleFailure):
            log.warning("bundle %s skipped: %s", outcome.driver_id, outcome.reason)
            continue
        blocks.append(outcome)
    if not any(b.years for b in blocks):
        log.error("no linkable trips")
        return EXIT_NO_DATA

    try:
        matrix = year_matrix(blocks, mode=args.mode, seed=args.seed)
    except AuditError as exc:
        log.error("%s", exc)
        return EXIT_NO_DATA

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "predict_matrix.csv", matrix.to_csv())
    payload = matrix.to_dict()
    payload["seed"] = args.seed
    _write_atomic(
        out / "predict_matrix.json",
        json.dumps(json_ready(payload), sort_keys=True, indent=2) + "\n",
    )
    log.info("matrix written to %s", out / "predict_matrix.csv")
    return EXIT_OK


def cmd_anon(args: argparse.Namespace) -> int:
    try:
        salt = load_salt(args.salt_file)
    except (WeakSalt, OSError) as exc:
        log.error("salt unusable: %s", exc)
        return EXIT_WEAK_SALT

    policy = tuple(args.strip.split(",")) if args.strip else DEFAULT_STRIP_POLICY
    dirs = _bundle_dirs(args.bundle_root)
    if not dirs:
        log.error("no bundle directories under %s", args.bundle_root)
        return EXIT_NO_DATA

    out = Path(args.out)
    written = 0
    for directory in dirs:
        try:
            raw = load_bundle(directory)
            bundle, report = normalize(raw)
            clean = anonymize(bundle, salt, policy)
        except (MissingTable, MalformedTable) as exc:
            log.warning("bundle %s skipped: %s", Path(directory).name, exc)
            continue
        except AuditError as exc:
            log.error("%s", exc)
            return EXIT_CONFIG
        left_out = (
            f"{table} {t.rows_quarantined} quarantined, {t.rows_deduped} deduplicated"
            for table, t in sorted(report.tables.items())
        )
        log.info("bundle %s rows left out: %s", Path(directory).name, "; ".join(left_out))
        write_bundle(clean, out / clean.driver_id)
        written += 1
    if written == 0:
        log.error("no valid bundles")
        return EXIT_NO_DATA
    log.info("wrote %d anonymized bundles to %s", written, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fareaudit",
        description="Reconstruct pay and working time from ride-hail data exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic bundles with ground truth")
    p.add_argument("config", help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit", help="produce the audit report for a bundle tree")
    p.add_argument("bundle_root", help="directory of per-driver bundle directories")
    p.add_argument("--rpi", default=None, help="inflation CSV (default: <root>/rpi.csv)")
    p.add_argument("--out", default=".", help="output directory (default: cwd)")
    p.add_argument(
        "--link-window-seconds", type=float, default=DEFAULT_WINDOW_S, metavar="S"
    )
    p.add_argument(
        "--era-boundaries",
        type=_month_pair,
        default=("2022-02", "2023-02"),
        metavar="YYYY-MM:YYYY-MM",
        help="opaque-gap start and dynamic-pricing start months",
    )
    p.add_argument(
        "--weeks",
        default=None,
        type=lambda s: s.split(","),
        metavar="YYYY-Www,...",
        help="restrict pooled rates to these ISO weeks",
    )
    p.add_argument("--cohort-pre", type=_month_pair, default=None, metavar="A:B")
    p.add_argument("--cohort-post", type=_month_pair, default=None, metavar="A:B")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--charts", action="store_true", help="also emit SVG charts")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("predict", help="pay predictability matrix across years")
    p.add_argument("bundle_root")
    p.add_argument("--mode", choices=("single_year", "cumulative"), default="single_year")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument(
        "--link-window-seconds", type=float, default=DEFAULT_WINDOW_S, metavar="S"
    )
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("anon", help="write pseudonymized, stripped bundle copies")
    p.add_argument("bundle_root")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--salt-file", default=None, help="key file; else FAREAUDIT_SALT env var"
    )
    p.add_argument(
        "--strip",
        default=None,
        metavar="FIELD,...",
        help=f"fields to blank (default: {','.join(DEFAULT_STRIP_POLICY)})",
    )
    p.set_defaults(func=cmd_anon)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenProcessPool as exc:  # a --jobs worker died; its bundles have no result
        log.error("worker process failed: %s", exc)
        return EXIT_NO_DATA


if __name__ == "__main__":
    sys.exit(main())
