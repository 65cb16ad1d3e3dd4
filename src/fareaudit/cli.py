"""Command line entry point.

Subcommands: synth (generate fixtures), audit (full report), predict
(pay-predictability matrix), anon (pseudonymize + strip a bundle tree).
Exit codes: 0 ok, 2 invalid config/arguments, 3 no usable data, 4 weak salt.
Logs go to stderr; data only ever lands under --out.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent import futures  # loads its process pool only when one is made
from pathlib import Path

from .anonymize import DEFAULT_STRIP_POLICY, STRIPPABLE_FIELDS, WeakSalt, anonymize, load_salt
from .ingest import load_bundle, load_rpi, normalize, replacing, write_bundle
from .linkage import DEFAULT_WINDOW_S
from .model import AuditError, EraBoundaries, parse_month, week_monday
from .report import (
    BUNDLE_ERRORS,
    AuditOptions,
    BundleFailure,
    DriverResult,
    build_report,
    dumps_report,
    process_bundle,
    render_charts,
)

log = logging.getLogger("fareaudit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_DATA = 3
EXIT_WEAK_SALT = 4


def _bundle_dirs(root: str, out: str | None = None) -> list[str]:
    """The bundle directories under ``root``, sorted; finding none is logged.

    The command's own output directory ``out`` is never one of them, so a
    rerun does not read what the last run wrote there; leaving it out is logged.
    """
    base = Path(root)
    mine = Path(out).resolve() if out is not None else None
    dirs = []
    for p in sorted(base.iterdir()) if base.is_dir() else ():
        if p.is_dir() and p.resolve() == mine:
            log.warning("%s is the output directory, not read as a bundle", p)
        elif p.is_dir():
            dirs.append(str(p))
    if not dirs:
        log.error("no bundle directories under %s", root)
    return dirs


def _month_pair(text: str) -> tuple[str, str]:
    """Two months, each a YYYY-MM month that exists."""
    lo, _, hi = text.partition(":")
    try:
        parse_month(lo)
        parse_month(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM:YYYY-MM, got {text!r}") from None
    return lo, hi


def _week_list(text: str) -> list[str]:
    """Comma-separated ISO week labels, each a week that exists."""
    labels = text.split(",")
    for label in labels:
        try:
            week_monday(label)
        except ValueError:  # a malformed label, or a week its year does not have
            raise argparse.ArgumentTypeError(f"not an ISO week YYYY-Www: {label!r}") from None
    return labels


def _strip_list(text: str) -> tuple[str, ...]:
    """Comma-separated names of strippable fields."""
    names = tuple(text.split(","))
    for name in names:
        if name not in STRIPPABLE_FIELDS:
            raise argparse.ArgumentTypeError(
                f"not a strippable field: {name!r} (choose from {', '.join(STRIPPABLE_FIELDS)})"
            )
    return names


def _window_seconds(text: str) -> float:
    """A linkage window: positive, and finite once counted in milliseconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value * 1000)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _whole_number(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least {least}, got {text!r}"
        )
    return value


def _worker_count(text: str) -> int:
    return _whole_number(text, 1)


def _seed(text: str) -> int:
    return _whole_number(text, 0)


def _out_dir(text: str) -> str:
    """An output directory: one that exists, or can be made, where this user may write."""
    nearest = os.path.abspath(text)
    while not os.path.exists(nearest):  # the root always exists
        nearest = os.path.dirname(nearest)
    if not (os.path.isdir(nearest) and os.access(nearest, os.W_OK | os.X_OK)):
        raise argparse.ArgumentTypeError(f"not a directory that can be written: {text!r}")
    return text


def _log_skip(failure: BundleFailure) -> None:
    log.warning("bundle %s skipped: %s", failure.driver_id, failure.reason)


def _run_bundles(dirs: list[str], options: AuditOptions, jobs: int, in_flight=lambda: None):
    """Each bundle's outcome, in ``dirs`` order; each skipped bundle is logged.

    ``in_flight`` runs once every bundle is under way: as soon as the pool has
    started its workers, or after the last bundle when they run in process.
    The pool starts every worker on its first bundle, so it has no more
    workers than bundles.
    """
    if jobs > 1 and len(dirs) > 1:
        with futures.ProcessPoolExecutor(max_workers=min(jobs, len(dirs))) as pool:
            results = pool.map(process_bundle, dirs, [options] * len(dirs))
            in_flight()
            outcomes = list(results)
    else:
        outcomes = [process_bundle(d, options) for d in dirs]
        in_flight()
    for outcome in outcomes:
        if isinstance(outcome, BundleFailure):
            _log_skip(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# Subcommands


def generate(config, out: str) -> None:
    """Write the fleet of ``config``; the generator loads only for ``synth``."""
    from .synthgen import generate

    generate(config, out)


def year_matrix(blocks: list, mode: str, seed: int):
    """The predictability matrix of ``blocks``, which it empties: the blocks are
    handed over one at a time, so none is held once its rows are stacked."""
    from .predictability import year_matrix

    blocks.reverse()
    return year_matrix((blocks.pop() for _ in range(len(blocks))), mode=mode, seed=seed)


def _load_numpy() -> None:
    """Load numpy for the fits once the bundles are under way, so no worker forks with it."""
    import numpy.random  # noqa: F401  (numpy itself, and the lag-0 splits)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synthgen import GenConfig

    try:
        config = GenConfig.from_json(args.config)
    except AuditError as exc:  # InvalidConfig, or a RecordError from a month label
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
            eras=EraBoundaries(*args.era_boundaries),
            weeks=tuple(args.weeks) if args.weeks else None,
            cohort_pre=args.cohort_pre,
            cohort_post=args.cohort_post,
        )
    except AuditError as exc:
        log.error("invalid options: %s", exc)
        return EXIT_CONFIG

    rpi = None
    rpi_path = args.rpi or str(Path(args.bundle_root) / "rpi.csv")
    if Path(rpi_path).is_file():
        try:
            rpi = load_rpi(rpi_path)
        except (AuditError, ValueError) as exc:
            log.error("bad rpi file %s: %s", rpi_path, exc)
            return EXIT_CONFIG
    elif args.rpi:
        log.error("rpi file not found: %s", args.rpi)
        return EXIT_CONFIG

    dirs = _bundle_dirs(args.bundle_root, args.out)
    if not dirs:
        return EXIT_NO_DATA

    outcomes = _run_bundles(dirs, options, args.jobs)
    if not any(isinstance(o, DriverResult) for o in outcomes):
        log.error("no valid bundles")
        return EXIT_NO_DATA

    try:
        report = build_report(outcomes, options, rpi)
    except AuditError as exc:
        log.error("report failed: %s", exc)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / "audit_report.json") as fh:
        dumps_report(report, fh)
    if args.charts:
        for name, svg in render_charts(report):
            with replacing(out / name) as fh:
                fh.write(svg)
    log.info("report written to %s", out / "audit_report.json")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    options = AuditOptions(link_window_s=args.link_window_seconds, features_only=True)
    dirs = _bundle_dirs(args.bundle_root, args.out)
    if not dirs:
        return EXIT_NO_DATA

    outcomes = _run_bundles(dirs, options, args.jobs, _load_numpy)
    blocks = [o for o in outcomes if not isinstance(o, BundleFailure)]
    del outcomes  # year_matrix lets each block go once stacked
    if not any(b.arrays for b in blocks):
        log.error("no linkable trips")
        return EXIT_NO_DATA

    try:
        matrix = year_matrix(blocks, mode=args.mode, seed=args.seed)
    except AuditError as exc:
        log.error("%s", exc)
        return EXIT_NO_DATA

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with replacing(out / "predict_matrix.csv") as fh:
        fh.write(matrix.to_csv())
    with replacing(out / "predict_matrix.json") as fh:
        dumps_report({**matrix.to_dict(), "seed": args.seed}, fh)
    log.info("matrix written to %s", out / "predict_matrix.csv")
    return EXIT_OK


def cmd_anon(args: argparse.Namespace) -> int:
    try:
        salt = load_salt(args.salt_file)
    except (WeakSalt, OSError) as exc:
        log.error("salt unusable: %s", exc)
        return EXIT_WEAK_SALT

    dirs = _bundle_dirs(args.bundle_root, args.out)
    if not dirs:
        return EXIT_NO_DATA

    out = Path(args.out)
    written = 0
    for directory in dirs:
        try:
            raw = load_bundle(directory)
            bundle, report = normalize(raw)
            clean = anonymize(bundle, salt, args.strip)
        except BUNDLE_ERRORS as exc:
            _log_skip(BundleFailure.of(directory, exc))
            continue
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
    p.add_argument("--out", type=_out_dir, required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit", help="produce the audit report for a bundle tree")
    p.add_argument("bundle_root", help="directory of per-driver bundle directories")
    p.add_argument("--rpi", default=None, help="inflation CSV (default: <root>/rpi.csv)")
    p.add_argument("--out", type=_out_dir, default=".", help="output directory (default: cwd)")
    p.add_argument(
        "--link-window-seconds", type=_window_seconds, default=DEFAULT_WINDOW_S, metavar="S"
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
        type=_week_list,
        metavar="YYYY-Www,...",
        help="restrict pooled rates to these ISO weeks",
    )
    p.add_argument("--cohort-pre", type=_month_pair, default=None, metavar="A:B")
    p.add_argument("--cohort-post", type=_month_pair, default=None, metavar="A:B")
    p.add_argument("--jobs", type=_worker_count, default=1)
    p.add_argument("--charts", action="store_true", help="also emit SVG charts")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("predict", help="pay predictability matrix across years")
    p.add_argument("bundle_root")
    p.add_argument("--mode", choices=("single_year", "cumulative"), default="single_year")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_out_dir, default=".")
    p.add_argument(
        "--link-window-seconds", type=_window_seconds, default=DEFAULT_WINDOW_S, metavar="S"
    )
    p.add_argument("--jobs", type=_worker_count, default=1)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("anon", help="write pseudonymized, stripped bundle copies")
    p.add_argument("bundle_root")
    p.add_argument("--out", type=_out_dir, required=True)
    p.add_argument(
        "--salt-file", default=None, help="key file; else FAREAUDIT_SALT env var"
    )
    p.add_argument(
        "--strip",
        type=_strip_list,
        default=DEFAULT_STRIP_POLICY,
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
    except futures.BrokenExecutor as exc:  # a --jobs worker died; its bundles have no result
        log.error("worker process failed: %s", exc)
        return EXIT_NO_DATA


if __name__ == "__main__":
    sys.exit(main())
