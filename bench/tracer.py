"""Traced run of the fareaudit CLI, and the aggregation of its spans.

Run as a script, it wraps the public functions of each layer in the module
namespaces where ``cli``, ``report``, ``metrics``, ``predictability`` and
``synthgen`` look them up, calls ``fareaudit.cli.main`` in this process, and
writes the spans out when the run ends:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- audit FLEET --out OUT

Each span records its name, start, end, parent and, for some layers, counts
taken from the call's result. The wrapper around ``process_bundle`` also
pickles and unpickles every result, which is what ``--jobs N`` ships back
from its workers; that work is a span of its own, ``report.result_pickle``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pickle
import sys
import time

# (module, attribute, span name, counts taken from the result)
WRAPPED = (
    ("cli", "generate", "synthgen.generate", None),
    ("synthgen", "write_bundle", "ingest.write_bundle", None),
    ("report", "load_bundle", "ingest.load_bundle", None),
    (
        "report",
        "normalize",
        "ingest.normalize",
        lambda r: {
            "ingest.rows_in": sum(t.rows_in for t in r[1].tables.values()),
            "ingest.rows_quarantined": sum(t.rows_quarantined for t in r[1].tables.values()),
        },
    ),
    ("report", "link", "linkage.link", lambda r: {"linkage.linked_trips": len(r.linked)}),
    (
        "report",
        "build_segments",
        "worktime.build_segments",
        lambda r: {"worktime.segments": len(r.segments)},
    ),
    ("report", "weekly_rows", "metrics.weekly_rows", None),
    ("report", "hours_worked", "worktime.hours_worked", None),
    ("metrics", "hours_worked", "worktime.hours_worked", None),
    ("report", "utilisation_daily", "worktime.utilisation_daily", None),
    ("report", "surplus_series", "metrics.surplus_series", None),
    ("report", "distribution_compare", "metrics.distribution_compare", None),
    ("report", "cohort_pay_change", "metrics.cohort_pay_change", None),
    ("report", "acceptance_rate", "metrics.acceptance_rate", None),
    ("cli", "build_report", "report.build_report", None),
    ("cli", "dumps_report", "report.dumps_report", None),
    ("cli", "render_charts", "charts.render_charts", None),
    ("cli", "year_matrix", "predictability.year_matrix", None),
    ("predictability", "feature_matrix", "predictability.feature_matrix", None),
    ("predictability", "fit_ols", "predictability.fit_ols", None),
)

# Per-layer metrics: total inclusive time of a span name, unless listed below.
TIME_LAYERS = (
    "synthgen.generate",
    "ingest.write_bundle",
    "ingest.load_bundle",
    "ingest.normalize",
    "linkage.link",
    "worktime.build_segments",
    "metrics.weekly_rows",
    "worktime.utilisation_daily",
    "worktime.hours_worked",
    "metrics.surplus_series",
    "metrics.distribution_compare",
    "metrics.cohort_pay_change",
    "metrics.acceptance_rate",
    "report.build_report",
    "report.dumps_report",
    "report.process_bundle",
    "report.result_pickle",
    "predictability.feature_matrix",
    "predictability.fit_ols",
    "predictability.year_matrix",
    "charts.render_charts",
)
SELF_LAYERS = ("report.build_report",)
CALL_LAYERS = ("worktime.utilisation_daily", "worktime.hours_worked", "predictability.fit_ols")
COUNTS = (
    "ingest.rows_in",
    "ingest.rows_quarantined",
    "linkage.linked_trips",
    "worktime.segments",
    "report.result_pickle_bytes",
)


class Tracer:
    """Keeps spans in memory; one stack, since the traced run is one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, counts=None, **kwargs):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            record["counts"] = counts(result)
        return result

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counts=counts, **kwargs)

        return traced


def _round_trip(result):
    """What a pool worker's result goes through: the default pickle protocol."""
    data = pickle.dumps(result)
    return pickle.loads(data), len(data)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, counts in WRAPPED:
        module = importlib.import_module(f"fareaudit.{module_name}")
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))

    cli = importlib.import_module("fareaudit.cli")
    process_bundle = tracer.wrap("report.process_bundle", cli.process_bundle)

    def shipped(directory, options):
        result = process_bundle(directory, options)
        copy, _ = tracer.span(
            "report.result_pickle",
            _round_trip,
            result,
            counts=lambda r: {"report.result_pickle_bytes": r[1]},
        )
        return copy

    cli.process_bundle = shipped


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap one another.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals: seconds, self seconds, call counts and result counts."""
    out = {f"{name}_s": 0.0 for name in TIME_LAYERS}
    out.update({f"{name}_self_s": 0.0 for name in SELF_LAYERS})
    out.update({f"{name}_calls": 0 for name in CALL_LAYERS})
    out.update(dict.fromkeys(COUNTS, 0))
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        out[f"{name}_s"] += span["end"] - span["start"]
        if name in SELF_LAYERS:
            out[f"{name}_self_s"] += own
        if name in CALL_LAYERS:
            out[f"{name}_calls"] += 1
        for key, value in span.get("counts", {}).items():
            out[key] += value
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from fareaudit import cli

    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
