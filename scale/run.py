"""Paper-scale run: synth, audit and predict at five fractions of one fleet.

    python3 scale/run.py --work .scale_work

The program runs from ``src/`` of the checkout that holds this script. For
each fraction 1/k in FRACTIONS the generator config ``scale/paper.json`` is
run with its ``n_drivers`` divided by k (the first drivers of the full fleet:
each driver's trips come from its own seeded stream), and then:

* ``synth`` once, traced: ``bench/tracer.py`` run as a script;
* ``audit --jobs 2 --charts``, ``predict --jobs 2`` and ``predict --mode
  cumulative --jobs 2``, untraced: wall time and peak RSS;
* ``audit --jobs 1 --charts`` and ``predict --jobs 1``, traced: stage times
  (the tracer records spans of one process only).

Peak RSS is ``ru_maxrss`` from ``os.wait4``: the largest single process of
the run, the parent or one of its pool workers, not their sum. The fleet
lives under ``--work`` and is deleted after its fraction is measured.

Standard output gets one JSON line for the base RSS (an interpreter that has
imported the package), one per fraction, and a last one with each command's
growth from 1/16 of the fleet to all of it, divided by the growth in trip
rows: 1.0 is linear. The RSS growth is taken above the base.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "scale" / "paper.json"
FRACTIONS = (16, 8, 4, 2, 1)
sys.path.insert(0, str(ROOT / "bench"))
import tracer  # noqa: E402  (bench/tracer.py: span aggregation)


def run(args: list[str], traced: Path | None = None) -> dict:
    """Wall seconds and peak RSS (MB) of one process; its stage times if traced."""
    if traced is None:
        cmd = [sys.executable, "-m", "fareaudit.cli", *args]
    else:
        cmd = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(traced), "--", *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace"))
        raise SystemExit(f"exit {proc.returncode}: {' '.join(cmd)}")
    out = {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1)}
    if traced is not None:
        metrics = tracer.layer_metrics(json.loads(traced.read_text(encoding="utf-8")))
        out["stages"] = {k: round(v, 3) for k, v in sorted(metrics.items()) if v}
    return out


def trip_rows(fleet: Path) -> int:
    rows = 0
    for trips in sorted(fleet.glob("*/trips.csv")):
        with open(trips, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def measure(config: dict, k: int, work: Path) -> dict:
    n = config["n_drivers"] // k
    cfg = work / f"config-{k}.json"
    cfg.write_text(json.dumps({**config, "n_drivers": n}), encoding="utf-8")
    fleet, out, spans = work / f"fleet-{k}", work / f"out-{k}", work / "spans.json"
    shutil.rmtree(fleet, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = {"fraction": f"1/{k}", "drivers": n}
        result["synth"] = run(["synth", str(cfg), "--out", str(fleet)], spans)
        result["trip_rows"] = trip_rows(fleet)
        for name, flags in (("audit", ["--charts"]), ("predict", [])):
            args = [name, str(fleet), "--out", str(out), *flags]
            result[name] = run([*args, "--jobs", "2"])
            result[name]["traced_jobs1"] = run([*args, "--jobs", "1"], spans)
        cumulative = ["predict", str(fleet), "--out", str(out), "--mode", "cumulative"]
        result["predict_cumulative"] = run([*cumulative, "--jobs", "2"])
        return result
    finally:
        shutil.rmtree(fleet, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)


def growth(base_mb: float, first: dict, last: dict) -> dict:
    rows = last["trip_rows"] / first["trip_rows"]
    out = {"rows_ratio": round(rows, 3)}
    for name in ("synth", "audit", "predict", "predict_cumulative"):
        a, b = first[name], last[name]
        out[name] = {
            "wall_per_row": round(b["wall_s"] / a["wall_s"] / rows, 3),
            "rss_above_base_per_row": round(
                (b["peak_rss_mb"] - base_mb) / (a["peak_rss_mb"] - base_mb) / rows, 3
            ),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, help="directory for fleets and outputs")
    args = parser.parse_args(argv)

    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    base = run(["--help"])["peak_rss_mb"]
    print(json.dumps({"base_rss_mb": base}), flush=True)
    results = []
    for k in FRACTIONS:
        results.append(measure(config, k, work))
        print(json.dumps(results[-1]), flush=True)
    print(json.dumps({"growth": growth(base, results[0], results[-1])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
