"""Report, chart and synth bytes do not depend on how the built-in ``sum`` adds
floats. From Python 3.12 on it adds them with Neumaier compensation, where
3.10 and 3.11 add left to right; every float sum behind an output file adds
left to right itself, so each Python writes 3.11's bytes. The test swaps a
compensated ``sum`` into every module of the package and checks that nothing
the synth, the report and the charts produce changes, down to the last bit of
the raw report."""

import builtins
import importlib
import math
import pkgutil

import fareaudit
from fareaudit.ingest import load_rpi
from fareaudit.report import AuditOptions, build_report, process_bundle, render_charts
from fareaudit.synthgen import generate
from test_synthgen import GOLDEN


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 does it: ints exactly, floats with Neumaier's
    running compensation."""
    items = list(values)
    if all(isinstance(v, int) for v in items) or not all(
        isinstance(v, (int, float)) for v in items
    ):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for v in map(float, items):
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_compensated_sum_differs_from_adding_left_to_right():
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0
    assert builtins.sum(values) != 1.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([[1], [2]], []) == [1, 2]


def outputs(root):
    generate(GOLDEN, root)
    synth = {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    windows = GOLDEN.cohort.window_pre, GOLDEN.cohort.window_post
    options = AuditOptions(cohort_pre=windows[0], cohort_post=windows[1])
    outcomes = [process_bundle(str(d), options) for d in sorted(root.iterdir()) if d.is_dir()]
    raw = build_report(outcomes, options, load_rpi(root / "rpi.csv"))
    return synth, repr(raw), render_charts(raw)


def test_outputs_do_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch):
    plain = outputs(tmp_path / "plain")
    for info in pkgutil.iter_modules(fareaudit.__path__):
        module = importlib.import_module(f"fareaudit.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    compensated = outputs(tmp_path / "compensated")
    assert compensated[0] == plain[0]
    assert compensated[1] == plain[1]
    assert compensated[2] == plain[2]
