"""What a CLI process loads and starts: each subcommand imports only the
modules it runs, numpy only for the density comparison and predict, and
OpenBLAS keeps to one thread unless the user says otherwise, with the same
bytes either way."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import fareaudit
from fareaudit.synthgen import GenConfig, generate

SRC = str(Path(fareaudit.__file__).resolve().parent.parent)

# two years for predict; 2023-02..03 are on dynamic pricing, so the truth
# carries the bin probabilities that leggauss integrates
TWO_YEARS = GenConfig(
    seed=21, n_drivers=2, first_month="2022-12", last_month="2023-03", work_prob=0.5
)

# one month on fixed commission: no density comparison, so no numpy
FIXED_ONLY = GenConfig(seed=22, n_drivers=1, first_month="2021-01", last_month="2021-01")

RUN_MAIN = (
    "import sys\n"
    "from fareaudit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), sep='\\n')\n"
    "sys.exit(code)\n"
)


# predict, printing whether numpy is loaded before each fork, after each
# process_bundle (in the parent or in a pool worker) and at the end. Each line
# is one write to the pipe, shorter than PIPE_BUF, so the workers' lines never
# interleave, also when PYTHONUNBUFFERED has print write word by word
RUN_PREDICT_LOADS = (
    "import os, sys\n"
    "from fareaudit import cli\n"
    "def say(where):\n"
    "    os.write(1, f\"{where} {'numpy' in sys.modules}\\n\".encode())\n"
    "parent = os.getpid()\n"
    "os.register_at_fork(before=lambda: say('fork'))\n"
    "real = cli.process_bundle\n"
    "def process_bundle(directory, options):\n"
    "    result = real(directory, options)\n"
    "    say('parent' if os.getpid() == parent else 'worker')\n"
    "    return result\n"
    "cli.process_bundle = process_bundle\n"
    "code = cli.main(sys.argv[1:])\n"
    "say('end')\n"
    "sys.exit(code)\n"
)


def run_python(args, blas_threads=None):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(*cli_args):
    return set(run_python(["-c", RUN_MAIN, *cli_args]).split())


def tree_digest(root: Path) -> str:
    acc = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            acc.update(str(path.relative_to(root)).encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_years")
    generate(TWO_YEARS, root)
    return root


def test_each_subcommand_loads_only_its_own_modules(fleet, tmp_path):
    never = {"fareaudit.synthgen", "fareaudit.charts", "concurrent.futures.process"}
    loaded = modules_after("audit", str(fleet), "--out", str(tmp_path / "a"), "--jobs", "1")
    assert "fareaudit.report" in loaded
    assert not loaded & (never | {"_hashlib"})

    loaded = modules_after("predict", str(fleet), "--out", str(tmp_path / "p"), "--jobs", "1")
    assert "fareaudit.predictability" in loaded
    assert not loaded & never

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_drivers": 1, "last_month": "2021-01"}))
    loaded = modules_after("synth", str(config), "--out", str(tmp_path / "s"))
    assert "fareaudit.synthgen" in loaded
    assert "concurrent.futures.process" not in loaded


def test_audit_loads_numpy_only_to_compare_era_densities(fleet, tmp_path):
    fixed = tmp_path / "fixed"
    generate(FIXED_ONLY, fixed)
    out = tmp_path / "f"
    loaded = modules_after("audit", str(fixed), "--out", str(out))
    assert "share_distribution" not in json.loads((out / "audit_report.json").read_text())
    assert not loaded & {"numpy", "fareaudit.predictability"}

    # with the eras moved, December 2022 is on fixed commission and 2023-02
    # on dynamic pricing, so the report compares the two densities
    out = tmp_path / "d"
    loaded = modules_after(
        "audit", str(fleet), "--out", str(out), "--era-boundaries", "2023-01:2023-02"
    )
    assert "share_distribution" in json.loads((out / "audit_report.json").read_text())
    assert "numpy" in loaded
    assert "fareaudit.predictability" not in loaded


def test_predict_loads_numpy_only_once_its_bundles_are_under_way(fleet, tmp_path):
    # at --jobs 2 both workers fork before the parent loads numpy, and neither
    # loads it to featurize; at --jobs 1 it loads after the last bundle
    drivers = TWO_YEARS.n_drivers
    for jobs, want in (
        ("2", ["end True"] + ["fork False"] * 2 + ["worker False"] * drivers),
        ("1", ["end True"] + ["parent False"] * drivers),
    ):
        args = ["predict", str(fleet), "--out", str(tmp_path / jobs), "--jobs", jobs]
        lines = run_python(["-c", RUN_PREDICT_LOADS, *args]).splitlines()
        assert sorted(lines) == want, jobs


def _task_count(blas_threads):
    code = "import fareaudit.cli, numpy, os; print(len(os.listdir('/proc/self/task')))"
    return int(run_python(["-c", code], blas_threads))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and at least 2 CPUs",
)
def test_openblas_keeps_one_thread_unless_told_otherwise():
    assert _task_count(None) == 1
    assert _task_count(2) == 2


def test_blas_thread_count_does_not_change_the_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(asdict(TWO_YEARS)))
    digests = {}
    for threads in (1, 2):
        fleet = tmp_path / f"fleet{threads}"
        run_python(["-m", "fareaudit.cli", "synth", str(config), "--out", str(fleet)], threads)
        truth = json.loads((fleet / "ground_truth.json").read_text(encoding="utf-8"))
        assert truth["analytic_bin_probs"]
        outs = [fleet]
        for mode in ("single_year", "cumulative"):
            out = tmp_path / f"{mode}{threads}"
            args = ["predict", str(fleet), "--out", str(out), "--mode", mode]
            run_python(["-m", "fareaudit.cli", *args], threads)
            outs.append(out)
        digests[threads] = [tree_digest(out) for out in outs]
    assert digests[1] == digests[2]
