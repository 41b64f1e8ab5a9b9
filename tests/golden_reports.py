"""Golden reports: a fixed grid of CLI runs whose outputs must not change.

Each case runs the ``rmtlkit`` CLI in this process and keeps what it
reports: the ``simulate`` and ``analyze`` JSON without its manifest
(which names temporary paths), the SHA-256 of each ``--curves`` file,
and the exit code and message of a run that aborts. The grid:

* power over A-F x 0/15/30/45% censoring at 40/40, 100 replicates;
* estimation over A-F x 0/15/30% at 40/40 and tau = 1.5;
* sample size over B-F x 0/45% at 40/40, 100 power replicates;
* the scenario-A sample-size abort and an estimation abort;
* ``analyze`` on the CLI test fixtures and on a tie-heavy CSV built here;
* ``samplesize`` from pilot CSVs: the fixtures and tie-heavy pilots.

``tests/test_golden.py`` compares a fresh run with ``tests/golden/``
exactly. Regenerate the files only through this script::

    PYTHONPATH=src python tests/golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from test_cli import FIXTURE, SINGLE

from rmtlkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 7
SECTIONS = ("power", "estimation", "samplesize", "aborts", "analyze", "pilots")


def tie_heavy_csv(groups=(0, 1), n=1500):
    """Day-rounded times in 1..90 with every event code, ``n`` rows per arm."""
    rng = np.random.default_rng(SEED)
    lines = ["time,event,group"]
    for g in groups:
        days = rng.integers(1, 91, n)
        events = rng.choice([0, 1, 1, 2], n)
        lines += [f"{t},{e},{g}" for t, e in zip(days, events)]
    return "\n".join(lines) + "\n"


ANALYZE = {
    "fixture": (FIXTURE, []),
    "fixture-single": (SINGLE, []),
    "ties": (tie_heavy_csv(), []),
    "ties-tau-30-alpha-0.1": (tie_heavy_csv(), ["--tau", "30", "--alpha", "0.1"]),
    "ties-single": (tie_heavy_csv(groups=(0,)), []),
}
# (control pilot, treatment pilot, options); pilots are read without a group column
PILOTS = {
    "fixture-vs-ties-tau-4": (FIXTURE, tie_heavy_csv(groups=(1,), n=200), ["--tau", "4"]),
    "ties-vs-ties-tau-30": (tie_heavy_csv(groups=(0,), n=400), tie_heavy_csv(), ["--tau", "30"]),
    "single-vs-fixture-tau-3-delta-0.5": (SINGLE, FIXTURE, ["--tau", "3", "--delta", "0.5"]),
}


def simulate_args(mode, sid, censoring, extra=()):
    return ["simulate", "--mode", mode, "--scenario", sid, "--n0", "40", "--n1", "40",
            "--censoring", str(censoring), "--reps", "100", "--seed", str(SEED), *extra]


SIMULATE = {
    "power": {
        f"{sid}-{cr}": simulate_args("power", sid, cr) for sid in "ABCDEF" for cr in (0, 15, 30, 45)
    },
    "estimation": {
        f"{sid}-{cr}": simulate_args("estimation", sid, cr, ["--fixed-tau", "1.5"])
        for sid in "ABCDEF" for cr in (0, 15, 30)
    },
    "samplesize": {
        f"{sid}-{cr}": simulate_args("samplesize", sid, cr) for sid in "BCDEF" for cr in (0, 45)
    },
}
ABORTS = {
    "samplesize-A-0": simulate_args("samplesize", "A", 0),
    "estimation-A-45-tau-4": simulate_args("estimation", "A", 45, ["--fixed-tau", "4"]),
}


def _run(argv):
    """Exit code and stderr of the CLI on ``argv``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _without_manifest(path):
    payload = json.loads(Path(path).read_text())
    del payload["manifest"]
    return payload


def _simulate(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run([*argv, "--out", f"{tmp}/report"])
        assert code == 0, err
        return _without_manifest(f"{tmp}/report.json")


def _analyze(text, options):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "input.csv").write_text(text)
        code, err = _run(["analyze", str(tmp / "input.csv"), "--json", str(tmp / "out.json"),
                          "--curves", str(tmp / "curves.csv"), *options])
        assert code == 0, err
        curves = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp.glob("curves_group*.csv"))
        }
        return {"json": _without_manifest(tmp / "out.json"), "curve_sha256": curves}


def _pilots(pilot0, pilot1, options):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "pilot0.csv").write_text(pilot0)
        (tmp / "pilot1.csv").write_text(pilot1)
        code, err = _run(["samplesize", "--pilot0", str(tmp / "pilot0.csv"), "--pilot1",
                          str(tmp / "pilot1.csv"), "--json", str(tmp / "out.json"), *options])
        assert code == 0, err
        return _without_manifest(tmp / "out.json")


def build(section):
    """The reports of one section, by case name, as JSON would store them."""
    if section in SIMULATE:
        reports = {name: _simulate(argv) for name, argv in SIMULATE[section].items()}
    elif section == "aborts":
        reports = {name: dict(zip(("exit", "stderr"), _run(argv))) for name, argv in ABORTS.items()}
    elif section == "pilots":
        reports = {name: _pilots(*case) for name, case in PILOTS.items()}
    else:
        reports = {name: _analyze(text, options) for name, (text, options) in ANALYZE.items()}
    return json.loads(json.dumps(reports))


def differences(want, got, path=""):
    """Every path at which ``got`` differs from ``want``, with both values;
    leaves compare by their JSON text, so a float must match to the bit."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            here = f"{path}/{key}"
            if key not in got or key not in want:
                out.append(f"{here}: {'missing' if key not in got else 'unexpected'}")
            else:
                out += differences(want[key], got[key], here)
        return out
    if json.dumps(want) != json.dumps(got):
        return [f"{path}: {json.dumps(want)} -> {json.dumps(got)}"]
    return []


def golden_path(section):
    return GOLDEN / f"{section}.json"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for section in sys.argv[1:] or SECTIONS:
        text = json.dumps(build(section), indent=1, sort_keys=True) + "\n"
        golden_path(section).write_text(text)
        print(f"wrote {golden_path(section)}")
