import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rmtlkit
from rmtlkit import estimators
from rmtlkit.cli import build_parser, main
from rmtlkit.data import GroupSample, ingest_csv, ingest_single_group_csv
from rmtlkit.scenarios import scenario, generate_group

FIXTURE = "time,event,group\n1,1,0\n2,0,0\n3,1,1\n4,2,1\n"
SINGLE = "time,event,group\n1,1,0\n2,0,0\n3,1,0\n4,2,0\n"


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fix.csv"
    path.write_text(FIXTURE)
    return path


@pytest.fixture
def single_csv(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(SINGLE)
    return path


def write_group_csv(path, sample, with_group=True):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "event", "group"] if with_group else ["time", "event"])
        for t, e in zip(sample.time, sample.event):
            row = [f"{t:.6f}", int(e)]
            if with_group:
                row.append(sample.group)
            w.writerow(row)


def test_analyze_single_group_path(single_csv, capsys):
    assert main(["analyze", str(single_csv), "--tau", "4"]) == 0
    out = capsys.readouterr().out
    assert "RMTL = 1.1250" in out


def test_analyze_two_groups(fixture_csv, tmp_path, capsys):
    js = tmp_path / "res.json"
    curves = tmp_path / "curves.csv"
    code = main(
        ["analyze", str(fixture_csv), "--json", str(js), "--curves", str(curves)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tau = 2 (min-max rule)" in out
    payload = json.loads(js.read_text())
    assert payload["mode"] == "two-group"
    assert payload["rmtld"]["tau"] == 2
    assert payload["manifest"]["command"] == "analyze"
    digest = hashlib.sha256(fixture_csv.read_bytes()).hexdigest()
    assert payload["manifest"]["input_digests"] == {str(fixture_csv): digest}
    for g in (0, 1):
        with open(tmp_path / f"curves_group{g}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "survival", "cif1", "cif2"]
        assert rows[1][0] == "0.0"


def test_analyze_curves_builds_each_arm_once(fixture_csv, tmp_path, monkeypatch, capsys):
    built = []
    real = estimators.cif_pair

    def counting(sample):
        built.append(sample.group)
        return real(sample)

    monkeypatch.setattr(estimators, "cif_pair", counting)
    monkeypatch.setattr(rmtlkit.cli, "cif_pair", counting)
    assert main(["analyze", str(fixture_csv), "--curves", str(tmp_path / "c.csv")]) == 0
    assert sorted(built) == [0, 1]
    data = ingest_csv(str(fixture_csv))
    for sample in (data.control, data.treatment):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["time", "survival", "cif1", "cif2"])
        writer.writerows(estimators.curve_rows(real(sample)))
        written = (tmp_path / f"c_group{sample.group}.csv").read_bytes()
        assert written == expected.getvalue().encode()


def _rows_text(*rows):
    return "time,event,group\n" + "".join(f"{t},{e},{g}\n" for t, e, g in rows)


def _tie_heavy_rows():
    # 300 subjects per arm on six integer times
    rng = np.random.default_rng(17)
    times = rng.integers(1, 7, size=(2, 300))
    events = rng.integers(0, 3, size=(2, 300))
    return [(int(t), int(e), g) for g in (0, 1) for t, e in zip(times[g], events[g])]


def _untied_rows(knots):
    # arm 0: ``knots`` distinct event times; arm 1: three subjects
    rng = np.random.default_rng(knots)
    times = np.unique(rng.random(knots + 16))[:knots]
    events = rng.integers(1, 3, size=knots)
    rows = [(repr(t), int(e), 0) for t, e in zip(times.tolist(), events)]
    return rows + [(0.5, 1, 1), (0.9, 2, 1), (1.0, 0, 1)]


_SLICE = rmtlkit.cli._CURVE_SLICE

CURVE_CASES = {
    "single-group": SINGLE,
    # arm 0 has no events: its file is the header and the t=0 row
    "no-events-arm": _rows_text((1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 1, 1), (2, 2, 1), (3, 1, 1)),
    "tie-heavy": _rows_text(*_tie_heavy_rows()),
    "exponent-times": _rows_text(
        ("1e-05", 1, 0), ("2e-05", 2, 0), ("1e+16", 0, 0),
        ("1e-05", 1, 1), ("3", 1, 1), ("1e16", 2, 1),
    ),
    # one event among 20,000: incidence 5e-05
    "tiny-incidence": _rows_text(
        (1, 1, 0), *[(2, 0, 0)] * 19_999, (1, 1, 1), (2, 2, 1), (3, 0, 1)
    ),
    # events at t=0: the t=0 row, then the knot at 0.0
    "time-zero-events": _rows_text(
        (0, 1, 0), (0, 2, 0), (1, 1, 0), (2, 0, 0), (0, 0, 1), (1, 2, 1), (2, 1, 1)
    ),
    # arm 0's knots fill exactly one write slice, then cross one boundary
    "one-full-slice": _rows_text(*_untied_rows(_SLICE)),
    "slice-crossed": _rows_text(*_untied_rows(_SLICE + 3)),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_curve_file_bytes(tmp_path, capsys, case):
    # every file is exactly csv.writer's rendering of curve_rows(cif_pair(sample))
    path = tmp_path / "in.csv"
    path.write_text(CURVE_CASES[case])
    assert main(["analyze", str(path), "--curves", str(tmp_path / "c.csv")]) == 0
    data = ingest_single_group_csv(str(path), group_col="group")
    samples = [data] if isinstance(data, GroupSample) else [data.control, data.treatment]
    written = {}
    for sample in samples:
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["time", "survival", "cif1", "cif2"])
        writer.writerows(estimators.curve_rows(estimators.cif_pair(sample)))
        text = (tmp_path / f"c_group{sample.group}.csv").read_bytes()
        assert text == expected.getvalue().encode()
        assert text.endswith(b"\r\n") and text.count(b"\n") == text.count(b"\r\n")
        written[sample.group] = text
    assert sorted(p.name for p in tmp_path.glob("c_group*.csv")) == [
        f"c_group{g}.csv" for g in sorted(written)
    ]
    if case == "no-events-arm":
        assert written[0] == b"time,survival,cif1,cif2\r\n0.0,1.0,0.0,0.0\r\n"
    elif case == "exponent-times":
        assert b"\r\n1e-05," in written[0] and b"\r\n1e+16," in written[1]
    elif case == "tiny-incidence":
        assert written[0].endswith(b"\r\n1.0,0.99995,5e-05,0.0\r\n")
    elif case == "time-zero-events":
        assert written[0].startswith(b"time,survival,cif1,cif2\r\n0.0,1.0,0.0,0.0\r\n0.0,0.5,")
        assert written[1].startswith(b"time,survival,cif1,cif2\r\n0.0,1.0,0.0,0.0\r\n1.0,")
    elif case == "one-full-slice":
        assert written[0].count(b"\r\n") == 2 + _SLICE
    elif case == "slice-crossed":
        assert written[0].count(b"\r\n") == 2 + _SLICE + 3


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_curves_peak_memory(tmp_path):
    # tracemalloc peak for one untied arm of 10^5 subjects (Python 3.11.7,
    # numpy 2.4.6): 38.9 MB for curve_rows plus the file as one text, 12.2 MB
    # when it is written in slices, which is cif_pair's own peak
    rng = np.random.default_rng(5)
    sample = GroupSample(rng.random(100_000), rng.integers(1, 3, 100_000))

    def whole_text():
        rows = estimators.curve_rows(estimators.cif_pair(sample))
        text = "time,survival,cif1,cif2\r\n" + "".join(map("%r,%r,%r,%r\r\n".__mod__, rows))
        (tmp_path / "whole.csv").write_text(text, encoding="utf-8", newline="")

    reference = _traced_peak(whole_text)
    peak = _traced_peak(lambda: rmtlkit.cli._write_curves(tmp_path / "c.csv", [sample]))
    assert (tmp_path / "c_group0.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert peak < reference / 2, (peak, reference)


def test_cli_loads_no_scipy(fixture_csv, tmp_path):
    # neither the import, nor censored simulate studies, which calibrate
    # censoring, nor analyze with curve and JSON output, nor samplesize
    # from pilot CSVs loads scipy or any of its submodules; neither the
    # import nor a serial study loads the process-pool modules
    pilots = [tmp_path / "pilot0.csv", tmp_path / "pilot1.csv"]
    pilots[0].write_text("time,event\n1,1\n2,1\n3,0\n4,2\n5,1\n")
    pilots[1].write_text("time,event\n1,2\n2,1\n3,1\n4,0\n5,1\n")
    code = (
        "import json, sys, rmtlkit.cli as cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "def pool_modules():\n"
        "    return [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "loaded = scipy_modules()\n"
        "pools = pool_modules()\n"
        "for mode in ('power', 'samplesize'):\n"
        "    assert cli.main(['simulate', '--mode', mode, '--scenario', 'C', '--n0', '40',\n"
        "                     '--n1', '40', '--censoring', '30', '--reps', '100',\n"
        "                     '--workers', '1', '--out', sys.argv[1] + mode]) == 0\n"
        "    loaded += scipy_modules()\n"
        "    pools += pool_modules()\n"
        "assert cli.main(['analyze', sys.argv[2], '--curves', sys.argv[1] + 'curves.csv',\n"
        "                 '--json', sys.argv[1] + 'analyze.json']) == 0\n"
        "loaded += scipy_modules()\n"
        "assert cli.main(['samplesize', '--pilot0', sys.argv[3], '--pilot1', sys.argv[4],\n"
        "                 '--tau', '4']) == 0\n"
        "print(json.dumps([loaded + scipy_modules(), pools]))"
    )
    src = str(Path(rmtlkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "study_"), str(fixture_csv), *map(str, pilots)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [[], []]


def test_analyze_loads_no_numpy_random(fixture_csv):
    # the simulation engine builds its generators per block, so neither
    # importing the CLI nor analyzing a file loads numpy.random
    code = (
        "import sys, rmtlkit.cli as cli\n"
        "assert cli.main(['analyze', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)"
    )
    src = str(Path(rmtlkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(fixture_csv)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_analyze_identical_groups(tmp_path, capsys):
    path = tmp_path / "same.csv"
    lines = ["time,event,group"]
    for g in (0, 1):
        for t, e in [(1, 1), (2, 0), (3, 1), (4, 2)]:
            lines.append(f"{t},{e},{g}")
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(path), "--tau", "4"]) == 0
    out = capsys.readouterr().out
    assert "RMTL difference = 0.0000" in out
    assert "p = 1.000" in out


def test_analyze_p_format_small(tmp_path, capsys):
    spec = scenario("C", 300, 300, 0)
    rng = np.random.default_rng(42)
    s0 = generate_group(spec, 0, 300, rng)
    s1 = generate_group(spec, 1, 300, rng)
    path = tmp_path / "big.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "event", "group"])
        for s in (s0, s1):
            for t, e in zip(s.time, s.event):
                w.writerow([f"{t:.6f}", int(e), s.group])
    js = tmp_path / "res.json"
    assert main(["analyze", str(path), "--tau", "4", "--json", str(js)]) == 0
    out = capsys.readouterr().out
    assert "p = <0.001" in out
    payload = json.loads(js.read_text())
    assert 0.0 <= payload["rmtld"]["p"] < 0.001  # raw value preserved


def test_analyze_bad_row_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,event,group\n1,1,0\n-2,1,0\n1,1,1\n2,0,1\n")
    assert main(["analyze", str(path)]) == 2
    assert "row 2" in capsys.readouterr().err


def test_analyze_infinite_event_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("time,event,group\n1,1,0\n2,inf,0\n1,1,1\n2,0,1\n")
    assert main(["analyze", str(path)]) == 2
    assert "row 2: non-numeric event code 'inf'" in capsys.readouterr().err


def test_analyze_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/file.csv"]) == 2


def test_analyze_directory_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert err.count("\n") == 1


SAMPLESIZE = ["samplesize", "--delta", "0.5", "--sigma0-sq", "1", "--sigma1-sq", "1"]


# every output's parent is checked before any work, so nothing reaches stdout
@pytest.mark.parametrize("argv", [
    ["analyze", "{csv}", "--curves", "{afile}/c.csv"],
    ["analyze", "{afile}/x.csv"],
    ["analyze", "{csv}", "--json", "{afile}/x.json"],
    ["simulate", "--scenario", "A", "--n0", "50", "--n1", "50", "--reps", "100",
     "--out", "{afile}/x"],
    [*SAMPLESIZE, "--json", "{afile}/x.json"],
    ["analyze", "{csv}", "--curves", "{afile}/sub/c.csv"],
])
def test_path_under_a_file_exit_2(fixture_csv, tmp_path, capsys, argv):
    afile = tmp_path / "afile"
    afile.write_text("x")
    argv = [a.format(csv=fixture_csv, afile=afile) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Not a directory" in err
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "{csv}", "--json", "{missing}/x.json"],
    ["analyze", "{csv}", "--curves", "{missing}/c.csv"],
    ["simulate", "--scenario", "A", "--n0", "50", "--n1", "50", "--reps", "100",
     "--out", "{missing}/x"],
    [*SAMPLESIZE, "--json", "{missing}/x.json"],
])
def test_missing_output_parent_exit_2(fixture_csv, tmp_path, capsys, argv):
    argv = [a.format(csv=fixture_csv, missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "No such file or directory" in err
    assert err.count("\n") == 1
    assert out == "" and not (tmp_path / "missing").exists()


# an output file that is a directory, or a path with no file name to derive
# the output names from, fails before any work as well, writing nothing
@pytest.mark.parametrize("argv", [
    ["analyze", "{csv}", "--json", "{tmp}/d"],
    ["analyze", "{csv}", "--json", "{tmp}/out.json/"],
    ["analyze", "{csv}", "--curves", "{tmp}/c.csv"],
    ["analyze", "{csv}", "--curves", "/"],
    ["analyze", "{csv}", "--curves", "."],
    ["simulate", "--scenario", "A", "--n0", "50", "--n1", "50", "--reps", "100",
     "--out", "{tmp}/s"],
    ["simulate", "--scenario", "A", "--n0", "50", "--n1", "50", "--reps", "100",
     "--out", "/"],
    [*SAMPLESIZE, "--json", "{tmp}/d"],
])
def test_output_is_a_directory_exit_2(fixture_csv, tmp_path, capsys, argv):
    for name in ("d", "c_group1.csv", "s.csv"):
        (tmp_path / name).mkdir()
    before = sorted(tmp_path.iterdir())
    argv = [a.format(csv=fixture_csv, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Is a directory" in err
    assert err.count("\n") == 1
    assert out == "" and sorted(tmp_path.iterdir()) == before


def test_unwritable_output_exit_2(fixture_csv, tmp_path, monkeypatch, capsys):
    # a superuser may write anywhere, so the refusal comes from the opener
    def refusing(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(rmtlkit.cli, "open", refusing, raising=False)
    assert main(["analyze", str(fixture_csv), "--curves", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Permission denied" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("c_group*.csv"))


def test_analyze_oversized_field_exit_2(tmp_path, capsys):
    # one cell longer than the csv module's field limit: a quoted time, then
    # a cell of a column that analyze does not read
    path = tmp_path / "huge.csv"
    for text in (
        'time,event,group\n"' + "1" * 131_073 + '",1,0\n1,1,1\n',
        "time,event,group,note\n1,1,0,x\n2,0,0," + "x" * 131_073 + "\n1,1,1,x\n2,2,1,x\n",
    ):
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "field larger than field limit" in err
        assert err.count("\n") == 1


def test_analyze_header_only_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("time,event,group\n")
    assert main(["analyze", str(path)]) == 2
    assert "at least 2 required" in capsys.readouterr().err


def test_analyze_degenerate_exit_3(tmp_path, capsys):
    path = tmp_path / "cens.csv"
    path.write_text("time,event,group\n1,0,0\n2,0,0\n1,0,1\n2,0,1\n")
    assert main(["analyze", str(path)]) == 3


# (rows as time,event,group; extra arguments; exit code; expected
# (mu, se) per arm, None where not checked); an all-censored pair is
# test_analyze_degenerate_exit_3
EXTREME_INPUTS = {
    "all-competing-arm": (
        "1,2,0 2,2,0 3,2,0 4,2,0 1,1,1 2,0,1 3,1,1 4,2,1", [], 0, {"group0": (0.0, 0.0)},
    ),
    "all-zero-times-arm": ("0,1,0 0,0,0 0,2,0 0,1,0 1,1,1 2,0,1 3,1,1 4,2,1", [], 2, {}),
    # tau = 2 carries an event and a censoring in each arm
    "tau-at-censoring-tie": (
        "1,1,0 1,0,0 2,0,0 2,1,0 2,1,1 2,0,1 3,1,1 4,0,1", ["--tau", "2"], 0,
        {"group0": (0.25, None), "group1": (0.0, None)},
    ),
    "two-per-arm": ("1,1,0 2,0,0 1,1,1 3,2,1", [], 0, {}),
}


@pytest.mark.parametrize("case", EXTREME_INPUTS)
def test_analyze_extreme_inputs(tmp_path, capsys, case):
    rows, extra, code, arms = EXTREME_INPUTS[case]
    path = tmp_path / "x.csv"
    path.write_text("time,event,group\n" + rows.replace(" ", "\n") + "\n")
    js = tmp_path / "x.json"
    assert main(["analyze", str(path), "--json", str(js), *extra]) == code
    for arm, (mu, se) in arms.items():
        fit = json.loads(js.read_text())["rmtld"][arm]
        assert fit["mu"] == mu
        assert se is None or fit["se"] == se


def test_samplesize_direct(tmp_path, capsys):
    js = tmp_path / "d.json"
    code = main(
        ["samplesize", "--delta", "0.5", "--sigma0-sq", "1", "--sigma1-sq", "1",
         "--json", str(js)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "total = 126" in out
    payload = json.loads(js.read_text())
    assert payload["design"]["total"] == 126
    assert payload["achieved_power"] >= 0.8


def test_samplesize_power_monotone(capsys):
    assert main(["samplesize", "--delta", "0.5", "--sigma0-sq", "1",
                 "--sigma1-sq", "1", "--power", "0.9"]) == 0
    out = capsys.readouterr().out
    total = int(out.split("total = ")[1].split()[0])
    assert total >= 126


def test_samplesize_delta_zero_exit_3(capsys):
    assert main(["samplesize", "--delta", "0", "--sigma0-sq", "1",
                 "--sigma1-sq", "1"]) == 3


@pytest.mark.parametrize("extra", [
    ["--delta", "1e-160"],
    ["--delta", "1e-300"],
    ["--delta", "0.5", "--alpha", "1e-17"],
    ["--delta", "1e-3", "--ratio", "1e308"],
    ["--delta", "0.5", "--sigma0-sq", "1e308", "--sigma1-sq", "1e308"],
])
def test_samplesize_not_finite_exit_3(capsys, extra):
    # a later --sigma0-sq/--sigma1-sq overrides the defaults before it
    assert main(["samplesize", "--sigma0-sq", "1", "--sigma1-sq", "1", *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no finite design") and err.count("\n") == 1


def test_samplesize_infinite_delta_exit_2(tmp_path, capsys):
    js = tmp_path / "d.json"
    assert main(["samplesize", "--delta", "inf", "--sigma0-sq", "1", "--sigma1-sq", "1",
                 "--json", str(js)]) == 2
    assert "delta must be finite" in capsys.readouterr().err
    assert not js.exists()


def test_samplesize_negative_exponent_delta(capsys):
    # argparse alone reads "-1e-1" as an option and exits 2
    assert main(["samplesize", "--delta", "-0.1", "--sigma0-sq", "1", "--sigma1-sq", "1"]) == 0
    plain = capsys.readouterr().out
    assert main(["samplesize", "--delta", "-1e-1", "--sigma0-sq", "1", "--sigma1-sq", "1"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("text", ["-1", "-.5", "-1e-1", "-1.5E+2", "-inf", "-Infinity"])
def test_negative_numbers_after_a_flag_are_values(text):
    # argparse alone reads only "-1" and "-.5" here; a change in its
    # option matching shows up as a failure
    args = build_parser().parse_args(["samplesize", "--delta", text, "--sigma0-sq", "1"])
    assert args.delta == float(text) and args.sigma0_sq == 1.0


def test_samplesize_negative_infinite_delta_exit_2(capsys):
    assert main(["samplesize", "--delta", "-inf", "--sigma0-sq", "1", "--sigma1-sq", "1"]) == 2
    assert "delta must be finite" in capsys.readouterr().err


def test_analyze_negative_exponent_tau_exit_2(fixture_csv, capsys):
    assert main(["analyze", str(fixture_csv), "--tau", "-1e0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected one argument" not in err


def test_samplesize_conflicting_inputs_exit_2(tmp_path, capsys):
    pilot = tmp_path / "p.csv"
    pilot.write_text("time,event\n1,1\n2,2\n3,1\n")
    assert main(["samplesize", "--delta", "1", "--sigma0-sq", "1",
                 "--sigma1-sq", "1", "--pilot0", str(pilot),
                 "--pilot1", str(pilot), "--tau", "2"]) == 2


def test_samplesize_from_pilots(tmp_path, capsys):
    spec = scenario("C", 300, 300, 0)
    rng = np.random.default_rng(8)
    p0 = tmp_path / "p0.csv"
    p1 = tmp_path / "p1.csv"
    write_group_csv(p0, generate_group(spec, 0, 500, rng), with_group=False)
    write_group_csv(p1, generate_group(spec, 1, 500, rng), with_group=False)
    js = tmp_path / "design.json"
    code = main(["samplesize", "--pilot0", str(p0), "--pilot1", str(p1),
                 "--tau", "4", "--json", str(js)])
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["design"]["total"] > 4
    assert payload["inputs"]["delta"] < 0
    assert len(payload["manifest"]["input_digests"]) == 2


def test_simulate_power_and_outputs(tmp_path, capsys):
    out_stem = tmp_path / "rep"
    args = ["simulate", "--scenario", "A", "--n0", "120", "--n1", "120",
            "--censoring", "0", "--reps", "150", "--seed", "7",
            "--mode", "power", "--out", str(out_stem)]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "metric=rejection_rmtld" in text
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["mode"] == "power"
    assert payload["manifest"]["seed"] == 7
    with open(tmp_path / "rep.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# mode=power seed=7")
    assert lines[2].split(",")[:4] == ["scenario", "n0", "n1", "cr"]

    # identical invocation reproduces identical outputs
    before = (tmp_path / "rep.json").read_text()
    assert main(args) == 0
    capsys.readouterr()
    assert (tmp_path / "rep.json").read_text() == before


def test_simulate_estimation_45_exit_4(capsys):
    assert main(["simulate", "--scenario", "A", "--n0", "100", "--n1", "100",
                 "--censoring", "45", "--reps", "100", "--mode", "estimation"]) == 4


def test_simulate_samplesize_few_reps_exit_2(capsys):
    assert main(["simulate", "--mode", "samplesize", "--scenario", "C",
                 "--n0", "50", "--n1", "50", "--reps", "0"]) == 2
    assert "reps must be at least 100" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "estimation", "--scenario", "B", "--n0", "50", "--n1", "50",
     "--reps", "100", "--fixed-tau", "0"],
    ["simulate", "--mode", "estimation", "--scenario", "B", "--n0", "50", "--n1", "50",
     "--reps", "100", "--fixed-tau", "inf"],
    ["simulate", "--scenario", "C", "--n0", "1", "--n1", "50", "--reps", "100"],
    ["simulate", "--scenario", "C", "--n0", "50", "--n1", "50", "--reps", "100", "--seed", "-1"],
    ["simulate", "--scenario", "C", "--n0", "50", "--n1", "50", "--reps", "100", "--workers", "0"],
    ["simulate", "--scenario", "C", "--n0", "50", "--n1", "50", "--reps", "100", "--workers", "-2"],
    ["samplesize", "--delta", "0.5", "--sigma0-sq", "1", "--sigma1-sq", "1", "--ratio", "0"],
    ["samplesize", "--delta", "nan", "--sigma0-sq", "1", "--sigma1-sq", "1"],
    ["samplesize", "--delta", "0.5", "--sigma0-sq", "inf", "--sigma1-sq", "1"],
])
def test_bad_argument_values_exit_2(monkeypatch, capsys, argv):
    # rejected up front: the estimation study never draws its truth
    def no_truth(*args, **kwargs):
        raise AssertionError("true_rmtld called")

    monkeypatch.setattr(rmtlkit.simulate, "true_rmtld", no_truth)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [SINGLE, FIXTURE], ids=["one-arm", "two-arm"])
@pytest.mark.parametrize("alpha", ["2", "0", "nan"])
def test_analyze_bad_alpha_exit_2(tmp_path, capsys, text, alpha):
    path = tmp_path / "in.csv"
    path.write_text(text)
    js = tmp_path / "out.json"
    assert main(["analyze", str(path), "--alpha", alpha, "--json", str(js)]) == 2
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not js.exists()


def test_analyze_non_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("time,event,group\n1,1,0\n2,0,0\n1,1,1\n2,0,1\n# caf\xe9\n".encode("latin-1"))
    assert main(["analyze", str(path)]) == 2
    assert "can't decode" in capsys.readouterr().err


def _run_cli(code, *args, **kwargs):
    src = str(Path(rmtlkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, **kwargs
    )


def test_internal_error_exits_1_with_traceback(fixture_csv):
    # an error that is not about the input is not reported as one
    code = (
        "import sys\n"
        "from rmtlkit import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('injected fault')\n"
        "cli.gray_test = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = _run_cli(code, "analyze", str(fixture_csv))
    assert out.returncode == 1
    assert "Traceback" in out.stderr and "ValueError: injected fault" in out.stderr


def test_analyze_json_does_not_depend_on_blas_threads(tmp_path):
    # a threaded BLAS splits sums above about 10,000 terms and rounds them
    # by thread count; every sum in the kernels is correctly rounded instead
    spec = scenario("C", 20000, 20000, 30)
    rng = np.random.default_rng(7)
    lines = ["time,event,group"]
    for group in (0, 1):
        sample = generate_group(spec, group, 20000, rng)
        lines += [f"{t:.6f},{e},{group}" for t, e in zip(sample.time, sample.event)]
    path = tmp_path / "large.csv"
    path.write_text("\n".join(lines) + "\n")
    src = str(Path(rmtlkit.__file__).resolve().parents[1])
    payloads = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "rmtlkit.cli", "analyze", str(path), "--json", "out.json"],
            cwd=run_dir, env=env, capture_output=True, check=True, timeout=120,
        )
        payloads.append((run_dir / "out.json").read_bytes())
    assert payloads[0] == payloads[1]


def _limit_address_space():
    import resource

    cap = 2 * 1024**3  # bytes; the designed scenario-A power run would need far more
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("censoring", ["0", "15", "30", "45"])
def test_simulate_samplesize_above_cap_exit_3(censoring):
    # the null scenario's pilot effect is near 0, so its design is huge;
    # the run must stop at the cap, not exhaust memory
    code = "import sys\nfrom rmtlkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    out = _run_cli(
        code, "simulate", "--mode", "samplesize", "--scenario", "A", "--n0", "60", "--n1", "60",
        "--censoring", censoring, "--reps", "120", "--seed", "5",
        preexec_fn=_limit_address_space, timeout=120,
    )
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error: designed n0=")
    assert "cap of 100000 subjects per arm (pilot delta" in out.stderr and "MC SE" in out.stderr


def test_simulate_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "Q", "--n0", "10", "--n1", "10"])
    assert exc.value.code == 2


def test_stdout_matches_json(tmp_path, capsys):
    js = tmp_path / "r.json"
    path = tmp_path / "two.csv"
    path.write_text(FIXTURE)
    assert main(["analyze", str(path), "--json", str(js)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(js.read_text())
    printed_delta = float(out.split("RMTL difference = ")[1].split()[0])
    assert printed_delta == pytest.approx(payload["rmtld"]["delta"], abs=5e-5)
