import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmtlkit
from rmtlkit import estimators
from rmtlkit.cli import main
from rmtlkit.data import ingest_csv
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
    assert len(payload["manifest"]["input_digests"]) == 1
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


def test_cli_import_skips_stats_optimize_integrate(tmp_path):
    # neither the import nor censored simulate studies, which calibrate
    # censoring, load these modules
    code = (
        "import sys, rmtlkit.cli as cli\n"
        "for mode in ('power', 'samplesize'):\n"
        "    assert cli.main(['simulate', '--mode', mode, '--scenario', 'C', '--n0', '40',\n"
        "                     '--n1', '40', '--censoring', '30', '--reps', '100',\n"
        "                     '--out', sys.argv[1] + mode]) == 0\n"
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.integrate') "
        "if m in sys.modules])"
    )
    src = str(Path(rmtlkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "study_")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"


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


def test_analyze_oversized_field_exit_2(tmp_path, capsys):
    # one quoted time cell longer than the csv module's field limit
    path = tmp_path / "huge.csv"
    path.write_text('time,event,group\n"' + "1" * 131_073 + '",1,0\n1,1,1\n')
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
