"""Self-check of the benchmark at tiny size.

    python3 bench/selfcheck.py

1. Every output check passes on real output and fails on a deliberately
   perturbed copy (a flipped decision, ``mu`` shifted by 1e-6, a dropped
   curve row, ...), so no check can pass silently.
2. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit, and passes its checks.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits nonzero without printing a result.

Exits 0 when all of it holds.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import child_env  # noqa: E402  (first: pins numerical threads before numpy loads)
import workloads  # noqa: E402
from inputs import write_registry_csv  # noqa: E402

problems: list[str] = []


def expect(name: str, bad: list[str], should_fail: bool):
    ok = bool(bad) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'rejected' if bad else 'accepted'}"
          + (f" ({bad[0][:90]})" if bad else ""))
    if not ok:
        problems.append(name)


def cli(argv):
    import rmtlkit.cli

    with redirect_stdout(io.StringIO()):
        code = rmtlkit.cli.main(argv)
    if code != 0:
        raise SystemExit(f"selfcheck: {argv[0]} exited {code}")


def check_sim(workdir: Path):
    for name in ("sim-power", "sim-samplesize"):
        w = dataclasses.replace(workloads.WORKLOADS[name], n=60, reps=100, workers=1)
        stem = str(workdir / name)
        cli(w.sim_argv(5, stem))
        report = workloads.read_json(stem + ".json")
        replay = workloads.replay_sim(w, 5)
        expect(f"{name} report", workloads.check_sim_report(w, report, 5), False)
        expect(f"{name} replay", workloads.compare_replay(w, report, replay), False)
        rate = "rejection_rmtld" if w.mode == "power" else "power_rmtld"
        flipped = copy.deepcopy(report)
        flipped["metrics"][rate]["value"] += 1.0 / w.reps
        expect(f"{name} flipped decision", workloads.compare_replay(w, flipped, replay), True)
        shifted = copy.deepcopy(report)
        if w.mode == "power":
            shifted["metrics"]["mean_tau"]["value"] *= 1 + 1e-11
        else:
            shifted["extra"]["pilot_delta"] *= 1 + 1e-11
        expect(f"{name} mean shifted by 1e-11 relative",
               workloads.compare_replay(w, shifted, replay), True)
        other = copy.deepcopy(report)
        other["metrics"][rate]["mc_se"] += 1e-9
        expect(f"{name} worker-invariance comparison",
               [] if workloads.strip_manifest(other) == workloads.strip_manifest(report)
               else ["reports differ"], True)


def check_analyze(workdir: Path):
    csv_path = str(workdir / "registry.csv")
    write_registry_csv(csv_path, 5)
    expect_ = workloads.analyze_expectations(csv_path)
    w = workloads.WORKLOADS["analyze-curves"]
    stem = str(workdir / "analyze")
    cli(w.analyze_argv(csv_path, stem))
    result = workloads.read_json(stem + ".json")
    expect("analyze result", workloads.check_analyze_result(result, expect_), False)
    expect("analyze curves", workloads.check_curves(stem, expect_), False)

    shifted = copy.deepcopy(result)
    shifted["rmtld"]["group1"]["mu"] += 1e-6
    expect("analyze mu shifted by 1e-6", workloads.check_analyze_result(shifted, expect_), True)
    flipped = copy.deepcopy(result)
    r = flipped["rmtld"]
    r["p"] = r["alpha"] * 2 if r["p"] < r["alpha"] else r["alpha"] / 2
    expect("analyze flipped decision", workloads.check_analyze_result(flipped, expect_), True)
    missing = copy.deepcopy(result)
    del missing["gray"]["statistic"]
    expect("analyze missing field", workloads.check_analyze_result(missing, expect_), True)

    rows = workloads.read_curve_rows(f"{stem}_curves_group0.csv")
    knots = expect_["knots"][0]
    expect("curves as written", workloads.check_curve_rows(rows, knots), False)
    expect("curves with a dropped row", workloads.check_curve_rows(rows[:-1], knots), True)
    off = [list(row) for row in rows]
    off[5][2] = repr(float(off[5][2]) + 1e-9)
    expect("curves off sum-to-one by 1e-9", workloads.check_curve_rows(off, knots), True)


def check_emission():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                                   "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True, env=child_env())
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            got = {k: v["unit"] for k, v in last.get("metrics", {}).items()}
            ok = (proc.returncode == 0 and got == wanted[trace] and last["correct"]
                  and set(last) == {"correct", "attempted", "failed", "metrics"})
            print(f"{'ok  ' if ok else 'FAIL'} {name} --trace {trace}: "
                  f"{len(got)} metrics, exit {proc.returncode}")
            if not ok:
                problems.append(f"{name} trace {trace}: {proc.stderr[-500:]}")


def check_bare(workdir: Path):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sim-power", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if ok else 'FAIL'} without src/: exit {proc.returncode}, "
          f"stdout {'empty' if not proc.stdout.strip() else 'not empty'}")
    if not ok:
        problems.append("bare directory")


def main() -> int:
    workdir = ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_sim(workdir)
        check_analyze(workdir)
        check_bare(workdir)
        check_emission()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck:", "PASS" if not problems else f"FAIL {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
