"""rmtlkit benchmark: one workload per invocation, or all of them.

    python3 bench/run.py --workload sim-power --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program under test is ``src/rmtlkit`` of the
checkout that holds this file. ``--trace 0`` prints the end-to-end
metrics (untraced), ``--trace 1`` the per-layer metrics (from a traced
run, compared with an untraced run of the same fixed work). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
full record (environment, input description, timing distributions),
which is also written to ``.bench_out/``. Exit code 0 means every
output check passed. See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin the numerical libraries to one thread before numpy loads, here and
# in every process this benchmark starts, so total load stays within the
# two worker processes the heaviest workload uses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from reference import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, read_json  # noqa: E402

SETUP_RUNS = 3
TIME_LIMIT_S = 170.0  # every invocation ends within this, children included

# name -> unit; untraced run only. Times are CPU seconds (user + system,
# pool workers included) at reference speed (see reference.py); raw CPU
# and wall times are kept in the record.
END_TO_END = {
    "setup_s": "s",
    "call_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; traced run only
PER_LAYER = {
    "scenarios.generate_group.calls": "count",
    "scenarios.generate_group.self_s": "s",
    "scenarios.calibrate_censoring.s": "s",
    "data.ingest.s": "s",
    "data.ingest.rows": "count",
    "data.build_event_table.calls": "count",
    "data.build_event_table.self_s": "s",
    "data.event_times_per_call": "count",
    "estimators.cif_pair.calls": "count",
    "estimators.cif_pair.self_s": "s",
    "stepfun.integrate_step.self_s": "s",
    "estimators.curve_rows.s": "s",
    "estimators.curve_rows.knots": "count",
    "inference.rmtld_test.calls": "count",
    "inference.rmtld_test.self_s": "s",
    "inference.variance_rmtl.self_s": "s",
    "inference.gray_test.calls": "count",
    "inference.gray_test.self_s": "s",
    "inference.degenerate": "count",
    "simulate.unusable": "count",
    "design.sample_size.calls": "count",
    "simulate.self_s": "s",
    "simulate.pool_starts": "count",
    "simulate.pool_eff": "ratio",
    "simulate.py_calls_per_rep": "count",
    "cli.self_s": "s",
    "cli.write_curves.s": "s",
    "trace.wall_s": "s",
    "trace.reference_cpu_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(args: list[str], deadline: float) -> tuple[float, float]:
    """Run ``child.py`` in its own process group and return its wall and
    CPU time. On timeout the whole group, pool workers included, is
    killed and reaped before raising."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    cpu0, t0 = children_cpu(), perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall, cpu = perf_counter() - t0, children_cpu() - cpu0
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{err[-2000:]}")
    return wall, cpu


def timing_stats(samples: list[float]) -> dict:
    """Median, sample count, and the highest of p90/p75/p50 that has at
    least ten samples beyond it (None when no percentile has)."""
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None,
           "quartiles": statistics.quantiles(samples, n=4) if len(samples) > 1 else None}
    for p in (90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=10).stdout
        return {"git_sha": sha or None, "git_dirty": bool(status.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rmtlkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(w) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **git_state(),
        "src_sha256": src_digest(),
        "workers": w.workers,
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
    }


def untraced(w, seed, seconds, workdir, csv_args, deadline) -> tuple[dict, dict]:
    setup = []
    for i in range(SETUP_RUNS):
        out = workdir / f"setup{i}.json"
        wall, _ = run_child(["setup", "--workload", w.name, "--out", str(out)], deadline)
        setup.append((wall, read_json(out)["cpu"]))
    out = workdir / "measure.json"
    run_child(["measure", "--workload", w.name, "--seed", str(seed), "--seconds", str(seconds),
               "--workdir", str(workdir), "--out", str(out), *csv_args], deadline)
    m = read_json(out)
    walls, cpus = m["walls"], m["cpus"]
    if not walls:
        raise BenchError("no operation completed")
    # A call against the reference pass just before it in its process;
    # set-up, too short-lived to carry its own passes, against the median
    # of the run's passes, taken in the seconds after it.
    calls = [NOMINAL_S * cpu / ref for cpu, ref in zip(cpus, m["refs"])]
    setups = [NOMINAL_S * cpu / statistics.median(m["refs"]) for _, cpu in setup]
    metrics = {
        "setup_s": statistics.median(setups),
        "call_s": statistics.median(calls),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    wall_s = statistics.median(walls)
    detail = {
        "setup_s": timing_stats(setups),
        "setup_cpu_s": timing_stats([cpu for _, cpu in setup]),
        "setup_wall_s": timing_stats([wall for wall, _ in setup]),
        "call_s": timing_stats(calls),
        "call_cpu_s": timing_stats(cpus),
        "call_wall_s": timing_stats(walls),
        "call_reference_cpu_s": timing_stats(m["refs"]),
        # wall-time figures under the names the workload tables use
        **({"reps_per_s": m["items_per_op"] / wall_s} if w.kind == "sim" else
           {"rows_per_s": m["items_per_op"] / wall_s,
            ("analyze_curves_s" if w.curves else "analyze_s"): wall_s}),
        "failed_frac": m["failed"] / m["attempted"],
        "failures": m["failures"],
    }
    return m, {"metrics": metrics, "detail": detail}


def traced(w, seed, workdir, csv_args, deadline) -> tuple[dict, dict]:
    from tracing import self_times

    common = ["--workload", w.name, "--seed", str(seed), "--workdir", str(workdir), *csv_args]
    run_child(["fixed", "--traced", "0", "--out", str(workdir / "plain.json"), *common], deadline)
    run_child(["fixed", "--traced", "1", "--out", str(workdir / "traced.json"), *common], deadline)
    plain, trace_run = read_json(workdir / "plain.json"), read_json(workdir / "traced.json")
    trace = read_json(trace_run["trace"])
    spans, counts = trace["spans"], trace["counts"]
    selfs = self_times(spans)
    calls, span_s, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for (_, _, _, _, name, t0, t1, _), own in zip(spans, selfs):
        calls[name] += 1
        span_s[name] += t1 - t0
        self_s[name] += own
    main_pid = os.getpid() if not spans else next(s[1] for s in spans if s[4] == "cli.main")
    wall_plain, wall_traced = sum(plain["walls"]), sum(trace_run["walls"])
    cpu_plain, cpu_traced = sum(plain["cpus"]), sum(trace_run["cpus"])

    def per_call(counter, name):
        return counts.get(counter, 0) / calls[name] if calls[name] else 0

    metrics = {
        "scenarios.generate_group.calls": calls["scenarios.generate_group"],
        "scenarios.generate_group.self_s": self_s["scenarios.generate_group"],
        "scenarios.calibrate_censoring.s": span_s["scenarios.calibrate_censoring"],
        "data.ingest.s": span_s["data.ingest"],
        "data.ingest.rows": counts.get("data.ingest.rows", 0),
        "data.build_event_table.calls": calls["data.build_event_table"],
        "data.build_event_table.self_s": self_s["data.build_event_table"],
        "data.event_times_per_call": per_call("data.event_times", "data.build_event_table"),
        "estimators.cif_pair.calls": calls["estimators.cif_pair"],
        "estimators.cif_pair.self_s": self_s["estimators.cif_pair"],
        "stepfun.integrate_step.self_s": self_s["stepfun.integrate_step"],
        "estimators.curve_rows.s": span_s["estimators.curve_rows"],
        "estimators.curve_rows.knots": per_call("estimators.curve_rows.knots", "estimators.curve_rows"),
        "inference.rmtld_test.calls": calls["inference.rmtld_test"],
        "inference.rmtld_test.self_s": self_s["inference.rmtld_test"],
        "inference.variance_rmtl.self_s": self_s["inference.variance_rmtl"],
        "inference.gray_test.calls": calls["inference.gray_test"],
        "inference.gray_test.self_s": self_s["inference.gray_test"],
        "inference.degenerate": sum(1 for s in spans
                                    if s[4].startswith("inference.") and s[7] == "DegenerateTestError"),
        "simulate.unusable": trace_run["unusable"],
        "design.sample_size.calls": calls["design.sample_size"],
        "simulate.self_s": self_s["simulate"],
        "simulate.pool_starts": counts.get("simulate.pool_starts", 0),
        "simulate.pool_eff": cpu_plain / (wall_plain * w.workers),
        "simulate.py_calls_per_rep": plain.get("py_calls_per_rep", 0),
        "cli.self_s": self_s["cli.main"],
        "cli.write_curves.s": span_s["cli.write_curves"],
        "trace.wall_s": wall_traced,
        "trace.reference_cpu_s": statistics.median(trace_run["refs"]),
        # self times of the measuring process partition its cli.main spans
        "trace.accounted_frac": sum(own for s, own in zip(spans, selfs) if s[1] == main_pid) / wall_traced,
        "trace.overhead_frac": (cpu_traced - cpu_plain) / cpu_plain,
    }
    trace_out = ROOT / ".bench_out" / f"trace-{w.name}-seed{seed}.json"
    shutil.copyfile(trace_run["trace"], trace_out)
    run = {"attempted": plain["attempted"] + trace_run["attempted"],
           "failed": plain["failed"] + trace_run["failed"],
           "failures": plain["failures"] + trace_run["failures"]}
    detail = {"trace_file": str(trace_out.relative_to(ROOT)), "span_count": len(spans),
              "plain_walls": plain["walls"], "traced_walls": trace_run["walls"],
              "failures": run["failures"]}
    return run, {"metrics": metrics, "detail": detail}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    w = WORKLOADS[name]
    deadline = perf_counter() + TIME_LIMIT_S
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(w)}
        csv_args = []
        if w.kind == "analyze":
            from inputs import write_registry_csv

            csv_path = workdir / "registry.csv"
            record["input"] = write_registry_csv(csv_path, seed)
            csv_args = ["--csv", str(csv_path)]
        if trace:
            run, measured = traced(w, seed, workdir, csv_args, deadline)
            units = PER_LAYER
        else:
            run, measured = untraced(w, seed, seconds, workdir, csv_args, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(measured)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in measured["metrics"].items()},
    }
    record["result"] = result
    with open(ROOT / ".bench_out" / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for k, v in result["metrics"].items():
        print(f"{name:<18} {k:<34} {v['value']:>14.6g} {v['unit']}")
    if run["failed"]:
        print(f"{name}: {run['failed']} of {run['attempted']} operations failed: "
              f"{run['failures'][:3]}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own invocation; the final
    line merges their results with metrics named workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-2]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rmtlkit benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured CLI-call time per untraced run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmtlkit" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'rmtlkit'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
