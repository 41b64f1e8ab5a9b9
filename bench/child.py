"""One measuring process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``   - import ``rmtlkit.cli`` and finish the workload's lazy
  set-up (censoring calibration for simulate cells); report the CPU
  time since the process started.
* ``measure`` - closed loop of CLI calls for ``--seconds`` seconds in a
  warm process, with every output checked; untraced.
* ``fixed``   - a fixed number of CLI calls from a cold process, traced
  (``--traced 1``) or not; the untraced variant also counts Python
  calls per replicate under a profile hook.

Writes its result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def setup(w) -> dict:
    import rmtlkit.cli  # noqa: F401

    if w.kind == "sim":
        from rmtlkit.scenarios import calibrate_censoring, scenario

        spec = scenario(w.scenario, w.n, w.n, w.censoring)
        for group in (0, 1):
            calibrate_censoring(spec, spec.censor_target, group)
    return {"cpu": time.process_time()}


def import_program():
    import rmtlkit.cli

    if Path(rmtlkit.cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"imported rmtlkit from {rmtlkit.cli.__file__}, not {SRC}")
    return rmtlkit.cli


def op_seeds(seed: int):
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    while True:
        yield int(rng.integers(0, 2**31 - 1))


class Runner:
    """Runs CLI calls for one workload and checks each output."""

    def __init__(self, w, workdir: str, csv_path: str | None):
        self.w = w
        self.cli = import_program()
        self.workdir = workdir
        self.csv_path = csv_path
        self.expect = workloads.analyze_expectations(csv_path) if w.kind == "analyze" else None
        self.attempted = 0
        self.failures: list[str] = []
        self.unusable = 0

    def call(self, argv):
        """Time one ``cli.main`` call; returns (wall, CPU, failure or
        None), with CPU summed over this process and its pool workers."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                code = self.cli.main(argv)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        except Exception:
            return None, None, f"{argv[0]} raised: {traceback.format_exc(limit=3)}"
        if code != 0:
            return wall, cpu, f"{argv[0]} exited {code}: {err.getvalue().strip()}"
        return wall, cpu, None

    def argv(self, seed: int, workers: int | None = None):
        stem = os.path.join(self.workdir, "out")
        if self.w.kind == "sim":
            return stem, self.w.sim_argv(seed, stem, workers)
        return stem, self.w.analyze_argv(self.csv_path, stem)

    def op(self, seed: int, workers: int | None = None):
        """One checked operation; returns (wall, CPU, report or None)."""
        w = self.w
        stem, argv = self.argv(seed, workers)
        wall, cpu, failure = self.call(argv)
        report = None
        if failure is None:
            try:
                if w.kind == "sim":
                    report = workloads.read_json(stem + ".json")
                    self.unusable += report.get("unusable_replicates", 0)
                    bad = workloads.check_sim_report(w, report, seed)
                else:
                    bad = workloads.check_analyze_result(workloads.read_json(stem + ".json"), self.expect)
                    if w.curves:
                        bad += workloads.check_curves(stem, self.expect)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
            if bad:
                failure = "; ".join(bad)
        if failure is not None:
            self.failures.append(failure)
        return wall, cpu, report

    def replay(self, seed: int, report: dict):
        """Full check of one simulate report against a replay."""
        self.attempted += 1
        try:
            bad = workloads.compare_replay(self.w, report, workloads.replay_sim(self.w, seed))
        except Exception:
            bad = [traceback.format_exc(limit=3)]
        if bad:
            self.failures.append("replay: " + "; ".join(bad))

    def worker_invariance(self, seed: int, report: dict):
        """The same seed must give the same report at --workers 1."""
        _, _, serial = self.op(seed, workers=1)
        if serial is not None and workloads.strip_manifest(serial) != workloads.strip_manifest(report):
            self.failures.append(f"seed {seed}: report at --workers 1 differs from --workers {self.w.workers}")

    def result(self, walls, cpus) -> dict:
        return {
            "walls": walls,
            "cpus": cpus,
            "items_per_op": self.w.replicates_per_op() if self.w.kind == "sim" else sum(self.expect["n"]),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "unusable": self.unusable,
        }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure(runner: Runner, seeds, seconds: float) -> dict:
    from reference import reference_cpu

    w = runner.w
    runner.op(next(seeds))  # warm-up: caches fill, lazy set-up finishes
    walls, cpus, refs, checked = [], [], [], []
    give_up = time.perf_counter() + 2 * seconds  # in case calls keep raising
    while sum(walls) < seconds and time.perf_counter() < give_up:
        seed = next(seeds)
        ref = reference_cpu()
        wall, cpu, report = runner.op(seed)
        if wall is None:
            continue
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        if report is not None:
            checked.append((seed, report))
    if w.kind == "sim" and checked:
        to_replay = [checked[0]] if w.mode == "samplesize" else [checked[0], checked[-1]]
        for seed, report in to_replay:
            runner.replay(seed, report)
        if w.workers > 1:
            runner.worker_invariance(*checked[0])
    out = runner.result(walls, cpus)
    out["refs"] = refs
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def count_python_calls(runner: Runner, seed: int) -> int:
    """Python function calls made by one serial CLI call."""
    _, argv = runner.argv(seed, workers=1)
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        _, _, failure = runner.call(argv)
    finally:
        sys.setprofile(None)
    if failure is not None:
        runner.failures.append(failure)
    return calls


def fixed(runner: Runner, seeds, traced: bool, trace_path: str) -> dict:
    w = runner.w
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer(runner.workdir)
        tracer.install()
    seed_list = [next(seeds) for _ in range(w.trace_ops)]
    timed = [runner.op(seed)[:2] for seed in seed_list]
    walls = [wall or 0.0 for wall, _ in timed]
    cpus = [cpu or 0.0 for _, cpu in timed]
    from reference import reference_passes

    extra = {"refs": reference_passes()}
    if tracer is not None:
        tracer.uninstall()
        tracer.merge_spills()
        tracer.write(trace_path)
        extra["trace"] = trace_path
    elif w.kind == "sim":
        extra["py_calls_per_rep"] = count_python_calls(runner, seed_list[0]) / w.replicates_per_op()
    return {**runner.result(walls, cpus), **extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "fixed"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--csv")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    runner = None if args.mode == "setup" else Runner(w, args.workdir, args.csv)
    seeds = op_seeds(args.seed)
    if args.mode == "setup":
        out = setup(w)
    elif args.mode == "measure":
        out = measure(runner, seeds, args.seconds)
    else:
        trace_path = os.path.join(args.workdir, "trace.json")
        out = fixed(runner, seeds, bool(args.traced), trace_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
