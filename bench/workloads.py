"""The benchmark's workloads: what one operation runs and how its output
is checked.

An operation is one in-process ``rmtlkit.cli.main`` call. Every check
returns a list of failure messages, empty when the output is correct.
Checks use only the program's public functions and the benchmark's own
oracles, so they hold the program to its documented behaviour.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

ALPHA = 0.05
PILOT_REPS = 200  # run_samplesize_validation's fixed pilot size
PILOT_ROUNDS = 3  # one pilot plus two refinements
_PHASE_MAIN, _PHASE_PILOT, _PHASE_POWER = 0, 1, 2

RMTLD_FIELDS = {"delta", "variance", "se", "ci_low", "ci_high", "z", "p", "alpha",
                "tau", "group0", "group1"}
GROUP_FIELDS = {"mu", "variance", "se", "tau", "n"}
GRAY_FIELDS = {"statistic", "p", "cause"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" or "analyze"
    # simulate cells
    mode: str = ""
    scenario: str = ""
    n: int = 0
    censoring: int = 0
    workers: int = 1
    reps: int = 0
    # analyze calls
    curves: bool = False
    # operations in a traced run (fixed work, so per-layer totals compare)
    trace_ops: int = 1

    def sim_argv(self, seed: int, stem: str, workers: int | None = None) -> list[str]:
        return [
            "simulate", "--mode", self.mode, "--scenario", self.scenario,
            "--n0", str(self.n), "--n1", str(self.n),
            "--censoring", str(self.censoring),
            "--workers", str(self.workers if workers is None else workers),
            "--reps", str(self.reps), "--seed", str(seed), "--out", stem,
        ]

    def analyze_argv(self, csv_path: str, stem: str) -> list[str]:
        argv = ["analyze", csv_path, "--json", stem + ".json"]
        if self.curves:
            argv += ["--curves", stem + "_curves.csv"]
        return argv

    def replicates_per_op(self) -> int:
        if self.mode == "samplesize":
            return PILOT_ROUNDS * PILOT_REPS + self.reps
        return self.reps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-power", "sim", mode="power", scenario="C", n=300, censoring=30,
                 workers=1, reps=100, trace_ops=10),
        Workload("sim-samplesize", "sim", mode="samplesize", scenario="D", n=300,
                 censoring=15, workers=2, reps=100, trace_ops=3),
        Workload("analyze-registry", "analyze", trace_ops=8),
        Workload("analyze-curves", "analyze", curves=True, trace_ops=6),
    )
}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# simulate


def check_sim_report(w: Workload, report: dict, seed: int) -> list[str]:
    """Cheap structural check of one simulate report."""
    bad = []
    if report.get("mode") != w.mode or report.get("seed") != seed:
        bad.append(f"report mode/seed {report.get('mode')}/{report.get('seed')}")
    if report.get("reps") != w.reps:
        bad.append(f"report reps {report.get('reps')} != {w.reps}")
    if report.get("unusable_replicates", 0) != 0:
        bad.append(f"{report['unusable_replicates']} unusable replicates")
    for name, entry in report.get("metrics", {}).items():
        if not (math.isfinite(entry["value"]) and math.isfinite(entry["mc_se"])):
            bad.append(f"metric {name} not finite")
    want = {"rejection_rmtld", "rejection_gray", "mean_tau"} if w.mode == "power" else \
        {"total_n", "power_rmtld", "power_gray"}
    if set(report.get("metrics", {})) != want:
        bad.append(f"metrics {sorted(report.get('metrics', {}))} != {sorted(want)}")
    return bad


def _replicate(spec, seed, phase, i, n0, n1, with_gray):
    from rmtlkit.data import select_tau
    from rmtlkit.inference import gray_test, rmtld_test
    from rmtlkit.scenarios import generate_group

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(phase, i)))
    s0 = generate_group(spec, 0, n0, rng)
    s1 = generate_group(spec, 1, n1, rng)
    tau = select_tau(s0, s1)
    res = rmtld_test(s0, s1, tau, alpha=ALPHA)
    gray = gray_test(s0, s1, cause=1) if with_gray else None
    return res, gray, tau


def replay_sim(w: Workload, seed: int) -> dict:
    """Recompute a simulate report from the documented per-replicate
    substreams, through the public scenario and test functions."""
    from rmtlkit.design import DesignInput, sample_size
    from rmtlkit.scenarios import scenario

    spec = scenario(w.scenario, w.n, w.n, w.censoring)
    out = {}
    if w.mode == "power":
        n0, n1, phase = spec.n0, spec.n1, _PHASE_MAIN
    else:
        n0, n1 = spec.n0, spec.n1
        for _ in range(PILOT_ROUNDS):
            rows = []
            for i in range(PILOT_REPS):
                res, _, _ = _replicate(spec, seed, _PHASE_PILOT, i, n0, n1, False)
                rows.append((res.delta, n0 * res.group0.variance, n1 * res.group1.variance))
            means = [float(np.mean([r[k] for r in rows])) for k in range(3)]
            design = sample_size(DesignInput(
                delta=means[0], sigma0_sq=means[1], sigma1_sq=means[2],
                ratio=spec.n1 / spec.n0, alpha=ALPHA, power=0.8,
            ))
            n0, n1 = design.n0, design.n1
        out.update(pilot_delta=means[0], pilot_sigma0_sq=means[1],
                   pilot_sigma1_sq=means[2], n0=n0, n1=n1, total_n=float(n0 + n1))
        phase = _PHASE_POWER
    rej_rmtld, rej_gray, taus = [], [], []
    for i in range(w.reps):
        res, gray, tau = _replicate(spec, seed, phase, i, n0, n1, True)
        rej_rmtld.append(res.p < ALPHA)
        rej_gray.append(gray.p < ALPHA)
        taus.append(tau)
    out["rejection_rmtld"] = float(np.mean(rej_rmtld))
    out["rejection_gray"] = float(np.mean(rej_gray))
    out["mean_tau"] = float(np.mean(taus))
    return out


def compare_replay(w: Workload, report: dict, replay: dict) -> list[str]:
    """Reject decisions must match exactly; means to 1e-12 relative."""
    bad = []
    m = report["metrics"]
    if w.mode == "power":
        exact = {"rejection_rmtld": m["rejection_rmtld"]["value"],
                 "rejection_gray": m["rejection_gray"]["value"]}
        close = {"mean_tau": m["mean_tau"]["value"]}
    else:
        extra = report.get("extra", {})
        exact = {"power_rmtld": m["power_rmtld"]["value"],
                 "power_gray": m["power_gray"]["value"],
                 "total_n": m["total_n"]["value"],
                 "n0": report["n0"], "n1": report["n1"]}
        close = {k: extra.get(k, math.nan)
                 for k in ("pilot_delta", "pilot_sigma0_sq", "pilot_sigma1_sq")}
        replay = dict(replay, power_rmtld=replay["rejection_rmtld"],
                      power_gray=replay["rejection_gray"])
    for k, v in exact.items():
        if v != replay[k]:
            bad.append(f"{k}: report {v!r} != replay {replay[k]!r}")
    for k, v in close.items():
        if not rel_close(v, replay[k], 1e-12):
            bad.append(f"{k}: report {v!r} vs replay {replay[k]!r} beyond 1e-12 relative")
    return bad


def strip_manifest(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "manifest"}


# ---------------------------------------------------------------------------
# analyze


def load_csv_arms(path) -> list[tuple[np.ndarray, np.ndarray]]:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return [(data[data[:, 2] == g, 0], data[data[:, 2] == g, 1].astype(np.int64))
            for g in (0, 1)]


def oracle_mu(time: np.ndarray, event: np.ndarray, tau: float) -> float:
    """Cause-1 RMTL by a per-subject recursion, one subject per step.

    Subjects are ordered by time with events before censorings at a
    tied time (a censored subject is still at risk at that time). The
    per-subject factors telescope to the tied Kaplan-Meier and
    Aalen-Johansen steps, so this matches the estimator exactly while
    sharing none of its code.
    """
    order = np.lexsort((event == 0, time))
    t, e = time[order], event[order]
    at_risk = np.arange(t.size, 0, -1, dtype=float)
    surv = np.cumprod(1.0 - (e != 0) / at_risk)
    s_left = np.concatenate(([1.0], surv[:-1]))
    jumps = (e == 1) / at_risk * s_left
    return float(jumps @ np.clip(tau - t, 0.0, None))


def analyze_expectations(csv_path) -> dict:
    arms = load_csv_arms(csv_path)
    tau = min(float(t.max()) for t, _ in arms)
    return {
        "tau": tau,
        "n": [int(t.size) for t, _ in arms],
        "mu": [oracle_mu(t, e, tau) for t, e in arms],
        "knots": [int(np.unique(t[e != 0]).size) for t, e in arms],
    }


def check_analyze_result(result: dict, expect: dict) -> list[str]:
    bad = []
    if result.get("mode") != "two-group" or "manifest" not in result:
        bad.append("result lacks two-group mode or manifest")
    rmtld, gray = result.get("rmtld", {}), result.get("gray", {})
    missing = (RMTLD_FIELDS - set(rmtld)) | (GRAY_FIELDS - set(gray))
    for g in ("group0", "group1"):
        missing |= {f"{g}.{f}" for f in GROUP_FIELDS - set(rmtld.get(g, {}))}
    if missing:
        return bad + [f"missing fields {sorted(missing)}"]
    if rmtld["tau"] != expect["tau"]:
        bad.append(f"tau {rmtld['tau']!r} != min-max {expect['tau']!r}")
    for g in (0, 1):
        est = rmtld[f"group{g}"]
        if est["n"] != expect["n"][g]:
            bad.append(f"group{g} n {est['n']} != {expect['n'][g]}")
        if not rel_close(est["mu"], expect["mu"][g], 1e-9):
            bad.append(f"group{g} mu {est['mu']!r} vs oracle {expect['mu'][g]!r}")
    rejects = rmtld["p"] < rmtld["alpha"]
    excludes = rmtld["ci_low"] > 0.0 or rmtld["ci_high"] < 0.0
    if rejects != excludes:
        bad.append(f"p={rmtld['p']!r} but CI ({rmtld['ci_low']!r}, {rmtld['ci_high']!r})")
    return bad


def read_curve_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_curve_rows(rows: list[list[str]], knots: int) -> list[str]:
    """Header, a t=0 row plus one row per merged knot, and
    survival + cif1 + cif2 = 1 on every row."""
    bad = []
    if rows[:1] != [["time", "survival", "cif1", "cif2"]]:
        bad.append(f"curve header {rows[:1]}")
    body = np.array(rows[1:], dtype=float)
    if body.shape[0] != knots + 1:
        bad.append(f"{body.shape[0]} curve rows, expected {knots} knots + 1")
    if body.size:
        worst = float(np.max(np.abs(body[:, 1:].sum(axis=1) - 1.0)))
        if worst > 1e-10:
            bad.append(f"survival + cif1 + cif2 off 1 by {worst:.3g}")
    return bad


def check_curves(stem: str, expect: dict) -> list[str]:
    bad = []
    for g in (0, 1):
        path = f"{stem}_curves_group{g}.csv"
        if not os.path.exists(path):
            bad.append(f"missing curve file {path}")
            continue
        bad += [f"group{g}: {m}" for m in check_curve_rows(read_curve_rows(path), expect["knots"][g])]
    return bad
