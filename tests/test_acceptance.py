"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line. Monte-Carlo criteria run at desk scale (2000 replicates)
with a fixed canonical seed, so every number below is reproducible."""

from pathlib import Path

import numpy as np
import pytest

from rmtlkit import (
    GroupSample,
    cif_pair,
    integrate_step,
    rmtl,
    run_estimation_study,
    run_power_study,
    run_samplesize_validation,
    true_rmtld,
)
from rmtlkit.scenarios import scenario, generate_group

SEED = 20260808

REFERENCE_DELTA = {
    "A": 0.0,
    "B": -0.3935,
    "C": -0.5141,
    "D": -0.2978053,
    "E": -0.3515849,
    "F": -0.1713249,
}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def random_uncensored(rng, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    time = rng.exponential(2.0, n)
    event = rng.integers(1, 3, n)
    return GroupSample(time, event, 0)


def random_censored(rng, n_max=20):
    n = int(rng.integers(2, n_max + 1))
    time = np.round(rng.exponential(2.0, n), 3) + 1e-3
    event = np.where(rng.random(n) < 0.35, 0, rng.integers(1, 3, n))
    return GroupSample(time, event, 0)


def test_criterion_01_exact_oracles():
    rng = np.random.default_rng(SEED)
    worst_unc = 0.0
    for _ in range(500):
        s = random_uncensored(rng)
        tau = float(rng.uniform(0.2, s.max_followup))
        oracle = float(
            np.sum(np.where((s.event == 1) & (s.time <= tau), tau - s.time, 0.0)) / s.n
        )
        worst_unc = max(worst_unc, abs(rmtl(s, tau).mu - oracle))
    worst_jmp = 0.0
    for _ in range(500):
        s = random_censored(rng)
        tau = float(rng.uniform(0.1, s.max_followup))
        pair = cif_pair(s)
        keep = pair.table.times <= tau
        jumps = np.diff(np.concatenate(([0.0], pair.cif1)))[keep]
        jump_form = float(np.sum(jumps * (tau - pair.table.times[keep])))
        worst_jmp = max(worst_jmp, abs(integrate_step(pair.table.times, pair.cif1, tau) - jump_form))
    ok = worst_unc <= 1e-12 and worst_jmp <= 1e-12
    report(
        1,
        "exact-oracle equivalence",
        ok,
        f"max |mu - uncensored oracle| = {worst_unc:.2e}, "
        f"max |integral - jump form| = {worst_jmp:.2e}, both <= 1e-12",
    )


def test_criterion_02_conservation():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(500):
        s = random_censored(rng, n_max=40)
        pair = cif_pair(s)
        tau = float(rng.uniform(0.05, s.max_followup + 2.0))
        total = (
            integrate_step(pair.table.times, pair.survival, tau, 1.0)
            + integrate_step(pair.table.times, pair.cif1, tau)
            + integrate_step(pair.table.times, pair.cif2, tau)
        )
        worst = max(worst, abs(total - tau))
    ok = worst <= 1e-10
    report(2, "RMST + RMTL1 + RMTL2 = tau", ok, f"max deviation {worst:.2e} <= 1e-10")


def test_criterion_03_null_calibration():
    rep = run_power_study(scenario("A", 300, 300, 0), reps=2000, seed=SEED)
    rate = rep.metrics["rejection_rmtld"]["value"]
    ok = 0.040 <= rate <= 0.062
    report(3, "null rejection rate", ok, f"scenario A rate {rate:.4f} in [0.040, 0.062]")


def test_criterion_04_power_proportional_sdh():
    rep = run_power_study(scenario("C", 300, 300, 0), reps=2000, seed=SEED)
    rate = rep.metrics["rejection_rmtld"]["value"]
    ok = 0.945 <= rate <= 0.975
    report(4, "power under proportional SDH", ok,
           f"scenario C power {rate:.4f} in [0.945, 0.975]")


def test_criterion_05_power_gap_early_difference():
    rep = run_power_study(scenario("D", 500, 500, 0), reps=2000, seed=SEED)
    gap = (
        rep.metrics["rejection_rmtld"]["value"]
        - rep.metrics["rejection_gray"]["value"]
    )
    ok = gap > 0.35
    report(5, "early-difference power gap", ok,
           f"scenario D rmtld-gray gap {gap:.4f} > 0.35")


def test_criterion_06_estimation_quality():
    rep = run_estimation_study(
        scenario("B", 500, 500, 15), reps=2000, fixed_tau=4.0, seed=SEED
    )
    rel_bias = rep.metrics["rel_bias"]["value"]
    rel_se = rep.metrics["rel_se"]["value"]
    coverage = rep.metrics["coverage"]["value"]
    ok = abs(rel_bias) < 0.015 and 0.95 <= rel_se <= 1.05 and 0.94 <= coverage <= 0.96
    report(
        6,
        "estimation quality",
        ok,
        f"scenario B |rel bias| {abs(rel_bias):.4f} < 0.015, "
        f"rel SE {rel_se:.4f} in [0.95, 1.05], coverage {coverage:.4f} in [0.94, 0.96]",
    )


def test_criterion_07_true_value_regeneration():
    details = []
    ok = True
    for sid, ref in REFERENCE_DELTA.items():
        got = true_rmtld(scenario(sid, 300, 300, 0))
        good = abs(got - ref) <= 1e-6
        ok = ok and good
        details.append(f"{sid}:{got:+.4f} (ref {ref:+.4f})")
    report(7, "true-value regeneration", ok, "; ".join(details))


def test_criterion_08_sample_size_inversion():
    rep = run_samplesize_validation(
        scenario("C", 300, 300, 0), seed=SEED, power_reps=2000
    )
    total = rep.metrics["total_n"]["value"]
    power = rep.metrics["power_rmtld"]["value"]
    ok_n = 370 * 0.85 <= total <= 370 * 1.15
    ok_p = 0.76 <= power <= 0.88
    report(
        8,
        "sample-size inversion",
        ok_n and ok_p,
        f"scenario C total N {total:.0f} vs 370 +/- 15% [314.5, 425.5], "
        f"power at N {power:.4f} in [0.76, 0.88]",
    )


def bootstrap_variance(sample, tau, n_boot, rng):
    n = sample.n
    order = np.argsort(sample.time, kind="stable")
    t = sample.time[order]
    e = sample.event[order]
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=n_boot)
    at_risk = counts[:, ::-1].cumsum(axis=1)[:, ::-1]
    d_all = counts * (e != 0)
    d1 = counts * (e == 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(at_risk > 0, d_all / at_risk, 0.0)
        surv = np.cumprod(1.0 - frac, axis=1)
        s_left = np.concatenate([np.ones((n_boot, 1)), surv[:, :-1]], axis=1)
        jumps = np.where(at_risk > 0, d1 / at_risk, 0.0) * s_left
    mus = jumps @ np.clip(tau - t, 0.0, None)
    return float(np.var(mus, ddof=1))


def test_criterion_09_variance_vs_bootstrap():
    spec = scenario("A", 300, 300, 0)
    tau = 3.0
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(9, k)))
        s = generate_group(spec, 0, 200, rng)
        analytic = rmtl(s, tau).variance
        boot = bootstrap_variance(
            s, tau, 5000, np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(99, k)))
        )
        worst = max(worst, abs(analytic / boot - 1.0))
    ok = worst <= 0.15
    report(9, "analytic variance vs bootstrap", ok,
           f"max |analytic/bootstrap - 1| = {worst:.4f} <= 0.15 over 20 samples")


def test_criterion_10_external_examples_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    documented = (
        "-6.139" in text and "-1.023" in text and "2.427" in text
        and "user-supplied" in text
    )
    report(
        10,
        "illustrative examples documented as external",
        documented,
        "README states the published example values need user-supplied extracts",
    )
