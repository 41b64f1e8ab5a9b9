import math

import numpy as np
import pytest
from scipy.special import chdtrc, ndtr, ndtri
from scipy.stats import chi2, norm

from rmtlkit import (
    DegenerateTestError,
    ExtrapolationError,
    GroupSample,
    cif_pair,
    gray_test,
    rmtl,
    rmtld_test,
    variance_rmtl,
)
from rmtlkit.inference import _gray_rows
from rmtlkit.scenarios import scenario, generate_group


def make_sample(pairs, group=0):
    time = np.array([p[0] for p in pairs], dtype=float)
    event = np.array([p[1] for p in pairs], dtype=int)
    return GroupSample(time, event, group)


def random_sample(rng, n_max=50, group=0, censor_frac=0.3):
    n = int(rng.integers(3, n_max))
    time = np.round(rng.exponential(2.0, n), 3) + 0.001
    event = np.where(rng.random(n) < censor_frac, 0, rng.integers(1, 3, n))
    return GroupSample(time, event, group)


def bootstrap_variance(sample, tau, n_boot, rng):
    """Nonparametric bootstrap of the restricted-mean integral, in the
    jump form, vectorized over multinomial resample counts."""
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


FIXTURE = [(1, 1), (2, 0), (3, 1), (4, 2)]


# ---------------------------------------------------------------------------
# rmtl


def test_rmtl_fixture():
    est = rmtl(make_sample(FIXTURE), 4.0)
    assert est.mu == pytest.approx(1.125, abs=1e-15)
    assert est.n == 4
    assert est.tau == 4.0
    assert est.variance > 0


def test_rmtl_no_cause1():
    est = rmtl(make_sample([(1, 2), (2, 0), (3, 2)]), 3.0)
    assert est.mu == 0.0
    assert est.variance == 0.0


def test_rmtl_uncensored_oracle():
    est = rmtl(make_sample([(1, 1), (2, 1), (3, 2), (3.5, 1)]), tau=3.5)
    assert est.mu == pytest.approx(((3.5 - 1) + (3.5 - 2) + 0) / 4, abs=1e-15)


def test_rmtl_rejects_bad_tau():
    s = make_sample(FIXTURE)
    with pytest.raises(ExtrapolationError):
        rmtl(s, 4.5)
    with pytest.raises(ValueError):
        rmtl(s, 0.0)


def test_rmtl_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_sample(rng)
        tau = float(rng.uniform(0.1, s.max_followup))
        est = rmtl(s, tau)
        assert 0.0 <= est.mu <= tau
        assert est.variance >= 0.0


# ---------------------------------------------------------------------------
# variance


def test_variance_zero_without_events():
    s = make_sample([(1, 0), (2, 0), (3, 0)])
    assert variance_rmtl(cif_pair(s), 2.5) == 0.0


def test_variance_nonnegative_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = random_sample(rng, n_max=50)
        tau = float(rng.uniform(0.05, s.max_followup))
        assert variance_rmtl(cif_pair(s), tau) >= 0.0


def test_variance_matches_iid_uncensored():
    # with no censoring the estimator is a sample mean, so its variance
    # must approach Var(X)/n
    spec = scenario("A", 300, 300, 0)
    rng = np.random.default_rng(8)
    s = generate_group(spec, 0, 5000, rng)
    tau = 3.0
    x = np.where((s.event == 1) & (s.time <= tau), tau - s.time, 0.0)
    emp = np.var(x, ddof=1) / s.n
    assert variance_rmtl(cif_pair(s), tau) == pytest.approx(emp, rel=0.02)


def test_variance_bootstrap_oracle_n30():
    spec = scenario("A", 300, 300, 0)
    rng = np.random.default_rng(902)
    s = generate_group(spec, 0, 30, rng)
    tau = 1.5
    est = rmtl(s, tau)
    bv = bootstrap_variance(s, tau, 5000, np.random.default_rng(903))
    assert est.variance == pytest.approx(bv, rel=0.15)


# ---------------------------------------------------------------------------
# rmtld_test


def test_identical_groups_null():
    s0 = make_sample(FIXTURE, 0)
    s1 = make_sample(FIXTURE, 1)
    res = rmtld_test(s0, s1, 4.0)
    assert res.delta == 0.0
    assert res.z == 0.0
    assert res.p == 1.0
    assert res.ci_low == pytest.approx(-res.ci_high)


def test_p_ci_duality_fuzz():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s0 = random_sample(rng, group=0)
        s1 = random_sample(rng, group=1)
        tau = float(min(s0.max_followup, s1.max_followup) * rng.uniform(0.3, 1.0))
        alpha = float(rng.uniform(0.01, 0.2))
        try:
            res = rmtld_test(s0, s1, tau, alpha=alpha)
        except DegenerateTestError:
            continue
        excludes_zero = not (res.ci_low <= 0.0 <= res.ci_high)
        assert (res.p < alpha) == excludes_zero
        assert res.ci_low <= res.delta <= res.ci_high
        assert res.variance == pytest.approx(
            res.group0.variance + res.group1.variance
        )


def test_swap_antisymmetry():
    rng = np.random.default_rng(41)
    for _ in range(30):
        s0 = random_sample(rng, group=0)
        s1 = random_sample(rng, group=1)
        tau = float(min(s0.max_followup, s1.max_followup) * 0.8)
        try:
            res = rmtld_test(s0, s1, tau)
            swapped = rmtld_test(
                GroupSample(s1.time, s1.event, 0),
                GroupSample(s0.time, s0.event, 1),
                tau,
            )
        except DegenerateTestError:
            continue
        assert swapped.delta == pytest.approx(-res.delta, abs=1e-12)
        assert swapped.z == pytest.approx(-res.z, abs=1e-12)
        assert swapped.p == pytest.approx(res.p, abs=1e-12)
        assert swapped.ci_low == pytest.approx(-res.ci_high, abs=1e-12)
        assert swapped.ci_high == pytest.approx(-res.ci_low, abs=1e-12)


def test_time_rescaling_invariance():
    rng = np.random.default_rng(43)
    for _ in range(30):
        s0 = random_sample(rng, group=0)
        s1 = random_sample(rng, group=1)
        tau = float(min(s0.max_followup, s1.max_followup) * 0.9)
        c = float(rng.uniform(0.2, 5.0))
        try:
            res = rmtld_test(s0, s1, tau)
            scaled = rmtld_test(
                GroupSample(s0.time * c, s0.event, 0),
                GroupSample(s1.time * c, s1.event, 1),
                tau * c,
            )
        except DegenerateTestError:
            continue
        assert scaled.delta == pytest.approx(c * res.delta, rel=1e-9)
        assert scaled.z == pytest.approx(res.z, rel=1e-9)
        assert scaled.p == pytest.approx(res.p, rel=1e-9)


def test_degenerate_test_raises():
    s0 = make_sample([(1, 0), (2, 0)], 0)
    s1 = make_sample([(1, 0), (2, 0)], 1)
    with pytest.raises(DegenerateTestError):
        rmtld_test(s0, s1, 1.5)


def test_tau_beyond_followup_raises():
    s0 = make_sample(FIXTURE, 0)
    s1 = make_sample([(1, 1), (2, 2)], 1)
    with pytest.raises(ExtrapolationError):
        rmtld_test(s0, s1, 3.0)


def test_alpha_validation():
    s0 = make_sample(FIXTURE, 0)
    s1 = make_sample(FIXTURE, 1)
    with pytest.raises(ValueError):
        rmtld_test(s0, s1, 2.0, alpha=1.5)


# ---------------------------------------------------------------------------
# gray_test


def test_gray_identical_groups():
    rng = np.random.default_rng(3)
    time = rng.exponential(1.0, 60)
    event = rng.integers(0, 3, 60)
    res = gray_test(GroupSample(time, event, 0), GroupSample(time, event, 1))
    assert res.statistic == pytest.approx(0.0, abs=1e-16)
    assert res.p == pytest.approx(1.0)


def test_gray_no_events_raises():
    s0 = make_sample([(1, 0), (2, 2)], 0)
    s1 = make_sample([(1, 2), (2, 0)], 1)
    with pytest.raises(DegenerateTestError):
        gray_test(s0, s1, cause=1)


def logrank_parts(times, events, groups):
    """Textbook two-group log-rank: (O - E, hypergeometric variance)."""
    top = var = 0.0
    for t in np.unique(times[events == 1]):
        at = times >= t
        n1 = np.sum(at & (groups == 1))
        n = np.sum(at)
        d = np.sum((times == t) & (events == 1))
        d1 = np.sum((times == t) & (events == 1) & (groups == 1))
        if n < 2:
            continue
        top += d1 - n1 * d / n
        var += d * (n1 / n) * (1 - n1 / n) * (n - d) / (n - 1)
    return top, var


def _modified(times, causes, cause=1, big=1e9):
    return np.where(causes == cause, times, big), (causes == cause).astype(int)


def test_gray_matches_logrank_when_uncensored():
    # with no censoring the subdistribution test is a log-rank test on
    # modified times (competing-cause subjects pushed beyond the horizon);
    # under the null both variance estimators target the same quantity
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 150
        t0 = rng.exponential(1.0, n)
        c0 = np.where(rng.random(n) < 0.7, 1, 2)
        t1 = rng.exponential(1.0, n)
        c1 = np.where(rng.random(n) < 0.7, 1, 2)
        g = gray_test(GroupSample(t0, c0, 0), GroupSample(t1, c1, 1), cause=1)
        mt0, me0 = _modified(t0, c0)
        mt1, me1 = _modified(t1, c1)
        mt = np.concatenate([mt0, mt1])
        me = np.concatenate([me0, me1])
        mg = np.concatenate([np.zeros(n), np.ones(n)])
        top, var = logrank_parts(mt, me, mg)
        assert g.statistic == pytest.approx(top * top / var, rel=0.04)


def test_gray_score_identity_under_alternative():
    # the O - E numerator is an exact identity regardless of effects;
    # the two variance flavours only agree asymptotically
    rng = np.random.default_rng(6)
    n = 100
    t0 = rng.exponential(1.0, n)
    c0 = np.where(rng.random(n) < 0.7, 1, 2)
    t1 = rng.weibull(1.4, n) * 1.5
    c1 = np.where(rng.random(n) < 0.6, 1, 2)
    g = gray_test(GroupSample(t0, c0, 0), GroupSample(t1, c1, 1), cause=1)
    mt0, me0 = _modified(t0, c0)
    mt1, me1 = _modified(t1, c1)
    top, var = logrank_parts(
        np.concatenate([mt0, mt1]),
        np.concatenate([me0, me1]),
        np.concatenate([np.zeros(n), np.ones(n)]),
    )
    assert g.statistic * var == pytest.approx(top * top, rel=0.15)
    assert g.statistic == pytest.approx(top * top / var, rel=0.15)


def test_gray_permutation_oracle():
    rng = np.random.default_rng(14)
    n = 10
    time = np.round(rng.exponential(2.0, 2 * n), 3)
    event = rng.choice([0, 1, 1, 2], size=2 * n)
    labels = np.array([0] * n + [1] * n)
    obs = gray_test(
        GroupSample(time[labels == 0], event[labels == 0], 0),
        GroupSample(time[labels == 1], event[labels == 1], 1),
    ).statistic
    perm_rng = np.random.default_rng(99)
    n_perm = 20000
    # each permutation is one block row, control arm first in index order;
    # a block row gives gray_test's statistic (tests/test_block.py)
    lab = np.array([perm_rng.permutation(labels) for _ in range(n_perm)])
    subjects = np.argsort(lab, axis=1, kind="stable")
    hits = 0
    for rows in np.array_split(subjects, 20):
        t, e = time[rows], event[rows]
        stat, _ = _gray_rows(t, e, n, 1)
        hits += np.count_nonzero(stat >= obs)
    p_perm = hits / n_perm
    p_analytic = float(chi2.sf(obs, 1))
    assert abs(p_analytic - p_perm) < 0.02


def test_special_functions_match_scipy_stats():
    # p-values and quantiles come from scipy.special; on these grids they
    # equal the scipy.stats distribution methods bit for bit
    z = np.linspace(-40.0, 40.0, 200_001)
    q = np.linspace(0.0, 1.0, 200_001)[1:-1]
    x = np.linspace(0.0, 200.0, 200_001)
    assert np.array_equal(ndtr(-z), norm.sf(z))
    assert np.array_equal(ndtr(z), norm.cdf(z))
    assert np.array_equal(ndtri(q), norm.ppf(q))
    assert np.array_equal(chdtrc(1, x), chi2.sf(x, 1))
