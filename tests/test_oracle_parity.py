"""The row kernels against the scalar oracle (``scalar_oracle.py``) on
integer-rounded, tie-heavy data: every value must match bit for bit."""

import pickle

import numpy as np
import pytest
import scalar_oracle as oracle

from rmtlkit import (
    DegenerateTestError,
    GroupSample,
    RmtldResult,
    RmtlEstimate,
    cif_pair,
    gray_test,
    rmtl,
    rmtld_test,
    scenarios,
    select_tau,
    simulate,
    variance_rmtl,
)
from rmtlkit.inference import _normal_test
from rmtlkit.scenarios import generate_group, scenario

# (time, event) pairs of the control and treatment arm, one tie kind each
CASES = {
    "event-event": ([(2, 1), (2, 1), (3, 2), (5, 0)], [(1, 1), (2, 1), (2, 1), (5, 2)]),
    "event-censor": ([(2, 1), (2, 0), (3, 1), (4, 0)], [(2, 0), (3, 2), (3, 0), (4, 1)]),
    "cross-cause": ([(1, 1), (1, 2), (3, 1), (3, 2), (4, 0)], [(2, 2), (2, 1), (4, 1)]),
    "cross-arm": ([(1, 1), (2, 2), (3, 1), (4, 0)], [(1, 1), (2, 1), (3, 2), (4, 1)]),
    "censor tie at tau": ([(1, 1), (2, 2), (4, 1), (4, 0), (4, 0)], [(1, 2), (2, 1), (5, 1)]),
    "last subjects all fail": ([(1, 0), (2, 1), (3, 1), (3, 2)], [(1, 1), (2, 0), (3, 1), (5, 0)]),
}


def make_sample(pairs, group):
    return GroupSample([p[0] for p in pairs], [p[1] for p in pairs], group)


def random_pairs(count, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        arms = []
        for group in (0, 1):
            n = int(rng.integers(2, 26))
            time = rng.integers(0, 7, n).astype(float)
            time[0] = max(time[0], 1.0)
            arms.append(GroupSample(time, rng.integers(0, 3, n), group))
        yield tuple(arms)


def oracle_rmtld_test(s0, s1, tau, alpha=0.05):
    """``rmtld_test`` rebuilt from the oracle's curves and variances."""
    (mu0, var0), (mu1, var1) = (
        (pair.integrate("cif1", tau), oracle.variance_rmtl(pair, tau))
        for pair in (oracle.cif_pair(s0), oracle.cif_pair(s1))
    )
    delta, variance = mu1 - mu0, var0 + var1
    if variance <= 0.0:
        raise DegenerateTestError("both groups are event-free before tau; the test is undefined")
    z, p, ci_low, ci_high = (float(v) for v in _normal_test(delta, variance, alpha))
    return RmtldResult(
        delta, variance, ci_low, ci_high, z, p, alpha, tau,
        RmtlEstimate(mu0, var0, tau, s0.n), RmtlEstimate(mu1, var1, tau, s1.n),
    )


def outcome(test, *args):
    """Pickled result of ``test(*args).to_dict()``, or its error message."""
    try:
        return pickle.dumps(test(*args).to_dict())
    except DegenerateTestError as exc:
        return str(exc)


@pytest.mark.parametrize("name", CASES)
def test_one_row_calls_match_the_oracle(name):
    control, treatment = CASES[name]
    assert_one_row_parity(make_sample(control, 0), make_sample(treatment, 1))


def test_one_row_calls_match_the_oracle_on_random_ties():
    for s0, s1 in random_pairs(300):
        assert_one_row_parity(s0, s1)


def assert_one_row_parity(s0, s1):
    tau = select_tau(s0, s1)
    for sample in (s0, s1):
        pair, ref = cif_pair(sample), oracle.cif_pair(sample)
        for name in ("times", "d1", "d2", "at_risk"):
            got, want = getattr(pair.table, name), getattr(ref.table, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for name in ("survival", "cif1", "cif2"):
            assert getattr(pair, name).tobytes() == getattr(ref, name).tobytes(), name
        for upper in (tau, tau / 2.0):
            est = rmtl(sample, upper)
            want_var = oracle.variance_rmtl(ref, upper)
            assert pickle.dumps((est.mu, est.variance)) == pickle.dumps(
                (ref.integrate("cif1", upper), want_var)
            )
            assert pickle.dumps(variance_rmtl(pair, upper)) == pickle.dumps(want_var)
    for upper in (tau, tau / 2.0):
        assert outcome(rmtld_test, s0, s1, upper) == outcome(oracle_rmtld_test, s0, s1, upper)
    for cause in (1, 2):
        assert outcome(gray_test, s0, s1, cause) == outcome(oracle.gray_test, s0, s1, cause)


def test_case_shapes():
    # the hand-made cases hold the ties their names promise
    s0, s1 = (make_sample(a, g) for g, a in enumerate(CASES["censor tie at tau"]))
    assert select_tau(s0, s1) == 4.0
    s0, _ = (make_sample(a, g) for g, a in enumerate(CASES["last subjects all fail"]))
    assert cif_pair(s0).survival[-1] == 0.0


@pytest.mark.parametrize("gray", [True, False])
def test_block_rows_match_the_oracle(monkeypatch, gray):
    draw = scenarios._draw_arm

    def rounded(*args):
        time, event = draw(*args)
        return np.round(time), event

    monkeypatch.setattr(scenarios, "_draw_arm", rounded)
    monkeypatch.setattr(simulate, "_draw_arm", rounded)
    spec = scenario("C", 25, 25, 30)
    seed, rows = 77, 40
    got = simulate._replicate_block(spec, seed, range(rows), gray=gray)
    for i in range(rows):
        rng = simulate._rng_for(seed, 0, i)
        s0, s1 = (generate_group(spec, g, 25, rng) for g in (0, 1))
        tau = select_tau(s0, s1)
        (mu0, var0), (mu1, var1) = (
            (pair.integrate("cif1", tau), oracle.variance_rmtl(pair, tau))
            for pair in (oracle.cif_pair(s0), oracle.cif_pair(s1))
        )
        delta, variance = mu1 - mu0, var0 + var1
        _, p, ci_low, ci_high = _normal_test(delta, variance, 0.05)
        want = {
            "tau": tau, "delta": delta, "variance": variance, "var0": var0, "var1": var1,
            "ci_low": ci_low, "ci_high": ci_high, "p": p,
            "gray_p": oracle.gray_test(s0, s1).p if gray else np.nan,
        }
        for name, value in want.items():
            assert np.float64(got[name][i]).tobytes() == np.float64(value).tobytes(), (i, name)
