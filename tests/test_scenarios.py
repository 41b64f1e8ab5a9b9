import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scalar_oracle import piecewise_cdf, sdh_cause1_cif, sdh_cause2_cif, sdh_delta

from rmtlkit import InputError, scenarios
from rmtlkit.scenarios import (
    SCENARIO_IDS,
    THETA_B,
    THETA_C,
    ScenarioSpec,
    _PIECES,
    _THETA,
    calibrate_censoring,
    generate_group,
    scenario,
    true_rmtld,
)

# True RMTL differences of the built-in scenarios at tau = 4: B and C are
# the references THETA_B and THETA_C solve for, the rest quadrature values.
REFERENCE_DELTA = {
    "A": 0.0,
    "B": -0.3935,
    "C": -0.5141,
    "D": -0.2978053,
    "E": -0.3515849,
    "F": -0.1713249,
}


def test_theta_constants_rederive():
    # the preset effect parameters solve sdh_delta(theta) = reference value
    assert sdh_delta(THETA_B) == pytest.approx(REFERENCE_DELTA["B"], abs=1e-6)
    assert sdh_delta(THETA_C) == pytest.approx(REFERENCE_DELTA["C"], abs=1e-6)
    theta_b = brentq(lambda th: sdh_delta(th) - REFERENCE_DELTA["B"], -1.0, -0.01)
    theta_c = brentq(lambda th: sdh_delta(th) - REFERENCE_DELTA["C"], -1.0, -0.01)
    assert theta_b == pytest.approx(THETA_B, abs=1e-8)
    assert theta_c == pytest.approx(THETA_C, abs=1e-8)


def test_spec_validation():
    for bad in ({"id": "Z"}, {"censor_target": 20}, {"n0": 1}, {"n1": 1},
                {"p1": 0.0}, {"p1": 1.5}, {"n0": 300.5}, {"n1": 300.0}, {"n0": "300"}):
        with pytest.raises(InputError):
            scenario(**{"id": "A", "n0": 100, "n1": 100, **bad})
    # numpy integers are integers
    assert ScenarioSpec("C", np.int64(300), np.int32(300)).n0 == 300


def test_preset_structure():
    b = scenario("B", 300, 500, 15)
    assert b.n0 == 300 and b.n1 == 500 and b.censor_target == 15
    d0, d1 = _PIECES["D"]
    assert d0[0].shape == 1 and d0[0].scale == 2
    assert d1[0].shape == 4
    assert math.isinf(d0[-1].upper)


def test_generate_shapes_and_codes():
    spec = scenario("A", 100, 100, 0)
    rng = np.random.default_rng(1)
    s = generate_group(spec, 0, 100, rng)
    assert s.n == 100
    assert set(np.unique(s.event)) <= {1, 2}
    assert np.all(s.time > 0)


def test_degenerate_p1():
    spec = ScenarioSpec(id="A", n0=50, n1=50, p1=1.0)
    s = generate_group(spec, 0, 50, np.random.default_rng(2))
    assert np.all(s.event == 1)


def test_event_type_mixture_identity():
    # empirical P(J=1) matches the design probability within 3 MC SEs
    n = 200_000
    for sid in ("A", "B", "C", "D", "E", "F"):
        spec = scenario(sid, 100, 100, 0)
        for group in (0, 1):
            rng = np.random.default_rng(100 + group)
            s = generate_group(spec, group, n, rng)
            if sid in ("B", "C") and group == 1:
                expected = 1.0 - (1.0 - spec.p1) ** math.exp({"B": THETA_B, "C": THETA_C}[sid])
            else:
                expected = spec.p1
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(np.mean(s.event == 1) - expected) < 3 * se, (sid, group)


def test_sdh_generator_matches_closed_form():
    # empirical treatment-arm CIFs agree with the closed forms at spot times
    spec = scenario("B", 100, 100, 0)
    n = 1_000_000
    rng = np.random.default_rng(555)
    s = generate_group(spec, 1, n, rng)
    for t in (0.5, 1.0, 2.0, 4.0):
        emp1 = np.mean((s.event == 1) & (s.time <= t))
        emp2 = np.mean((s.event == 2) & (s.time <= t))
        assert abs(emp1 - sdh_cause1_cif(spec.p1, THETA_B, t)) < 0.003
        assert abs(emp2 - sdh_cause2_cif(spec.p1, THETA_B, t)) < 0.003


def test_piecewise_sampler_matches_cdf():
    # inverse-CDF draws reproduce the spliced distribution function
    for sid in ("D", "E", "F"):
        spec = scenario(sid, 100, 100, 0)
        for group, pieces in enumerate(_PIECES[sid]):
            rng = np.random.default_rng(777)
            s = generate_group(spec, group, 400_000, rng)
            for t in (0.5, 1.0, 2.0, 3.0, 4.0):
                emp = np.mean(s.time <= t)
                assert abs(emp - piecewise_cdf(pieces, t)) < 0.004, (sid, group, t)


def test_piecewise_cdf_continuity():
    # cumulative incidence is continuous across breakpoints
    for sid in ("D", "E", "F"):
        for pieces in _PIECES[sid]:
            for piece in pieces[:-1]:
                c = piece.upper
                below = piecewise_cdf(pieces, c - 1e-9)
                above = piecewise_cdf(pieces, c + 1e-9)
                assert abs(above - below) < 1e-6


def test_true_rmtld_reproduces_reference():
    for sid, ref in REFERENCE_DELTA.items():
        spec = scenario(sid, 100, 100, 0)
        assert true_rmtld(spec) == pytest.approx(ref, abs=1e-6), sid


def _cause1_cif(spec, group, t):
    """Closed-form cause-1 cumulative incidence of one arm."""
    if spec.id in _THETA and group == 1:
        return sdh_cause1_cif(spec.p1, _THETA[spec.id], t)
    if spec.id in ("A", "B", "C"):
        return spec.p1 * (1.0 - np.exp(-t))
    return spec.p1 * piecewise_cdf(_PIECES[spec.id][group], t)


@pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 4.0, 7.5])
def test_true_rmtld_matches_quadrature(tau):
    # the RMTL is the integral of the cause-1 incidence over [0, tau];
    # the arms coincide up to tau in A, in E up to 1 and in F up to 2
    for sid in SCENARIO_IDS:
        spec = scenario(sid, 100, 100, 0)
        got = true_rmtld(spec, tau)
        kinks = [c for c in (1.0, 2.0) if c < tau]
        mu0, mu1 = (
            quad(lambda t: float(_cause1_cif(spec, g, t)), 0.0, tau, points=kinks or None, limit=200)[0]
            for g in (0, 1)
        )
        assert got == pytest.approx(mu1 - mu0, abs=1e-6), (sid, tau)
        if sid == "A" or (sid == "E" and tau <= 1.0) or (sid == "F" and tau <= 2.0):
            assert got == 0.0, (sid, tau)


def test_calibrate_censoring_targets():
    # a fresh draw censors within one percentage point of the target
    for sid, target in (("A", 30), ("B", 15), ("E", 45)):
        spec = scenario(sid, 100, 100, target)
        for group in (0, 1):
            bound = calibrate_censoring(spec, target, group)
            assert bound > 0
            rng = np.random.default_rng(31337 + group)
            s = generate_group(spec, group, 200_000, rng)
            rate = float(np.mean(s.event == 0))
            assert abs(rate - target / 100.0) < 0.01, (sid, group, rate)


def _survival(spec, group, t):
    """Closed-form latent survival 1 - F1 - F2 of one arm."""
    if spec.id in _THETA and group == 1:
        theta = _THETA[spec.id]
        return 1.0 - sdh_cause1_cif(spec.p1, theta, t) - sdh_cause2_cif(spec.p1, theta, t)
    if spec.id in ("A", "B", "C"):
        return np.exp(-t)
    return 1.0 - piecewise_cdf(_PIECES[spec.id][group], t)


def _population_bound(spec, group, c):
    """The root b of int_0^b S(t) dt / b = c, by quad and brentq."""

    def excess(b):
        kinks = [k for k in (1.0, 2.0) if k < b] or None
        area = quad(lambda t: float(_survival(spec, group, t)), 0.0, b, points=kinks, limit=200)
        return area[0] / b - c

    return brentq(excess, 1e-6, 200.0, xtol=1e-13)


def test_calibrated_bounds_match_the_brent_root(monkeypatch):
    # the bound is the population root of E[min(T, b)] / b = c, with the
    # survival of T in closed form, to 2e-6 relative in every cell, and
    # always a Python float
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    for p1 in (0.3, 0.7, 1.0):
        for sid in SCENARIO_IDS:
            for group in (0, 1):
                for target in (15, 30, 45):
                    spec = scenario(sid, 10, 10, target, p1)
                    got = calibrate_censoring(spec, target, group)
                    want = _population_bound(spec, group, target / 100)
                    assert type(got) is float
                    assert abs(got - want) <= 2e-6 * want, (p1, sid, group, target, got, want)


def test_calibrated_rate_is_exact_on_the_quantile_nodes(monkeypatch):
    # on the nodes themselves, each cause's quantile at (i + 1/2) / N
    # weighted P(cause) / N, sum(w min(t, b)) / b, summed exactly, is the
    # target rate up to rounding in every cell
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    n = scenarios._CAL_POINTS
    u = (np.arange(n) + 0.5) / n
    for p1 in (0.7, 1.0, 0.3):
        for sid in SCENARIO_IDS:
            for group in (0, 1):
                spec = scenario(sid, 10, 10, 0, p1)
                share = scenarios._cause1_share(spec, group)
                nodes = np.concatenate(
                    [scenarios._failure_times(spec, group, cause, u) for cause in (1, 2)]
                )
                weights = np.repeat([share / n, (1.0 - share) / n], n)
                for target in (15, 30, 45):
                    b = calibrate_censoring(scenario(sid, 10, 10, target, p1), target, group)
                    rate = math.fsum((weights * np.minimum(nodes, b)).tolist()) / b
                    c = target / 100
                    assert abs(rate - c) <= 4 * math.ulp(c), (p1, sid, group, target, rate)


def test_arms_of_one_law_share_one_bound(monkeypatch):
    # A's arms, and B's and C's control arms, are one exponential law, and
    # E's and F's control arms one Weibull: each law gets one bound
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    for p1 in (0.3, 0.7, 1.0):
        for target in (15, 30, 45):
            bound = {
                (sid, group): calibrate_censoring(scenario(sid, 10, 10, target, p1), target, group)
                for sid in SCENARIO_IDS for group in (0, 1)
            }
            label = (p1, target)
            assert bound["A", 0] == bound["A", 1] == bound["B", 0] == bound["C", 0], label
            assert bound["E", 0] == bound["F", 0], label
            assert bound["D", 0] != bound["D", 1], label


# calibration holds at most three arrays of 2N floats at once (the node
# times with their order and its gather, then with two running sums, then
# with a correctly rounded sum's two temporaries) and a one-byte mask: below
# 3.2 such arrays, 3.36 MB at N = 2^16
_CAL_PEAK_BOUND = 3.2 * 8 * 2 * scenarios._CAL_POINTS


def _calibration_peaks(monkeypatch, sid, group):
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    np.random.default_rng(0)  # numpy.random's own first-use allocations
    peaks = {}
    for target in (15, 30, 45):
        tracemalloc.start()
        try:
            calibrate_censoring(scenario(sid, 10, 10, target), target, group)
            peaks[target] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


# the heaviest arms when calibration drew 200,000 latent times, with the
# bound they were held to then in arrays of that many floats: each target
# fits the node bound, which lies below the old one
@pytest.mark.parametrize("sid, group, arrays", [("D", 0, 4.5), ("D", 1, 4.5), ("C", 1, 3.5)])
def test_calibration_peak_memory(monkeypatch, sid, group, arrays):
    assert _CAL_PEAK_BOUND < arrays * 8 * 200_000
    for target, peak in _calibration_peaks(monkeypatch, sid, group).items():
        assert peak <= _CAL_PEAK_BOUND, (target, peak)


def test_calibration_peak_memory_on_every_arm(monkeypatch):
    for sid in SCENARIO_IDS:
        for group in (0, 1):
            for target, peak in _calibration_peaks(monkeypatch, sid, group).items():
                assert peak <= _CAL_PEAK_BOUND, (sid, group, target, peak)


def test_calibrate_censoring_zero_means_none():
    spec = scenario("A", 100, 100, 0)
    assert calibrate_censoring(spec, 0, 0) is None
    with pytest.raises(ValueError):
        calibrate_censoring(spec, 20, 0)


def test_generation_deterministic_per_substream():
    spec = scenario("C", 100, 100, 15)
    a = generate_group(
        spec, 1, 100, np.random.default_rng(np.random.SeedSequence(9, spawn_key=(3,)))
    )
    b = generate_group(
        spec, 1, 100, np.random.default_rng(np.random.SeedSequence(9, spawn_key=(3,)))
    )
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.event, b.event)
