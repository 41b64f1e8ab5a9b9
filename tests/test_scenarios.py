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


# The bounds of the former Brent root search (scipy's float) at p1 = 0.7,
# in scenario (A-F), arm, target (15/30/45%) order.
BRENT_BOUNDS = [
    6.705918876004102, 3.2213633630455516, 1.899499136964916,
    6.6448909291094616, 3.1890060299654945, 1.880614132106705,
    6.705918876004102, 3.2213633630455516, 1.899499136964916,
    7.981430535433113, 3.8325961997996787, 2.267108432461727,
    6.705918876004102, 3.2213633630455516, 1.899499136964916,
    8.569677315119396, 4.105829186766749, 2.4246666288949728,
    10.335187236356449, 5.166041311744482, 3.377070879751348,
    13.110441390004693, 6.555189188420485, 4.361737789410753,
    11.857221696722927, 5.928437530790119, 3.9304344198469985,
    20.15247949300378, 9.608471987477754, 5.734658374205255,
    11.857221696722927, 5.928437530790119, 3.9304344198469985,
    16.970522501694088, 7.967113168082861, 4.698900060905934,
]


def test_calibrated_bounds_match_the_brent_root(monkeypatch):
    # the closed-form root is the same bound as the former root search,
    # to well inside its xtol, and always a Python float
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    bounds = [
        calibrate_censoring(scenario(sid, 10, 10, target), target, group)
        for sid in "ABCDEF" for group in (0, 1) for target in (15, 30, 45)
    ]
    assert [type(b) for b in bounds] == [float] * 36
    for got, want in zip(bounds, BRENT_BOUNDS):
        assert abs(got - want) <= 1e-11 * want, (got, want)


def test_calibrated_rate_is_exact_on_the_calibration_draws(monkeypatch):
    # on the calibration draws themselves, mean(min(T, b)) / b, summed
    # exactly, is the target rate up to rounding in every cell
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    for p1 in (0.7, 1.0, 0.3):
        for sid in "ABCDEF":
            for group in (0, 1):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=scenarios._CAL_SEED, spawn_key=(group,))
                )
                spec = scenario(sid, 10, 10, 0, p1)
                _, draws = scenarios._draw_failures(spec, group, scenarios._CAL_DRAWS, rng)
                for target in (15, 30, 45):
                    spec = scenario(sid, 10, 10, target, p1)
                    b = calibrate_censoring(spec, target, group)
                    rate = math.fsum(np.minimum(draws, b).tolist()) / (draws.size * b)
                    c = target / 100
                    assert abs(rate - c) <= 4 * math.ulp(c), (p1, sid, group, target, rate)


@pytest.mark.parametrize("sid, group, arrays", [("D", 0, 4.5), ("D", 1, 4.5), ("C", 1, 3.5)])
def test_calibration_peak_memory(monkeypatch, sid, group, arrays):
    # calibration holds its latent draw plus at most a few temporaries of
    # _CAL_DRAWS floats: the cause codes take one byte each and the
    # failure-time uniforms reuse the cause uniforms' buffer
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    np.random.default_rng(0)  # numpy.random's own first-use allocations
    tracemalloc.start()
    try:
        calibrate_censoring(scenario(sid, 10, 10, 30), 30, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * scenarios._CAL_DRAWS


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
