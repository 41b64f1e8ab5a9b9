import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rmtlkit import CalibrationError, InputError, scenarios
from rmtlkit.scenarios import (
    THETA_B,
    THETA_C,
    ScenarioSpec,
    _PIECES,
    calibrate_censoring,
    generate_group,
    piecewise_cdf,
    scenario,
    sdh_cause1_cif,
    sdh_cause2_cif,
    sdh_delta,
    true_rmtld,
)

# Reference true RMTL differences of the built-in scenarios at tau = 4.
REFERENCE_DELTA = {
    "A": 0.00004,
    "B": -0.3935,
    "C": -0.5141,
    "D": -0.2986,
    "E": -0.3517,
    "F": -0.1729,
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
                {"p1": 0.0}, {"p1": 1.5}):
        with pytest.raises(InputError):
            scenario(**{"id": "A", "n0": 100, "n1": 100, **bad})


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
        assert true_rmtld(spec) == pytest.approx(ref, abs=0.01), sid


def test_true_rmtld_cached():
    spec = scenario("A", 100, 100, 0)
    assert true_rmtld(spec) is true_rmtld(scenario("A", 999, 999, 45)) or (
        true_rmtld(spec) == true_rmtld(scenario("A", 999, 999, 45))
    )


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


def test_brentq_port_matches_scipy(monkeypatch):
    # the port returns scipy's root after the same iterations and function
    # calls, on every calibration function and on random bracketed roots
    port = scenarios._brentq

    def same(f, a, b, xtol):
        root, res = brentq(f, a, b, xtol=xtol, full_output=True)
        return port(f, a, b, xtol) == (root, res.iterations, res.function_calls)

    matches = []

    def checked(f, a, b, xtol):
        values = {}  # both searches evaluate f at the same points

        def g(x):
            if x not in values:
                values[x] = f(x)
            return values[x]

        matches.append(same(g, a, b, xtol))
        return port(g, a, b, xtol)

    monkeypatch.setattr(scenarios, "_brentq", checked)
    monkeypatch.setattr(scenarios, "_censor_cache", {})
    for p1 in (0.7, 1.0, 0.3):
        for sid in "ABCDEF":
            for target in (15, 30, 45):
                for group in (0, 1):
                    calibrate_censoring(scenario(sid, 10, 10, target, p1), target, group)
    assert len(matches) == 108 and all(matches)

    rng = np.random.default_rng(2024)
    families = (
        lambda x, r, s: s * (x - r) * (1.0 + 0.3 * math.sin(x)),
        lambda x, r, s: s * math.copysign(abs(x - r) ** (1 / 3), x - r),
        lambda x, r, s: math.expm1(s * (x - r)),
        lambda x, r, s: (x - r) ** 3 + s * (x - r),
    )
    for xtol in (2e-12, 1e-10, 1e-4):
        for k in range(800):
            root = rng.normal() * 10 ** rng.uniform(-3, 3)
            scale = rng.uniform(0.1, 10)
            fam = families[k % len(families)]
            a, b = root - rng.uniform(1e-3, 30), root + rng.uniform(1e-3, 30)
            if k % 2:
                a, b = b, a
            assert same(lambda x: fam(x, root, scale), a, b, xtol), (xtol, k)


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
