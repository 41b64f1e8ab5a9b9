import numpy as np
import pytest

from rmtlkit import (
    DegeneratePilotError,
    DesignInput,
    DesignResult,
    GroupSample,
    InfeasibleDesignError,
    InputError,
    estimate_sigma_sq,
    power_at,
    sample_size,
)
from rmtlkit.scenarios import scenario, generate_group


def test_sample_size_reference_case():
    # (0.8416 + 1.9600)^2 * 2 / 0.25 = 62.79 -> 63 per arm
    res = sample_size(DesignInput(delta=0.5, sigma0_sq=1.0, sigma1_sq=1.0))
    assert res.n0 == 63
    assert res.n1 == 63
    assert res.total == 126


def test_sample_size_effect_scaling():
    base = DesignInput(delta=0.5, sigma0_sq=1.0, sigma1_sq=1.0)
    doubled = DesignInput(delta=1.0, sigma0_sq=1.0, sigma1_sq=1.0)
    n_base = sample_size(base)
    n_doubled = sample_size(doubled)
    # doubling |delta| divides the pre-ceiling size by 4
    assert n_doubled.total <= n_base.total
    assert n_doubled.total >= n_base.total / 4 - 2


def test_sample_size_infeasible():
    with pytest.raises(InfeasibleDesignError):
        DesignInput(delta=0.0, sigma0_sq=1.0, sigma1_sq=1.0)


@pytest.mark.parametrize("inputs", [
    {"delta": 1e-160},
    {"delta": 1e-300},
    {"delta": 0.5, "alpha": 1e-17},
    {"delta": 1e-3, "ratio": 1e308},
    {"delta": 0.5, "sigma0_sq": 1e308, "sigma1_sq": 1e308},
])
def test_sample_size_not_finite_is_infeasible(inputs):
    # delta ** 2 underflows, z_{1-alpha/2} or a variance sum is infinite,
    # or n1 = r * n0 overflows
    design = DesignInput(**{"sigma0_sq": 1.0, "sigma1_sq": 1.0, **inputs})
    with pytest.raises(InfeasibleDesignError, match="no finite design"):
        sample_size(design)


def test_sample_size_huge_but_finite():
    # delta ** 2 = 1e-300 still gives a finite design of about 1.6e301
    res = sample_size(DesignInput(delta=1e-150, sigma0_sq=1.0, sigma1_sq=1.0))
    assert 10**301 < res.n0 == res.n1 < 10**302


def test_sample_size_monotonicity():
    rng = np.random.default_rng(61)
    for _ in range(50):
        delta = float(rng.uniform(0.1, 2.0))
        s0 = float(rng.uniform(0.2, 4.0))
        s1 = float(rng.uniform(0.2, 4.0))
        power = float(rng.uniform(0.5, 0.95))
        base = sample_size(DesignInput(delta, s0, s1, power=power)).total
        assert sample_size(DesignInput(delta * 1.5, s0, s1, power=power)).total <= base
        assert sample_size(DesignInput(delta, s0 * 1.5, s1, power=power)).total >= base
        assert sample_size(DesignInput(delta, s0, s1 * 1.5, power=power)).total >= base
        assert sample_size(
            DesignInput(delta, s0, s1, power=min(power + 0.04, 0.99))
        ).total >= base


def test_sample_size_ratio_symmetry():
    rng = np.random.default_rng(67)
    for _ in range(30):
        delta = float(rng.uniform(0.2, 1.5))
        s0 = float(rng.uniform(0.3, 3.0))
        s1 = float(rng.uniform(0.3, 3.0))
        r = float(rng.uniform(0.3, 3.0))
        a = sample_size(DesignInput(delta, s0, s1, ratio=r))
        b = sample_size(DesignInput(delta, s1, s0, ratio=1.0 / r))
        # total invariant up to integer ceilings per arm
        assert abs(a.total - b.total) <= 2


def test_power_at_reference():
    # Phi(0.5 / sqrt(2/63) - 1.96) = Phi(0.84628) = 0.8013
    p = power_at(0.5, 1.0, 1.0, 63)
    assert p == pytest.approx(0.8013, abs=5e-4)


def test_power_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(50):
        inp = DesignInput(
            delta=float(rng.uniform(0.1, 2.0)),
            sigma0_sq=float(rng.uniform(0.2, 4.0)),
            sigma1_sq=float(rng.uniform(0.2, 4.0)),
            ratio=float(rng.uniform(0.3, 3.0)),
            alpha=float(rng.uniform(0.01, 0.2)),
            power=float(rng.uniform(0.5, 0.99)),
        )
        res = sample_size(inp)
        achieved = power_at(
            inp.delta, inp.sigma0_sq, inp.sigma1_sq, res.n0,
            ratio=inp.ratio, alpha=inp.alpha,
        )
        assert achieved >= inp.power - 1e-9


def test_power_vanishing_effect():
    assert power_at(1e-12, 1.0, 1.0, 100) == pytest.approx(0.025, abs=1e-4)


def test_power_uses_absolute_delta():
    assert power_at(-0.5, 1.0, 1.0, 63) == power_at(0.5, 1.0, 1.0, 63)


@pytest.mark.parametrize("options", [
    {"n0": 1},
    {"ratio": 0.0}, {"ratio": -1.0}, {"ratio": float("inf")}, {"ratio": float("nan")},
    {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 1.5}, {"alpha": float("nan")},
    {"delta": float("inf")}, {"delta": -float("inf")}, {"delta": float("nan")},
    {"sigma0_sq": -1.0}, {"sigma0_sq": 0.0}, {"sigma0_sq": float("inf")},
    {"sigma0_sq": float("nan")}, {"sigma1_sq": 0.0}, {"sigma1_sq": float("inf")},
])
def test_power_at_rejects_what_design_input_rejects(options):
    with pytest.raises(InputError):
        power_at(**{"delta": 0.5, "sigma0_sq": 1.0, "sigma1_sq": 1.0, "n0": 63, **options})


def test_estimate_sigma_sq_definition():
    from rmtlkit import rmtl

    spec = scenario("A", 300, 300, 0)
    pilot = generate_group(spec, 0, 200, np.random.default_rng(5))
    tau = 2.0
    got = estimate_sigma_sq(pilot, tau)
    assert got == pytest.approx(pilot.n * rmtl(pilot, tau).variance)
    assert got > 0


def test_estimate_sigma_sq_stability():
    # two independent pilots of sizes n and 2n agree within 20% at n=2000
    spec = scenario("A", 300, 300, 0)
    p1 = generate_group(spec, 0, 2000, np.random.default_rng(31))
    p2 = generate_group(spec, 0, 4000, np.random.default_rng(37))
    tau = 3.0
    v1 = estimate_sigma_sq(p1, tau)
    v2 = estimate_sigma_sq(p2, tau)
    assert v1 == pytest.approx(v2, rel=0.2)


def test_estimate_sigma_sq_degenerate():
    pilot = GroupSample(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0]), 0)
    with pytest.raises(DegeneratePilotError):
        estimate_sigma_sq(pilot, 2.0)


def test_design_result_total():
    res = DesignResult(n0=10, n1=15)
    assert res.total == 25
