import numpy as np
import pytest
from scalar_oracle import curves_at

from rmtlkit import CifPair, EventTable, integrate_step


def step_pair(knots, survival):
    """A CifPair whose survival curve takes the given values (events of
    cause 1 only, so cif1 = 1 - survival)."""
    knots = np.asarray(knots, dtype=float)
    ones = np.ones(knots.size, dtype=np.int64)
    table = EventTable(knots, ones, 0 * ones, ones)
    survival = np.asarray(survival, dtype=float)
    return CifPair(table, survival, 1.0 - survival, np.zeros(knots.size))


def test_eval_right_continuous():
    pair = step_pair([1.0, 3.0], [0.5, 0.2])
    values = [curves_at(pair, t)[0] for t in (0.0, 0.999, 1.0, 2.5, 3.0, 10.0)]
    assert values == [1.0, 1.0, 0.5, 0.5, 0.2, 0.2]


def test_vector_eval():
    pair = step_pair([1.0, 2.0], [0.4, 0.1])
    out = curves_at(pair, np.array([0.5, 1.0, 1.5, 2.0, 9.0]))[0]
    assert out.tolist() == [1.0, 0.4, 0.4, 0.1, 0.1]


def test_integrate_constants():
    empty = np.array([])
    assert integrate_step(empty, empty, 7.3) == 0.0
    assert integrate_step(empty, empty, 5.0, initial=1.0) == 5.0


def test_integrate_partial_overlap():
    knots, vals = np.array([1.0, 3.0]), np.array([0.5, 0.2])
    # 1*1 + 0.5*2 + 0.2*1 over [0, 4]
    assert integrate_step(knots, vals, 4.0, 1.0) == pytest.approx(2.2, abs=1e-15)
    # cut inside the second segment
    assert integrate_step(knots, vals, 2.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    # upper beyond last knot extends the final value
    assert integrate_step(knots, vals, 10.0, 1.0) == pytest.approx(1.0 + 1.0 + 1.4, abs=1e-14)


def test_integrate_rejects_bad_upper():
    knots, vals = np.array([1.0]), np.array([0.5])
    with pytest.raises(ValueError):
        integrate_step(knots, vals, 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_step(knots, vals, -1.0, 1.0)


def test_knots_must_increase():
    # the curve knots are the event table's times, which it validates
    with pytest.raises(ValueError):
        step_pair([1.0, 1.0], [0.5, 0.2])


def test_integral_additivity_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 15))
        knots = np.sort(rng.uniform(0, 10, k))
        knots = np.unique(knots)
        vals = rng.uniform(0, 1, knots.size)
        initial = float(rng.uniform(0, 1))
        padded = np.concatenate(([initial], vals))
        a, b = sorted(rng.uniform(0.1, 12, 2))
        if a == b:
            continue
        whole = integrate_step(knots, vals, b, initial)
        first = integrate_step(knots, vals, a, initial)
        # integral over [a, b] via brute-force Riemann sum
        grid = np.linspace(a, b, 20001)
        riemann = np.trapezoid(padded[np.searchsorted(knots, grid, side="right")], grid)
        assert whole - first == pytest.approx(riemann, abs=2e-3)
