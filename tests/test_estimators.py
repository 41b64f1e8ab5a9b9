import numpy as np
import pytest
from scalar_oracle import curves_at

from rmtlkit import GroupSample, cif_pair, curve_rows, integrate_step


def make_sample(pairs, group=0):
    time = np.array([p[0] for p in pairs], dtype=float)
    event = np.array([p[1] for p in pairs], dtype=int)
    return GroupSample(time, event, group)


def random_sample(rng, n_max=40, censor_frac=0.3):
    n = int(rng.integers(2, n_max))
    time = np.round(rng.exponential(2.0, n), 3) + 0.001
    event = np.where(rng.random(n) < censor_frac, 0, rng.integers(1, 3, n))
    return GroupSample(time, event, 0)


FIXTURE = [(1, 1), (2, 0), (3, 1), (4, 2)]


def test_km_fixture():
    pair = cif_pair(make_sample(FIXTURE))
    assert curves_at(pair, 0.5)[0] == 1.0
    assert curves_at(pair, 1.0)[0] == pytest.approx(0.75)
    assert curves_at(pair, 2.9)[0] == pytest.approx(0.75)
    assert curves_at(pair, 3.0)[0] == pytest.approx(0.375)
    assert curves_at(pair, 4.0)[0] == 0.0


def test_km_empty_table():
    pair = cif_pair(make_sample([(1, 0), (2, 0)]))
    assert curves_at(pair, 100.0)[0] == 1.0


def test_km_single_event():
    pair = cif_pair(make_sample([(5, 1), (5, 1)]))
    assert curves_at(pair, 4.999)[0] == 1.0
    assert curves_at(pair, 5.0)[0] == 0.0


def test_cif_fixture():
    pair = cif_pair(make_sample(FIXTURE))
    assert curves_at(pair, 1.0)[1] == pytest.approx(0.25)
    assert curves_at(pair, 3.0)[1] == pytest.approx(0.625)
    assert curves_at(pair, 4.0)[1] == pytest.approx(0.625)
    assert curves_at(pair, 3.999)[2] == 0.0
    assert curves_at(pair, 4.0)[2] == pytest.approx(0.375)


def test_cif_uncensored_subdistribution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        time = rng.exponential(1.0, n)
        event = rng.integers(1, 3, n)
        pair = cif_pair(GroupSample(time, event, 0))
        assert curves_at(pair, time.max())[1] == pytest.approx(np.mean(event == 1), abs=1e-12)


def test_integration_fixture():
    s = make_sample(FIXTURE)
    pair = cif_pair(s)
    assert integrate_step(pair.table.times, pair.cif1, 4.0) == pytest.approx(1.125, abs=1e-15)


def test_additivity_and_monotonicity_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = random_sample(rng)
        pair = cif_pair(s)
        t = pair.table.times
        if t.size == 0:
            continue
        surv, f1, f2 = curves_at(pair, t)
        total = f1 + f2 + surv
        assert np.max(np.abs(total - 1.0)) < 1e-10
        assert np.all(np.diff(pair.survival) <= 1e-12)
        assert np.all(np.diff(pair.cif1) >= -1e-12)
        assert np.all(np.diff(pair.cif2) >= -1e-12)
        for f in (pair.survival, pair.cif1, pair.cif2):
            assert np.all(f >= 0.0) and np.all(f <= 1.0)


def test_integral_conservation_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = random_sample(rng)
        pair = cif_pair(s)
        tau = float(rng.uniform(0.05, s.max_followup + 1.0))
        total = (
            integrate_step(pair.table.times, pair.survival, tau, 1.0)
            + integrate_step(pair.table.times, pair.cif1, tau)
            + integrate_step(pair.table.times, pair.cif2, tau)
        )
        assert total == pytest.approx(tau, abs=1e-10)


def test_jump_rectangle_equivalence_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        time = np.round(rng.exponential(2.0, n), 2) + 0.01
        event = np.where(rng.random(n) < 0.3, 0, rng.integers(1, 3, n))
        s = GroupSample(time, event, 0)
        pair = cif_pair(s)
        tau = float(rng.uniform(0.1, s.max_followup))
        keep = pair.table.times <= tau
        jumps = np.diff(np.concatenate(([0.0], pair.cif1)))[keep]
        jump_form = float(np.sum(jumps * (tau - pair.table.times[keep])))
        assert integrate_step(pair.table.times, pair.cif1, tau) == pytest.approx(jump_form, abs=1e-12)


def test_uncensored_integral_oracle():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        time = rng.exponential(1.5, n)
        event = rng.integers(1, 3, n)
        s = GroupSample(time, event, 0)
        pair = cif_pair(s)
        tau = float(rng.uniform(0.2, time.max()))
        oracle = np.sum(np.where((event == 1) & (time <= tau), tau - time, 0.0)) / n
        assert integrate_step(pair.table.times, pair.cif1, tau) == pytest.approx(oracle, abs=1e-12)


def test_curve_rows():
    s = make_sample(FIXTURE)
    rows = curve_rows(cif_pair(s))
    assert rows[0] == (0.0, 1.0, 0.0, 0.0)
    times = [r[0] for r in rows]
    assert times == [0.0, 1.0, 3.0, 4.0]
    last = rows[-1]
    assert last[1] + last[2] + last[3] == pytest.approx(1.0)
    # the one-pass export equals pointwise evaluation at every knot
    rng = np.random.default_rng(41)
    for _ in range(30):
        pair = cif_pair(random_sample(rng))
        expected = [(0.0, 1.0, 0.0, 0.0)] + [
            (float(t), *map(float, curves_at(pair, t))) for t in pair.table.times
        ]
        assert curve_rows(pair) == expected
