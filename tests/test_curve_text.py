"""``cli._curve_text`` against Python's ``repr``, byte for byte.

The formatter renders positional values (1e-4 <= x < 1e16, and +0.0) in
numpy and hands every other value to ``repr``. Routing everything
through ``repr`` would give the same bytes, so one test also checks that
the fast path is taken."""

import numpy as np
import pytest

import rmtlkit.cli as cli


def _reference(block):
    return ("%r,%r,%r,%r\r\n" * len(block) % tuple(block.ravel().tolist())).encode()


def _assert_like_repr(values):
    values = np.asarray(values, dtype=np.float64)
    values = values[: values.size // 4 * 4].reshape(-1, 4)
    for block in np.array_split(values, max(1, len(values) // cli._CURVE_SLICE)):
        if cli._curve_text(block) != _reference(block):
            wrong = [v for v in block.ravel().tolist()
                     if cli._curve_text(np.full((1, 4), v)) != _reference(np.full((1, 4), v))]
            pytest.fail(f"differs from repr at {wrong[:5]!r}")


def _edges():
    base = [0.0, -0.0, 5e-324, 2.0**-1022, 1e-4, 1e16, 2.0**53 + 1, 2.0**53 - 1,
            9999999999999998.0, 1e-4 * (1 - 2**-52), 0.1, 0.3, 2.0 / 3]
    base += [2.0**i for i in range(-1074, 1024)] + [10.0**i for i in range(-323, 309)]
    base = np.array(base)
    up, down = np.nextafter(base, np.inf), np.nextafter(base, -np.inf)
    return np.concatenate([base, up, down, [np.inf, -np.inf, np.nan, -1.5]])


def test_edge_values_match_repr():
    _assert_like_repr(np.tile(_edges(), 4))


@pytest.mark.parametrize("kind", ["bits", "positional-bits", "ties", "short"])
def test_random_values_match_repr(kind):
    rng = np.random.default_rng(3301)
    n = 10**6
    if kind == "bits":
        values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    elif kind == "positional-bits":  # every binade of [2^-14, 2^54), random mantissas
        exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)
        mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
        values = (exponent << np.uint64(52) | mantissa).view(np.float64)
    elif kind == "ties":  # odd multiples of 1/4 in [2^50, 2^51): the 17th digit is a tie
        values = (rng.integers(2**51, 2**52, n, dtype=np.uint64) * 2 + 1).astype(np.float64) / 4
    else:  # few digits, many trailing zeros: 3-decimal times and whole numbers
        values = np.concatenate((np.round(rng.random(n // 20) * 100, 3),
                                 rng.integers(0, 2**53, n // 20).astype(np.float64)))
    _assert_like_repr(values)


def test_only_non_positional_values_reach_repr(monkeypatch):
    # a registry-shaped arm: day-rounded times, survival and incidence in [0, 1]
    rng = np.random.default_rng(7)
    times = np.unique(np.round(rng.exponential(1.2, 3000), 3))
    surv = np.cumprod(1 - rng.random(times.size) * 2e-3)
    cif1 = (1 - surv) * 0.7
    cif2 = np.concatenate(([0.0] * 50, (1 - surv[50:]) * 0.3))
    cif1[:3] = [1e-5, 2.5e-5, 9.99e-5]  # below 1e-4: written in exponent form
    block = np.column_stack((times, surv, cif1, cif2))
    seen = []

    def counting(value):
        seen.append(value)
        return repr(value)

    monkeypatch.setattr(cli, "repr", counting, raising=False)
    assert cli._curve_text(block) == _reference(block)
    outside = [v for v in block.ravel().tolist() if not (1e-4 <= v < 1e16 or v == 0.0)]
    assert seen == outside and len(outside) == 3
