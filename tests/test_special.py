"""The normal and 1-df chi-square tails of ``rmtlkit.inference`` against
``scipy.special``, bit for bit.

``_ndtr``, ``_ndtri`` and ``_chdtrc1`` port the Cephes code behind scipy's
``ndtr``, ``ndtri`` and ``chdtrc(1, .)``; scipy is the oracle here only.
Any NaN matches any NaN. ``tests/special_parity.py`` runs the random
draws at any size.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.special import _ufuncs
from special_parity import BRANCHES, any_bits, draw, mismatches

from rmtlkit import inference

_EXPM32 = math.exp(-32.0)


def _around(*points, ulps=3):
    """Each point and its ``ulps`` float neighbours on either side."""
    out = []
    for p in points:
        x = p
        for _ in range(ulps):
            x = math.nextafter(x, -math.inf)
        for _ in range(2 * ulps + 1):
            out.append(x)
            x = math.nextafter(x, math.inf)
    return np.array(out)


@pytest.mark.parametrize("key", list(BRANCHES), ids="-".join)
def test_dense_grid_matches_scipy(key):
    name, _ = key
    low, high, signed = BRANCHES[key]
    grid = np.linspace(low, min(high, 2000.0), 40_001)
    if signed:
        grid = np.concatenate((grid, -grid))
    assert mismatches(name, grid).size == 0


def test_random_bit_patterns_match_scipy():
    rng = np.random.default_rng(20260)
    for key, bounds in BRANCHES.items():
        assert mismatches(key[0], draw(rng, *bounds, 20_000)).size == 0, key
    for name in ("erf", "erfc", "ndtr", "ndtri", "chdtrc1"):
        assert mismatches(name, any_bits(rng, 20_000)).size == 0, name


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
           2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, -1.0, 2.0, 1e308]


def test_edge_values_match_scipy():
    sqrt2 = math.sqrt(2.0)
    cases = {
        # |x / sqrt 2| at 1/sqrt 2, 1 and 8 (erf, erfc P/Q, erfc R/S), and
        # where exp(-x^2 / 2) underflows
        "ndtr": _around(1.0, -1.0, sqrt2, -sqrt2, 8 * sqrt2, -8 * sqrt2,
                        math.sqrt(2 * 709.782712893384), -math.sqrt(2 * 709.782712893384)),
        # exp(-2), its mirror, exp(-32) and its mirror, the ends
        "ndtri": _around(0.13533528323661269189, 1 - 0.13533528323661269189, _EXPM32,
                         1 - _EXPM32, 1.0, 0.5, 5e-324),
        # x / 2 at 0.3 (prefactor switch), exp(-0.8) (series switch), 0.5,
        # 1.1 (continued fraction) and the prefactor's underflow
        "chdtrc1": _around(0.6, 2 * math.exp(-0.8), 1.0, 2.2, 1420.0, 1421.0),
    }
    for name, points in cases.items():
        assert mismatches(name, np.concatenate((points, SPECIAL))).size == 0, name
    # _expm1 is ported for |x| <= 0.5 only
    half = math.nextafter(0.5, 0.0)
    x = np.array([0.5, -0.5, half, -half, 0.0, -0.0, 5e-324, -5e-324, 1e-310])
    assert mismatches("expm1", x).size == 0


def test_chi_square_tail_of_negative_is_nan():
    # NaN below 0, tiny negatives included, not 1; -0.0 counts as 0
    for x in (-1.0, -5e-324, -math.inf):
        assert math.isnan(inference._chdtrc1(x)) and math.isnan(sp.chdtrc(1, x))
    assert inference._chdtrc1(-0.0) == sp.chdtrc(1, -0.0) == 1.0


def test_hard_coded_constants():
    assert inference._LGAM_HALF == sp.gammaln(0.5)
    assert inference._LGAM1P_HALF == _ufuncs._lgam1p(0.5)
    assert inference._LANCZOS_SUM_HALF == _ufuncs._lanczos_sum_expg_scaled(0.5)
    # lgam1p's Taylor sum at 0.5, with Cephes' zeta, stopping after n = 41
    res, xfac = -0.577215664901532860606512090082402431 * 0.5, -0.5
    for n in range(2, 42):
        xfac *= -0.5
        coeff = sp.zeta(n, 1) * xfac / n
        res += coeff
        if abs(coeff) < inference._MACHEP * abs(res):
            break
    assert res == inference._LGAM1P_HALF
    assert inference._MACHEP == 2.0**-53
    # the prefactor x^a e^-x / Gamma(a) at a = 0.5 on both of its forms
    # (log below x = 0.3, Lanczos with g from there to 0.7)
    x = np.concatenate((np.linspace(1e-3, 1500.0, 20_001), np.linspace(0.29, 0.71, 20_001)))
    got = np.array([inference._igam_half_fac(v) for v in x.tolist()])
    assert np.array_equal(got, _ufuncs._igam_fac(0.5, x))


def test_erf_and_erfc_match_scipy():
    x = np.concatenate((np.linspace(-30.0, 30.0, 60_001), SPECIAL))
    for name in ("erf", "erfc"):
        assert mismatches(name, x).size == 0, name
