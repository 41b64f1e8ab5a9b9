"""Exact properties of the RMTL-difference test on random tie-heavy
samples: integer times 0-7 and arms of 2-30 subjects. Each property of
the test holds bit for bit, not to a tolerance; samples whose test is
degenerate are skipped. The areas under an arm's three curves add up to
the restriction time to 1e-10."""

import pickle

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rmtlkit import (
    DegenerateTestError,
    GroupSample,
    cif_pair,
    integrate_step,
    rmtld_test,
    select_tau,
)

ARM = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 2)), min_size=2, max_size=30
).filter(lambda rows: max(t for t, _ in rows) > 0)

exact = settings(derandomize=True, database=None, deadline=None)

# Reporting a falsifying example imports libcst, whose import warns about
# mypy_extensions; under warnings-as-errors that would hide the example.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def make_sample(rows, group, scale=1.0):
    return GroupSample([scale * t for t, _ in rows], [e for _, e in rows], group)


def rmtld_or_skip(s0, s1, tau, alpha=0.05):
    try:
        return rmtld_test(s0, s1, tau, alpha)
    except DegenerateTestError:
        reject()


def half_integer_tau(data, s0, s1):
    """A restriction time on the half-integer grid up to the min-max rule."""
    return data.draw(st.integers(1, int(2 * select_tau(s0, s1)))) / 2.0


@exact
@given(ARM, ARM, st.data())
def test_swapping_arms_negates_the_difference(rows0, rows1, data):
    s0, s1 = make_sample(rows0, 0), make_sample(rows1, 1)
    tau = half_integer_tau(data, s0, s1)
    res = rmtld_or_skip(s0, s1, tau)
    swapped = rmtld_test(s1, s0, tau)
    assert (swapped.delta, swapped.z) == (-res.delta, -res.z)
    assert (swapped.variance, swapped.p) == (res.variance, res.p)
    assert (swapped.ci_low, swapped.ci_high) == (-res.ci_high, -res.ci_low)
    assert (swapped.group0, swapped.group1) == (res.group1, res.group0)


@exact
@given(ARM, ARM, st.data())
def test_permuting_subjects_within_an_arm_changes_nothing(rows0, rows1, data):
    s0, s1 = make_sample(rows0, 0), make_sample(rows1, 1)
    tau = half_integer_tau(data, s0, s1)
    res = rmtld_or_skip(s0, s1, tau)
    p0, p1 = (data.draw(st.permutations(rows)) for rows in (rows0, rows1))
    permuted = rmtld_test(make_sample(p0, 0), make_sample(p1, 1), tau)
    assert pickle.dumps(permuted.to_dict()) == pickle.dumps(res.to_dict())


@exact
@given(ARM, ARM, st.data())
def test_scaling_time_by_four_scales_the_difference(rows0, rows1, data):
    s0, s1 = make_sample(rows0, 0), make_sample(rows1, 1)
    tau = half_integer_tau(data, s0, s1)
    res = rmtld_or_skip(s0, s1, tau)
    scaled = rmtld_test(make_sample(rows0, 0, 4.0), make_sample(rows1, 1, 4.0), 4.0 * tau)
    assert (scaled.delta, scaled.variance) == (4.0 * res.delta, 16.0 * res.variance)
    assert (scaled.z, scaled.p) == (res.z, res.p)


@exact
@given(ARM, ARM, st.data(), st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5]))
def test_p_is_below_alpha_exactly_when_the_ci_excludes_zero(rows0, rows1, data, alpha):
    s0, s1 = make_sample(rows0, 0), make_sample(rows1, 1)
    res = rmtld_or_skip(s0, s1, half_integer_tau(data, s0, s1), alpha)
    assert (res.p < alpha) == (res.ci_low > 0 or res.ci_high < 0)


@exact
@given(ARM, ARM, st.data())
def test_rmst_and_both_rmtls_add_up_to_tau(rows0, rows1, data):
    s0, s1 = make_sample(rows0, 0), make_sample(rows1, 1)
    tau = half_integer_tau(data, s0, s1)
    for sample in (s0, s1):
        pair = cif_pair(sample)
        times = pair.table.times
        rmst = integrate_step(times, pair.survival, tau, initial=1.0)
        rmtl1, rmtl2 = (integrate_step(times, cif, tau) for cif in (pair.cif1, pair.cif2))
        assert abs(rmst + rmtl1 + rmtl2 - tau) <= 1e-10
