"""Restricted-mean-time-lost estimation and two-group inference.

The point estimate is the exact area under the cause-1 cumulative
incidence curve over [0, tau]. Its variance comes from a martingale
approximation: a two-term sum over event times whose integrands combine
the incidence curves, the risk set, and the exact tail integrals of the
cause-1 curve. The between-group difference is tested against a normal
reference; Gray's test (rho = 0) is provided as a comparator.

Both are computed by row kernels over blocks of samples: ``_arm_rmtl``
for one arm, ``_rmtld_rows`` for the two-arm test built on it, and
``_gray_rows``. The simulation engine passes many replicates at once,
and ``rmtl``, ``rmtld_test`` and ``gray_test`` pass one, so a
replicate and a one-sample call share one implementation,
degenerate-row errors included. The kernels work on the tie groups
(runs of equal times) of ``data._tie_groups``, which sorts each row
itself, so tied and untied data take the same path and no caller sorts.
Their sums over event times and subjects are correctly rounded (the
``math.fsum`` value) by ``_row_fsums``, a block at a time by error-free
extraction with a ``math.fsum`` fallback per uncertified row, so no
result depends on summation order, padding or BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri

from .data import (
    EVENT_CENSORED,
    EVENT_COMPETING,
    EVENT_INTEREST,
    GroupSample,
    _tie_groups,
    select_tau,
)
from .errors import DegenerateTestError, ExtrapolationError, InputError
from .estimators import CifPair, _incidence

__all__ = [
    "RmtlEstimate",
    "RmtldResult",
    "GrayResult",
    "rmtl",
    "variance_rmtl",
    "rmtld_test",
    "gray_test",
]

# Gray's test runs on slices of at most this many subject cells of a
# block: its temporaries are about 20 times its input, and a replicate
# block whose peak heap stays below glibc's trim threshold reuses its
# pages instead of faulting them in again on every block.
_GRAY_CELLS = 2**13

_RMTL_UNDEFINED = "both groups are event-free before tau; the test is undefined"
_GRAY_ZERO_VARIANCE = "degenerate Gray test: zero variance"


@dataclass(frozen=True)
class RmtlEstimate:
    """RMTL of the event of interest in one group over [0, tau]."""

    mu: float
    variance: float
    tau: float
    n: int

    @property
    def se(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        return {"mu": self.mu, "variance": self.variance, "se": self.se,
                "tau": self.tau, "n": self.n}


@dataclass(frozen=True)
class RmtldResult:
    """Between-group RMTL difference (treatment minus control) with its
    normal-theory confidence interval and two-sided test."""

    delta: float
    variance: float
    ci_low: float
    ci_high: float
    z: float
    p: float
    alpha: float
    tau: float
    group0: RmtlEstimate
    group1: RmtlEstimate

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "variance": self.variance,
            "se": math.sqrt(self.variance),
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "z": self.z,
            "p": self.p,
            "alpha": self.alpha,
            "tau": self.tau,
            "group0": self.group0.to_dict(),
            "group1": self.group1.to_dict(),
        }


@dataclass(frozen=True)
class GrayResult:
    """Two-sample Gray test: chi-square statistic (1 df) and p-value."""

    statistic: float
    p: float
    cause: int

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "p": self.p, "cause": self.cause}


def variance_rmtl(pair: CifPair, tau: float) -> float:
    """Variance of the RMTL estimate from the martingale approximation.

    Discretized as a sum over event times t_i <= tau:

        sum_i  { (tau-t_i)(1-F2(t_i)) - A(t_i) }^2 / (Y_i * S(t_i-)) * dF1(t_i)
             + { (tau-t_i) F1(t_i)    - A(t_i) }^2 / (Y_i * S(t_i-)) * dF2(t_i)

    with dFj(t_i) = (d_ij / Y_i) * S(t_i-) and A(t) the exact tail
    integral of F1 over [t, tau]. The weight S(t_i-) is positive at
    every event time: it vanishes only after the last subject at risk
    has failed.
    """
    if not tau > 0:
        raise InputError(f"tau must be positive (got {tau})")
    table = pair.table
    rows = (a[None] for a in (table.times, table.d1, table.d2, table.at_risk))
    return float(_rmtl_rows(*rows, np.array([tau]))[1][0])


def _arm_rmtl(t, e, tau: np.ndarray):
    """``_rmtl_rows`` on the tie groups of a block of one-arm samples:
    times ``t`` and event codes ``e`` (rows, n), in any order."""
    times, counts, at_risk, _, _ = _tie_groups(t, e, 3)
    return _rmtl_rows(times, counts[EVENT_INTEREST], counts[EVENT_COMPETING], at_risk[0], tau)


def _rmtl_rows(times, d1, d2, y, tau: np.ndarray):
    """RMTL and its variance (``variance_rmtl``) for each row of a block
    of one-arm samples, given as (rows, K) per-time cause-1 and cause-2
    counts ``d1``, ``d2`` and risk sets ``y`` at increasing ``times``,
    with ``tau`` the per-row restriction. A time without events (a
    censoring-only tie group, or padding) adds exactly 0 everywhere, so
    each row gives the values of its own event table. The RMTL and the
    two variance sums are correctly rounded sums over the kept event
    times (the ``math.fsum`` values), taken in one ``_row_fsums`` call.
    Returns ``(mu, variance)`` per row.
    """
    s_left, df1, df2, f1, f2 = _incidence(d1, d2, y)[1:]
    taus = tau[:, None]
    event = d1 + d2 > 0
    keep = event & (times <= taus)
    # F1 holds from each event time to the next one (or to tau)
    next_event = np.minimum.accumulate(np.where(event, times, np.inf)[:, ::-1], axis=1)[:, ::-1]
    seg_end = np.minimum(
        np.concatenate((next_event[:, 1:], np.full((times.shape[0], 1), np.inf)), axis=1), taus
    )
    # the two variance terms and the areas; only the kept entries are summed
    terms = np.zeros((3,) + times.shape)
    with np.errstate(invalid="ignore"):
        np.multiply(f1, np.maximum(seg_end - times, 0.0), out=terms[2], where=keep)
    tails = np.cumsum(terms[2][:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = y * s_left
        np.multiply(((taus - times) * (1.0 - f2) - tails) ** 2 / weight, df1, out=terms[0])
        np.multiply(((taus - times) * f1 - tails) ** 2 / weight, df2, out=terms[1])
    del s_left, df1, df2, f1, f2, next_event, seg_end, tails, weight  # before the sums' buffer
    sum1, sum2, mu = _row_fsums(terms, keep)
    return mu, np.maximum(sum1 + sum2, 0.0)


def _row_fsums(values: np.ndarray, mask) -> np.ndarray:
    """``math.fsum`` of the entries of ``values`` that ``mask`` (which
    broadcasts against it) selects, along the last axis: correctly
    rounded, so neither their order nor added zeros matter.

    One array pass per block, by the error-free extraction of Rump, Ogita
    and Oishi (Accurate floating-point summation, part I, 2008): with
    sigma = 2^(ceil(log2(n + 2)) + e) per row of n entries (unselected
    ones as zeros), all below 2^e in magnitude, ``q = (sigma + x) -
    sigma`` has an exact sum in any order and ``x - q`` is exact. The tails ``x - q`` are summed in
    floating point with a rigorous bound on their error, and the sum is
    rounded with TwoSum. A row is accepted only when the TwoSum error
    plus that bound lies strictly within half the gap to the neighbouring
    floats (a quarter of the spacing at a power of two, where the gap
    below is half as wide); correct rounding is unique, so it is then the
    ``math.fsum`` value. Every other row (not certified, a zero sum or
    not finite) is ``math.fsum`` of its entries, so its bits and errors
    (``OverflowError``, ``ValueError``) are those of ``math.fsum``.
    """
    n = values.shape[-1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = np.where(mask, values, 0.0)
        top = np.abs(x).max(axis=-1, initial=0.0)
        sigma = np.ldexp(1.0, np.frexp(top)[1] + (n + 1).bit_length())
        q = x + sigma[..., None]
        q -= sigma[..., None]
        x -= q  # the tails, exactly, each at most u * sigma (u = 2^-53)
        hi = q.sum(axis=-1)  # exact: every partial sum is a float
        del q
        lo = x.sum(axis=-1)
        # in any order, lo is off the tails' sum by at most
        # (n-1)u / (1 - (n-1)u) * n u sigma <= 2 n^2 u^2 sigma, a product that
        # is exact or, when it underflows, within the smallest subnormal
        bound = sigma * (n * n * 2.0**-105) + math.ulp(0.0)
        total = hi + lo
        lo_in_total = total - hi  # TwoSum: total + err == hi + lo exactly
        err = (hi - (total - lo_in_total)) + (lo - lo_in_total)
        # a zero, NaN or infinite total has no positive gap, so it falls back
        gap = np.abs(np.spacing(total)) / np.where(np.abs(np.frexp(total)[0]) == 0.5, 4.0, 2.0)
        exact = np.abs(err) + bound < gap
    for i in zip(*np.nonzero(~exact)):
        total[i] = math.fsum(values[i][np.broadcast_to(mask, values.shape)[i]].tolist())
    return total


def rmtl(sample: GroupSample, tau: float) -> RmtlEstimate:
    """RMTL point estimate and variance for one group over [0, tau].

    ``tau`` must be positive and must not exceed the group's maximum
    follow-up (the curve is never extrapolated).
    """
    if not tau > 0:
        raise InputError(f"tau must be positive (got {tau})")
    if tau > sample.max_followup:
        raise ExtrapolationError(
            f"tau={tau} exceeds the maximum follow-up {sample.max_followup}"
        )
    mu, var = _arm_rmtl(sample.time[None], sample.event[None], np.array([tau]))
    return RmtlEstimate(mu=float(mu[0]), variance=float(var[0]), tau=tau, n=sample.n)


def rmtld_test(
    sample0: GroupSample,
    sample1: GroupSample,
    tau: float | None = None,
    alpha: float = 0.05,
) -> RmtldResult:
    """Two-sided test of equal RMTL between groups at restriction ``tau``.

    delta = mu(treatment) - mu(control); its variance is the sum of the
    group variances. The p-value and the confidence bounds use the same
    normal quantile family, so p < alpha holds exactly when the interval
    excludes zero. ``tau`` defaults to the min-max follow-up rule.
    """
    if not 0 < alpha < 1:
        raise InputError(f"alpha must lie in (0, 1) (got {alpha})")
    tau_max = select_tau(sample0, sample1)
    if tau is None:
        tau = tau_max
    if tau > tau_max:
        raise ExtrapolationError(
            f"tau={tau} exceeds the shorter maximum follow-up {tau_max}"
        )
    if not tau > 0:
        raise InputError(f"tau must be positive (got {tau})")
    t = np.concatenate((sample0.time, sample1.time))[None]
    e = np.concatenate((sample0.event, sample1.event))[None]
    row = {k: float(v[0]) for k, v in _rmtld_rows(t, e, sample0.n, np.array([tau]), alpha).items()}
    return RmtldResult(
        **{k: row[k] for k in ("delta", "variance", "ci_low", "ci_high", "z", "p")},
        alpha=alpha,
        tau=tau,
        group0=RmtlEstimate(row["mu0"], row["var0"], tau, sample0.n),
        group1=RmtlEstimate(row["mu1"], row["var1"], tau, sample1.n),
    )


def _rmtld_rows(t, e, n0: int, tau: np.ndarray, alpha: float, gray: bool = False, usable=None):
    """Row-wise ``rmtld_test`` for a block of pooled two-arm samples:
    ``t`` and ``e`` hold each row's times and event codes, control arm
    first (columns below ``n0``), and ``tau`` each row's restriction.
    With ``gray`` set, each row's Gray test (cause 1) p-value is added;
    otherwise it is NaN.

    Each arm's columns are pooled into tie groups by ``_arm_rmtl``, so
    the order within a run of equal times is irrelevant. Returns per-row
    arrays ``delta``, ``variance``, ``mu0``, ``var0``, ``mu1``, ``var1``,
    ``z``, ``ci_low``, ``ci_high``, ``p`` and ``gray_p``. The first row
    in ``usable`` (default: every row) with a non-positive RMTL or Gray
    variance raises ``DegenerateTestError``, RMTL checked first.
    """
    (mu0, var0), (mu1, var1) = (
        _arm_rmtl(t[:, arm], e[:, arm], tau) for arm in (slice(None, n0), slice(n0, None))
    )
    delta = mu1 - mu0
    variance = var0 + var1
    with np.errstate(divide="ignore", invalid="ignore"):
        z, p, ci_low, ci_high = _normal_test(delta, variance, alpha)
    failed = variance <= 0.0
    rows = t.shape[0]
    gray_p = np.full(rows, math.nan)
    if gray:
        stat, gray_var = np.empty(rows), np.empty(rows)
        step = max(1, _GRAY_CELLS // t.shape[1])
        for k in range(0, rows, step):
            s = slice(k, k + step)
            stat[s], gray_var[s] = _gray_rows(t[s], e[s], n0, EVENT_INTEREST)
        gray_p = chdtrc(1, stat)
        failed |= gray_var <= 0.0
    if usable is not None:
        failed &= usable
    if failed.any():
        # the first such row in index order, RMTL before Gray
        r = int(np.argmax(failed))
        raise DegenerateTestError(_RMTL_UNDEFINED if variance[r] <= 0.0 else _GRAY_ZERO_VARIANCE)
    return {
        "delta": delta, "variance": variance, "mu0": mu0, "var0": var0, "mu1": mu1,
        "var1": var1, "z": z, "ci_low": ci_low, "ci_high": ci_high, "p": p, "gray_p": gray_p,
    }


def _normal_test(delta, var, alpha):
    """(z, p, ci_low, ci_high) of the normal test of ``delta`` with
    variance ``var``, for scalars or elementwise for arrays."""
    se = np.sqrt(var)
    z = delta / se
    zq = ndtri(1.0 - alpha / 2.0)
    return z, np.minimum(2.0 * ndtr(-np.abs(z)), 1.0), delta - zq * se, delta + zq * se


def gray_test(sample0: GroupSample, sample1: GroupSample, cause: int = 1) -> GrayResult:
    """Gray's two-sample test (rho = 0) comparing the cumulative
    incidence of one cause between groups.

    The score contrasts weighted subdistribution hazard increments; its
    variance is estimated from per-subject score residuals, so the
    chi-square reference (1 df) is calibrated without any proportional
    hazards assumption. Requires at least one event of ``cause``.
    """
    if cause not in (1, 2):
        raise ValueError("cause must be 1 or 2")
    e = np.concatenate((sample0.event, sample1.event))[None]
    if not np.any(e == cause):
        raise DegenerateTestError(f"no events of cause {cause} in either group")
    t = np.concatenate((sample0.time, sample1.time))[None]
    stat, var = _gray_rows(t, e, sample0.n, cause)
    if var[0] <= 0.0:
        raise DegenerateTestError(_GRAY_ZERO_VARIANCE)
    return GrayResult(statistic=float(stat[0]), p=float(chdtrc(1, stat[0])), cause=cause)


def _subject_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row running sums, before each group, of ``values[r, g]``
    added once per subject: ``counts[r, g]`` equal terms, one at a time
    (a tie group's terms are not multiplied out), so each sum is the
    one a subject-by-subject ``cumsum`` gives."""
    rows = counts.shape[0]
    per_row = counts.sum(axis=1)
    width = int(per_row.max())
    # each row's terms after a leading 0, then 0s up to a common width
    zeros = np.zeros((rows, 1))
    reps = np.concatenate(
        (np.ones((rows, 1), dtype=counts.dtype), counts, (width - per_row)[:, None]), axis=1
    )
    terms = np.repeat(np.concatenate((zeros, values, zeros), axis=1).ravel(), reps.ravel())
    before = np.cumsum(counts, axis=1) - counts + (width + 1) * np.arange(rows)[:, None]
    return np.cumsum(terms.reshape(rows, -1), axis=1).ravel()[before]


def _gray_rows(t, e, n0: int, cause: int):
    """Row-wise ``gray_test`` for a block of pooled two-arm samples:
    ``t`` and ``e`` hold each row's times and event codes, control arm
    first (columns below ``n0``), in any order.

    Every per-time quantity lives on the row's tie groups: each arm's
    risk set at the start of a group, the censoring survival G(t-) of
    the arm, the weighted risk process, score, compensators and the
    residual of each event code. The grid is the set of groups with a
    ``cause`` event; other groups add exactly 0. Each arm's subjects
    then gather their residual from their group, in sample order, and
    the arm's sum of squares is correctly rounded by ``_row_fsums``, as
    is the score. Only squares are summed, so residuals are kept up to
    sign. This kernel sets the peak memory of a replicate block, so the
    tie-group counts are released before the residuals are built, one
    arm at a time (see ``_GRAY_CELLS``). Returns ``(statistic,
    variance)``.
    """
    rows, n = t.shape
    other = EVENT_COMPETING if cause == EVENT_INTEREST else EVENT_INTEREST
    label = e + 3 * (np.arange(n) >= n0)  # arm * 3 + event code
    _, counts, at_risk, key, order = _tie_groups(t, label, 6)
    np.put_along_axis(key, order, key.copy(), axis=1)  # now in sample order
    d_pool = counts[cause] + counts[3 + cause]

    arms = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in (0, 1):
            cens = counts[3 * a + EVENT_CENSORED]
            g_right = np.cumprod(np.where(cens > 0, 1.0 - cens / at_risk[a], 1.0), axis=1)
            g_left = np.concatenate((np.ones((rows, 1)), g_right[:, :-1]), axis=1)
            inv = np.where(g_left > 0, 1.0 / g_left, 0.0)
            arms.append((at_risk[a] + g_left * _subject_sums(inv, counts[3 * a + other]), g_left))
        (r0, _), (r1, _) = arms
        r_pool = r0 + r1
        pooled = r_pool > 0
        z = _row_fsums(counts[3 + cause] - np.where(pooled, r1 / r_pool * d_pool, 0.0), d_pool > 0)
        k_w = np.where(pooled, r1 * r0 / r_pool, 0.0)
        dlam = np.where(pooled, d_pool / r_pool, 0.0)
        del label, order, counts, at_risk, d_pool, r_pool, pooled  # the largest temporaries

        var = 0.0
        for (r_k, g_left), cols in zip(arms, (slice(None, n0), slice(n0, None))):
            c = np.where(r_k > 0, k_w / r_k, 0.0)
            c_dlam = c * dlam
            comp = np.cumsum(c_dlam, axis=1)
            suffix = np.cumsum((c_dlam * g_left)[:, ::-1], axis=1)[:, ::-1]
            after = np.concatenate((suffix[:, 1:], np.zeros((rows, 1))), axis=1)
            comp_other = np.where(g_left > 0, after / g_left, 0.0)
            # residual by event code and group, up to sign
            eta = np.empty((3, r_k.size))
            eta[EVENT_CENSORED] = comp.ravel()
            eta[cause] = (c - comp).ravel()
            eta[other] = (comp + comp_other).ravel()
            residual = eta[e[:, cols], key[:, cols]]
            var = var + _row_fsums(residual * residual, True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return z * z / var, var
