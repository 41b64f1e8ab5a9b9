"""Restricted-mean-time-lost estimation and two-group inference.

The point estimate is the exact area under the cause-1 cumulative
incidence curve over [0, tau]. Its variance comes from a martingale
approximation: a two-term sum over event times whose integrands combine
the incidence curves, the risk set, and the exact tail integrals of the
cause-1 curve. The between-group difference is tested against a normal
reference; Gray's test (rho = 0) is provided as a comparator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri

from .data import (
    EVENT_CENSORED,
    EVENT_COMPETING,
    EVENT_INTEREST,
    GroupSample,
    build_event_table,
    select_tau,
)
from .errors import DegenerateTestError, ExtrapolationError
from .estimators import CifPair, _sample_curves

__all__ = [
    "RmtlEstimate",
    "RmtldResult",
    "GrayResult",
    "rmtl",
    "variance_rmtl",
    "rmtld_test",
    "gray_test",
]


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


def variance_rmtl(pair: CifPair, tau: float, survival_eval: str = "left") -> float:
    """Variance of the RMTL estimate from the martingale approximation.

    Discretized as a sum over event times t_i <= tau:

        sum_i  { (tau-t_i)(1-F2(t_i)) - A(t_i) }^2 / (Y_i * S_w(t_i)) * dF1(t_i)
             + { (tau-t_i) F1(t_i)    - A(t_i) }^2 / (Y_i * S_w(t_i)) * dF2(t_i)

    with dFj(t_i) = (d_ij / Y_i) * S(t_i-) and A(t) the exact tail
    integral of F1 over [t, tau]. ``survival_eval`` picks the survival
    value in the weight: the left limit S(t_i-) (default, always finite
    while events remain) or the right value S(t_i) for sensitivity
    checks. A singular weight (possible only at the final event time
    under "right") drops that term and emits a RuntimeWarning.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive (got {tau})")
    if survival_eval not in ("left", "right"):
        raise ValueError("survival_eval must be 'left' or 'right'")
    table = pair.table
    if table.n_times == 0:
        return 0.0
    keep = table.times <= tau
    if not np.any(keep):
        return 0.0
    t = table.times[keep]
    d1 = table.d1[keep].astype(float)
    d2 = table.d2[keep].astype(float)
    y = table.at_risk[keep].astype(float)

    s_right = pair.survival[: t.size]
    s_left = np.concatenate(([1.0], pair.survival[: t.size - 1]))
    f1 = pair.cif1[: t.size]
    f2 = pair.cif2[: t.size]

    # Exact tail integrals A_i = integral of F1 over [t_i, tau]: F1 is
    # constant on [t_i, t_{i+1}), so accumulate segment areas from the right.
    seg_ends = np.concatenate((t[1:], [tau]))
    seg_ends = np.minimum(seg_ends, tau)
    areas = f1 * np.clip(seg_ends - t, 0.0, None)
    tails = np.cumsum(areas[::-1])[::-1]

    df1 = (d1 / y) * s_left
    df2 = (d2 / y) * s_left
    s_w = s_left if survival_eval == "left" else s_right

    singular = (s_w <= 0.0) & ((df1 > 0) | (df2 > 0))
    if np.any(singular):
        warnings.warn(
            "survival weight vanished at the final event time; "
            f"{int(singular.sum())} variance term(s) skipped",
            RuntimeWarning,
            stacklevel=2,
        )
    ok = ~singular
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(
            ok, ((tau - t) * (1.0 - f2) - tails) ** 2 / (y * s_w) * df1, 0.0
        )
        term2 = np.where(
            ok, ((tau - t) * f1 - tails) ** 2 / (y * s_w) * df2, 0.0
        )
    var = math.fsum(term1) + math.fsum(term2)
    return max(var, 0.0)


def _rmtl_rows(t: np.ndarray, e: np.ndarray, tau: np.ndarray):
    """Row-wise ``rmtl`` (left survival weight) for a block of one-arm
    samples: ``t`` and ``e`` are (rows, n) times and event codes, each
    row sorted with distinct times, ``tau`` the per-row restriction.

    Without ties every position is its own risk-set step (Y = n - rank)
    and a censored position multiplies by exactly 1 or adds exactly 0,
    so the curves, segment areas, tail integrals and variance terms are
    the values ``cif_pair`` and ``variance_rmtl`` compute, and the
    compensated per-row sums match them bit for bit. The survival weight
    S(t-) is positive at every event: it vanishes only after the last
    subject at risk has failed. Returns ``(mu, variance)`` per row.
    """
    rows, n = t.shape
    y = np.arange(n, 0, -1, dtype=float)
    d1 = e == EVENT_INTEREST
    d2 = e == EVENT_COMPETING
    event = d1 | d2
    surv = np.clip(np.cumprod(1.0 - event / y, axis=1), 0.0, 1.0)
    s_left = np.concatenate((np.ones((rows, 1)), surv[:, :-1]), axis=1)
    df1 = d1 / y * s_left
    df2 = d2 / y * s_left
    f1 = np.clip(np.cumsum(df1, axis=1), 0.0, 1.0)
    f2 = np.clip(np.cumsum(df2, axis=1), 0.0, 1.0)

    taus = tau[:, None]
    keep = event & (t <= taus)
    # F1 holds from each event time to the next one (or to tau)
    next_event = np.minimum.accumulate(np.where(event, t, np.inf)[:, ::-1], axis=1)[:, ::-1]
    seg_end = np.minimum(
        np.concatenate((next_event[:, 1:], np.full((rows, 1), np.inf)), axis=1), taus
    )
    areas = np.where(keep, f1 * np.maximum(seg_end - t, 0.0), 0.0)
    tails = np.cumsum(areas[:, ::-1], axis=1)[:, ::-1]
    # only the kept entries of the variance terms are summed
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = y * s_left
        term1 = ((taus - t) * (1.0 - f2) - tails) ** 2 / weight * df1
        term2 = ((taus - t) * f1 - tails) ** 2 / weight * df2
    var = np.maximum(_row_fsums(term1, keep) + _row_fsums(term2, keep), 0.0)
    return _row_fsums(areas, keep), var


def _row_fsums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``math.fsum`` of the masked entries of each row of ``values``:
    the correctly rounded sums the scalar code takes over its knots."""
    flat = memoryview(values[mask])
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    return np.array([math.fsum(flat[a:b]) for a, b in zip([0, *ends], ends)])


def rmtl(sample: GroupSample, tau: float, survival_eval: str = "left") -> RmtlEstimate:
    """RMTL point estimate and variance for one group over [0, tau].

    ``tau`` must be positive and must not exceed the group's maximum
    follow-up (the curve is never extrapolated).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive (got {tau})")
    if tau > sample.max_followup:
        raise ExtrapolationError(
            f"tau={tau} exceeds the maximum follow-up {sample.max_followup}"
        )
    pair = _sample_curves(sample)
    mu = pair.integrate("cif1", tau)
    var = variance_rmtl(pair, tau, survival_eval=survival_eval)
    return RmtlEstimate(mu=mu, variance=var, tau=tau, n=sample.n)


def rmtld_test(
    sample0: GroupSample,
    sample1: GroupSample,
    tau: float | None = None,
    alpha: float = 0.05,
    survival_eval: str = "left",
) -> RmtldResult:
    """Two-sided test of equal RMTL between groups at restriction ``tau``.

    delta = mu(treatment) - mu(control); its variance is the sum of the
    group variances. The p-value and the confidence bounds use the same
    normal quantile family, so p < alpha holds exactly when the interval
    excludes zero. ``tau`` defaults to the min-max follow-up rule.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1) (got {alpha})")
    tau_max = select_tau(sample0, sample1)
    if tau is None:
        tau = tau_max
    if tau > tau_max:
        raise ExtrapolationError(
            f"tau={tau} exceeds the shorter maximum follow-up {tau_max}"
        )
    est0 = rmtl(sample0, tau, survival_eval=survival_eval)
    est1 = rmtl(sample1, tau, survival_eval=survival_eval)
    delta = est1.mu - est0.mu
    var = est0.variance + est1.variance
    if var <= 0.0:
        raise DegenerateTestError(
            "both groups are event-free before tau; the test is undefined"
        )
    z, p, ci_low, ci_high = (float(v) for v in _normal_test(delta, var, alpha))
    return RmtldResult(
        delta=delta,
        variance=var,
        ci_low=ci_low,
        ci_high=ci_high,
        z=z,
        p=p,
        alpha=alpha,
        tau=tau,
        group0=est0,
        group1=est1,
    )


def _normal_test(delta, var, alpha):
    """(z, p, ci_low, ci_high) of the normal test of ``delta`` with
    variance ``var``, for scalars or elementwise for arrays."""
    se = np.sqrt(var)
    z = delta / se
    zq = ndtri(1.0 - alpha / 2.0)
    return z, np.minimum(2.0 * ndtr(-np.abs(z)), 1.0), delta - zq * se, delta + zq * se


def _censoring_km(time, event):
    """Kaplan-Meier of the censoring distribution (reverse KM).

    Returns (times, g) with g[i] the censoring-survival value at the
    i-th distinct observed time; left limits follow by shifting.
    """
    order = np.argsort(time, kind="stable")
    t_sorted = time[order]
    cens_sorted = (event[order] == EVENT_CENSORED).astype(float)
    times, start = np.unique(t_sorted, return_index=True)
    counts = np.diff(np.concatenate((start, [t_sorted.size])))
    d_cens = np.add.reduceat(cens_sorted, start)
    n = time.size
    at_risk = n - np.concatenate(([0], np.cumsum(counts)))[:-1]
    factors = 1.0 - d_cens / at_risk
    return times, np.cumprod(factors)


def _gray_group_arrays(sample: GroupSample, cause: int, other: int, grid: np.ndarray):
    """Per-group ingredients of the Gray score on a pooled time grid.

    Returns ``(r, d, g_grid, g_other)``: the weighted risk process R_k on
    the grid, the cause-event counts on the grid, the censoring survival
    G(t-) on the grid, and G(T_i-) at each competing-cause subject's own
    time (in sample order). Subjects who fail from the competing cause
    stay in the risk set, discounted by the ratio G(t-)/G(T_i-).
    """
    time = sample.time
    event = sample.event
    km_t, g_right = _censoring_km(time, event)
    g_padded = np.concatenate(([1.0], g_right))
    # G(t-): value of the last distinct time strictly before t
    g_grid = g_padded[np.searchsorted(km_t, grid, side="left")]

    # direct risk-set part: subjects with observed time >= t
    t_sorted = np.sort(time)
    n_at_risk = time.size - np.searchsorted(t_sorted, grid, side="left")

    # discounted part from competing-cause subjects beyond their event time
    comp_times = time[event == other]
    g_other = g_padded[np.searchsorted(km_t, comp_times, side="left")]
    order = np.argsort(comp_times, kind="stable")
    comp_sorted = comp_times[order]
    inv_g_sorted = np.where(g_other[order] > 0, 1.0 / g_other[order], 0.0)
    cum_inv = np.concatenate(([0.0], np.cumsum(inv_g_sorted)))
    # count competing events strictly before each grid time
    n_before = np.searchsorted(comp_sorted, grid, side="left")
    weighted = g_grid * cum_inv[n_before]

    r_k = n_at_risk + weighted

    # the grid holds every cause time of both groups, so each is found exactly
    d_cause = np.zeros(grid.size)
    np.add.at(d_cause, np.searchsorted(grid, time[event == cause]), 1.0)

    return r_k, d_cause, g_grid, g_other


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
    grid = np.unique(
        np.concatenate(
            (
                sample0.time[sample0.event == cause],
                sample1.time[sample1.event == cause],
            )
        )
    )
    if grid.size == 0:
        raise DegenerateTestError(f"no events of cause {cause} in either group")

    other = EVENT_COMPETING if cause == EVENT_INTEREST else EVENT_INTEREST
    r0, d0, g_grid0, g_other0 = _gray_group_arrays(sample0, cause, other, grid)
    r1, d1, g_grid1, g_other1 = _gray_group_arrays(sample1, cause, other, grid)
    r_pool = r0 + r1
    d_pool = d0 + d1

    with np.errstate(divide="ignore", invalid="ignore"):
        score_terms = d1 - np.where(r_pool > 0, r1 / r_pool * d_pool, 0.0)
    z = math.fsum(score_terms)

    # variance from per-subject residuals of the weighted score
    with np.errstate(divide="ignore", invalid="ignore"):
        k_w = np.where(r_pool > 0, r1 * r0 / r_pool, 0.0)
        dlam = np.where(r_pool > 0, d_pool / r_pool, 0.0)

    var = 0.0
    for sample, r_k, g_grid, g_other, sign in (
        (sample0, r0, g_grid0, g_other0, -1.0),
        (sample1, r1, g_grid1, g_other1, 1.0),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(r_k > 0, k_w / r_k, 0.0)
        c_dlam = c * dlam
        prefix = np.concatenate(([0.0], np.cumsum(c_dlam)))
        suffix_weighted = np.concatenate(
            (np.cumsum((c_dlam * g_grid)[::-1])[::-1], [0.0])
        )

        time, event = sample.time, sample.event
        # compensator while under direct observation: event times <= own time
        upto = np.searchsorted(grid, time, side="right")
        comp = prefix[upto]
        # discounted compensator after a competing event
        is_other = event == other
        if np.any(is_other):
            after = suffix_weighted[upto[is_other]]
            with np.errstate(divide="ignore", invalid="ignore"):
                comp_other = np.where(g_other > 0, after / g_other, 0.0)
            comp[is_other] += comp_other
        # event part for own cause-j events
        ev = np.zeros(time.size)
        is_cause = event == cause
        if np.any(is_cause):
            pos = np.searchsorted(grid, time[is_cause])
            with np.errstate(divide="ignore", invalid="ignore"):
                ev_val = np.where(r_k[pos] > 0, k_w[pos] / r_k[pos], 0.0)
            ev[is_cause] = ev_val
        eta = sign * (ev - comp)
        var += float(np.dot(eta, eta))

    if var <= 0.0:
        raise DegenerateTestError("degenerate Gray test: zero variance")
    stat = z * z / var
    return GrayResult(statistic=stat, p=float(chdtrc(1, stat)), cause=cause)


def _gray_rows(e: np.ndarray, arm: np.ndarray, order: np.ndarray, n0: int):
    """Row-wise ``gray_test`` (cause 1) for a block of pooled two-arm
    samples: ``e`` and ``arm`` (True for the treatment arm) are the
    (rows, n) event codes and arm labels of each row sorted by time,
    with distinct times; ``order`` is that per-row sort of the pooled
    draws, control subjects first. Only the order of the times matters.

    On distinct times the grid is the pooled row itself, and each arm's
    risk process, G(t-), compensators and residuals are masked prefix
    and suffix sums along it that add the same terms in the same order
    as ``gray_test``; the residuals are put back in sample order so that
    each arm's sum of squares is the same dot product. Returns
    ``(statistic, variance)`` per row.
    """
    rows, n = e.shape
    grid = e == EVENT_INTEREST
    is_other = e == EVENT_COMPETING
    censored = e == EVENT_CENSORED
    d_pool = grid.astype(float)
    zeros = np.zeros((rows, 1))

    arms = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for member, n_k in ((~arm, n0), (arm, n - n0)):
            # own-arm subjects at or after each position, and G(t-) from the
            # own-arm censorings strictly before it
            y_k = (n_k - (np.cumsum(member, axis=1) - member)).astype(float)
            g_right = np.cumprod(np.where(member & censored, 1.0 - 1.0 / y_k, 1.0), axis=1)
            g_left = np.concatenate((np.ones((rows, 1)), g_right[:, :-1]), axis=1)
            inv = np.where(member & is_other & (g_left > 0), 1.0 / g_left, 0.0)
            cum_inv = np.concatenate((zeros, np.cumsum(inv, axis=1)[:, :-1]), axis=1)
            arms.append((member, y_k + g_left * cum_inv, g_left))
        (_, r0, _), (_, r1, _) = arms
        r_pool = r0 + r1
        pooled = r_pool > 0
        d1 = (grid & arm).astype(float)
        score = d1 - np.where(pooled, r1 / r_pool * d_pool, 0.0)
        k_w = np.where(pooled, r1 * r0 / r_pool, 0.0)
        dlam = np.where(pooled, d_pool / r_pool, 0.0)

        eta = np.empty((rows, n))
        for (member, r_k, g_left), sign in zip(arms, (-1.0, 1.0)):
            c = np.where(r_k > 0, k_w / r_k, 0.0)
            c_dlam = np.where(grid, c * dlam, 0.0)
            comp = np.cumsum(c_dlam, axis=1)
            suffix = np.cumsum((c_dlam * g_left)[:, ::-1], axis=1)[:, ::-1]
            after = np.concatenate((suffix[:, 1:], zeros), axis=1)
            comp_other = np.where(g_left > 0, after / g_left, 0.0)
            comp = comp + np.where(member & is_other, comp_other, 0.0)
            ev = np.where(member & grid, c, 0.0)
            np.copyto(eta, sign * (ev - comp), where=member)

    by_subject = np.empty_like(eta)
    np.put_along_axis(by_subject, order, eta, axis=1)
    z = _row_fsums(score, grid)
    var = np.array(
        [0.0 + np.dot(row[:n0], row[:n0]) + np.dot(row[n0:], row[n0:]) for row in by_subject]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return z * z / var, var
