"""Scalar reference forms of the estimator arithmetic.

These are the one-sample implementations that the row kernels in
``rmtlkit.inference`` replaced, kept as an independent oracle: the
event table of one sample, its Kaplan-Meier and Aalen-Johansen curves, the
martingale variance of the RMTL (left survival weight), and Gray's test
built from a reverse Kaplan-Meier of the censoring distribution. The
kernels must reproduce them bit for bit, ties included. ``curves_at``
evaluates the curves of a ``CifPair`` at any time.
"""

import math

import numpy as np
from scipy.special import chdtrc

from rmtlkit import DegenerateTestError, EventTable, GrayResult, GroupSample
from rmtlkit.data import EVENT_CENSORED, EVENT_COMPETING, EVENT_INTEREST
from rmtlkit.estimators import CifPair


# each curve's value before the first event time
INITIAL = {"survival": 1.0, "cif1": 0.0, "cif2": 0.0}


def curves_at(pair: CifPair, t):
    """(S(t), F1(t), F2(t)): each curve at the last event time <= t, or
    its initial value before the first one, for a scalar or an array ``t``."""
    i = np.searchsorted(pair.table.times, t, side="right")
    return tuple(np.concatenate(([INITIAL[name]], getattr(pair, name)))[i] for name in INITIAL)


def build_event_table(sample: GroupSample) -> EventTable:
    is_event = sample.event != EVENT_CENSORED
    if not np.any(is_event):
        empty = np.array([], dtype=float)
        zero = np.array([], dtype=np.int64)
        return EventTable(empty, zero, zero.copy(), zero.copy())
    etimes = sample.time[is_event]
    ecodes = sample.event[is_event]
    times = np.unique(etimes)
    d1 = np.zeros(times.size, dtype=np.int64)
    d2 = np.zeros(times.size, dtype=np.int64)
    idx = np.searchsorted(times, etimes)
    np.add.at(d1, idx[ecodes == EVENT_INTEREST], 1)
    np.add.at(d2, idx[ecodes == EVENT_COMPETING], 1)
    sorted_all = np.sort(sample.time)
    # Y(t) = #{observed time >= t}; side="left" keeps exact ties in the risk set
    at_risk = sample.n - np.searchsorted(sorted_all, times, side="left")
    return EventTable(times, d1, d2, at_risk.astype(np.int64))


def cif_pair(sample: GroupSample) -> CifPair:
    table = build_event_table(sample)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = 1.0 - (table.d1 + table.d2) / table.at_risk
    surv = np.clip(np.cumprod(factors), 0.0, 1.0)
    s_left = np.concatenate(([1.0], surv[:-1]))
    cif1, cif2 = (
        np.clip(np.cumsum((d / table.at_risk) * s_left), 0.0, 1.0)
        for d in (table.d1, table.d2)
    )
    return CifPair(table=table, survival=surv, cif1=cif1, cif2=cif2)


def variance_rmtl(pair: CifPair, tau: float) -> float:
    if not tau > 0:
        raise ValueError(f"tau must be positive (got {tau})")
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
    s_w = s_left

    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = ((tau - t) * (1.0 - f2) - tails) ** 2 / (y * s_w) * df1
        term2 = ((tau - t) * f1 - tails) ** 2 / (y * s_w) * df2
    var = math.fsum(term1) + math.fsum(term2)
    return max(var, 0.0)


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
