"""Nonparametric estimators: all-cause Kaplan-Meier survival and
cause-specific cumulative incidence (Aalen-Johansen form).

All three curves are exact step functions on the group's event times.
The RMTL, the area under the cause-1 curve, is integrated exactly by
``inference._rmtl_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EventTable, GroupSample, build_event_table

__all__ = ["CifPair", "cif_pair", "curve_rows"]


@dataclass(frozen=True)
class CifPair:
    """Survival plus both cause-specific incidence curves of one group.

    ``survival[i]``, ``cif1[i]`` and ``cif2[i]`` are the right-continuous
    values at ``table.times[i]``; before the first event time S = 1 and
    F1 = F2 = 0. At every knot, cif1 + cif2 + survival = 1 up to
    floating-point accumulation (checked to 1e-10 at construction).
    """

    table: EventTable
    survival: np.ndarray
    cif1: np.ndarray
    cif2: np.ndarray

    def __post_init__(self):
        for curve in (self.survival, self.cif1, self.cif2):
            curve.setflags(write=False)
        if self.table.n_times:
            total = self.cif1 + self.cif2 + self.survival
            if np.max(np.abs(total - 1.0)) > 1e-10:
                raise ValueError("cif1 + cif2 + survival must equal 1 at all knots")


def cif_pair(sample: GroupSample) -> CifPair:
    """Build the survival and incidence curves of one group.

    S(t) = prod_{t_i <= t} (1 - d_i / Y_i), with censoring entering only
    through the risk sets. F_j(t) sums (d_ij / Y_i) * S(t_i-) over event
    times t_i <= t, where S(t_i-) is the survival just before t_i.
    """
    table = build_event_table(sample)
    surv, _, _, _, cif1, cif2 = _incidence(table.d1, table.d2, table.at_risk)
    return CifPair(table=table, survival=surv, cif1=cif1, cif2=cif2)


def _incidence(d1, d2, y):
    """The curves of ``cif_pair`` along the last axis of per-time
    cause-1 and cause-2 counts and risk sets (one event table, or rows
    of them): ``(S, S(t-), dF1, dF2, F1, F2)``. A time without events
    multiplies S by exactly 1 and adds exactly 0 to each F_j.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        surv = np.clip(np.cumprod(1.0 - (d1 + d2) / y, axis=-1), 0.0, 1.0)
        s_left = np.concatenate((np.ones_like(surv[..., :1]), surv[..., :-1]), axis=-1)
        df1, df2 = (d / y * s_left for d in (d1, d2))
    f1, f2 = (np.clip(np.cumsum(df, axis=-1), 0.0, 1.0) for df in (df1, df2))
    return surv, s_left, df1, df2, f1, f2


def curve_rows(pair: CifPair) -> list[tuple[float, float, float, float]]:
    """Rows (time, survival, cif1, cif2) for curve export: a t=0 row,
    then one row per event time."""
    return [(0.0, 1.0, 0.0, 0.0)] + list(
        zip(
            pair.table.times.tolist(),
            pair.survival.tolist(),
            pair.cif1.tolist(),
            pair.cif2.tolist(),
        )
    )
