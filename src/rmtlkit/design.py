"""Sample-size and power calculations for the two-group RMTL difference.

Planning needs an effect size delta, per-group population variances
(sigma_k^2 = n_k * var(mu_k), obtainable from a pilot study), the
allocation ratio r = n1/n0, and the usual alpha / power pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import GroupSample
from .errors import DegeneratePilotError, InfeasibleDesignError, InputError
from .inference import _ndtr, _ndtri, rmtl

__all__ = [
    "DesignInput",
    "DesignResult",
    "sample_size",
    "estimate_sigma_sq",
    "power_at",
]


@dataclass(frozen=True)
class DesignInput:
    """Inputs for a sample-size calculation."""

    delta: float
    sigma0_sq: float
    sigma1_sq: float
    ratio: float = 1.0
    alpha: float = 0.05
    power: float = 0.8

    def __post_init__(self):
        _check_inputs(self.delta, self.sigma0_sq, self.sigma1_sq, self.ratio, self.alpha)
        if self.delta == 0:
            raise InfeasibleDesignError("delta must be nonzero")
        if not 0 < self.power < 1:
            raise InputError("power must lie in (0, 1)")


def _check_inputs(delta, sigma0_sq, sigma1_sq, ratio, alpha):
    """The ``InputError`` checks that ``DesignInput`` and ``power_at`` share."""
    if not math.isfinite(delta):
        raise InputError("delta must be finite")
    if not 0 < sigma0_sq < math.inf or not 0 < sigma1_sq < math.inf:
        raise InputError("variances must be positive and finite")
    if not 0 < ratio < math.inf:
        raise InputError("ratio must be positive and finite")
    if not 0 < alpha < 1:
        raise InputError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class DesignResult:
    """Integer group sizes meeting the requested power."""

    n0: int
    n1: int

    @property
    def total(self) -> int:
        return self.n0 + self.n1

    def to_dict(self) -> dict:
        return {"n0": self.n0, "n1": self.n1, "total": self.total}


def sample_size(inp: DesignInput) -> DesignResult:
    """Group sizes for the two-sided RMTL-difference test.

    n0 = (z_{1-beta} + z_{1-alpha/2})^2 (sigma0^2 + sigma1^2 / r) / delta^2,
    then n1 = r * n0; each arm is ceiled separately (and floored at 2,
    the minimum for inference), so fractional ratios never undershoot
    the power target in either arm. A design whose n0 or n1 is not
    finite raises ``InfeasibleDesignError``.
    """
    za = _ndtri(1.0 - inp.alpha / 2.0)
    zb = _ndtri(inp.power)
    delta_sq = inp.delta ** 2  # underflows to 0 below about 1e-162
    n0_real = math.inf
    if delta_sq:
        n0_real = (zb + za) ** 2 * (inp.sigma0_sq + inp.sigma1_sq / inp.ratio) / delta_sq
    if not math.isfinite(inp.ratio * n0_real):
        raise InfeasibleDesignError(
            f"no finite design: n0 = {n0_real:.6g}, n1 = {inp.ratio * n0_real:.6g} "
            f"(delta {inp.delta:.6g}, alpha {inp.alpha:.6g})"
        )
    n0 = max(2, math.ceil(n0_real - 1e-12))
    n1 = max(2, math.ceil(inp.ratio * n0_real - 1e-12))
    return DesignResult(n0=n0, n1=n1)


def estimate_sigma_sq(pilot: GroupSample, tau: float) -> float:
    """Population variance estimate from a pilot group:
    n_pilot * var(mu_pilot(tau))."""
    if pilot.n_events < 2:
        raise DegeneratePilotError(
            f"pilot carries {pilot.n_events} event(s); at least 2 required"
        )
    est = rmtl(pilot, tau)
    if est.variance <= 0.0:
        raise DegeneratePilotError("pilot variance is zero; no information")
    return pilot.n * est.variance


def power_at(
    delta: float,
    sigma0_sq: float,
    sigma1_sq: float,
    n0: int,
    ratio: float = 1.0,
    alpha: float = 0.05,
) -> float:
    """Power of the two-sided test at group sizes (n0, r * n0).

    Evaluates Phi(|delta| / sqrt(sigma0^2/n0 + sigma1^2/n1) - z_{1-alpha/2}),
    the one-sided approximation of the two-sided rejection probability.
    An n0 below 2, and any input ``DesignInput`` rejects as ``InputError``,
    raises that error here too; a zero delta gives power alpha / 2.
    """
    if n0 < 2:
        raise InputError("n0 must be at least 2")
    _check_inputs(delta, sigma0_sq, sigma1_sq, ratio, alpha)
    n1 = ratio * n0
    se = math.sqrt(sigma0_sq / n0 + sigma1_sq / n1)
    za = _ndtri(1.0 - alpha / 2.0)
    return _ndtr(abs(delta) / se - za)
