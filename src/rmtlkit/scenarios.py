"""Built-in data-generating scenarios for the simulation engine.

Six two-arm competing-risks populations, labelled A-F:

* A  null: both arms share F1(t) = p1(1 - e^-t), F2 = (1-p1)(1 - e^-t).
* B, C  proportional subdistribution hazards: the treatment arm follows
  F1(t|1) = 1 - [1 - p1(1 - e^-t)]^exp(theta) with the matching
  competing-cause law; theta is the log subdistribution hazard ratio.
  The built-in presets use effect sizes calibrated so the true RMTL
  difference over [0, 4] equals -0.3935 (B) and -0.5141 (C).
* D  early difference: piecewise Weibull conditional times with arms
  that coincide beyond t = 2.
* E, F  late difference: arms coincide up to t = 1 (E) or t = 2 (F),
  after which the treatment hazard drops.

Event types are binomial per subject; conditional failure times come
from exact inverse-CDF sampling. Piecewise Weibulls are spliced on the
hazard scale, so cumulative incidence stays continuous across
breakpoints while the hazard may jump. Censoring is uniform on
(0, bound) with the bound calibrated to a target censoring rate. The bound
and the true effects read the same inverse CDFs on fixed nodes, drawing nothing.

The populations are fixed: only arm sizes, censoring target and ``p1``
vary; the B/C effects (``THETA_B``, ``THETA_C``) and the D-F hazard
pieces (``_PIECES``) are looked up by scenario id.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import GroupSample
from .errors import InputError
from .inference import _row_fsums

__all__ = [
    "ScenarioSpec",
    "scenario",
    "generate_group",
    "calibrate_censoring",
    "true_rmtld",
]

SCENARIO_IDS = ("A", "B", "C", "D", "E", "F")
CENSOR_TARGETS = (0, 15, 30, 45)

# Log subdistribution hazard ratios of the built-in B and C presets,
# calibrated so the true RMTL difference at tau = 4 hits the reference
# effect sizes (see tests/test_scenarios.py, which re-derives them).
THETA_B = -0.3127843631814181
THETA_C = -0.4146532377304649
_THETA = {"B": THETA_B, "C": THETA_C}

_CAL_POINTS = 2**16  # quantile nodes per cause on (0, 1) for the censoring bound
_TRUTH_POINTS = 2**18  # midpoint-rule nodes on (0, 1) for the true effect


@dataclass(frozen=True)
class WeibullPiece:
    """One hazard segment: (t/scale)^shape cumulative hazard up to ``upper``."""

    shape: float
    scale: float
    upper: float = math.inf


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: a built-in population and its arm sizes."""

    id: str
    n0: int
    n1: int
    censor_target: int = 0
    p1: float = 0.7

    def __post_init__(self):
        if self.id not in SCENARIO_IDS:
            raise InputError(f"scenario id must be one of {SCENARIO_IDS}")
        if not 0 < self.p1 <= 1:
            raise InputError("p1 must lie in (0, 1]")
        if self.censor_target not in CENSOR_TARGETS:
            raise InputError(f"censor_target must be one of {CENSOR_TARGETS}")
        if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (self.n0, self.n1)):
            raise InputError(f"group sizes must be integers >= 2 (got {self.n0!r}, {self.n1!r})")


# per scenario id, the (control, treatment) hazard pieces; each arm's
# pieces partition (0, inf)
_PIECES = {
    "D": (
        (WeibullPiece(1, 2, 2.0), WeibullPiece(2, 2)),
        (WeibullPiece(4, 2, 2.0), WeibullPiece(2, 2)),
    ),
    "E": (
        (WeibullPiece(2, 2),),
        (WeibullPiece(2, 2, 1.0), WeibullPiece(0.8, 2)),
    ),
    "F": (
        (WeibullPiece(2, 2),),
        (WeibullPiece(2, 2, 2.0), WeibullPiece(0.8, 2)),
    ),
}


def scenario(id: str, n0: int, n1: int, censor_target: int = 0, p1: float = 0.7) -> ScenarioSpec:
    """Preset factory for the built-in scenarios A-F."""
    return ScenarioSpec(id=id.upper(), n0=n0, n1=n1, censor_target=censor_target, p1=p1)


# ---------------------------------------------------------------------------
# closed-form ingredients


def _cum_hazard_inverse(pieces: tuple[WeibullPiece, ...], v: np.ndarray) -> np.ndarray:
    """Invert the spliced cumulative hazard at values v >= 0.

    Each piece is inverted on the whole array and selected where it
    covers ``v``. The earliest covering piece wins, so the pieces are
    written from the last back; values no piece covers stay inf.
    """
    bounds, base, lo = [], 0.0, 0.0
    for piece in pieces:
        lo_h = (lo / piece.scale) ** piece.shape
        if math.isinf(piece.upper):
            top = math.inf
        else:
            top = base + (piece.upper / piece.scale) ** piece.shape - lo_h
        bounds.append((base, lo_h, top))
        base = top
        lo = piece.upper
    out = np.full(v.shape, np.inf)
    inverse = np.empty(v.shape)
    for piece, (base, lo_h, top) in zip(reversed(pieces), reversed(bounds)):
        # scale * (v - base + lo_h) ** (1 / shape), in place
        np.subtract(v, base, out=inverse)
        inverse += lo_h
        inverse **= 1.0 / piece.shape
        inverse *= piece.scale
        np.copyto(out, inverse, where=v <= top)
    return out


# ---------------------------------------------------------------------------
# sampling


def _cause1_share(spec: ScenarioSpec, group: int) -> float:
    """Probability that a subject of the arm fails from cause 1."""
    if spec.id in _THETA and group == 1:
        return 1.0 - (1.0 - spec.p1) ** math.exp(_THETA[spec.id])
    return spec.p1


def _failure_times(spec: ScenarioSpec, group: int, cause, u: np.ndarray) -> np.ndarray:
    """Failure times given the event types ``cause`` (shaped like ``u``,
    or 1 for every uniform's cause-1 quantile), by exact inverse CDF of
    the failure-time uniforms ``u`` (any shape). Both causes' transforms
    run on the whole array, in place, and ``np.copyto`` selects per
    subject: each value takes the same operations as it would alone."""
    # -log1p(-u): a unit exponential
    times = np.negative(u)
    np.log1p(times, out=times)
    np.negative(times, out=times)
    if spec.id in _THETA and group == 1:
        rate = math.exp(_THETA[spec.id])
        # cause 2: exponential with rate exp(theta)
        times /= rate
        # cause 1: exact inverse of the conditional subdistribution CDF,
        # -log1p(-clip((1 - (1 - u * share) ** (1 / rate)) / p1))
        inner = u * _cause1_share(spec, group)
        np.subtract(1.0, inner, out=inner)
        inner **= 1.0 / rate
        np.subtract(1.0, inner, out=inner)
        inner /= spec.p1
        np.clip(inner, 0.0, 1.0 - 1e-16, out=inner)
        np.negative(inner, out=inner)
        np.log1p(inner, out=inner)
        np.negative(inner, out=inner)
        np.copyto(times, inner, where=cause == 1)
    elif spec.id not in ("A", "B", "C"):
        times = _cum_hazard_inverse(_PIECES[spec.id][group], times)
    return times


def _observe(spec: ScenarioSpec, group: int, u: np.ndarray, bound: float | None) -> tuple:
    """Observed times and event codes from raw uniforms: types from ``u[0]``,
    failure times from ``u[1]``, censoring on (0, ``bound``) from ``u[2]``."""
    # type 1 below the arm's cause-1 share, else 2
    cause = (u[0] >= _cause1_share(spec, group)).astype(np.int64) + 1
    times = _failure_times(spec, group, cause, u[1])
    if bound is None:
        return times, cause
    c = bound * u[2]  # rng.uniform's 0.0 + bound * u, bit for bit
    event = cause * (times <= c)
    return np.minimum(times, c, out=times), event


def generate_group(spec: ScenarioSpec, group: int, n: int, rng) -> GroupSample:
    """Simulate one arm: draw the event type, the conditional failure
    time, then apply calibrated uniform censoring (none at target 0)."""
    if group not in (0, 1):
        raise ValueError("group must be 0 or 1")
    bound = calibrate_censoring(spec, spec.censor_target, group)
    # the layout of a replicate's arm: n cause, n failure-time and, when
    # censored, n censoring uniforms, through simulate's block transform
    planes = 2 if bound is None else 3
    time, event = _observe(spec, group, rng.random(planes * n).reshape(planes, 1, n), bound)
    return GroupSample(time[0], event[0], group)


# ---------------------------------------------------------------------------
# censoring calibration and true effects

_censor_cache: dict = {}


def calibrate_censoring(spec: ScenarioSpec, target: int, group: int) -> float | None:
    """Uniform censoring bound giving the target censoring percentage.

    Solves g(b) = E[min(T, b)] / b = c, c = target/100, the censoring rate
    under C ~ U(0, b), with the arm's latent failure time T read off the
    sampler's own quantiles, no random draw: each cause's quantile at
    u = (i + 1/2) / N, N = ``_CAL_POINTS``, weighted P(cause) / N, so arms
    drawn from one law get one bound. Target 0 (no censoring) gives None.

    On the 2N sorted nodes, g(b) = P_k / b + W_k for b in [t_k, t_k+1),
    with P_k the weighted sum of the k smallest nodes and W_k the weight
    above them. g falls continuously from 1 to 0, so with k the count of
    nodes where g(t_k) > c, the root is b = P_k / (c - W_k).
    """
    if target not in CENSOR_TARGETS:
        raise InputError(f"target must be one of {CENSOR_TARGETS}")
    if target == 0:
        return None
    key = (spec.id, spec.p1, group, target)
    if key in _censor_cache:
        return _censor_cache[key]
    n, frac = _CAL_POINTS, target / 100.0
    share = _cause1_share(spec, group)
    w1, w2 = share / n, (1.0 - share) / n
    u = (np.arange(n) + 0.5) / n
    times = np.concatenate([_failure_times(spec, group, cause, u) for cause in (1, 2)])
    del u
    order = np.argsort(times, kind="stable")  # ties in one order on every host
    times, first = times[order], order < n  # first: the cause-1 nodes, in time order
    del order
    # count g(t_k) > c as P_k > t_k (c - W_k) on running sums, in place;
    # their rounding can only matter where g(t_k) is within rounding of c
    weights = np.where(first, w1, w2)
    prefix = weights * times
    np.cumsum(prefix, out=prefix)
    np.cumsum(weights, out=weights)
    weights -= 1.0 - frac  # c - W_k
    weights *= times
    k = np.count_nonzero(np.greater(prefix, weights, out=prefix))  # no bool array
    del prefix, weights
    # the root's piece from each cause's correctly rounded sum (mask flipped in place)
    below = first[None, :k]
    ones = int(np.count_nonzero(below))
    sum1 = _row_fsums(times[None, :k], below)[0]
    sum2 = _row_fsums(times[None, :k], np.logical_not(below, out=below))[0]
    above = w1 * (n - ones) + w2 * (n - (k - ones))
    bound = float((w1 * sum1 + w2 * sum2) / (frac - above))
    _censor_cache[key] = bound
    return bound


def true_rmtld(spec: ScenarioSpec, tau: float = 4.0) -> float:
    """True RMTL difference at ``tau``: per arm, P(cause 1) times the
    midpoint rule for int_0^1 (tau - Q(u))+ du on u = (i + 1/2) / N,
    N = ``_TRUTH_POINTS``, summed correctly rounded, with Q the sampler's
    cause-1 quantile. No random draw; within about 1e-7 of quadrature, and
    exactly 0.0 where the arms coincide up to ``tau`` (A; E to 1, F to 2)."""
    u = (np.arange(_TRUTH_POINTS) + 0.5)[None] / _TRUTH_POINTS  # one row, for _row_fsums
    mus = []
    for group in (0, 1):
        lost = np.subtract(tau, _failure_times(spec, group, 1, u))
        np.maximum(lost, 0.0, out=lost)
        mus.append(_cause1_share(spec, group) * float(_row_fsums(lost, True)[0]) / _TRUTH_POINTS)
    return mus[1] - mus[0]
