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
(0, bound) with the bound calibrated to a target censoring rate.

The populations are fixed: only arm sizes, censoring target and ``p1``
vary; the B/C effects (``THETA_B``, ``THETA_C``) and the D-F hazard
pieces (``_PIECES``) are looked up by scenario id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GroupSample
from .errors import CalibrationError, InputError

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

_CAL_SEED = 202608  # internal draw for censoring-bound calibration
_TRUTH_SEED = 776001  # internal draw for true-effect evaluation
_CAL_DRAWS = 200_000  # latent failure times per arm for calibration
_TRUTH_DRAWS = 500_000  # uncensored subjects per arm for the true effect


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
        if self.n0 < 2 or self.n1 < 2:
            raise InputError("group sizes must be at least 2")


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
    """Invert the spliced cumulative hazard at values v >= 0."""
    out = np.empty_like(v)
    base = 0.0
    lo = 0.0
    remaining = np.ones(v.shape, dtype=bool)
    for piece in pieces:
        lo_h = (lo / piece.scale) ** piece.shape
        if math.isinf(piece.upper):
            top = math.inf
        else:
            top = base + (piece.upper / piece.scale) ** piece.shape - lo_h
        take = remaining & (v <= top)
        out[take] = piece.scale * (v[take] - base + lo_h) ** (1.0 / piece.shape)
        remaining &= ~take
        base = top
        lo = piece.upper
    out[remaining] = np.inf
    return out


def _cum_hazard(pieces: tuple[WeibullPiece, ...], t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    base = 0.0
    lo = 0.0
    for piece in pieces:
        lo_h = (lo / piece.scale) ** piece.shape
        seg = np.clip(t, lo, piece.upper)
        inside = t > lo
        out = np.where(inside, base + (seg / piece.scale) ** piece.shape - lo_h, out)
        if math.isinf(piece.upper):
            break
        base = base + (piece.upper / piece.scale) ** piece.shape - lo_h
        lo = piece.upper
    return out


def piecewise_cdf(pieces: tuple[WeibullPiece, ...], t) -> np.ndarray:
    """Conditional failure-time CDF implied by the spliced hazard."""
    return 1.0 - np.exp(-_cum_hazard(pieces, np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# sampling


def _cause1_share(spec: ScenarioSpec, group: int) -> float:
    """Probability that a subject of the arm fails from cause 1."""
    if spec.id in _THETA and group == 1:
        return 1.0 - (1.0 - spec.p1) ** math.exp(_THETA[spec.id])
    return spec.p1


def _failure_times(spec: ScenarioSpec, group: int, cause: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Failure times given the event types ``cause``, by exact inverse
    CDF of the failure-time uniforms ``u`` (any shape)."""
    times = np.empty(u.shape)
    is1 = cause == 1
    if spec.id in _THETA and group == 1:
        rate = math.exp(_THETA[spec.id])
        # cause 1: exact inverse of the conditional subdistribution CDF
        v = u[is1] * _cause1_share(spec, group)
        inner = 1.0 - (1.0 - v) ** (1.0 / rate)
        times[is1] = -np.log1p(-np.clip(inner / spec.p1, 0.0, 1.0 - 1e-16))
        # cause 2: exponential with rate exp(theta)
        times[~is1] = -np.log1p(-u[~is1]) / rate
    elif spec.id in ("A", "B", "C"):
        # both causes are unit exponential given the type
        times[...] = -np.log1p(-u)
    else:
        times[...] = _cum_hazard_inverse(_PIECES[spec.id][group], -np.log1p(-u))
    return times


def _draw_failures(spec: ScenarioSpec, group: int, n: int, rng) -> tuple:
    """Latent event types and failure times for one arm, uncensored."""
    # the cause uniforms die at the comparison, before np.where allocates
    cause = np.where(rng.random(n) < _cause1_share(spec, group), 1, 2).astype(np.int64)
    return cause, _failure_times(spec, group, cause, rng.random(n))


def _observe(spec: ScenarioSpec, group: int, u: np.ndarray, bound: float | None) -> tuple:
    """Observed times and event codes from raw uniforms: types from ``u[0]``,
    failure times from ``u[1]``, censoring on (0, ``bound``) from ``u[2]``."""
    cause = np.where(u[0] < _cause1_share(spec, group), 1, 2).astype(np.int64)
    times = _failure_times(spec, group, cause, u[1])
    if bound is None:
        return times, cause
    c = bound * u[2]  # rng.uniform's 0.0 + bound * u, bit for bit
    return np.minimum(times, c), np.where(times <= c, cause, 0)


def _draw_rows(spec: ScenarioSpec, group: int, rngs, n: int, bound: float | None) -> tuple:
    """One arm for ``generate_group``: ``n`` subjects per generator in
    ``rngs``, one row each. A row draws n cause, n failure-time and, when
    censored, n censoring uniforms, the layout ``simulate._replicate_block``
    fills for both arms of a replicate in one call; then all rows pass
    through ``_observe`` at once."""
    u = np.empty((2 if bound is None else 3, len(rngs), n))
    for r, rng in enumerate(rngs):
        for row in u[:, r]:
            rng.random(out=row)
    return _observe(spec, group, u, bound)


def generate_group(spec: ScenarioSpec, group: int, n: int, rng) -> GroupSample:
    """Simulate one arm: draw the event type, the conditional failure
    time, then apply calibrated uniform censoring (none at target 0)."""
    if group not in (0, 1):
        raise ValueError("group must be 0 or 1")
    bound = calibrate_censoring(spec, spec.censor_target, group)
    time, event = _draw_rows(spec, group, [rng], n, bound)
    return GroupSample(time[0], event[0], group)


# ---------------------------------------------------------------------------
# censoring calibration and true effects

_censor_cache: dict = {}
_truth_cache: dict = {}


def calibrate_censoring(spec: ScenarioSpec, target: int, group: int) -> float | None:
    """Uniform censoring bound giving the target censoring percentage.

    Draws ``_CAL_DRAWS`` latent failure times once, then solves
    mean(min(T, b) / b) = target/100 for b; under C ~ U(0, b) that mean
    is exactly the censoring probability, so a fresh draw lands within
    Monte-Carlo noise (well inside one percentage point) of the target.
    Target 0 means no censoring at all and returns None.
    """
    if target not in CENSOR_TARGETS:
        raise InputError(f"target must be one of {CENSOR_TARGETS}")
    if target == 0:
        return None
    key = (spec.id, spec.p1, group, target)
    if key in _censor_cache:
        return _censor_cache[key]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=_CAL_SEED, spawn_key=(group,))
    )
    _, times = _draw_failures(spec, group, _CAL_DRAWS, rng)
    frac = target / 100.0

    def censor_rate(b):
        return float(np.mean(np.minimum(times, b)) / b)

    lo, hi = 1e-9, 1.0
    while censor_rate(hi) > frac:
        hi *= 2.0
        if hi > 1e12:
            raise CalibrationError(
                f"cannot reach {target}% censoring; achieved range "
                f"[{censor_rate(1e12):.4f}, {censor_rate(lo):.4f}]"
            )
    bound = _brentq(lambda b: censor_rate(b) - frac, lo, hi, xtol=1e-10)[0]
    _censor_cache[key] = bound
    return bound


def _brentq(f, xa: float, xb: float, xtol: float) -> tuple[float, int, int]:
    """Root of ``f`` between ``xa`` and ``xb`` by Brent's method.

    A line-for-line port of the C core of ``scipy.optimize.brentq`` at
    its default ``rtol`` (4 eps) and ``maxiter`` (100): the same steps
    give the same float, so calibrated bounds do not depend on which of
    the two ran, and ``simulate`` needs no ``scipy.optimize`` import
    (a third of its start-up). Returns ``(root, iterations,
    function_calls)``.
    """
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    calls = 2
    if fpre == 0:
        return xpre, 0, calls
    if fcur == 0:
        return xcur, 0, calls
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise CalibrationError("f(a) and f(b) must have different signs")
    for iterations in range(1, 101):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        calls += 1
    raise CalibrationError(f"root search did not converge in 100 iterations (last x={xcur})")


def true_rmtld(spec: ScenarioSpec, tau: float = 4.0) -> float:
    """True RMTL difference at ``tau`` from a large uncensored draw.

    Uses the exact identity mu = E[(tau - T)+ for cause-1 failures], so
    a single 10^6-subject evaluation (half per arm) pins the truth to a
    few thousandths. Cached per generating population.
    """
    key = (spec.id, spec.p1, tau)
    if key in _truth_cache:
        return _truth_cache[key]
    mus = []
    for group in (0, 1):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=_TRUTH_SEED, spawn_key=(group,))
        )
        cause, times = _draw_failures(spec, group, _TRUTH_DRAWS, rng)
        lost = np.where((cause == 1) & (times <= tau), tau - times, 0.0)
        mus.append(float(lost.mean()))
    delta = mus[1] - mus[0]
    _truth_cache[key] = delta
    return delta
