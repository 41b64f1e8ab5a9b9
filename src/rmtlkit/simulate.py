"""Monte-Carlo studies of the RMTL-difference test and its comparators.

Three study modes over the built-in scenarios:

* estimation  - fixed restriction time (default 4.0): bias, RMSE,
  relative SE (mean model SE / empirical SD) and CI coverage against a
  cached large-sample truth.
* power       - data-driven restriction time (min-max rule): rejection
  rates of the RMTL-difference test and Gray's test.
* samplesize  - pilot-averaged effect and variances feed the design
  formula; the resulting total sample size is then validated by a
  fresh power run.

The design is fixed: tests run at level ``ALPHA``; a sample-size
validation targets ``TARGET_POWER`` from ``PILOT_REPS`` pilot replicates
per round, re-runs the pilot ``REFINEMENTS`` times, and stops with
``InfeasibleDesignError`` at a design above ``MAX_ARM`` per arm.

Every replicate draws from its own counter-derived substream (numpy
PCG64 seeded by SeedSequence(seed, spawn_key=(phase, index))): per arm,
control first, n cause, then n failure-time, then (when censored) n
censoring uniforms. Results do not depend on the worker count, execution
order or block shape, and every metric carries a Monte-Carlo SE.

This module owns the draws and the restriction-time rule only.
Replicates are tested in blocks of at most ``_BLOCK_ROWS`` rows and
``_BLOCK_CELLS`` subjects by ``inference._rmtld_rows``, the two-arm
kernel that ``rmtld_test`` runs on one row, so every row, tied or not,
equals ``rmtld_test`` and ``gray_test`` on the same subjects bit for
bit, and a degenerate row raises the error they raise. One study call
uses at most one process pool for all of its replicates. The calling
process is one of its ``workers`` processes, at most one per CPU: the
pool holds the others, so ``workers=2`` forks one process.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import scenarios
from .design import DesignInput, sample_size
from .errors import InfeasibleDesignError, InputError, SimulationError
from .inference import _rmtld_rows
from .scenarios import ScenarioSpec, calibrate_censoring, true_rmtld

__all__ = [
    "SimulationReport",
    "run_estimation_study",
    "run_power_study",
    "run_samplesize_validation",
]

RNG_NAME = "numpy-PCG64/SeedSequence"
SCHEMA_VERSION = 1

ALPHA = 0.05
PILOT_REPS = 200
TARGET_POWER = 0.8
REFINEMENTS = 2
# Largest designed arm a validation simulates: B-F designs reach 1,576 per
# arm (F, 45% censoring, 60/60 pilot, seed 5); the null scenario A asks for
# 883,121 or more, and one replicate of that size needs hundreds of megabytes.
MAX_ARM = 100_000

_PHASE_MAIN = 0
_PHASE_PILOT = 1
_PHASE_POWER = 2

# Replicates per array pass: at most _BLOCK_ROWS rows and, above one row,
# at most _BLOCK_CELLS subjects (rows x (n0 + n1)). Rows are computed
# independently, so any block size gives the same bits; larger blocks only
# add peak memory (one row costs about 37 MB per 100,000 subjects). The
# cell budget keeps 32 rows for every B-F design (up to 2,048 per arm)
# and gives one row near MAX_ARM.
_BLOCK_ROWS = 32
_BLOCK_CELLS = 2**17

# A pooled call cuts its replicates into at least this many blocks (reps
# permitting), so its processes, the caller included, finish together and
# hold small blocks (32-row blocks of the designed D 300/300 sample-size
# cell raised their peak RSS by 7-10%).
_POOL_JOBS = 8

# per-replicate outputs of the block kernel; NaN where not computed
_FIELDS = ("tau", "delta", "variance", "var0", "var1", "ci_low", "ci_high", "p", "gray_p")


@dataclass
class SimulationReport:
    """Aggregated study output plus everything needed to reproduce it.

    ``spec`` holds the arm sizes the replicates were drawn at: the
    input's for estimation and power, the designed ones for a
    sample-size validation.
    """

    mode: str
    spec: ScenarioSpec
    reps: int
    seed: int
    metrics: dict = field(default_factory=dict)
    unusable: int = 0
    fixed_tau: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def censor_bounds(self) -> dict:
        return _bounds_for(self.spec)

    def add_metric(self, name: str, value: float, mc_se: float):
        self.metrics[name] = {"value": float(value), "mc_se": float(mc_se)}

    def add_rate(self, name: str, hits: np.ndarray):
        """The share of replicates flagged in ``hits`` with its binomial
        Monte-Carlo SE."""
        rate = float(np.mean(hits))
        self.add_metric(name, rate, math.sqrt(rate * (1.0 - rate) / hits.size))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "scenario": self.spec.id,
            "n0": self.spec.n0,
            "n1": self.spec.n1,
            "censoring_percent": self.spec.censor_target,
            "reps": self.reps,
            "seed": self.seed,
            "rng": RNG_NAME,
            "tau_rule": "min-max" if self.fixed_tau is None else "fixed",
            "fixed_tau": self.fixed_tau,
            "unusable_replicates": self.unusable,
            "censor_bounds": {str(k): v for k, v in self.censor_bounds.items()},
            "metrics": self.metrics,
            **({"extra": self.extra} if self.extra else {}),
        }

    def csv_rows(self) -> list[tuple]:
        """One row per metric, matching the report-table layout."""
        spec = self.spec
        return [
            (spec.id, spec.n0, spec.n1, spec.censor_target, name, e["value"], e["mc_se"])
            for name, e in self.metrics.items()
        ]

    def csv_header_comments(self) -> list[str]:
        bounds = ", ".join(
            f"group{g}={b if b is not None else 'none'}"
            for g, b in sorted(self.censor_bounds.items())
        )
        return [
            f"# mode={self.mode} seed={self.seed} reps={self.reps} rng={RNG_NAME}",
            f"# censor_bounds: {bounds or 'none'}",
        ]


def _rng_for(seed: int, phase: int, index: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(phase, index))
    )


def _replicate_block(
    spec: ScenarioSpec,
    seed: int,
    indices,
    phase: int = _PHASE_MAIN,
    fixed_tau: float | None = None,
) -> dict:
    """Replicates for the substream indices in ``indices``, one row each.

    Row ``r`` draws ``spec.n0``/``spec.n1`` subjects from substream
    ``(phase, indices[r])`` of ``seed`` and tests the RMTL difference at
    ``fixed_tau`` or, without one, at the min-max restriction time.
    Gray's test runs only where a study reads it: at the min-max
    restriction time outside the pilot phase; elsewhere ``gray_p`` is
    NaN. Returns one array per name in ``_FIELDS`` plus the ``unusable``
    mask, which flags rows whose follow-up ends before ``fixed_tau``.
    The test is ``_rmtld_rows``, the kernel ``rmtld_test`` runs on one
    row, so each value equals what ``rmtld_test`` and ``gray_test`` give
    on the same subjects, bit for bit, and a usable degenerate row
    raises the ``DegenerateTestError`` they raise for it. This is the
    only code that computes replicates; ``_map_replicates`` feeds it
    blocks, in this process and on the pool workers of the study call.
    """
    n0, n1 = spec.n0, spec.n1
    gray = fixed_tau is None and phase != _PHASE_PILOT
    rows = len(indices)
    bounds = _bounds_for(spec)
    # one fill per row: arm 0's cause, failure-time and (when censored)
    # censoring planes, then arm 1's, the order generate_group draws them
    planes = [2 if bounds[g] is None else 3 for g in (0, 1)]
    u = np.empty((rows, planes[0] * n0 + planes[1] * n1))
    for r, i in enumerate(indices):
        _rng_for(seed, phase, i).random(out=u[r])
    t = np.empty((rows, n0 + n1))
    e = np.empty((rows, n0 + n1), dtype=np.int64)
    arm0 = u[:, : planes[0] * n0].reshape(rows, planes[0], n0).transpose(1, 0, 2)
    arm1 = u[:, planes[0] * n0 :].reshape(rows, planes[1], n1).transpose(1, 0, 2)
    t[:, :n0], e[:, :n0] = scenarios._observe(spec, 0, arm0, bounds[0])
    t[:, n0:], e[:, n0:] = scenarios._observe(spec, 1, arm1, bounds[1])
    del u, arm0, arm1  # the uniforms die before the kernel allocates

    tau = np.minimum(t[:, :n0].max(axis=1), t[:, n0:].max(axis=1))
    unusable = np.zeros(rows, dtype=bool)
    if fixed_tau is not None:
        unusable = tau < fixed_tau
        tau = np.full(rows, fixed_tau)
    fit = {**_rmtld_rows(t, e, n0, tau, ALPHA, gray, ~unusable), "tau": tau}
    out = {name: np.where(unusable, math.nan, fit[name]) for name in _FIELDS}
    out["unusable"] = unusable
    return out


def _chunk_worker(args):
    """One block of a pool worker's share in ``_map_replicates``;
    ``bench/tracing.py`` swaps it by name to collect the spans of pool
    workers, so the calling process never runs it."""
    return _replicate_block(*args)


def _map_replicates(spec, seed, reps, pool, phase=_PHASE_MAIN, fixed_tau=None) -> dict:
    """Replicates ``0 .. reps-1`` of ``phase`` in blocks of at most
    ``_BLOCK_ROWS`` rows and ``_BLOCK_CELLS`` subjects; rows in index
    order. ``pool`` is None, and this process runs every block, or the
    ``(executor, processes)`` pair of ``_pool``: the blocks are then cut
    into ``processes`` contiguous shares, each pool worker gets one
    share as one work item, and this process runs the first share,
    which holds the lowest indices, so the first degenerate row in
    index order still raises."""
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // (spec.n0 + spec.n1)))
    if pool is not None:
        rows = min(rows, -(-reps // _POOL_JOBS))
    blocks = [range(k, min(k + rows, reps)) for k in range(0, reps, rows)]
    jobs = [(spec, seed, block, phase, fixed_tau) for block in blocks]
    share, theirs = len(jobs), []
    if pool is not None:
        executor, processes = pool
        share = -(-len(jobs) // processes)
        # Executor.map submits every work item before this process starts
        # on its own share
        theirs = executor.map(_chunk_worker, jobs[share:], chunksize=share)
    parts = [_replicate_block(*job) for job in jobs[:share]] + list(theirs)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


@contextmanager
def _pool(spec: ScenarioSpec, workers: int):
    """The one process pool of a study call: yields None when
    ``min(workers, CPUs)`` is 1, else ``(executor, processes)`` with
    ``processes = min(workers, CPUs)`` and an executor of
    ``processes - 1`` workers, because the calling process runs a share
    too. Leaving it waits for every worker. Reports do not depend on
    the worker count."""
    processes = min(workers, os.cpu_count() or 1)
    if processes <= 1:
        yield None
        return
    _bounds_for(spec)  # calibrate here, so forked workers inherit the cached bounds
    with ProcessPoolExecutor(max_workers=processes - 1) as executor:
        yield executor, processes


def _bounds_for(spec: ScenarioSpec) -> dict:
    return {g: calibrate_censoring(spec, spec.censor_target, g) for g in (0, 1)}


def run_estimation_study(
    spec: ScenarioSpec,
    reps: int,
    fixed_tau: float = 4.0,
    seed: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Estimation performance at a fixed restriction time.

    Replicates whose shorter maximum follow-up ends before ``fixed_tau``
    cannot be evaluated there; they are skipped and counted, and the
    study aborts with diagnostics when more than half are lost. Bias is
    measured against the cached large-sample truth; for the null
    scenario A plain bias is reported instead of relative bias.
    """
    if reps < 100:
        raise InputError("reps must be at least 100")
    if not 0 < fixed_tau < math.inf:
        raise InputError(f"fixed_tau must be positive and finite (got {fixed_tau})")
    truth = true_rmtld(spec, tau=fixed_tau)
    with _pool(spec, workers) as pool:
        records = _map_replicates(spec, seed, reps, pool, fixed_tau=fixed_tau)
    usable = ~records["unusable"]
    report = SimulationReport(
        "estimation", spec, reps, seed,
        unusable=int(np.count_nonzero(records["unusable"])),
        fixed_tau=fixed_tau,
        extra={"true_delta": truth},
    )
    if report.unusable > reps / 2:
        raise SimulationError(
            f"{report.unusable}/{reps} replicates end before tau={fixed_tau}; "
            "estimation at this censoring level is not identifiable",
            diagnostics={
                "unusable": report.unusable,
                "reps": reps,
                "fixed_tau": fixed_tau,
                "censor_bounds": report.censor_bounds,
            },
        )
    deltas = records["delta"][usable]
    ses = np.sqrt(records["variance"][usable])
    n_use = deltas.size

    sq_err = (deltas - truth) ** 2
    sd = float(np.std(deltas, ddof=1))
    bias = float(np.mean(deltas) - truth)
    rmse = float(np.sqrt(np.mean(sq_err)))
    rel_se = float(np.mean(ses) / sd)

    se_mean = sd / math.sqrt(n_use)
    report.add_metric("bias", bias, se_mean)
    if spec.id != "A":
        report.add_metric("rel_bias", bias / truth, abs(se_mean / truth))
    rmse_se = float(np.std(sq_err, ddof=1)) / math.sqrt(n_use) / (2.0 * rmse)
    report.add_metric("rmse", rmse, rmse_se)
    rel_se_se = rel_se * math.sqrt(
        np.var(ses, ddof=1) / (n_use * np.mean(ses) ** 2) + 1.0 / (2.0 * (n_use - 1))
    )
    report.add_metric("rel_se", rel_se, rel_se_se)
    report.add_rate(
        "coverage", (records["ci_low"][usable] <= truth) & (truth <= records["ci_high"][usable])
    )
    return report


def run_power_study(
    spec: ScenarioSpec,
    reps: int,
    seed: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Rejection rates of both tests with the min-max restriction rule."""
    if reps < 100:
        raise InputError("reps must be at least 100")
    with _pool(spec, workers) as pool:
        records = _map_replicates(spec, seed, reps, pool)
    report = SimulationReport("power", spec, reps, seed)
    report.add_rate("rejection_rmtld", records["p"] < ALPHA)
    report.add_rate("rejection_gray", records["gray_p"] < ALPHA)
    taus = records["tau"]
    report.add_metric("mean_tau", float(np.mean(taus)),
                      float(np.std(taus, ddof=1)) / math.sqrt(reps))
    return report


def run_samplesize_validation(
    spec: ScenarioSpec,
    seed: int = 0,
    power_reps: int = 2000,
    workers: int = 1,
) -> SimulationReport:
    """Close the design loop: estimate the effect and variances by
    simulation averaging, size the trial, then measure the power
    actually achieved at that size.

    The pilot is re-run at each newly computed size (``REFINEMENTS``
    times) because the data-driven restriction time, and with it the
    effect and variances, shift with the sample size. A design above
    ``MAX_ARM`` subjects in an arm raises ``InfeasibleDesignError``
    before any replicate is drawn at that size.
    """
    if power_reps < 100:
        raise InputError("reps must be at least 100")
    sized = spec
    with _pool(spec, workers) as pool:
        for _ in range(REFINEMENTS + 1):
            pilot = _map_replicates(sized, seed, PILOT_REPS, pool, phase=_PHASE_PILOT)
            inputs = DesignInput(
                delta=float(np.mean(pilot["delta"])),
                sigma0_sq=float(np.mean(sized.n0 * pilot["var0"])),
                sigma1_sq=float(np.mean(sized.n1 * pilot["var1"])),
                ratio=spec.n1 / spec.n0,
                alpha=ALPHA,
                power=TARGET_POWER,
            )
            design = sample_size(inputs)
            if max(design.n0, design.n1) > MAX_ARM:
                se = float(np.std(pilot["delta"], ddof=1)) / math.sqrt(PILOT_REPS)
                raise InfeasibleDesignError(
                    f"designed n0={design.n0}, n1={design.n1} exceed the cap of {MAX_ARM} "
                    f"subjects per arm (pilot delta {inputs.delta:.4g}, MC SE {se:.2g})"
                )
            sized = replace(spec, n0=design.n0, n1=design.n1)

        records = _map_replicates(sized, seed, power_reps, pool, phase=_PHASE_POWER)

    report = SimulationReport(
        "samplesize", sized, power_reps, seed,
        extra={
            "pilot_reps": PILOT_REPS,
            "pilot_delta": inputs.delta,
            "pilot_sigma0_sq": inputs.sigma0_sq,
            "pilot_sigma1_sq": inputs.sigma1_sq,
            "target_power": TARGET_POWER,
        },
    )
    report.add_metric("total_n", design.total, 0.0)
    report.add_rate("power_rmtld", records["p"] < ALPHA)
    report.add_rate("power_gray", records["gray_p"] < ALPHA)
    return report
