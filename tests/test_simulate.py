import json
import math
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rmtlkit import SimulationError, inference, simulate
from rmtlkit.design import DesignInput, sample_size
from rmtlkit.scenarios import calibrate_censoring, scenario
from rmtlkit.simulate import (
    _map_replicates,
    _replicate_block,
    run_estimation_study,
    run_power_study,
    run_samplesize_validation,
)


def test_estimation_report_shape():
    spec = scenario("A", 300, 300, 0)
    rep = run_estimation_study(spec, reps=150, seed=5)
    assert rep.mode == "estimation"
    assert set(rep.metrics) == {"bias", "rmse", "rel_se", "coverage"}
    for entry in rep.metrics.values():
        assert entry["mc_se"] >= 0.0
    assert rep.unusable <= 0.1 * 150
    assert "true_delta" in rep.extra
    assert rep.to_json_dict()["tau_rule"] == "fixed"
    assert rep.metrics["rmse"]["value"] >= abs(rep.metrics["bias"]["value"])
    # scenario A reports plain bias, others add relative bias
    rep_b = run_estimation_study(scenario("B", 300, 300, 0), reps=150, seed=5)
    assert "rel_bias" in rep_b.metrics
    assert rep_b.metrics["rmse"]["value"] >= abs(rep_b.metrics["bias"]["value"])


def test_estimation_determinism():
    spec = scenario("B", 300, 300, 15)
    a = run_estimation_study(spec, reps=120, seed=77)
    b = run_estimation_study(spec, reps=120, seed=77)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    c = run_estimation_study(spec, reps=120, seed=78)
    assert json.dumps(c.to_json_dict(), sort_keys=True) != json.dumps(
        a.to_json_dict(), sort_keys=True
    )


def test_estimation_worker_count_invariance():
    spec = scenario("A", 100, 100, 0)
    serial = run_estimation_study(spec, reps=120, seed=3, workers=1)
    parallel = run_estimation_study(spec, reps=120, seed=3, workers=2)
    assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
        parallel.to_json_dict(), sort_keys=True
    )


# one small call of each study at a given worker count
STUDIES = {
    "estimation": lambda workers: run_estimation_study(
        scenario("B", 60, 60, 0), reps=100, seed=3, workers=workers
    ),
    "power": lambda workers: run_power_study(
        scenario("D", 60, 60, 30), reps=100, seed=3, workers=workers
    ),
    "samplesize": lambda workers: run_samplesize_validation(
        scenario("E", 60, 60, 15), seed=3, power_reps=100, workers=workers
    ),
}


@pytest.mark.parametrize("study", STUDIES)
def test_one_pool_per_study_and_worker_count_invariance(monkeypatch, study):
    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    serial = STUDIES[study](1)
    assert starts == []
    parallel = STUDIES[study](2)
    # the pool is capped at the CPU count, as in simulate._pool
    assert starts == [{"max_workers": min(2, os.cpu_count() or 1)}]
    assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
        parallel.to_json_dict(), sort_keys=True
    )


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    # a fake pool that records its arguments and maps in this process,
    # so the huge worker count never reaches a real pool
    starts = []

    class InProcessPool:
        def __init__(self, **kwargs):
            starts.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessPool)
    capped = STUDIES["power"](10**6)
    assert starts == [{"max_workers": os.cpu_count()}]
    assert json.dumps(capped.to_json_dict(), sort_keys=True) == json.dumps(
        STUDIES["power"](1).to_json_dict(), sort_keys=True
    )


def test_estimation_aborts_when_tau_unreachable():
    # at 45% censoring the uniform bound sits below 4, so no replicate
    # can be evaluated at the fixed horizon
    spec = scenario("A", 100, 100, 45)
    with pytest.raises(SimulationError) as exc:
        run_estimation_study(spec, reps=100, fixed_tau=4.0, seed=1)
    assert exc.value.diagnostics["unusable"] > 50


def test_estimation_rejects_tiny_reps():
    with pytest.raises(ValueError):
        run_estimation_study(scenario("A", 100, 100, 0), reps=10, seed=1)


def test_power_report_shape():
    spec = scenario("A", 100, 100, 0)
    rep = run_power_study(spec, reps=150, seed=2)
    assert rep.mode == "power"
    assert set(rep.metrics) == {"rejection_rmtld", "rejection_gray", "mean_tau"}
    assert 0.0 <= rep.metrics["rejection_rmtld"]["value"] <= 1.0
    for name in ("rejection_rmtld", "rejection_gray"):
        # a share of the 150 replicates, with its binomial MC SE
        rate = rep.metrics[name]["value"]
        assert rep.metrics[name]["mc_se"] == math.sqrt(rate * (1.0 - rate) / 150)
    rows = rep.csv_rows()
    assert rows[0][0] == "A"
    assert any(r[4] == "rejection_gray" for r in rows)


def test_power_determinism():
    spec = scenario("D", 80, 80, 0)
    a = run_power_study(spec, reps=120, seed=11)
    b = run_power_study(spec, reps=120, seed=11)
    assert a.to_json_dict() == b.to_json_dict()


def test_power_censor_bounds_echoed():
    # every study echoes its spec and the spec's calibrated bounds in the
    # JSON and the CSV comment line; a sample-size report records the
    # designed sizes, the others the spec's
    studies = {
        "estimation": (
            scenario("B", 80, 80, 30),
            lambda spec: run_estimation_study(spec, reps=100, fixed_tau=1.0, seed=4),
        ),
        "power": (scenario("A", 80, 80, 30), lambda spec: run_power_study(spec, reps=120, seed=4)),
        "samplesize": (
            scenario("E", 60, 60, 15),
            lambda spec: run_samplesize_validation(spec, seed=3, power_reps=100),
        ),
    }
    for study, (spec, run) in studies.items():
        rep = run(spec)
        bounds = [calibrate_censoring(spec, spec.censor_target, g) for g in (0, 1)]
        assert None not in bounds
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["scenario"] == spec.id
        assert payload["censoring_percent"] == spec.censor_target
        assert payload["censor_bounds"] == {"0": bounds[0], "1": bounds[1]}
        assert rep.csv_header_comments()[1] == (
            f"# censor_bounds: group0={bounds[0]}, group1={bounds[1]}"
        )
        sizes = (payload["n0"], payload["n1"])
        assert rep.csv_rows()[0][:4] == (spec.id, *sizes, spec.censor_target)
        if study == "samplesize":
            designed = sample_size(DesignInput(
                delta=rep.extra["pilot_delta"],
                sigma0_sq=rep.extra["pilot_sigma0_sq"],
                sigma1_sq=rep.extra["pilot_sigma1_sq"],
                power=rep.extra["target_power"],
            ))
            assert sizes == (designed.n0, designed.n1) != (spec.n0, spec.n1)
            assert payload["metrics"]["total_n"]["value"] == designed.total
        else:
            assert sizes == (spec.n0, spec.n1)
        if study == "power":
            # same arm distribution, so the two calibrated bounds agree up
            # to the Monte-Carlo noise of the calibration draws
            assert bounds[0] == pytest.approx(bounds[1], rel=0.05)


def test_samplesize_validation_runs():
    spec = scenario("C", 150, 150, 0)
    rep = run_samplesize_validation(spec, seed=9, power_reps=200)
    assert rep.mode == "samplesize"
    assert rep.metrics["total_n"]["value"] >= 4
    assert 0.0 <= rep.metrics["power_rmtld"]["value"] <= 1.0
    assert rep.extra["pilot_delta"] < 0
    assert rep.spec.n0 == rep.spec.n1  # ratio 1 preserved


def test_report_json_roundtrip():
    spec = scenario("A", 80, 80, 0)
    rep = run_power_study(spec, reps=120, seed=6)
    payload = rep.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["rng"] == "numpy-PCG64/SeedSequence"
    assert payload["tau_rule"] == "min-max" and payload["fixed_tau"] is None
    text = json.dumps(payload)
    assert json.loads(text) == payload


def test_null_calibration_with_heavy_censoring():
    # the test keeps its size under censoring, where the restriction
    # time shrinks to the calibrated bound
    rep = run_power_study(scenario("A", 300, 300, 45), reps=600, seed=31)
    rate = rep.metrics["rejection_rmtld"]["value"]
    assert 0.02 <= rate <= 0.085
    assert rep.metrics["mean_tau"]["value"] < 4.0


def test_samplesize_reproduces_consistent_cell():
    # scenario E at 15% censoring: designed N lands within 10% of the
    # reference 438 and delivers roughly the 80% target
    rep = run_samplesize_validation(
        scenario("E", 300, 300, 15), seed=606, power_reps=1000
    )
    n = rep.metrics["total_n"]["value"]
    p = rep.metrics["power_rmtld"]["value"]
    assert 438 * 0.9 <= n <= 438 * 1.1
    assert 0.72 <= p <= 0.88


def test_model_se_tracks_empirical_se():
    # scenario A, uncensored, fixed tau: mean model SE over the
    # empirical SD of the estimates stays near 1
    rep = run_estimation_study(scenario("A", 500, 500, 0), reps=2000, seed=909)
    assert 0.95 <= rep.metrics["rel_se"]["value"] <= 1.05
    assert 0.94 <= rep.metrics["coverage"]["value"] <= 0.96


def test_error_shrinks_with_sample_size():
    # mean absolute estimation error decreases in n (fixed tau, no censoring)
    spec_ns = [300, 1000, 3000]
    truth = None
    means = []
    for n in spec_ns:
        spec = scenario("B", n, n, 0)
        if truth is None:
            from rmtlkit import true_rmtld

            truth = true_rmtld(spec)
        rows = _map_replicates(spec, 55, 150, None, fixed_tau=4.0)
        means.append(np.mean(np.abs(rows["delta"][~rows["unusable"]] - truth)))
    assert means[0] > means[1] > means[2]


# warm blocks of the sim-power cell and of the D 511/511 design that the
# sim-samplesize benchmark reaches, in the shapes its 2-worker pool runs:
# 25-row pilot blocks without Gray and 13-row power blocks with Gray
PEAK_BLOCKS = {
    "C-300-power": (scenario("C", 300, 300, 30), 32, {}),
    "D-511-pilot": (scenario("D", 511, 511, 15), 25, {"phase": simulate._PHASE_PILOT}),
    "D-511-power": (scenario("D", 511, 511, 15), 13, {"phase": simulate._PHASE_POWER}),
}


@pytest.mark.parametrize("cell", PEAK_BLOCKS)
def test_block_peak_memory(cell):
    # a warm block peaks below the 3.2 MB trim threshold that calibration's
    # freed arrays leave glibc with (the C block took 6.45 MB before Gray's
    # test ran in slices), so warm blocks reuse their heap instead of
    # faulting it in again
    spec, rows, options = PEAK_BLOCKS[cell]
    _replicate_block(spec, 1, range(rows), **options)
    tracemalloc.start()
    try:
        _replicate_block(spec, 2, range(rows), **options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2e6


@pytest.mark.parametrize("cell", ["C-300-power", "D-511-pilot"])
def test_few_row_sums_fall_back_to_math_fsum(cell, monkeypatch):
    # a certificate that never holds would give the same bits at the old
    # cost; only a few rows may need math.fsum
    counts = {"rows": 0, "fsum": 0}
    real_sums, real_fsum = inference._row_fsums, math.fsum

    def counting_sums(values, mask):
        counts["rows"] += math.prod(values.shape[:-1])
        return real_sums(values, mask)

    def counting_fsum(entries):
        counts["fsum"] += 1
        return real_fsum(entries)

    monkeypatch.setattr(inference, "_row_fsums", counting_sums)
    monkeypatch.setattr(math, "fsum", counting_fsum)
    spec, rows, options = PEAK_BLOCKS[cell]
    _replicate_block(spec, 7, range(rows), **options)
    assert counts["rows"] >= 6 * rows
    assert counts["fsum"] < 0.05 * counts["rows"]


def test_block_rows_follow_the_cell_budget(monkeypatch):
    # near MAX_ARM a block holds one row; B-F designs (up to 1,576 per arm)
    # keep 32-row blocks. The blocks are recorded, not drawn.
    blocks = []

    def record(spec, seed, indices, phase, fixed_tau):
        blocks.append(len(indices))
        return {"delta": np.zeros(len(indices))}

    monkeypatch.setattr(simulate, "_replicate_block", record)
    for n, rows in ((50_000, [1, 1, 1]), (1_576, [32, 8]), (300, [32, 8])):
        blocks.clear()
        reps = sum(rows)
        out = _map_replicates(scenario("D", n, n, 15), 0, reps, None, phase=2)
        assert blocks == rows and out["delta"].size == reps
