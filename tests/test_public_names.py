"""The traced benchmark patches rmtlkit functions by module and name,
and the package exports a fixed public list: both must keep resolving,
and a traced study must still count its pool and collect the spans of
its pool workers. The simulation engine's signatures are pinned too."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path

import pytest

import rmtlkit
from rmtlkit.scenarios import scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", _load_tracing().TARGETS)
def test_bench_trace_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"rmtlkit.{module}"), attr))


def test_public_names_resolve():
    assert [name for name in rmtlkit.__all__ if not hasattr(rmtlkit, name)] == []


# The simulation design is fixed, so these take no study constants
# (alpha, pilot scheme, scenario parameters, draw counts), and
# bench/child.py and bench/workloads.py call some of them positionally.
SIMULATION_API = {
    "scenario": ["id", "n0", "n1", "censor_target", "p1"],
    "calibrate_censoring": ["spec", "target", "group"],
    "true_rmtld": ["spec", "tau"],
    "run_estimation_study": ["spec", "reps", "fixed_tau", "seed", "workers"],
    "run_power_study": ["spec", "reps", "seed", "workers"],
    "run_samplesize_validation": ["spec", "seed", "power_reps", "workers"],
}


@pytest.mark.parametrize("name", SIMULATION_API)
def test_simulation_signature_is_pinned(name):
    assert list(inspect.signature(getattr(rmtlkit, name)).parameters) == SIMULATION_API[name]


def test_scenario_spec_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(rmtlkit.ScenarioSpec)]
    assert fields == ["id", "n0", "n1", "censor_target", "p1"]


def _traced_power_study(monkeypatch, tmp_path, workers):
    """Run one small power study under the benchmark's tracer; returns
    the tracer, with worker spans merged, and the spill files it found."""
    tracing = _load_tracing()
    # pool workers unpickle the tracer's chunk worker by module name
    monkeypatch.setitem(sys.modules, "bench_tracing", tracing)
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        rmtlkit.simulate.run_power_study(
            scenario("C", 60, 60, 30), reps=100, seed=1, workers=workers
        )
    finally:
        tracer.uninstall()
    spilled = os.listdir(tmp_path)
    tracer.merge_spills()
    return tracer, spilled


def test_traced_pool_study_counts_its_pool_and_merges_worker_spans(monkeypatch, tmp_path):
    # the tracer replaces simulate's pool class and chunk worker by name
    tracer, spilled = _traced_power_study(monkeypatch, tmp_path, workers=2)
    assert tracer.counts["simulate.pool_starts"] == 1
    assert spilled
    assert {span[1] for span in tracer.spans} - {os.getpid()}


def test_traced_serial_study_spills_nothing(monkeypatch, tmp_path):
    # serial blocks run inside the traced call, so every span nests in it
    tracer, spilled = _traced_power_study(monkeypatch, tmp_path, workers=1)
    assert tracer.counts["simulate.pool_starts"] == 0
    assert spilled == []
    assert {span[1] for span in tracer.spans} == {os.getpid()}
