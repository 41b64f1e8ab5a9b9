"""The traced benchmark patches rmtlkit functions by module and name,
and the package exports a fixed public list: both must keep resolving,
and a submodule's ``__all__`` names only what it defines and the
package exports. A traced
study must still count its pool and collect the spans of its pool
workers. The simulation engine's signatures are pinned too, as are the
functions and result fields the benchmark uses."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
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


PUBLIC_NAMES = [
    "CifPair", "DegeneratePilotError", "DegenerateTestError",
    "DesignInput", "DesignResult", "EVENT_CENSORED", "EVENT_COMPETING", "EVENT_INTEREST",
    "EventTable", "ExtrapolationError", "GROUP_CONTROL", "GROUP_TREATMENT", "GrayResult",
    "GroupSample", "InfeasibleDesignError", "InputError", "RmtlEstimate", "RmtldResult",
    "RowError", "SampleSizeError", "ScenarioSpec", "SchemaError", "SimulationError",
    "SimulationReport", "TwoGroupSample", "build_event_table", "calibrate_censoring",
    "cif_pair", "curve_rows", "estimate_sigma_sq", "generate_group", "gray_test",
    "ingest_csv", "integrate_step", "power_at", "rmtl", "rmtld_test",
    "run_estimation_study", "run_power_study", "run_samplesize_validation", "sample_size",
    "scenario", "select_tau", "true_rmtld", "variance_rmtl",
]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rmtlkit.__path__))


def test_public_names_are_pinned():
    # a name leaves or joins the public API only by editing this list
    assert sorted(rmtlkit.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    assert [name for name in rmtlkit.__all__ if not hasattr(rmtlkit, name)] == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_holds_no_reexports(module):
    # a submodule lists only what it defines; the package __all__ gathers them
    mod = importlib.import_module(f"rmtlkit.{module}")
    names = getattr(mod, "__all__", [])
    assert [name for name in names if getattr(mod, name).__module__ != mod.__name__] == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_all_is_exported_by_the_package(module):
    names = getattr(importlib.import_module(f"rmtlkit.{module}"), "__all__", [])
    assert [name for name in names if name not in rmtlkit.__all__] == []


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


# bench/workloads.py calls these by position or keyword and reads these
# result fields, so a rewrite cannot break the benchmark unnoticed.
BENCH_API = {
    "rmtld_test": ["sample0", "sample1", "tau", "alpha"],
    "gray_test": ["sample0", "sample1", "cause"],
    "generate_group": ["spec", "group", "n", "rng"],
    "select_tau": ["sample0", "sample1"],
    "sample_size": ["inp"],
}
BENCH_FIELDS = {
    "RmtldResult": [
        "delta", "variance", "ci_low", "ci_high", "z", "p", "alpha", "tau", "group0", "group1"
    ],
    "RmtlEstimate": ["mu", "variance", "tau", "n"],
    "GrayResult": ["statistic", "p", "cause"],
    "DesignInput": ["delta", "sigma0_sq", "sigma1_sq", "ratio", "alpha", "power"],
}


@pytest.mark.parametrize("name", BENCH_API)
def test_bench_signature_is_pinned(name):
    assert list(inspect.signature(getattr(rmtlkit, name)).parameters) == BENCH_API[name]


@pytest.mark.parametrize("name", BENCH_FIELDS)
def test_bench_result_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(getattr(rmtlkit, name))] == BENCH_FIELDS[name]


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
    # the tracer replaces simulate's pool class and chunk worker by name;
    # two CPUs give the caller and one pool worker on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tracer, spilled = _traced_power_study(monkeypatch, tmp_path, workers=2)
    assert tracer.counts["simulate.pool_starts"] == 1
    assert spilled
    assert {span[1] for span in tracer.spans} - {os.getpid()}
    # the caller runs its share without the chunk worker, whose spills
    # would count its spans twice
    assert [name for name in spilled if name.startswith(f"spans-{os.getpid()}-")] == []


def test_traced_serial_study_spills_nothing(monkeypatch, tmp_path):
    # serial blocks run inside the traced call, so every span nests in it
    tracer, spilled = _traced_power_study(monkeypatch, tmp_path, workers=1)
    assert tracer.counts["simulate.pool_starts"] == 0
    assert spilled == []
    assert {span[1] for span in tracer.spans} == {os.getpid()}
