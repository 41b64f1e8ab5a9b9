"""The traced benchmark patches rmtlkit functions by module and name,
and the package exports a fixed public list: both must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rmtlkit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr, span", _tracing_targets())
def test_bench_trace_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"rmtlkit.{module}"), attr))


def test_public_names_resolve():
    assert [name for name in rmtlkit.__all__ if not hasattr(rmtlkit, name)] == []
