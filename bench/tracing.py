"""Spans around rmtlkit's public functions, recorded from outside.

``Tracer.install`` replaces every module-level binding of a traced
function, in every loaded ``rmtlkit`` module, with a wrapper that
records a span: (run id, process id, span id, parent span id, name,
start, end, exception name). Nothing under ``src/`` changes; internal
calls are caught because rmtlkit modules call each other through their
module globals. Spans stay in memory and are written out when the run
ends. Pool workers forked by ``rmtlkit.simulate`` write their spans to
a spill directory at the end of each chunk, and the parent merges them.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import uuid
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# (module, attribute, span name): one layer each, named by its module
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_write_curves", "cli.write_curves"),
    ("data", "ingest_single_group_csv", "data.ingest"),
    ("data", "build_event_table", "data.build_event_table"),
    ("estimators", "cif_pair", "estimators.cif_pair"),
    ("estimators", "curve_rows", "estimators.curve_rows"),
    ("stepfun", "integrate_step", "stepfun.integrate_step"),
    ("inference", "rmtld_test", "inference.rmtld_test"),
    ("inference", "variance_rmtl", "inference.variance_rmtl"),
    ("inference", "gray_test", "inference.gray_test"),
    ("scenarios", "generate_group", "scenarios.generate_group"),
    ("scenarios", "calibrate_censoring", "scenarios.calibrate_censoring"),
    ("design", "sample_size", "design.sample_size"),
    ("simulate", "run_power_study", "simulate"),
    ("simulate", "run_samplesize_validation", "simulate"),
)


def _ingested_rows(result):
    if hasattr(result, "control"):
        return result.control.n + result.treatment.n
    return result.n


# span name -> (counter name, value taken from the call's result)
COUNTERS = {
    "data.ingest": ("data.ingest.rows", _ingested_rows),
    "data.build_event_table": ("data.event_times", lambda t: t.n_times),
    "estimators.curve_rows": ("estimators.curve_rows.knots", lambda rows: len(rows) - 1),
}

# the installed tracer and the chunk worker it replaced; a forked pool
# worker inherits both
_installed = {"tracer": None, "chunk_worker": None}


class Tracer:
    def __init__(self, spill_dir: str):
        self.run_id = uuid.uuid4().hex[:12]
        self.spill_dir = spill_dir
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, name, t0, type(exc).__name__)
                raise
            self._close(sid, parent, name, t0, None)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def _close(self, sid, parent, name, t0, error):
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((self.run_id, os.getpid(), sid, parent, name, t0, t1, error))

    def install(self):
        import rmtlkit.simulate as simulate

        modules = [m for k, m in sys.modules.items() if k == "rmtlkit" or k.startswith("rmtlkit.")]
        for mod_name, attr, span in TARGETS:
            original = getattr(sys.modules[f"rmtlkit.{mod_name}"], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

        counts = self.counts

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counts["simulate.pool_starts"] += 1
                super().__init__(*args, **kwargs)

        self._restore.append((simulate, "ProcessPoolExecutor", simulate.ProcessPoolExecutor))
        simulate.ProcessPoolExecutor = CountingPool
        self._restore.append((simulate, "_chunk_worker", simulate._chunk_worker))
        _installed.update(tracer=self, chunk_worker=simulate._chunk_worker)
        simulate._chunk_worker = traced_chunk_worker

    def uninstall(self):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()
        _installed.update(tracer=None, chunk_worker=None)

    def merge_spills(self):
        """Fold in the spans pool workers wrote, and delete their files."""
        for entry in sorted(os.listdir(self.spill_dir)):
            if entry.startswith("spans-"):
                path = os.path.join(self.spill_dir, entry)
                with open(path, encoding="utf-8") as fh:
                    spilled = json.load(fh)
                self.spans += [tuple(s) for s in spilled["spans"]]
                for k, v in spilled["counts"].items():
                    self.counts[k] += v
                os.remove(path)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "counts": dict(self.counts),
                       "fields": ["run_id", "pid", "span_id", "parent_id", "name",
                                  "start", "end", "error"],
                       "spans": self.spans}, fh)


_chunk_ids = itertools.count()


def traced_chunk_worker(job):
    """Stands in for ``rmtlkit.simulate._chunk_worker`` in a pool worker:
    records the chunk's spans apart from those inherited at fork and
    spills them to a file the parent merges."""
    tracer = _installed["tracer"]
    if tracer is None:
        raise RuntimeError("tracing needs pool workers started by fork")
    saved = tracer.spans, tracer._stack, tracer.counts
    tracer.spans, tracer._stack, tracer.counts = [], [], defaultdict(int)
    try:
        return _installed["chunk_worker"](job)
    finally:
        path = os.path.join(tracer.spill_dir, f"spans-{os.getpid()}-{next(_chunk_ids)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        tracer.spans, tracer._stack, tracer.counts = saved


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: each process is sequential)."""
    covered = defaultdict(float)
    for _, pid, _, parent, _, t0, t1, _ in spans:
        if parent:
            covered[(pid, parent)] += t1 - t0
    return [t1 - t0 - covered[(pid, sid)] for _, pid, sid, _, _, t0, t1, _ in spans]
