"""Sweep the replicate engine's block shape over scenarios, sizes and phases.

    python tests/block_sweep.py                 # the engine's own cell budget
    python tests/block_sweep.py --budget 30000  # another budget

The grid is scenarios A-F, 50, 300 and 2,048 subjects per arm (2,048 is
the largest B-F design the block budget was sized for), censoring 0 and
45%, and three phases: power (min-max restriction time with Gray's test),
pilot (min-max, no Gray) and a fixed restriction time of 4. Each cell runs
in a fresh interpreter, as a serial study does: one warm-up
``simulate._map_replicates`` call of ``--reps`` replicates (it calibrates
the censoring), then timed calls of the same shape, then one call under
``tracemalloc``. Per cell it prints the rows of the largest block and
three numbers:

* ``ms_rep``: CPU milliseconds per replicate (median over the timed calls);
* ``faults``: minor page faults per warm block (``resource.getrusage``);
* ``peak_mb``: the largest traced block peak, above what the process held
  when the block started.

A block that leaves more free memory at the top of glibc's heap than its
trim threshold hands it back to the OS, and the next block faults it in
again, so ``faults`` near 0 means warm blocks reuse their heap. Pytest
does not collect this file.
"""

import argparse
import itertools
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rmtlkit import scenario, simulate  # noqa: E402

SCENARIOS = "ABCDEF"
SIZES = (50, 300, 2048)
CENSORING = (0, 45)
PHASES = {
    "power": {"phase": simulate._PHASE_POWER},
    "pilot": {"phase": simulate._PHASE_PILOT},
    "tau4": {"fixed_tau": 4.0},
}
# at least this many timed calls, and more until they take this much CPU
MIN_CALLS, MIN_CPU_S = 3, 1.0


def measure_cell(sid, n, censoring, phase, reps):
    """``(rows, ms_rep, faults, peak_mb)`` of one cell in this process."""
    spec, options = scenario(sid, n, n, censoring), PHASES[phase]
    block, blocks, peaks = simulate._replicate_block, [], []

    def counted(*args, **kwargs):
        blocks.append(len(args[2]))
        if not tracemalloc.is_tracing():
            return block(*args, **kwargs)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = block(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    simulate._replicate_block = counted
    simulate._map_replicates(spec, 1, reps, None, **options)
    blocks.clear()
    cpu, faults = [], 0
    for seed in itertools.count(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.process_time()
        simulate._map_replicates(spec, seed, reps, None, **options)
        cpu.append(time.process_time() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        if len(cpu) >= MIN_CALLS and sum(cpu) >= MIN_CPU_S:
            break
    rows, per_block = max(blocks), faults / len(blocks)
    tracemalloc.start()
    try:
        simulate._map_replicates(spec, seed + 1, reps, None, **options)
    finally:
        tracemalloc.stop()
    return rows, 1e3 * statistics.median(cpu) / reps, per_block, max(peaks) / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=int, help="cells per block (default: the engine's)")
    parser.add_argument("--reps", type=int, default=100, help="replicates per call")
    parser.add_argument("--cell", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.budget is not None:
        simulate._BLOCK_CELLS = args.budget
    if args.cell:
        sid, n, censoring, phase = args.cell
        print(*measure_cell(sid, int(n), int(censoring), phase, args.reps))
        return 0
    print(f"budget {simulate._BLOCK_CELLS} cells, {args.reps} replicates per call")
    print(f"{'cell':<18}{'rows':>5}{'ms_rep':>9}{'faults':>9}{'peak_mb':>9}")
    extra = ["--reps", str(args.reps)]
    if args.budget is not None:
        extra += ["--budget", str(args.budget)]
    worst = [0.0, 0.0]
    for sid, n, censoring, phase in itertools.product(SCENARIOS, SIZES, CENSORING, PHASES):
        cell = [sid, str(n), str(censoring), phase]
        out = subprocess.run(
            [sys.executable, __file__, "--cell", *cell, *extra],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        rows, ms_rep, faults, peak_mb = int(out[0]), *map(float, out[1:])
        worst = [max(worst[0], faults), max(worst[1], peak_mb)]
        line = f"{' '.join(cell):<18}{rows:>5}{ms_rep:>9.3f}{faults:>9.1f}{peak_mb:>9.2f}"
        print(line, flush=True)
    print(f"most faults per warm block {worst[0]:.1f}; largest block peak {worst[1]:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
