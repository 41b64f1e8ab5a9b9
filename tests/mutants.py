"""Mutation check of the kernels: how many wrong kernels the tests catch.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py rows-offset ...  # only the named ones

Each mutant is one textual edit to ``src/``. It is applied to a fresh copy
of the whole repository (``pyproject.toml`` puts that copy's ``src`` on
pytest's path, so a ``PYTHONPATH`` pointing at a mutated ``src`` alone would
be ignored), and the kernel tests run there with ``-x``. The unmutated copy
runs first and must pass. Per mutant the script prints ``killed`` with the
first failing test, ``survived``, or ``equivalent`` (a survivor that cannot
change a result, with the reason). It ends with the kill count and exits 1
if a mutant that is not marked equivalent survives, or if an equivalent
one is killed. Pytest does not collect this file.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cheapest first, so that -x stops a killed mutant early
KERNEL_TESTS = [
    "tests/test_data.py",
    "tests/test_row_fsums.py",
    "tests/test_csv_clean.py",
    "tests/test_csv_parity.py",
    "tests/test_draws.py",
    "tests/test_oracle_parity.py",
    "tests/test_golden.py",
    "tests/test_inference.py",
    "tests/test_simulate.py",
    "tests/test_scenarios.py",
    "tests/test_block.py",
]

# (name, file under src/rmtlkit, text, replacement, reason if equivalent)
MUTANTS = [
    (
        "risk-set-after-group", "data.py",
        "at_risk = np.cumsum(size_by_arm[..., ::-1], axis=-1)[..., ::-1]",
        "at_risk = np.cumsum(size_by_arm[..., ::-1], axis=-1)[..., ::-1] - size_by_arm",
        None,
    ),
    (
        "rows-offset", "data.py",
        "order += n * np.arange(rows)[:, None]",
        "order += 0 * np.arange(rows)[:, None]",
        None,
    ),
    (
        "tie-free-threshold", "inference.py",
        "if counts.max(initial=0) <= 1:",
        "if counts.max(initial=0) <= 2:",
        None,
    ),
    (
        "fsums-zero-bound", "inference.py",
        "bound = sigma * (n * n * 2.0**-105) + math.ulp(0.0)",
        "bound = 0.0 * sigma",
        None,
    ),
    (
        "fsums-no-fallback", "inference.py",
        "for i in zip(*np.nonzero(~exact)):",
        "for i in zip(*np.nonzero(~exact & False)):",
        None,
    ),
    (
        "reject-band-zero", "inference.py",
        "_REJECT_BAND = 1e-9",
        "_REJECT_BAND = 0.0",
        None,
    ),
    (
        "seed-word-count", "simulate.py",
        "words = max(4, -(-int(seed).bit_length() // 32)) + 1",
        "words = max(4, -(-int(seed).bit_length() // 32))",
        None,
    ),
    (
        "pool-mix-sign", "simulate.py",
        "value = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32",
        "value = (_MIX_L * pool[dst] + _MIX_R * hashed) & _MASK32",
        None,
    ),
    (
        "segment-ends-at-next-group", "inference.py",
        "np.concatenate((next_event[:, 1:],",
        "np.concatenate((times[:, 1:],",
        None,
    ),
    (
        "gray-g-right", "inference.py",
        "g_left = np.concatenate((np.ones((rows, 1)), g_right[:, :-1]), axis=1)",
        "g_left = g_right",
        None,
    ),
    (
        "clean-reader-takes-inf", "data.py",
        "if not (time.min() >= 0 and time.max() < math.inf):",
        "if not (time.min() >= 0 and time.max() <= math.inf):",
        None,
    ),
    (
        "censoring-strict", "scenarios.py",
        "event = cause * (times <= c)",
        "event = cause * (times < c)",
        None,
    ),
]


def run_tests(copy: Path) -> str | None:
    """The first failing kernel test in ``copy``, or None if all pass."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *KERNEL_TESTS],
        cwd=copy, env=env, capture_output=True, text=True, timeout=900,
    )
    if out.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {out.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".bench_*", ".benchmarks", ".hypothesis",
                                    ".pytest_cache")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        first = run_tests(copy)
        if first is not None:
            print(f"the unmutated copy fails: {first}")
            return 1
        killed = wrong = 0
        for name, file, text, replacement, equivalent in chosen:
            path = copy / "src" / "rmtlkit" / file
            source = path.read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{name}: its text is not found exactly once in {file}")
            path.write_text(source.replace(text, replacement))
            try:
                first = run_tests(copy)
            finally:
                path.write_text(source)
            if first is not None:
                killed += 1
                wrong += equivalent is not None
                print(f"{name:28} killed    {first}", flush=True)
            elif equivalent:
                print(f"{name:28} equivalent: {equivalent}", flush=True)
            else:
                wrong += 1
                print(f"{name:28} SURVIVED", flush=True)
        marked = sum(m[4] is not None for m in chosen)
        print(f"killed {killed} of {len(chosen)} mutants ({marked} marked equivalent)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
