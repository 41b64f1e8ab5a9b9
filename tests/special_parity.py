"""Compare the Cephes port in ``rmtlkit.inference`` with ``scipy.special``
on random float64 bit patterns, bit for bit.

    python tests/special_parity.py --points 10000000 --seed 1

``_ndtr``, ``_ndtri``, ``_chdtrc1`` and the helpers ``_erf``, ``_erfc`` and
``_expm1`` (on [-0.5, 0.5], the range it is ported for) must return the
bits of the scipy functions of the same names (``chdtrc(1, .)`` for
``_chdtrc1``); any NaN matches any NaN.

The points are split evenly over the branches in ``BRANCHES`` and over
one branch per function but ``_expm1`` that draws from all 2^64 bit
patterns (NaNs, infinities and negatives included). A branch draws bit
patterns uniformly between those of its two ends, so every binade in its
range is hit about equally. The run stops at the first mismatch, prints
it and exits 1; otherwise it prints the points per branch. Pytest does
not collect this file; ``tests/test_special.py`` runs the same draws at
a small size.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy.special as sp  # noqa: E402

from rmtlkit.inference import _chdtrc1, _erf, _erfc, _expm1, _ndtr, _ndtri  # noqa: E402

FUNCTIONS = {
    "erf": (_erf, sp.erf),
    "erfc": (_erfc, sp.erfc),
    "ndtr": (_ndtr, sp.ndtr),
    "ndtri": (_ndtri, sp.ndtri),
    "chdtrc1": (_chdtrc1, lambda x: sp.chdtrc(1, x)),
    "expm1": (_expm1, sp.expm1),
}

_EXPM2 = 0.13533528323661269189
_EXPM32 = math.exp(-32.0)

# (function, branch): (low, high, both signs). Edges are where Cephes
# switches, slightly overlapped: ndtr's erf, 1 - erf, erfc P/Q, erfc R/S
# and underflow; ndtri's centre and its tails above and below exp(-32) (the
# upper tails mirrored through 1 - y); igamc(0.5, x / 2)'s series with the
# log and the Lanczos prefactor, the DLMF 8.7.3 series, the continued
# fraction and its underflow; expm1's rational form.
BRANCHES = {
    ("ndtr", "erf"): (0.0, 1.0, True),
    ("ndtr", "1-erf"): (0.99, 1.5, True),
    ("ndtr", "erfc-pq"): (1.4, 11.4, True),
    ("ndtr", "erfc-rs"): (11.3, 38.0, True),
    ("ndtr", "underflow"): (37.0, math.inf, True),
    ("ndtri", "centre"): (_EXPM2 * 0.99, 1.0 - _EXPM2 * 0.99, False),
    ("ndtri", "tail"): (_EXPM32 * 0.99, _EXPM2 * 1.01, False),
    ("ndtri", "far-tail"): (0.0, _EXPM32 * 1.01, False),
    ("ndtri", "upper-tail"): (1.0 - _EXPM2 * 1.01, 1.0, False),
    ("ndtri", "upper-far-tail"): (1.0 - _EXPM32 * 1.01, 1.0, False),
    ("chdtrc1", "series-log"): (0.0, 0.61, False),
    ("chdtrc1", "series-lanczos"): (0.59, 0.9, False),
    ("chdtrc1", "dlmf-8.7.3"): (0.89, 2.21, False),
    ("chdtrc1", "continued-fraction"): (2.19, 1500.0, False),
    ("chdtrc1", "underflow"): (1400.0, math.inf, False),
    ("expm1", "rational"): (0.0, 0.5, True),
}


def draw(rng, low: float, high: float, signed: bool, n: int) -> np.ndarray:
    """``n`` floats whose bit patterns are uniform between those of
    ``low`` and ``high`` (0 <= low < high), with a random sign if
    ``signed``."""
    lo, hi = np.array([low, high]).view(np.int64)
    x = rng.integers(lo, hi, n, endpoint=True).view(np.float64)
    if signed:
        x = np.where(rng.random(n) < 0.5, -x, x)
    return x


def any_bits(rng, n: int) -> np.ndarray:
    """``n`` uniformly random 64-bit patterns as floats."""
    return rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)


def mismatches(name: str, x: np.ndarray) -> np.ndarray:
    """The points of ``x`` where the port and scipy differ in any bit
    (NaN matches NaN)."""
    port, ref = FUNCTIONS[name]
    got = np.fromiter(map(port, x.tolist()), np.float64, len(x))
    with np.errstate(all="ignore"):
        want = np.asarray(ref(x), dtype=np.float64)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    return x[~same]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    jobs = [(key, lambda n, b=bounds: draw(rng, *b, n)) for key, bounds in BRANCHES.items()]
    jobs += [((name, "any-bits"), lambda n: any_bits(rng, n))
             for name in FUNCTIONS if name != "expm1"]
    per_job = -(-args.points // len(jobs))
    chunk = 100_000
    for (name, branch), sample in jobs:
        done = 0
        while done < per_job:
            x = sample(min(chunk, per_job - done))
            bad = mismatches(name, x)
            if bad.size:
                port, ref = FUNCTIONS[name]
                v = float(bad[0])
                print(f"MISMATCH {name} {branch}: x={v!r} port={port(v)!r} "
                      f"scipy={float(ref(np.float64(v)))!r}")
                return 1
            done += len(x)
        print(f"{name:8s} {branch:20s} {done} points")
    print(f"ok: {per_job * len(jobs)} points, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
