"""Command-line interface.

Three subcommands:

* ``analyze``     - per-group RMTL, the between-group difference test,
  and Gray's test on a subject-level CSV; optional curve and JSON output.
* ``samplesize``  - group sizes from an effect size and variances
  (given directly or estimated from pilot CSVs).
* ``simulate``    - run one simulation-study cell and write its report.

Exit codes: 0 success, 1 an internal error (with its traceback),
2 invalid input, an unreadable input file or an unwritable output
path, 3 statistical degeneracy or an infeasible design (a simulated
design above the arm-size cap included), 4 a simulation study that
cannot be completed (most estimation replicates end before tau).
Human-readable output and JSON carry the same numbers; JSON keeps full
precision.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import hashlib
import json
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import GroupSample, ingest_single_group_csv, select_tau
from .design import DesignInput, estimate_sigma_sq, power_at, sample_size
from .errors import (
    DegenerateTestError,
    ExtrapolationError,
    InputError,
    SimulationError,
)
from .estimators import cif_pair
from .inference import gray_test, rmtl, rmtld_test
from .scenarios import CENSOR_TARGETS, SCENARIO_IDS, scenario
from .simulate import (
    SCHEMA_VERSION,
    run_estimation_study,
    run_power_study,
    run_samplesize_validation,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_SIMULATION = 4

# curve-file rows rendered per write: 4,096 values, whose formatter
# temporaries (under 1 MB) stay below the peak of the analysis before them
_CURVE_SLICE = 1 << 10
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, args: dict, inputs: list, seed=None) -> dict:
    plain = {
        k: v
        for k, v in args.items()
        if k != "func" and isinstance(v, (str, int, float, bool, type(None)))
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "arguments": {k: v for k, v in plain.items() if v is not None},
        "seed": seed,
        "tool_version": __version__,
        "input_digests": {str(p): _digest(p) for p in inputs},
    }


def _fmt_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_outputs(*paths):
    """Fail before any work unless each file to be written has an existing
    directory as parent and is not a directory itself; a refused write
    still fails when it happens."""
    for path in filter(None, paths):
        if not stat.S_ISDIR(os.stat(Path(path).parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
        if os.path.isdir(path) or str(path).endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _file_path(path) -> Path:
    """``path``, from which output file names are derived, as a ``Path``;
    ``/`` and ``.`` have no file name and are refused as directories."""
    path = Path(path)
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


def _parse_code_map(text, what):
    """'10,1,2' -> {'10': 0, '1': 1, '2': 2} for events (censored,
    interest, competing) or {'a': 0, 'b': 1} for groups."""
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    expected = 3 if what == "event" else 2
    if len(parts) != expected:
        raise InputError(
            f"--{what}-codes expects {expected} comma-separated codes (got {text!r})"
        )
    return {p: i for i, p in enumerate(parts)}


def _curve_path(base, group: int) -> Path:
    base = _file_path(base)
    return base.with_name(f"{base.stem}_group{group}{base.suffix or '.csv'}")


@functools.cache
def _text_tables():
    """``_curve_text``'s tables, built on first use: Schubfach's g =
    floor(10^e / 2^r) + 1 in [2^125, 2^126), e = -k = 0..20, as the 32-bit
    limbs of g >> 63 and g mod 2^63; 10^0..10^18; 0000..9999 as ASCII
    words; the mask of bytes [start, stop) of a cell at start * 40 + stop."""
    g = [(10**e << 125 - (e * 913124641741 >> 38)) + 1 for e in range(21)]
    limbs = np.array(
        [[x >> 95, x >> 63 & _M32, x >> 32 & _M32 >> 1, x & _M32] for x in g], np.uint64
    ).T
    p10 = 10 ** np.arange(19, dtype=np.int64)
    words = np.frombuffer("".join(map("{:04}".format, range(10_000))).encode(), "<u4")
    col = np.arange(40)
    keep_run = (col >= col[:, None, None]) & (col < col[:, None])
    return limbs, p10, words, keep_run.reshape(-1, 40)


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), from 32-bit limbs."""
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)


def _rop(g, cp):
    """floor(g cp / 2^127), rounded to odd: its last bit is set if any
    bit below was (Schubfach's ``rop``)."""
    g11, g10, g01, g00 = g
    c1, c0 = cp >> 32, cp & _M32
    z = ((g11 << 32 | g10) * cp >> 1) + _mulhi(g01, g00, c1, c0)
    return _mulhi(g11, g10, c1, c0) + (z >> 63) | ((z & _M63) != 0)


def _shortest(x, limbs):
    """Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
    for ``x`` in [2^-14, 2^54), the d and k in [-20, 0] of the shortest
    d 10^k that rounds to x, nearest x, with an even d on a tie: ``repr``'s
    digits, and Ryu's (U. Adams, PLDI 2018). d may end in zeros."""
    bits = x.view(np.uint64)
    c = bits & (1 << 52) - 1
    regular = c != 0  # x is not a power of two, so its interval is symmetric
    c |= 1 << 52
    q = (bits >> 52).view(np.int64) - 1075
    # floor(log10 of 2^q, or of 3/4 2^q when x is a power of two)
    k = q * 661971961083 - 274743187321 * ~regular >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).view(np.uint64)
    out, cb = c & 1, c << 2  # the interval excludes its ends when c is odd
    # 4 x 10^-k and the ends of x's rounding interval, one row each
    v = _rop(limbs[:, -k], np.stack((cb, cb - 1 - regular, cb + 2)) << h)
    vb, vbl, vbr = v[0], v[1] + out, v[2] - out
    s = vb >> 2
    sp = s // 10 * 10  # the candidates one digit shorter: sp and sp + 10
    upin, wpin = vbl <= sp << 2, sp + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = s << 2 | 2
    pick_s = np.where(uin != win, uin, (vb < mid) | (vb == mid) & ((s & 1) == 0))
    d = np.where(upin != wpin, np.where(upin, sp, sp + 10), s + ~pick_s)
    return d.view(np.int64), k


def _curve_text(block) -> bytes:
    """The rows of a float64 ``block`` as curve-file text: each value its
    ``repr``, a comma between values and CR LF after each row.

    Values in [1e-4, 1e16) and +0.0, which ``repr`` writes positionally,
    get a 40-byte cell in numpy: 16 integer digits, the point and 20
    fraction digits from 4-digit ASCII words, then the separator after the
    last fraction digit; one boolean compaction keeps each cell's text.
    Any other value (negative, -0.0, below 1e-4, from 1e16, not finite)
    is written by ``repr`` into its cell."""
    limbs, p10, words, keep_run = _text_tables()
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    fast = (x >= 1e-4) & (x < 1e16) | (x.view(np.uint64) == 0)
    y = np.where(fast, x, 0.0)
    d, k = _shortest(np.where(y > 0, y, 2.0**53), limbs)  # k = 0 at 2^53
    d[y == 0] = 0
    whole = y.astype(np.int64)
    frac = d - whole * p10[np.minimum(-k, 18)]  # the -k digits after the point
    lead = np.maximum(-k - 3, 0)
    top = frac // p10[lead]
    rest = (frac - top * p10[lead]) * p10[np.minimum(20 + k, 17)]
    top *= p10[np.maximum(3 + k, 0)]
    for p in (16, 8, 4, 2, 1):  # trailing zeros of d
        cut = d // p10[p]
        exact = cut * p10[p] == d
        d = np.where(exact, cut, d)
        k += p * exact
    # a cell keeps [16 - integer digits, 17 + fraction digits] and its separator
    start = 16 - np.maximum(np.searchsorted(p10, whole, "right"), 1)
    ends = 17 + np.maximum(-k, 1)
    cells = np.empty((x.size, 40), np.uint8)
    cell_words = cells.view("<u4")
    high, tens, upper = whole // 10**8, rest // 10, rest // 10**9
    parts = ((0, high), (2, whole - high * 10**8), (5, upper), (7, tens - upper * 10**8))
    for i, part in parts:
        quarter = part // 10**4
        cell_words[:, i] = words[quarter]
        cell_words[:, i + 1] = words[part - quarter * 10**4]
    cell_words[:, 4] = words[top] & 0xFFFFFF00 | ord(".")
    cells[:, 36] = rest - tens * 10 + ord("0")
    for i in np.flatnonzero(~fast).tolist():
        text = repr(float(x[i])).encode()
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
        start[i], ends[i] = 0, len(text)
    flat = cells.reshape(-1)
    ends += np.arange(0, flat.size, 40)
    flat[ends] = ord(",")
    flat[ends[3::4]] = ord("\r")
    flat[ends[3::4] + 1] = ord("\n")
    ends -= np.arange(0, flat.size, 40) - 1
    ends[3::4] += 1
    return flat[keep_run[start * 40 + ends].reshape(-1)].tobytes()


def _write_curves(base, samples):
    """Write one curve file per sample and return their paths: the header
    ``time,survival,cif1,cif2``, a t=0 row, then one row per event time of
    ``cif_pair``, each value its ``repr`` and each line ended by CR LF
    (``csv.writer``'s bytes for ``estimators.curve_rows``). ``_curve_text``
    renders it in slices of ``_CURVE_SLICE`` rows, so its memory does not
    grow with the file."""
    written = []
    for sample in samples:
        path = _curve_path(base, sample.group)
        pair = cif_pair(sample)
        columns = (pair.table.times, pair.survival, pair.cif1, pair.cif2)
        with open(path, "wb") as fh:
            fh.write(b"time,survival,cif1,cif2\r\n0.0,1.0,0.0,0.0\r\n")
            for start in range(0, pair.table.n_times, _CURVE_SLICE):
                rows = np.column_stack([c[start:start + _CURVE_SLICE] for c in columns])
                fh.write(_curve_text(rows))
        written.append(path)
    return written


def cmd_analyze(args) -> int:
    if not 0 < args.alpha < 1:  # one-arm files never reach rmtld_test's check
        raise InputError(f"alpha must lie in (0, 1) (got {args.alpha})")
    curves = [_curve_path(args.curves, group) for group in (0, 1)] if args.curves else []
    _check_outputs(*curves, args.json)
    data = ingest_single_group_csv(
        args.csv,
        time_col=args.time_col,
        event_col=args.event_col,
        group_col=args.group_col,
        event_codes=_parse_code_map(args.event_codes, "event"),
        group_codes=_parse_code_map(args.group_codes, "group"),
    )
    manifest = _manifest("analyze", vars(args), [args.csv])

    if isinstance(data, GroupSample):
        samples = [data]
        tau = args.tau if args.tau is not None else data.max_followup
        est = rmtl(data, tau)
        print(f"tau = {tau:.6g} ({'user-specified' if args.tau is not None else 'maximum follow-up'})")
        print(f"group {data.group}: n = {data.n}, RMTL = {est.mu:.4f} (SE {est.se:.4f})")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "single-group",
            "tau": tau,
            "group": data.group,
            "rmtl": est.to_dict(),
            "manifest": manifest,
        }
    else:
        samples = [data.control, data.treatment]
        tau = args.tau if args.tau is not None else select_tau(data.control, data.treatment)
        rule = "user-specified" if args.tau is not None else "min-max rule"
        result = rmtld_test(data.control, data.treatment, tau, alpha=args.alpha)
        gray = gray_test(data.control, data.treatment, cause=1)

        print(f"tau = {tau:.6g} ({rule})")
        print(f"group 0 (control):   n = {data.control.n}, RMTL = "
              f"{result.group0.mu:.4f} (SE {result.group0.se:.4f})")
        print(f"group 1 (treatment): n = {data.treatment.n}, RMTL = "
              f"{result.group1.mu:.4f} (SE {result.group1.se:.4f})")
        print(f"RMTL difference = {result.delta:.4f}  "
              f"{100 * (1 - result.alpha):.0f}% CI ({result.ci_low:.4f}, {result.ci_high:.4f})")
        print(f"z = {result.z:.4f}  p = {_fmt_p(result.p)}")
        print(f"Gray test (cause 1): chi2 = {gray.statistic:.4f}  p = {_fmt_p(gray.p)}")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "two-group",
            "rmtld": result.to_dict(),
            "gray": gray.to_dict(),
            "manifest": manifest,
        }

    if args.curves:
        _write_curves(args.curves, samples)
    if args.json:
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_samplesize(args) -> int:
    _check_outputs(args.json)
    direct = args.sigma0_sq is not None or args.sigma1_sq is not None
    piloted = args.pilot0 is not None or args.pilot1 is not None
    if direct and piloted:
        raise InputError("supply either --sigma0-sq/--sigma1-sq or pilot CSVs, not both")
    if direct:
        if args.sigma0_sq is None or args.sigma1_sq is None:
            raise InputError("--sigma0-sq and --sigma1-sq must be given together")
        if args.delta is None:
            raise InputError("--delta is required with direct variances")
        delta = args.delta
        sigma0_sq, sigma1_sq = args.sigma0_sq, args.sigma1_sq
        inputs = []
    elif piloted:
        if args.pilot0 is None or args.pilot1 is None:
            raise InputError("--pilot0 and --pilot1 must be given together")
        if args.tau is None:
            raise InputError("--tau is required with pilot CSVs")
        pilot0 = ingest_single_group_csv(
            args.pilot0, time_col=args.time_col, event_col=args.event_col, group_col=None
        )
        pilot1 = ingest_single_group_csv(
            args.pilot1, time_col=args.time_col, event_col=args.event_col, group_col=None
        )
        sigma0_sq = estimate_sigma_sq(pilot0, args.tau)
        sigma1_sq = estimate_sigma_sq(pilot1, args.tau)
        if args.delta is not None:
            delta = args.delta
        else:
            delta = rmtld_test(pilot0, pilot1, args.tau).delta
        inputs = [args.pilot0, args.pilot1]
    else:
        raise InputError("supply --sigma0-sq/--sigma1-sq or --pilot0/--pilot1")

    design_inp = DesignInput(
        delta=delta,
        sigma0_sq=sigma0_sq,
        sigma1_sq=sigma1_sq,
        ratio=args.ratio,
        alpha=args.alpha,
        power=args.power,
    )
    result = sample_size(design_inp)
    achieved = power_at(
        delta, sigma0_sq, sigma1_sq, result.n0, ratio=args.ratio, alpha=args.alpha
    )
    print(f"delta = {delta:.4f}, sigma0^2 = {sigma0_sq:.4f}, sigma1^2 = {sigma1_sq:.4f}")
    print(f"n0 = {result.n0}, n1 = {result.n1}, total = {result.total}")
    print(f"achieved power at n0 = {achieved:.4f} (target {args.power})")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "design": result.to_dict(),
        "achieved_power": achieved,
        "inputs": {
            "delta": delta,
            "sigma0_sq": sigma0_sq,
            "sigma1_sq": sigma1_sq,
            "ratio": args.ratio,
            "alpha": args.alpha,
            "power": args.power,
            "tau": args.tau,
        },
        "manifest": _manifest("samplesize", vars(args), inputs),
    }
    if args.json:
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.out:
        stem = _file_path(args.out)
        json_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
        _check_outputs(json_path, csv_path)
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    spec = scenario(args.scenario, args.n0, args.n1, args.censoring)
    if args.mode == "estimation":
        report = run_estimation_study(
            spec, args.reps, fixed_tau=args.fixed_tau, seed=args.seed, workers=args.workers
        )
    elif args.mode == "power":
        report = run_power_study(spec, args.reps, seed=args.seed, workers=args.workers)
    else:
        report = run_samplesize_validation(
            spec, seed=args.seed, power_reps=args.reps, workers=args.workers
        )

    for row in report.csv_rows():
        sid, n0, n1, cr, metric, value, mc_se = row
        print(
            f"scenario={sid} n0={n0} n1={n1} CR={cr}% "
            f"metric={metric} value={value:.4f} mc_se={mc_se:.4f}"
        )
    if args.out:
        payload = report.to_json_dict()
        payload["manifest"] = _manifest("simulate", vars(args), [], seed=args.seed)
        _write_json(json_path, payload)
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            for line in report.csv_header_comments():
                fh.write(line + "\n")
            writer = csv.writer(fh)
            writer.writerow(["scenario", "n0", "n1", "cr", "metric", "value", "mc_se"])
            writer.writerows(report.csv_rows())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse (3.11) takes ``-1e-1`` or ``-inf`` after a flag for an
    option, not a negative number (only ``-1`` and ``-.5``). This parser
    also reads them as values, and leaves every other string to argparse,
    so it accepts whatever argparse itself accepts."""

    _number = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|-(inf|infinity|nan)", re.I)

    def _parse_optional(self, arg_string):
        if self._number.fullmatch(arg_string) and not self._has_negative_number_optionals:
            return None  # a value, as argparse does with "-1"
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmtlkit",
        description="Competing-risks analysis with restricted mean time lost",
    )
    parser.add_argument("--version", action="version", version=f"rmtlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="estimate and test RMTL from a CSV")
    pa.add_argument("csv", help="subject-level CSV (time, event, group columns)")
    pa.add_argument("--tau", type=float, default=None,
                    help="restriction time (default: min-max follow-up rule)")
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--curves", default=None,
                    help="write per-group curve CSVs derived from this path")
    pa.add_argument("--json", default=None, help="write the full result as JSON")
    pa.add_argument("--time-col", default="time")
    pa.add_argument("--event-col", default="event")
    pa.add_argument("--group-col", default="group")
    pa.add_argument("--event-codes", default=None,
                    help="comma-separated user codes for censored,interest,competing")
    pa.add_argument("--group-codes", default=None,
                    help="comma-separated user codes for control,treatment")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("samplesize", help="group sizes for a planned study")
    ps.add_argument("--delta", type=float, default=None, help="planned RMTL difference")
    ps.add_argument("--sigma0-sq", dest="sigma0_sq", type=float, default=None)
    ps.add_argument("--sigma1-sq", dest="sigma1_sq", type=float, default=None)
    ps.add_argument("--pilot0", default=None, help="pilot CSV for the control arm")
    ps.add_argument("--pilot1", default=None, help="pilot CSV for the treatment arm")
    ps.add_argument("--tau", type=float, default=None, help="restriction time for pilots")
    ps.add_argument("--ratio", type=float, default=1.0)
    ps.add_argument("--alpha", type=float, default=0.05)
    ps.add_argument("--power", type=float, default=0.8)
    ps.add_argument("--time-col", default="time")
    ps.add_argument("--event-col", default="event")
    ps.add_argument("--json", default=None)
    ps.set_defaults(func=cmd_samplesize)

    pm = sub.add_parser("simulate", help="run one simulation-study cell")
    pm.add_argument("--scenario", required=True, choices=list(SCENARIO_IDS))
    pm.add_argument("--n0", type=int, required=True)
    pm.add_argument("--n1", type=int, required=True)
    pm.add_argument("--censoring", type=int, default=0, choices=list(CENSOR_TARGETS))
    pm.add_argument("--reps", type=int, default=2000)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--mode", choices=["estimation", "power", "samplesize"],
                    default="power")
    pm.add_argument("--fixed-tau", dest="fixed_tau", type=float, default=4.0,
                    help="restriction time for estimation mode")
    pm.add_argument("--workers", type=int, default=1)
    pm.add_argument("--out", default=None,
                    help="output path stem; writes <stem>.json and <stem>.csv")
    pm.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateTestError, ExtrapolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
