"""Command-line interface.

Three subcommands:

* ``analyze``     - per-group RMTL, the between-group difference test,
  and Gray's test on a subject-level CSV; optional curve and JSON output.
* ``samplesize``  - group sizes from an effect size and variances
  (given directly or estimated from pilot CSVs).
* ``simulate``    - run one simulation-study cell and write its report.

Exit codes: 0 success, 1 an internal error (with its traceback),
2 invalid input or an unreadable input file, 3 statistical degeneracy
or an infeasible design (a simulated design above the arm-size cap
included), 4 censoring-calibration failure. Human-readable output and
JSON carry the same numbers; JSON keeps full precision.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .data import GroupSample, TwoGroupSample, ingest_single_group_csv, select_tau
from .design import DesignInput, estimate_sigma_sq, power_at, sample_size
from .errors import (
    CalibrationError,
    DegenerateTestError,
    ExtrapolationError,
    InputError,
    SimulationError,
)
from .estimators import _sample_curves, curve_rows
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
EXIT_CALIBRATION = 4


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


def _curve_path(base: Path, group: int) -> Path:
    return base.with_name(f"{base.stem}_group{group}{base.suffix or '.csv'}")


def _write_curves(base, samples):
    base = Path(base)
    written = []
    for sample in samples:
        pair = _sample_curves(sample)
        path = _curve_path(base, sample.group)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "survival", "cif1", "cif2"])
            writer.writerows(curve_rows(pair))
        written.append(path)
    return written


def cmd_analyze(args) -> int:
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
        if args.curves:
            _write_curves(args.curves, [data])
        if args.json:
            _write_json(args.json, payload)
        return EXIT_OK

    assert isinstance(data, TwoGroupSample)
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
        _write_curves(args.curves, [data.control, data.treatment])
    if args.json:
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_samplesize(args) -> int:
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
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
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
        base = Path(args.out)
        json_path = base.with_suffix(".json")
        csv_path = base.with_suffix(".csv")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except (InputError, FileNotFoundError, IsADirectoryError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CalibrationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
