"""Command line surface: reproducible experiments with machine-readable output.

Exit codes: 0 success, 2 validation error, 3 saturation/resolution error,
64 usage error.  All output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
import warnings

import numpy as np

from . import bounds, operators, rates, reports, simulate, truncation
from .problem import (
    SaturationError,
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    load_problem,
)

log = logging.getLogger("minimax_seq")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SATURATION = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache  # argparse parsers are reusable, so build one per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="mseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config(p):
        p.add_argument("--config", required=True, help="problem JSON file")
        p.add_argument("--sigma", type=float, default=None,
                       help="override the config noise level")

    p = sub.add_parser("risk", help="closed-form risk at one truncation level")
    add_config(p)
    p.add_argument("--d", type=int, required=True, help="truncation level D")

    p = sub.add_parser("optimal", help="best level with the certified interval")
    add_config(p)

    p = sub.add_parser("jmax", help="rectangle maximizer with its certificate")
    add_config(p)
    p.add_argument("--seed", type=int, default=0, help="certificate direction seed")
    p.add_argument("--directions", type=int, default=1000,
                   help="number of certificate directions")

    p = sub.add_parser("simulate", help="Monte Carlo check of the closed form")
    add_config(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sweep", help="rate sweep over a noise grid, CSV out")
    p.add_argument("--regime", required=True, choices=rates.REGIME_TAGS,
                   help="spectrum kind then smoothness kind (p=power, e=exponential)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--grid", required=True, help="LO:HI:POINTS, log spaced")
    p.add_argument("--q", type=float, default=1.0, help="ellipsoid radius Q")
    p.add_argument("--n", type=int, default=64, help="starting model dimension")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("rates", help="fit a rate to a sweep CSV")
    p.add_argument("--in", dest="infile", required=True,
                   help="sweep CSV written by mseq sweep")

    p = sub.add_parser("invert", help="spectral cut-off reconstruction")
    p.add_argument("--matrix", required=True, help="operator CSV (or MSEQ1 .bin)")
    p.add_argument("--data", required=True, help="observation vector CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None, help="write solution here (else stdout)")

    return parser


def _load_config(args) -> SequenceProblem:
    problem = load_problem(args.config)
    if getattr(args, "sigma", None) is not None:
        log.info("config %s: overriding sigma=%r with %r",
                 args.config, problem.sigma, args.sigma)
        problem = SequenceProblem(problem.spectrum, problem.ellipsoid,
                                  float(args.sigma), problem.n)
    return problem


# most noise levels one sweep grid may hold; a larger POINTS is rejected
# before the grid is allocated
_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be LO:HI:POINTS, got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(
            f"grid {text!r}: LO and HI must be numbers, POINTS an integer") from exc
    if lo <= 0 or hi <= 0 or points < 1:
        raise ValidationError("grid endpoints must be positive, points >= 1")
    if points > _MAX_GRID_POINTS:
        raise ValidationError(
            f"grid POINTS = {points} exceeds the maximum {_MAX_GRID_POINTS}")
    if points == 1:
        return (max(lo, hi),)
    top, bottom = max(lo, hi), min(lo, hi)
    if top == bottom:
        raise ValidationError("grid endpoints must differ for points > 1")
    return tuple(np.logspace(math.log10(top), math.log10(bottom), points))


def _cmd_risk(args) -> int:
    problem = _load_config(args)
    result = truncation.truncation_risk(problem, args.d)
    if not math.isfinite(result.total):
        raise ValidationError(
            f"risk at level D = {args.d} is non-finite: bias_sq = "
            f"{float(result.bias_sq)!r}, variance = {float(result.variance)!r}")
    sys.stdout.write(reports.emit_report(result))
    return EXIT_OK


def _cmd_optimal(args) -> int:
    problem = _load_config(args)
    report = bounds.minimax_sandwich(problem)
    sys.stdout.write(reports.emit_report(report))
    if report.d_star >= problem.n - 1:
        return EXIT_SATURATION
    return EXIT_OK


def _cmd_jmax(args) -> int:
    problem = _load_config(args)
    solution = bounds.maximize_J_over_ellipsoid(problem)
    worst = bounds.certify_maximizer(solution, count=args.directions,
                                     seed=args.seed)
    tol = 1e-9 * max(1.0, abs(solution.value))
    doc = reports.document(solution)
    doc["certificate"] = {"directions": args.directions, "seed": args.seed,
                          "max_derivative": worst, "ok": worst <= tol}
    sys.stdout.write(reports.emit_report(doc))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    problem = _load_config(args)
    config = simulate.SimulationConfig(args.reps, args.seed, problem.n)
    theta = truncation.least_favorable(problem, args.d)
    estimate = simulate.monte_carlo_risk(problem, theta, args.d, config)
    closed = truncation.truncation_risk(problem, args.d).total
    deviation = estimate.mean_sq_error - closed
    doc = {
        "estimate": reports.document(estimate),
        "closed_form": closed,
        "deviation": deviation,
        "std_errors": deviation / estimate.std_error if estimate.std_error else 0.0,
    }
    sys.stdout.write(reports.emit_report(doc))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    spec = rates.RegimeSpec.from_tag(args.regime, args.p, args.kappa, grid,
                                     radius=args.q, n=args.n)
    rows = rates.sweep(spec)
    reports.write_sweep_csv(rows, spec, args.out)
    log.info("wrote %d rows to %s", len(rows), args.out)
    return EXIT_OK


def _cmd_rates(args) -> int:
    rows, spec = reports.read_sweep_csv(args.infile)
    fit = rates.fit_rate(rows, spec)
    doc = reports.document(fit)
    doc["label"] = rates.classify_illposedness(fit).value
    sys.stdout.write(reports.emit_report(doc))
    return EXIT_OK


def _cmd_invert(args) -> int:
    if args.matrix.endswith(".bin"):
        matrix = operators.load_matrix_bin(args.matrix)
    else:
        matrix = operators.load_matrix_csv(args.matrix)
    data = operators.load_matrix_csv(args.data).ravel()
    model = operators.decompose(matrix)
    solution = operators.reconstruct(data, model, args.d)
    text = "\n".join(reports.format_float(x) for x in solution) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "risk": _cmd_risk,
    "optimal": _cmd_optimal,
    "jmax": _cmd_jmax,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "rates": _cmd_rates,
    "invert": _cmd_invert,
}


def run(argv) -> int:
    """Parse argv and execute; returns the exit code."""
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s",
                        level=logging.INFO)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SaturationWarning)
            try:
                return _COMMANDS[args.command](args)
            finally:  # one line each, before any error message
                for w in caught:
                    sys.stderr.write(f"mseq: warning: {w.message}\n")
    except ValidationError as exc:
        sys.stderr.write(f"mseq: validation error: {exc}\n")
        return EXIT_VALIDATION
    except SaturationError as exc:
        sys.stderr.write(f"mseq: resolution error: {exc}\n")
        return EXIT_SATURATION
    except OSError as exc:
        sys.stderr.write(f"mseq: {exc}\n")
        return EXIT_VALIDATION


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
