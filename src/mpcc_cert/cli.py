"""Command-line front end: classify, certify, check.

Exit codes (per command):

* classify: 0 feasible, 1 parse error, 2 infeasible point.
* certify:  0 certificate found (M or S), 1 parse error, 2 branch
  infeasible, 3 infeasible point, 4 numerical failure, 5 branch cap
  exceeded.
* check:    0 class meets the requirement, 1 parse error, 2 requirement
  not met, 3 infeasible point, 6 base system violated.

Every input error (an unreadable or malformed file, an unknown or
missing field, an invalid tolerance flag, a multiplier array of the
wrong length) exits 1 with an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from typing import Optional

from .errors import (
    BranchBudgetExceeded,
    InfeasiblePoint,
    MpccError,
    NumericalFailure,
    ParseError,
    PatternBudgetExceeded,
    SystemViolated,
)
from .model import Tolerances, check_feasibility, classify_indices
from .oracle import oracle_m_exists
from .problemfile import load_multipliers, load_problem
from .report import (
    certificate_report,
    check_report,
    classify_report,
    oracle_section,
    render_certificate_text,
    render_check_text,
    render_classify_text,
)
from .stationarity import (
    MultiplierClass,
    VerdictKind,
    certify_m_stationarity,
    check_stationarity_system,
    classify_multiplier,
    multiplier_class_rank,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BRANCH_INFEASIBLE = 2
EXIT_REQUIREMENT = 2
EXIT_CLASSIFY_INFEASIBLE = 2
EXIT_INFEASIBLE_POINT = 3
EXIT_NUMERICAL = 4
EXIT_BRANCH_CAP = 5
EXIT_SYSTEM_VIOLATED = 6

# error -> (exit code, stderr prefix): the one place where errors become exit codes
_ERROR_EXITS = {
    ParseError: (EXIT_PARSE, ""),
    InfeasiblePoint: (EXIT_INFEASIBLE_POINT, ""),
    BranchBudgetExceeded: (EXIT_BRANCH_CAP, ""),
    NumericalFailure: (EXIT_NUMERICAL, "numerical failure: "),
}


def _merge_tolerances(file_tol: Optional[Tolerances], args) -> Tolerances:
    if getattr(args, "tol", None) is not None and args.cert_tol is not None:
        raise ParseError("--tol and --cert-tol are mutually exclusive (--tol is shorthand "
                         "for --cert-tol)")
    tol = file_tol if file_tol is not None else Tolerances()
    for name in ("active_tol", "feas_tol", "solver_tol", "cert_tol"):
        flag, value = "--" + name.replace("_", "-"), getattr(args, name)
        if value is None and name == "cert_tol":
            flag, value = "--tol", getattr(args, "tol", None)
        if value is not None:
            try:
                tol = dataclasses.replace(tol, **{name: value})
            except ValueError as exc:
                raise ParseError(f"{flag}: {exc}") from exc
    return tol


def _emit(doc: dict, as_json: bool, renderer) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(renderer(doc))


def _cmd_classify(args, problem, tol) -> int:
    feas = check_feasibility(problem.data, tol)
    sets = classify_indices(problem.data, tol, feas) if feas.feasible else None
    _emit(classify_report(sets, feas, tol), args.json, render_classify_text)
    return EXIT_OK if feas.feasible else EXIT_CLASSIFY_INFEASIBLE


def _cmd_certify(args, problem, tol) -> int:
    verdict = certify_m_stationarity(problem.data, tol, branch_cap=args.branch_cap)
    osec = None
    if args.oracle:
        eps = 10.0 * tol.cert_tol
        try:
            exists, witness = oracle_m_exists(problem.data, verdict.sets, tol, eps=eps)
        except PatternBudgetExceeded as exc:
            # the certificate stands on its own; report the oracle as skipped
            osec = oracle_section(None, None, verdict.kind, eps, skipped=str(exc))
        except MpccError as exc:
            print(f"error: oracle failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        else:
            osec = oracle_section(exists, witness, verdict.kind, eps)

    doc = certificate_report(verdict, tol, osec)
    doc["timing"] = {"seconds": time.perf_counter() - args.start}
    _emit(doc, args.json, render_certificate_text)
    if verdict.kind is VerdictKind.BRANCH_INFEASIBLE:
        return EXIT_BRANCH_INFEASIBLE
    return EXIT_OK


def _cmd_check(args, problem, tol) -> int:
    mult = load_multipliers(args.multipliers, problem.data)
    sets = classify_indices(problem.data, tol)
    residuals = check_stationarity_system(problem.data, sets, mult)
    try:
        cls = classify_multiplier(problem.data, sets, mult, tol)
    except SystemViolated:
        doc = check_report(residuals.as_dict(), residuals.biactive_pairs,
                           None, args.require, None)
        _emit(doc, args.json, render_check_text)
        print("base stationarity system violated", file=sys.stderr)
        return EXIT_SYSTEM_VIOLATED
    satisfied = None
    if args.require is not None:
        required = MultiplierClass(args.require.upper())
        satisfied = multiplier_class_rank(cls) >= multiplier_class_rank(required)
    doc = check_report(residuals.as_dict(), residuals.biactive_pairs,
                       cls.value, args.require, satisfied)
    _emit(doc, args.json, render_check_text)
    if satisfied is False:
        return EXIT_REQUIREMENT
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, like every other input error
    (argparse's own 2 would read as certify's "branch infeasible")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    ``parse_args`` fills a fresh namespace on every call and leaves the
    parser unchanged, so every caller can share it.
    """
    parser = _Parser(
        prog="mpcc-cert",
        description="M-stationarity certificates for programs with complementarity constraints",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (JSON)")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--active-tol", type=float, default=None,
                        help="activity classification tolerance (default 1e-8)")
    common.add_argument("--feas-tol", type=float, default=None,
                        help="constraint violation tolerance (default 1e-8)")
    common.add_argument("--solver-tol", type=float, default=None,
                        help="LP/QP residual tolerance (default 1e-9)")
    common.add_argument("--cert-tol", type=float, default=None,
                        help="certificate verification tolerance (default 1e-7)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", parents=[common],
                                help="classify activity and report feasibility")
    p_classify.set_defaults(func=_cmd_classify)

    p_certify = sub.add_parser("certify", parents=[common],
                               help="construct and verify an M-stationarity certificate")
    p_certify.add_argument("--tol", type=float, default=None,
                           help="shorthand for --cert-tol; not both")
    p_certify.add_argument("--branch-cap", type=_nonnegative_int, default=12,
                           help="largest admissible biactive set (default 12)")
    p_certify.add_argument("--oracle", action="store_true",
                           help="also run the sign-pattern enumeration oracle")
    p_certify.set_defaults(func=_cmd_certify)

    p_check = sub.add_parser("check", parents=[common],
                             help="check supplied multipliers against the point")
    p_check.add_argument("multipliers", help="multiplier file (JSON)")
    p_check.add_argument("--require", choices=("a", "m", "s"), default=None,
                         help="exit nonzero unless the class is at least this strong")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.start = time.perf_counter()
    try:
        problem = load_problem(args.problem)
        return args.func(args, problem, _merge_tolerances(problem.tolerances, args))
    except tuple(_ERROR_EXITS) as exc:
        code, prefix = next(v for error, v in _ERROR_EXITS.items() if isinstance(exc, error))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
