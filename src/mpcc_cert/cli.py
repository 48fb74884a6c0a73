"""Command-line front end: classify, certify, check.

Exit codes (per command):

* classify: 0 feasible, 1 parse error, 2 infeasible point.
* certify:  0 certificate found (M or S), 1 parse error, 2 branch
  infeasible, 3 infeasible point, 4 numerical failure, 5 branch cap
  exceeded.
* check:    0 class meets the requirement, 1 parse error, 2 requirement
  not met, 6 base system violated.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--active-tol", type=float, default=None,
                        help="activity classification tolerance (default 1e-8)")
    parser.add_argument("--feas-tol", type=float, default=None,
                        help="constraint violation tolerance (default 1e-8)")
    parser.add_argument("--solver-tol", type=float, default=None,
                        help="LP/QP residual tolerance (default 1e-9)")
    parser.add_argument("--cert-tol", type=float, default=None,
                        help="certificate verification tolerance (default 1e-7)")


def _merge_tolerances(file_tol: Optional[Tolerances], args) -> Tolerances:
    base = file_tol if file_tol is not None else Tolerances()
    overrides = {}
    for name in ("active_tol", "feas_tol", "solver_tol", "cert_tol"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "tol", None) is not None and "cert_tol" not in overrides:
        overrides["cert_tol"] = args.tol
    if not overrides:
        return base
    return dataclasses.replace(base, **overrides)


def _emit(doc: dict, as_json: bool, renderer) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(renderer(doc))


def _cmd_classify(args) -> int:
    try:
        problem = load_problem(args.problem)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    tol = _merge_tolerances(problem.tolerances, args)
    feas = check_feasibility(problem.data, tol)
    sets = classify_indices(problem.data, tol) if feas.feasible else None
    _emit(classify_report(sets, feas, tol), args.json, render_classify_text)
    return EXIT_OK if feas.feasible else EXIT_CLASSIFY_INFEASIBLE


def _cmd_certify(args) -> int:
    start = time.perf_counter()
    try:
        problem = load_problem(args.problem)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    tol = _merge_tolerances(problem.tolerances, args)
    try:
        verdict = certify_m_stationarity(problem.data, tol, branch_cap=args.branch_cap)
    except InfeasiblePoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_POINT
    except BranchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRANCH_CAP
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    osec = None
    if args.oracle:
        sets = verdict.sets
        eps = 10.0 * tol.cert_tol
        try:
            exists, witness = oracle_m_exists(problem.data, sets, tol, eps=eps)
        except PatternBudgetExceeded as exc:
            # the certificate stands on its own; report the oracle as skipped
            osec = {"m_exists": None, "witness": None, "eps": eps,
                    "consistent_with_verdict": None, "skipped": str(exc)}
        except MpccError as exc:
            print(f"error: oracle failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        else:
            osec = oracle_section(exists, witness, verdict.kind, eps)

    doc = certificate_report(verdict, tol, osec)
    doc["timing"] = {"seconds": time.perf_counter() - start}
    _emit(doc, args.json, render_certificate_text)
    if verdict.kind is VerdictKind.BRANCH_INFEASIBLE:
        return EXIT_BRANCH_INFEASIBLE
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        problem = load_problem(args.problem)
        mult = load_multipliers(args.multipliers, problem.data)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    tol = _merge_tolerances(problem.tolerances, args)
    try:
        sets = classify_indices(problem.data, tol)
    except InfeasiblePoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_POINT
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
        required = {"a": MultiplierClass.A, "m": MultiplierClass.M,
                    "s": MultiplierClass.S}[args.require]
        satisfied = multiplier_class_rank(cls) >= multiplier_class_rank(required)
    doc = check_report(residuals.as_dict(), residuals.biactive_pairs,
                       cls.value, args.require, satisfied)
    _emit(doc, args.json, render_check_text)
    if satisfied is False:
        return EXIT_REQUIREMENT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcc-cert",
        description="M-stationarity certificates for programs with complementarity constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify activity and report feasibility")
    p_classify.add_argument("problem", help="problem file (JSON)")
    p_classify.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_certify = sub.add_parser("certify", help="construct and verify an M-stationarity certificate")
    p_certify.add_argument("problem", help="problem file (JSON)")
    p_certify.add_argument("--tol", type=float, default=None,
                           help="shorthand for --cert-tol")
    p_certify.add_argument("--branch-cap", type=int, default=12,
                           help="largest admissible biactive set (default 12)")
    p_certify.add_argument("--oracle", action="store_true",
                           help="also run the sign-pattern enumeration oracle")
    p_certify.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(p_certify)
    p_certify.set_defaults(func=_cmd_certify)

    p_check = sub.add_parser("check", help="check supplied multipliers against the point")
    p_check.add_argument("problem", help="problem file (JSON)")
    p_check.add_argument("multipliers", help="multiplier file (JSON)")
    p_check.add_argument("--require", choices=("a", "m", "s"), default=None,
                         help="exit nonzero unless the class is at least this strong")
    p_check.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_tolerance_flags(p_check)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
