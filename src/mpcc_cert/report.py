"""Certificate reports: stable machine-readable dicts plus text rendering.

The JSON schema is versioned via ``schema_version`` (currently 2, which
added the "covered" and "not-evaluated" branch statuses and zero
combiner weights on repeated branch points).  Field order and
branch-table ordering (lexicographic in the assignment) are fixed so
repeated runs are byte-identical apart from the timing block, which is
always appended last.
"""

from __future__ import annotations

from typing import Optional

from .model import FeasibilityReport, IndexSets, MultiplierVector, Tolerances
from .problemfile import multipliers_to_dict
from .stationarity import StationarityVerdict, VerdictKind

SCHEMA_VERSION = 2


def _one_based(indices) -> list:
    return [int(i) + 1 for i in sorted(indices)]


def index_sets_to_dict(sets: IndexSets) -> dict:
    return {
        "active_g": _one_based(sets.active_g),
        "zero_plus": _one_based(sets.zero_plus),
        "plus_zero": _one_based(sets.plus_zero),
        "zero_zero": _one_based(sets.zero_zero),
    }


def tolerances_to_dict(tol: Tolerances) -> dict:
    return {
        "active_tol": tol.active_tol,
        "feas_tol": tol.feas_tol,
        "solver_tol": tol.solver_tol,
        "cert_tol": tol.cert_tol,
    }


def feasibility_to_dict(report: FeasibilityReport) -> dict:
    out = {
        "feasible": bool(report.feasible),
        "max_violation": float(report.max_violation),
        "feas_tol": report.feas_tol,
    }
    if report.worst_block is not None:
        out["worst"] = {"block": report.worst_block, "index": int(report.worst_index) + 1,
                        "violation": float(report.max_violation)}
    return out


def classify_report(sets: Optional[IndexSets], feas: FeasibilityReport,
                    tol: Tolerances) -> dict:
    """Feasibility and index sets; ``sets`` is None (``index_sets: null``)
    at an infeasible point, where activity is not classified."""
    return {
        "schema_version": SCHEMA_VERSION,
        "feasibility": feasibility_to_dict(feas),
        "index_sets": index_sets_to_dict(sets) if sets is not None else None,
        "tolerances": tolerances_to_dict(tol),
    }


def certificate_report(verdict: StationarityVerdict, tol: Tolerances,
                       oracle_section: Optional[dict] = None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "verdict": verdict.kind.value,
        "witness": (multipliers_to_dict(verdict.witness)
                    if verdict.witness is not None else None),
        "failed_branch": (list(verdict.failed_branch.choices)
                          if verdict.failed_branch is not None else None),
        "index_sets": index_sets_to_dict(verdict.sets) if verdict.sets is not None else None,
        "branches": [
            {
                "alpha": list(rec.alpha.choices),
                "status": rec.status,
                "multiplier_norm": rec.multiplier_norm,
            }
            for rec in verdict.branch_table
        ],
        "combiner": None,
        "residuals": {k: float(v) for k, v in sorted(verdict.residuals.items())},
        "tolerances": tolerances_to_dict(tol),
    }
    if verdict.combiner is not None:
        comb = verdict.combiner
        report["combiner"] = {
            "per_branch": [
                {"alpha": list(a.choices), "min_norm_sq": float(v)}
                for a, v in comb.branch_norms
            ],
            "selected": list(comb.selected.choices),
            "weights": [float(w) for w in comb.weights],
        }
    if oracle_section is not None:
        report["oracle"] = oracle_section
    return report


def oracle_section(m_exists: bool, witness: Optional[MultiplierVector],
                   verdict_kind: VerdictKind, eps: float) -> dict:
    certified = verdict_kind in (VerdictKind.M, VerdictKind.S)
    # only "certified but no M-multiplier exists" would be a contradiction;
    # an uncertified point may still be M-stationary
    return {
        "m_exists": bool(m_exists),
        "witness": multipliers_to_dict(witness) if witness is not None else None,
        "eps": eps,
        "consistent_with_verdict": bool(m_exists) or not certified,
    }


def check_report(residuals: dict, biactive_pairs, cls: Optional[str],
                 require: Optional[str], satisfied: Optional[bool]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "biactive_pairs": [
            {"index": int(i) + 1, "mu": float(mu), "nu": float(nu)}
            for i, mu, nu in biactive_pairs
        ],
        "class": cls,
        "require": require,
        "satisfied": satisfied,
    }


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def render_index_sets(sets_dict: dict) -> list:
    return [
        "index sets (1-based):",
        f"  I^g  = {_fmt_set(sets_dict['active_g'])}",
        f"  I^0+ = {_fmt_set(sets_dict['zero_plus'])}",
        f"  I^+0 = {_fmt_set(sets_dict['plus_zero'])}",
        f"  I^00 = {_fmt_set(sets_dict['zero_zero'])}",
    ]


def render_classify_text(report: dict) -> str:
    feas = report["feasibility"]
    lines = [
        f"feasible: {'yes' if feas['feasible'] else 'no'} "
        f"(max violation {_fmt(feas['max_violation'])}, feas_tol {_fmt(feas['feas_tol'])})"
    ]
    if not feas["feasible"] and "worst" in feas:
        w = feas["worst"]
        lines.append(f"worst violator: {w['block']}[{w['index']}] = {_fmt(w['violation'])}")
    if report["index_sets"] is not None:
        lines.extend(render_index_sets(report["index_sets"]))
    return "\n".join(lines)


def render_certificate_text(report: dict) -> str:
    lines = [f"verdict: {report['verdict']}"]
    if report.get("failed_branch") is not None:
        lines.append(f"failed branch: alpha={tuple(report['failed_branch'])}")
    if report.get("index_sets"):
        lines.extend(render_index_sets(report["index_sets"]))
    if report["branches"]:
        lines.append("branches:")
        for rec in report["branches"]:
            norm = "-" if rec["multiplier_norm"] is None else _fmt(rec["multiplier_norm"])
            lines.append(f"  alpha={tuple(rec['alpha'])}  {rec['status']:<10}  |multiplier| = {norm}")
    if report.get("combiner"):
        comb = report["combiner"]
        per = ", ".join(
            f"{tuple(e['alpha'])} -> {_fmt(e['min_norm_sq'])}" for e in comb["per_branch"]
        )
        lines.append(f"combiner: min |.|^2 per branch: {per}")
        lines.append(f"combiner: selected alpha={tuple(comb['selected'])}, "
                     f"weights = [{', '.join(_fmt(w) for w in comb['weights'])}]")
    if report.get("witness"):
        wit = report["witness"]
        lines.append("witness:")
        for name in ("lambda", "eta", "mu", "nu"):
            lines.append(f"  {name} = [{', '.join(_fmt(v) for v in wit[name])}]")
    if report["residuals"]:
        res = ", ".join(f"{k}={_fmt(v)}" for k, v in report["residuals"].items())
        lines.append(f"residuals: {res}")
    if report.get("oracle"):
        osec = report["oracle"]
        lines.append(f"oracle: m_exists={osec['m_exists']} (eps={_fmt(osec['eps'])})")
    if report.get("timing"):
        lines.append(f"elapsed: {report['timing']['seconds']:.3f}s")
    return "\n".join(lines)


def render_check_text(report: dict) -> str:
    lines = []
    res = ", ".join(f"{k}={_fmt(v)}" for k, v in report["residuals"].items())
    lines.append(f"residuals: {res}")
    if report["biactive_pairs"]:
        pairs = ", ".join(
            f"i={e['index']}: (mu, nu) = ({_fmt(e['mu'])}, {_fmt(e['nu'])})"
            for e in report["biactive_pairs"]
        )
        lines.append(f"biactive pairs: {pairs}")
    lines.append(f"class: {report['class']}")
    if report["require"] is not None:
        lines.append(f"required: {report['require']} -> {'ok' if report['satisfied'] else 'NOT met'}")
    return "\n".join(lines)
