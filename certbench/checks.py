"""Output checks for the certify benchmark, written apart from the program.

Nothing here imports ``mpcc_cert``.  Each check recomputes what an output
claims from the problem data alone, with its own numpy arithmetic, and
decides the one claim that numpy cannot (that a branch polar LP has no
solution) with scipy's HiGHS ``linprog``.  A check returns a list of
problems; an empty list means the output is correct.

A problem is a dict of plain arrays with the first-order data at the
point: ``grad_f``, ``g_vals``/``grad_g``, ``h_vals``/``grad_h``,
``G_vals``/``grad_G`` and ``H_vals``/``grad_H``.  Indices are 0-based.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

# The documented defaults of the certificates under test.
ACTIVE_TOL = 1e-8
CERT_TOL = 1e-7
# Room for summing the residual in another order than the program does.
ROUNDOFF = 1e-12

EXIT_CERTIFIED = 0
EXIT_BRANCH_INFEASIBLE = 2


def affine_problem(c, A_g, b_g, A_h, b_h, A_G, b_G, A_H, b_H) -> dict:
    """First-order data of an affine instance at x = 0 (values are offsets)."""
    c = np.array(c, dtype=float).reshape(-1)
    prob = {"grad_f": c}
    for name, A, b in (("g", A_g, b_g), ("h", A_h, b_h), ("G", A_G, b_G), ("H", A_H, b_H)):
        prob[name + "_vals"] = np.array(b, dtype=float).reshape(-1)
        prob["grad_" + name] = np.array(A, dtype=float).reshape(-1, c.size)
    return prob


def index_sets(prob: dict) -> dict:
    """Active inequalities and the three complementarity classes."""
    G0 = prob["G_vals"] <= ACTIVE_TOL
    H0 = prob["H_vals"] <= ACTIVE_TOL
    return {
        "active_g": np.flatnonzero(np.abs(prob["g_vals"]) <= ACTIVE_TOL),
        "zero_zero": np.flatnonzero(G0 & H0),
        "zero_plus": np.flatnonzero(G0 & ~H0),   # G = 0 < H: nu vanishes
        "plus_zero": np.flatnonzero(~G0 & H0),   # H = 0 < G: mu vanishes
    }


def m_condition(mu, nu, tol=CERT_TOL) -> np.ndarray:
    """'(mu > 0 and nu > 0) or mu nu = 0', with '> 0' as > tol, '= 0' as <= tol."""
    mu, nu = np.asarray(mu), np.asarray(nu)
    return ((mu > tol) & (nu > tol)) | (np.abs(mu * nu) <= tol)


def witness_problems(prob: dict, lam, eta, mu, nu, strong: bool) -> list:
    """Stationarity residuals of (lam, eta, mu, nu), plus the M (or S) signs."""
    lam, eta, mu, nu = (np.asarray(v, dtype=float) for v in (lam, eta, mu, nu))
    l, m, p = prob["g_vals"].size, prob["h_vals"].size, prob["G_vals"].size
    if (lam.size, eta.size, mu.size, nu.size) != (l, m, p, p):
        return [f"witness lengths {(lam.size, eta.size, mu.size, nu.size)} != {(l, m, p, p)}"]
    terms = [prob["grad_f"], lam @ prob["grad_g"], eta @ prob["grad_h"],
             -(mu @ prob["grad_G"]), -(nu @ prob["grad_H"])]
    scale = sum(np.abs(t).max(initial=0.0) for t in terms)
    tol = CERT_TOL + ROUNDOFF * scale
    out = []
    gradient = np.abs(sum(terms)).max(initial=0.0)
    if gradient > tol:
        out.append(f"gradient residual {gradient:.3g}")
    sets = index_sets(prob)
    inactive = np.setdiff1d(np.arange(l), sets["active_g"])
    if np.any(lam[sets["active_g"]] < -tol):
        out.append("negative lambda on an active constraint")
    if np.any(np.abs(lam[inactive]) > tol):
        out.append("nonzero lambda on an inactive constraint")
    if np.any(np.abs(mu[sets["plus_zero"]]) > tol):
        out.append("nonzero mu on I^{+0}")
    if np.any(np.abs(nu[sets["zero_plus"]]) > tol):
        out.append("nonzero nu on I^{0+}")
    bi = sets["zero_zero"]
    if not np.all(m_condition(mu[bi], nu[bi])):
        out.append("M-condition fails on the biactive set")
    if strong and (np.any(mu[bi] < -CERT_TOL) or np.any(nu[bi] < -CERT_TOL)):
        out.append("S verdict with a negative biactive multiplier")
    return out


def branch_polar_infeasible(prob: dict, choices) -> bool:
    """Whether -grad f leaves the polar of the branch cone ``choices`` selects.

    The polar LP: lam >= 0 on active inequalities, eta free, mu on
    I^{0+} and I^{00}, nu on I^{+0} and I^{00}, with mu_i >= 0 where
    choice 1 and nu_i >= 0 where choice 2 on the biactive set, and
    grad_g' lam + grad_h' eta - grad_G' mu - grad_H' nu = -grad f.
    """
    sets = index_sets(prob)
    bi = set(sets["zero_zero"].tolist())
    columns, bounds = [], []
    for i in sets["active_g"]:
        columns.append(prob["grad_g"][i])
        bounds.append((0.0, None))
    for j in range(prob["h_vals"].size):
        columns.append(prob["grad_h"][j])
        bounds.append((None, None))
    for i in sorted(bi | set(sets["zero_plus"].tolist())):
        columns.append(-prob["grad_G"][i])
        bounds.append((0.0, None) if i in bi and choices[i] == 1 else (None, None))
    for i in sorted(bi | set(sets["plus_zero"].tolist())):
        columns.append(-prob["grad_H"][i])
        bounds.append((0.0, None) if i in bi and choices[i] == 2 else (None, None))
    if not columns:
        return bool(np.abs(prob["grad_f"]).max(initial=0.0) > CERT_TOL)
    res = linprog(np.zeros(len(columns)), A_eq=np.column_stack(columns),
                  b_eq=-prob["grad_f"], bounds=bounds, method="highs")
    return res.status == 2


def certify_problems(prob: dict, seeded: bool, kind: str, witness, failed_branch) -> list:
    """Check one certify verdict: 'M'/'S' with a witness, or 'branch-infeasible'.

    ``witness`` is (lam, eta, mu, nu) or None; ``failed_branch`` is the
    tuple of per-index choices (1 or 2) or None.
    """
    if kind in ("M", "S"):
        if witness is None:
            return [f"{kind} verdict without a witness"]
        return witness_problems(prob, *witness, strong=kind == "S")
    if kind == "branch-infeasible":
        if seeded:
            return ["branch-infeasible on a seeded instance, which has an S-multiplier"]
        p = prob["G_vals"].size
        if failed_branch is None or len(failed_branch) != p:
            return ["branch-infeasible verdict without a failed branch of length p"]
        if not branch_polar_infeasible(prob, failed_branch):
            return [f"failed branch {tuple(failed_branch)} has a feasible polar LP"]
        return []
    return [f"unexpected verdict {kind!r}"]


def combine_problems(points, weights, mu, nu) -> list:
    """The combiner guarantee: convex weights, combined = weights @ points, M-condition.

    ``points`` stacks the input (mu, nu) vectors row-wise; every index is
    biactive, as in the branch-point families.
    """
    points, w = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
    combined = np.concatenate([mu, nu])
    p = combined.size // 2
    out = []
    if w.shape != (points.shape[0],):
        return [f"weights have shape {w.shape}, expected ({points.shape[0]},)"]
    if np.any(w < -1e-9) or abs(w.sum() - 1.0) > 1e-9:
        out.append("weights are not convex")
    if np.abs(w @ points - combined).max(initial=0.0) > CERT_TOL:
        out.append("combined point differs from the weighted inputs")
    if not np.all(m_condition(combined[:p], combined[p:])):
        out.append("combined point fails the M-condition")
    return out


def cli_problems(prob: dict, seeded: bool, exit_code, stdout: str) -> list:
    """Check ``mpcc-cert certify FILE --json --oracle``: exit code, report, oracle."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"exit {exit_code} with no JSON report"]
    kind = doc.get("verdict")
    expected = {"M": EXIT_CERTIFIED, "S": EXIT_CERTIFIED,
                "branch-infeasible": EXIT_BRANCH_INFEASIBLE}.get(kind)
    if exit_code != expected:
        return [f"exit {exit_code} with verdict {kind!r}"]
    wit = doc.get("witness")
    witness = None if wit is None else (wit["lambda"], wit["eta"], wit["mu"], wit["nu"])
    out = certify_problems(prob, seeded, kind, witness, doc.get("failed_branch"))
    oracle = doc.get("oracle") or {}
    if oracle.get("consistent_with_verdict") is not True:
        out.append("oracle section is not consistent with the verdict")
    if oracle.get("m_exists"):
        ow = oracle.get("witness")
        if ow is None:
            out.append("oracle found an M-multiplier but reports no witness")
        else:
            out += ["oracle witness: " + s for s in witness_problems(
                prob, ow["lambda"], ow["eta"], ow["mu"], ow["nu"], strong=False)]
    return out
