"""Stationarity checkers, branch multiplier synthesis, and the certifier.

The pipeline: classify the active structure, find a polar-membership
point for every branch of the biactive set (one LP per branch that no
earlier branch's point covers, stopping at the first infeasible one),
then take an S-multiplier when one exists: a branch point with every
biactive mu_i, nu_i >= 0, or else the polar LP of the relaxed cone.  An
S-multiplier lies in every branch's sign region, so it is itself an
M-witness.  Only when none exists is a convex combination of the branch
multipliers selected whose biactive pairs satisfy the M-condition
"(mu_i > 0 and nu_i > 0) or mu_i nu_i = 0".  The selection rule (take,
among the per-branch minimum-norm points of the multiplier hull, one of
maximal norm) guarantees the condition exactly in real arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cones import (
    BranchAssignment,
    LinearizedCone,
    enumerate_branch_assignments,
    polar_branch_membership,
    polar_s_membership,
)
from .errors import (
    BranchBudgetExceeded,
    DimensionMismatch,
    NumericalFailure,
    PostconditionViolated,
    SystemViolated,
)
from .model import (
    FirstOrderData,
    IndexSets,
    MultiplierVector,
    Tolerances,
    check_feasibility,  # noqa: F401  (re-exported; certbench/tracing.py wraps this binding)
    classify_indices,
)
from .solvers import MinNormProblem, min_norm_point

__all__ = [
    "MultiplierVector",
    "MultiplierClass",
    "VerdictKind",
    "ResidualReport",
    "BranchRecord",
    "CombineResult",
    "StationarityVerdict",
    "check_stationarity_system",
    "classify_multiplier",
    "synthesize_branch_multipliers",
    "schinabeck_combine",
    "certify_m_stationarity",
]


class MultiplierClass(enum.Enum):
    S = "S"
    M = "M"
    A = "A"
    W_ONLY = "W-only"


_CLASS_RANK = {MultiplierClass.W_ONLY: 0, MultiplierClass.A: 1,
               MultiplierClass.M: 2, MultiplierClass.S: 3}


def multiplier_class_rank(cls: MultiplierClass) -> int:
    return _CLASS_RANK[cls]


class VerdictKind(enum.Enum):
    M = "M"
    S = "S"
    BRANCH_INFEASIBLE = "branch-infeasible"


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Pure residuals of the base stationarity system; no verdict attached.

    ``lambda_active_min`` is the smallest multiplier on active inequality
    constraints (should be >= 0); the remaining scalars are worst absolute
    violations (should be 0).  Empty index sets report neutral zeros.
    ``biactive_pairs`` lists (index, mu_i, nu_i) so the sign pattern on
    the biactive set stays visible rather than being silently classified.
    """

    gradient: float
    lambda_active_min: float
    lambda_inactive_abs: float
    mu_pluszero_abs: float
    nu_zeroplus_abs: float
    biactive_pairs: Tuple[Tuple[int, float, float], ...]

    def system_ok(self, tol: float) -> bool:
        return (
            self.gradient <= tol
            and self.lambda_active_min >= -tol
            and self.lambda_inactive_abs <= tol
            and self.mu_pluszero_abs <= tol
            and self.nu_zeroplus_abs <= tol
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "gradient": self.gradient,
            "lambda_active_min": self.lambda_active_min,
            "lambda_inactive_abs": self.lambda_inactive_abs,
            "mu_pluszero_abs": self.mu_pluszero_abs,
            "nu_zeroplus_abs": self.nu_zeroplus_abs,
        }


def _validate_multiplier(data: FirstOrderData, mult: MultiplierVector) -> None:
    if mult.lam.size != data.l or mult.eta.size != data.m or mult.mu.size != data.p:
        raise DimensionMismatch("multiplier lengths do not match the data dimensions")


def check_stationarity_system(data: FirstOrderData, sets: IndexSets,
                              mult: MultiplierVector) -> ResidualReport:
    """Residuals of the gradient identity and the multiplier support rules."""
    _validate_multiplier(data, mult)
    r = data.grad_f.copy()
    if data.l:
        r += mult.lam @ data.grad_g
    if data.m:
        r += mult.eta @ data.grad_h
    if data.p:
        r -= mult.mu @ data.grad_G
        r -= mult.nu @ data.grad_H
    gradient = float(np.abs(r).max(initial=0.0))

    active = sorted(sets.active_g)
    inactive = sorted(set(range(data.l)) - sets.active_g)
    lam_min = float(min((mult.lam[i] for i in active), default=0.0))
    lam_off = float(max((abs(mult.lam[i]) for i in inactive), default=0.0))
    mu_pz = float(max((abs(mult.mu[i]) for i in sorted(sets.plus_zero)), default=0.0))
    nu_zp = float(max((abs(mult.nu[i]) for i in sorted(sets.zero_plus)), default=0.0))
    pairs = tuple((i, float(mult.mu[i]), float(mult.nu[i])) for i in sorted(sets.zero_zero))
    return ResidualReport(gradient, lam_min, lam_off, mu_pz, nu_zp, pairs)


def m_condition_holds(mu_i: float, nu_i: float, tol: float) -> bool:
    """Biactive M-condition with strict '>' read as > tol and '= 0' as <= tol."""
    return (mu_i > tol and nu_i > tol) or abs(mu_i * nu_i) <= tol


def m_condition_gap(pairs: Iterable[Tuple[int, float, float]], tol: float) -> float:
    """Worst product magnitude among biactive pairs failing the M-condition."""
    gap = 0.0
    for _, mu_i, nu_i in pairs:
        if not m_condition_holds(mu_i, nu_i, tol):
            gap = max(gap, abs(mu_i * nu_i))
    return gap


def classify_multiplier(data: FirstOrderData, sets: IndexSets, mult: MultiplierVector,
                        tol: Tolerances = Tolerances()) -> MultiplierClass:
    """Strongest stationarity class whose biactive sign conditions hold.

    Requires the base system residuals to be within ``cert_tol`` first
    (raises :class:`SystemViolated` otherwise).  The classes are nested
    S => M => A; the nesting is enforced structurally, so near-threshold
    sign patterns can only demote, never promote.
    """
    report = check_stationarity_system(data, sets, mult)
    ct = tol.cert_tol
    if not report.system_ok(ct):
        raise SystemViolated("base stationarity system violated", report)

    s_ok = all(mu_i >= -ct and nu_i >= -ct for _, mu_i, nu_i in report.biactive_pairs)
    m_ok = all(m_condition_holds(mu_i, nu_i, ct) for _, mu_i, nu_i in report.biactive_pairs)
    a_ok = all(mu_i >= -ct or nu_i >= -ct for _, mu_i, nu_i in report.biactive_pairs)
    if s_ok and m_ok and a_ok:
        return MultiplierClass.S
    if m_ok and a_ok:
        return MultiplierClass.M
    if a_ok:
        return MultiplierClass.A
    return MultiplierClass.W_ONLY


def synthesize_branch_multipliers(data: FirstOrderData, sets: IndexSets,
                                  alpha: BranchAssignment,
                                  tol: Tolerances = Tolerances()) -> Optional[MultiplierVector]:
    """Multipliers for one branch, or None when -grad f leaves its polar.

    A None result means the point cannot be a constraint-qualified local
    minimizer: at such points every branch polar must contain -grad f.
    """
    cone = LinearizedCone(data, sets)
    return polar_branch_membership(cone, alpha, -data.grad_f, tol.solver_tol)


def _sign_columns(alphas: Sequence[BranchAssignment], bi: List[int], p: int) -> np.ndarray:
    """Per assignment and biactive index, the (mu, nu) coordinate its sign row bounds."""
    cols = np.array(bi, dtype=int)
    choices = np.array([alpha.choices for alpha in alphas], dtype=int)[:, cols]
    return np.where(choices == 1, cols, p + cols)


@dataclass(frozen=True, eq=False)
class CombineResult:
    """Combined multiplier plus the selection trace that produced it."""

    multiplier: MultiplierVector
    weights: np.ndarray
    selected: BranchAssignment
    branch_norms: Tuple[Tuple[BranchAssignment, float], ...]


def schinabeck_combine(points: Sequence[Tuple[MultiplierVector, BranchAssignment]],
                       biactive: Iterable[int],
                       tol: Tolerances = Tolerances()) -> CombineResult:
    """Convex combination of branch multipliers satisfying the M-condition.

    For each branch assignment, the minimum-norm point of the convex hull
    of all input (mu, nu) vectors intersected with that branch's sign
    region is computed (the norm is taken over the (mu, nu) coordinates
    only); the branch attaining the maximal minimum norm wins, ties broken
    by lexicographically smallest assignment.  The winner's weights are
    applied to the full (lambda, eta, mu, nu) vectors.

    Exactly equal inputs are collapsed before the hull is built, which
    leaves the hull unchanged; a repeated input gets weight zero.  A sign
    row that no input violates holds on the whole hull, so each region's
    QP is posed over its binding rows only, and regions with the same
    binding rows share one solve.

    The regions are the leaves of a binary tree over the sorted biactive
    indices: a node fixes the choices of a prefix and is posed over that
    prefix's binding rows, so the root is the whole hull.  A node's region
    lies inside its parent's, so when the parent's minimizer meets the
    node's one new sign row (within the ``-solver_tol * (1 + max|V|)``
    that :func:`min_norm_point` grants its own output), it is the node's
    unique minimizer as well and no QP is solved for the node.  Nodes are
    visited lazily in lexicographic leaf order; every region still gets
    its own minimum norm.

    Requires exactly one input per assignment of the biactive indices,
    each lying in its own sign region within ``cert_tol``.  The output is
    guaranteed to satisfy, at every biactive index, "(mu_i > 0 and
    nu_i > 0) or mu_i nu_i = 0"; a violation beyond ``cert_tol`` raises
    :class:`PostconditionViolated` and indicates a solver-tolerance
    problem, never a modelling one.
    """
    if not points:
        raise ValueError("at least one branch point is required")
    bi = sorted(biactive)
    p = points[0][0].mu.size
    for mult, alpha in points:
        if mult.mu.size != p or len(alpha.choices) != p:
            raise DimensionMismatch("inconsistent multiplier/assignment lengths")
    if any(not 0 <= i < p for i in bi):
        raise DimensionMismatch(f"biactive indices must lie in 0..{p - 1}, got {bi}")

    by_key = {}
    for mult, alpha in points:
        key = alpha.restricted(bi)
        if key in by_key:
            raise ValueError(f"duplicate branch assignment for biactive choices {key}")
        by_key[key] = (mult, alpha)
    if len(by_key) != 2 ** len(bi):
        raise ValueError(
            f"expected one point per branch assignment ({2 ** len(bi)}), got {len(by_key)}"
        )
    ordered = [by_key[key] for key in sorted(by_key)]

    vertices = np.array([np.concatenate([mult.mu, mult.nu]) for mult, _ in ordered])
    lam_stack = np.array([mult.lam for mult, _ in ordered])
    eta_stack = np.array([mult.eta for mult, _ in ordered])
    signed = _sign_columns([alpha for _, alpha in ordered], bi, p)

    ct = tol.cert_tol
    outside = np.argwhere(np.take_along_axis(vertices, signed, axis=1) < -ct)
    if outside.size:
        row, col = outside[0]
        raise ValueError(
            f"input for assignment {ordered[row][1].choices} leaves its sign region "
            f"at biactive index {bi[col]} (value {vertices[row, signed[row, col]]:.3g})"
        )

    # first occurrence of each distinct input, in assignment order
    full = np.hstack([lam_stack, eta_stack, vertices])
    distinct = np.sort(np.unique(full, axis=0, return_index=True)[1])
    hull = vertices[distinct]
    binding = (hull < 0.0).any(axis=0)
    # the bound min_norm_point accepts its own output under
    meets = -tol.solver_tol * (1.0 + np.abs(hull).max(initial=0.0))

    # Relaxation tree: a node is a prefix of branch choices, posed over its
    # binding rows (the root over none); the leaves are the regions.
    root = min_norm_point(MinNormProblem(hull), tol.solver_tol)
    solved = {(): root}
    best = None
    norms = []
    for (_, alpha), rows in zip(ordered, signed):
        # walk from the root to the leaf; a non-binding row leaves the node as is
        key, result = (), root
        for col in rows[binding[rows]].tolist():
            parent, key = result, key + (col,)
            result = solved.get(key)
            if result is None:
                # a child's region lies inside its parent's, so a parent
                # minimizer meeting the child's new row minimizes it too
                if parent.point[col] >= meets:
                    result = parent
                else:
                    result = min_norm_point(MinNormProblem(hull, key), tol.solver_tol)
                    if result is None:
                        raise NumericalFailure(
                            f"branch region for assignment {alpha.choices} reported "
                            "empty; its own input point should be feasible"
                        )
                solved[key] = result
        norms.append((alpha, result.norm_sq))
        # near-equal norms count as ties; iteration order is lexicographic,
        # so the smallest assignment wins them
        if best is None or result.norm_sq > best[1].norm_sq * (1.0 + 1e-9) + 1e-12:
            best = (alpha, result)

    beta, chosen = best
    w = np.zeros(len(ordered))
    w[distinct] = chosen.weights
    combined = MultiplierVector(
        lam=w @ lam_stack if lam_stack.size else np.zeros(0),
        eta=w @ eta_stack if eta_stack.size else np.zeros(0),
        mu=w @ vertices[:, :p] if p else np.zeros(0),
        nu=w @ vertices[:, p:] if p else np.zeros(0),
    )
    for i in bi:
        if not m_condition_holds(combined.mu[i], combined.nu[i], ct):
            raise PostconditionViolated(
                f"combined point fails the M-condition at biactive index {i}: "
                f"mu={combined.mu[i]:.6g}, nu={combined.nu[i]:.6g}"
            )
    return CombineResult(
        multiplier=combined,
        weights=w,
        selected=beta,
        branch_norms=tuple(norms),
    )


@dataclass(frozen=True, eq=False)
class BranchRecord:
    """One row of the branch table, in lexicographic assignment order.

    ``status`` is "optimal" (this branch's polar LP was solved),
    "covered" (an earlier branch's LP point lies in this branch's sign
    region and serves as its point), "infeasible" (its polar LP has no
    solution) or "not-evaluated" (after the infeasible branch).
    ``multiplier_norm`` is the norm of the branch's point, None without one.
    """

    alpha: BranchAssignment
    status: str
    multiplier_norm: Optional[float]


@dataclass(frozen=True, eq=False)
class StationarityVerdict:
    """Certification outcome with witness, residuals and provenance."""

    kind: VerdictKind
    witness: Optional[MultiplierVector]
    failed_branch: Optional[BranchAssignment]
    residuals: Dict[str, float]
    branch_table: Tuple[BranchRecord, ...] = ()
    combiner: Optional[CombineResult] = None
    sets: Optional[IndexSets] = None

    def __post_init__(self):
        if (self.witness is None) != (self.kind is VerdictKind.BRANCH_INFEASIBLE):
            raise ValueError("witness must be present exactly for M/S verdicts")


def certify_m_stationarity(data: FirstOrderData, tol: Tolerances = Tolerances(),
                           branch_cap: int = 12) -> StationarityVerdict:
    """End-to-end M-stationarity certification at the given point.

    Classifies the active structure (raising :class:`InfeasiblePoint` on an
    infeasible point), then visits the 2^|biactive| branches of the
    biactive set in lexicographic order (assignments outside it are inert).
    A branch whose sign region holds an earlier branch's LP point is
    covered by it: that point solves the branch's own polar LP, so no LP
    is solved for it.  Every other branch gets its polar LP.  The first
    infeasible one ends the visit and yields a BranchInfeasible verdict
    naming it; as covered branches are feasible, it is the
    lexicographically smallest failing assignment.  Whether that means
    "not a local minimizer" or "constraint qualification fails" cannot be
    told apart from first-order data, so the verdict reports the raw fact.
    When every branch has a point and the biactive set is non-empty, the
    witness is, in this order: the first branch point whose biactive
    mu_i and nu_i are all >= 0 (kind S, no further LP); the solution of
    the relaxed cone's polar LP, every biactive mu_i and nu_i bounded
    below by 0, when it is feasible (kind S); otherwise the combination
    of the branch points by :func:`schinabeck_combine` (kind M).  So the
    kind is S exactly when an S-multiplier exists, and an S verdict has
    no combiner.  With no biactive index the one branch point goes
    through the combiner and the kind is M.

    The returned witness always satisfies the base stationarity system
    within ``cert_tol``, and an S witness has no biactive multiplier
    below ``-cert_tol``.  The kind is S, M or BRANCH_INFEASIBLE; when
    the solvers cannot decide, :class:`NumericalFailure` is raised
    instead.
    """
    sets = classify_indices(data, tol)
    bi = sorted(sets.zero_zero)
    if len(bi) > branch_cap:
        raise BranchBudgetExceeded(
            f"biactive set has {len(bi)} indices, cap is {branch_cap}"
        )

    alphas = enumerate_branch_assignments(data.p, bi)
    signed = _sign_columns(alphas, bi, data.p)
    owner = np.full(len(alphas), -1)  # index into `found` of each branch's point
    found: List[MultiplierVector] = []
    norms: List[float] = []
    table: List[BranchRecord] = []
    for j, alpha in enumerate(alphas):
        status = "covered"
        if owner[j] < 0:
            mult = synthesize_branch_multipliers(data, sets, alpha, tol)
            if mult is None:
                table.append(BranchRecord(alpha, "infeasible", None))
                table.extend(BranchRecord(a, "not-evaluated", None) for a in alphas[j + 1:])
                return StationarityVerdict(
                    kind=VerdictKind.BRANCH_INFEASIBLE,
                    witness=None,
                    failed_branch=alpha,
                    residuals={},
                    branch_table=tuple(table),
                    combiner=None,
                    sets=sets,
                )
            # the same sign test min_norm_point uses for a feasible start
            in_region = (np.concatenate([mult.mu, mult.nu])[signed] >= 0.0).all(axis=1)
            owner[(owner < 0) & in_region] = len(found)
            owner[j] = len(found)
            found.append(mult)
            norms.append(float(np.linalg.norm(
                np.concatenate([mult.lam, mult.eta, mult.mu, mult.nu]))))
            status = "optimal"
        table.append(BranchRecord(alpha, status, norms[owner[j]]))

    # an S-multiplier lies in every branch's sign region, so it is itself
    # an M-witness; the combiner runs only when none exists
    s_point = None
    if bi:
        s_point = next((mult for mult in found
                        if (mult.mu[bi] >= 0.0).all() and (mult.nu[bi] >= 0.0).all()), None)
        if s_point is None:
            s_point = polar_s_membership(LinearizedCone(data, sets), -data.grad_f,
                                         tol.solver_tol)
    if s_point is not None:
        kind, combine, witness = VerdictKind.S, None, s_point
        if (witness.mu[bi] < -tol.cert_tol).any() or (witness.nu[bi] < -tol.cert_tol).any():
            raise NumericalFailure("S witness has a biactive multiplier below -cert_tol")
    else:
        combine = schinabeck_combine([(found[k], alpha) for k, alpha in zip(owner, alphas)],
                                     bi, tol)
        kind, witness = VerdictKind.M, combine.multiplier
    residual_report = check_stationarity_system(data, sets, witness)
    if not residual_report.system_ok(tol.cert_tol):
        raise NumericalFailure(
            f"{kind.value} witness fails the stationarity system beyond cert_tol"
        )
    residuals = dict(residual_report.as_dict())
    residuals["m_condition"] = m_condition_gap(residual_report.biactive_pairs, tol.cert_tol)

    return StationarityVerdict(
        kind=kind,
        witness=witness,
        failed_branch=None,
        residuals=residuals,
        branch_table=tuple(table),
        combiner=combine,
        sets=sets,
    )
