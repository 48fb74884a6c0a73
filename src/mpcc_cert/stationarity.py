"""Stationarity checkers, the branch walk, the combiner and the certifier.

The pipeline: classify the active structure, find a polar-membership
point for every branch of the biactive set (one LP per branch that no
earlier point's box of branches holds, walking the boxes rather than
the 2^|biactive| branches and stopping at the first infeasible LP).
Each branch LP returns the point with the least negative part over its
free biactive multipliers, so the first branch's LP (every biactive
mu_i >= 0, nu_i free) finds an S-multiplier exactly when one exists.
An S-multiplier lies in every branch's sign region, so it ends the
visit and is itself an M-witness.  Only when none exists is a convex
combination of the branch multipliers selected whose biactive pairs
satisfy the M-condition "(mu_i > 0 and nu_i > 0) or mu_i nu_i = 0".
The selection rule (take, among the per-branch minimum-norm points of
the multiplier hull, one of maximal norm) guarantees the condition
exactly in real arithmetic.  The per-branch table is a view expanded
from the walk when it is read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cones import (
    BranchAssignment,
    LinearizedCone,
    _leaf_assignment,
    enumerate_branch_assignments,
    polar_branch_membership,
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
    "BranchWalk",
    "CombineResult",
    "StationarityVerdict",
    "check_stationarity_system",
    "classify_multiplier",
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


# Room for roundoff in the gradient residual, per unit of the summed
# magnitudes of its terms (the float64 unit roundoff is 1.1e-16).
GRADIENT_ROUNDOFF = 1e-13


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Pure residuals of the base stationarity system; no verdict attached.

    ``lambda_active_min`` is the smallest multiplier on active inequality
    constraints (should be >= 0); the remaining scalars are worst absolute
    violations (should be 0).  Empty index sets report neutral zeros.
    ``biactive_pairs`` lists (index, mu_i, nu_i) so the sign pattern on
    the biactive set stays visible rather than being silently classified.
    ``gradient_scale`` sums, over grad f and the four multiplier terms of
    the gradient identity, each term's largest magnitude.
    """

    gradient: float
    lambda_active_min: float
    lambda_inactive_abs: float
    mu_pluszero_abs: float
    nu_zeroplus_abs: float
    biactive_pairs: Tuple[Tuple[int, float, float], ...]
    gradient_scale: float = 0.0

    def system_ok(self, tol: float) -> bool:
        """Every residual within ``tol``; the gradient may exceed it by roundoff.

        Summing terms of magnitude ``gradient_scale`` leaves a roundoff
        error that grows with them, so the gradient test allows
        ``tol + GRADIENT_ROUNDOFF * gradient_scale``.  The other tests are
        absolute.
        """
        return (
            self.gradient <= tol + GRADIENT_ROUNDOFF * self.gradient_scale
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
    terms = []
    if data.l:
        terms.append(mult.lam @ data.grad_g)
    if data.m:
        terms.append(mult.eta @ data.grad_h)
    if data.p:
        terms += [-(mult.mu @ data.grad_G), -(mult.nu @ data.grad_H)]
    r = data.grad_f.copy()
    for term in terms:
        r += term
    gradient = float(np.abs(r).max(initial=0.0))
    scale = float(np.abs([data.grad_f] + terms).max(axis=1, initial=0.0).sum())

    active = sorted(sets.active_g)
    inactive = sorted(set(range(data.l)) - sets.active_g)
    lam_min = float(min((mult.lam[i] for i in active), default=0.0))
    lam_off = float(max((abs(mult.lam[i]) for i in inactive), default=0.0))
    mu_pz = float(max((abs(mult.mu[i]) for i in sorted(sets.plus_zero)), default=0.0))
    nu_zp = float(max((abs(mult.nu[i]) for i in sorted(sets.zero_plus)), default=0.0))
    pairs = tuple((i, float(mult.mu[i]), float(mult.nu[i])) for i in sorted(sets.zero_zero))
    return ResidualReport(gradient, lam_min, lam_off, mu_pz, nu_zp, pairs, scale)


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
    "covered" (an earlier LP point lies in this branch's sign region and
    serves as its point), "infeasible" (its polar LP has no solution) or
    "not-evaluated" (after the infeasible branch).  ``multiplier_norm`` is
    the norm of the branch's point, None without one.  The rows are
    expanded from a :class:`BranchWalk` when the table is read.
    """

    alpha: BranchAssignment
    status: str
    multiplier_norm: Optional[float]


def _box(mult: MultiplierVector, bi: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The leaves whose sign region holds ``mult``, as (mask, value) on the leaf bits.

    At biactive index i the point allows choice 1 when mu_i >= 0 and
    choice 2 when nu_i >= 0 (the sign test :func:`min_norm_point` uses for
    a feasible start); a leaf lies in the box when its bits under ``mask``
    equal ``value``.  None when some index allows neither choice.
    """
    mask = value = 0
    for one, two in zip((mult.mu[bi] >= 0.0).tolist(), (mult.nu[bi] >= 0.0).tolist()):
        if not (one or two):
            return None
        mask, value = mask << 1 | (not (one and two)), value << 1 | (not one)
    return mask, value


@dataclass(frozen=True, eq=False)
class BranchWalk:
    """What the branch visit found, the record the branch table is expanded from.

    The leaves are the 2^|biactive| assignments in lexicographic order,
    numbered so that leaf j's choice at ``biactive[t]`` is 2 exactly when
    bit ``len(biactive) - 1 - t`` of j is set (the numbering
    :func:`enumerate_branch_assignments` lists them in).  ``points[k]`` is the polar
    LP point of leaf ``leaves[k]``, in the order the LPs were solved, and
    ``boxes[k]`` the (mask, value) of the leaves whose sign region holds
    it (see :func:`_box`; None when it holds none).  ``failed`` is the
    leaf whose polar LP was infeasible, None when every LP was feasible.
    """

    p: int
    biactive: Tuple[int, ...]
    leaves: Tuple[int, ...]
    points: Tuple[MultiplierVector, ...]
    boxes: Tuple[Optional[Tuple[int, int]], ...]
    failed: Optional[int] = None

    def expand(self) -> Tuple[List[BranchAssignment], List[int]]:
        """Every leaf's assignment, with the index into ``points`` of its point.

        A leaf's point is that of the first LP'd leaf (in solve order)
        whose box holds it or which is the leaf itself; the failed leaf and
        those after it get -1.
        """
        alphas = enumerate_branch_assignments(self.p, self.biactive)
        owner = [-1] * len(alphas)
        end = len(alphas) if self.failed is None else self.failed
        for k, (leaf, box) in enumerate(zip(self.leaves, self.boxes)):
            owner[leaf] = k  # no earlier box holds it, or it would not be LP'd
            if box is not None:
                mask, value = box
                for j in range(end):
                    if owner[j] < 0 and j & mask == value:
                        owner[j] = k
        return alphas, owner

    def table(self) -> Tuple[BranchRecord, ...]:
        alphas, owner = self.expand()
        norms = [float(np.linalg.norm(np.concatenate([m.lam, m.eta, m.mu, m.nu])))
                 for m in self.points]
        rows = []
        for j, (alpha, k) in enumerate(zip(alphas, owner)):
            if k >= 0:
                status = "optimal" if self.leaves[k] == j else "covered"
                rows.append(BranchRecord(alpha, status, norms[k]))
            else:
                rows.append(BranchRecord(
                    alpha, "infeasible" if j == self.failed else "not-evaluated", None))
        return tuple(rows)


def _s_multiplier_or_self(mult: MultiplierVector, bi: List[int], w: np.ndarray,
                          tol: float) -> MultiplierVector:
    """Leaf 0's LP point, with its free nu_i's roundoff cleared when it is an S-multiplier.

    Every S-multiplier lies in leaf 0's polar (biactive mu_i >= 0, nu_i
    free), and that LP returns the point with the least total negative
    part over the nu_i.  So an S-multiplier exists exactly when that
    optimum is zero, read within the tolerance :func:`lp_solve` gives a
    zero phase-1 optimum, ``tol * (1 + max|w|)``.  Then the nu_i below
    0 (roundoff) are set to 0, and the point lies in every sign region.
    """
    negative = np.maximum(-mult.nu[bi], 0.0)
    if not 0.0 < negative.sum() <= tol * (1.0 + np.abs(w).max(initial=0.0)):
        return mult
    nu = mult.nu.copy()
    nu[bi] += negative
    return MultiplierVector(mult.lam, mult.eta, mult.mu, nu)


def _walk_branches(cone: LinearizedCone, bi: List[int], w: np.ndarray,
                   tol: Tolerances) -> BranchWalk:
    """Solve the branch LPs that coverage leaves, in lexicographic leaf order.

    The next LP is the first leaf that no earlier point's box holds.  A box
    fixes the leaf bits under its mask, so when it holds a leaf it holds
    the whole aligned block of leaves that agree with it above the mask's
    lowest set bit: that subtree is skipped in one step.  LP'd leaves
    come in increasing order, so each search resumes after the last one.
    Stops at the first infeasible LP.  Leaf 0's point, when it is an
    S-multiplier (see :func:`_s_multiplier_or_self`), holds every leaf,
    so the walk ends after that one LP.
    """
    p = cone.data.p
    leaves: List[int] = []
    points: List[MultiplierVector] = []
    boxes: List[Optional[Tuple[int, int]]] = []
    leaf, end = 0, 1 << len(bi)
    while leaf < end:
        # the largest block one box holds: 2**z leaves, z its mask's trailing zeros
        z = max(((mask & -mask).bit_length() - 1 if mask else len(bi)
                 for mask, value in filter(None, boxes) if leaf & mask == value), default=-1)
        if z >= 0:
            leaf = ((leaf >> z) + 1) << z
            continue
        mult = polar_branch_membership(cone, _leaf_assignment(p, bi, leaf), w, tol.solver_tol)
        if mult is None:
            return BranchWalk(p, tuple(bi), tuple(leaves), tuple(points), tuple(boxes), leaf)
        if leaf == 0:
            mult = _s_multiplier_or_self(mult, bi, w, tol.solver_tol)
        leaves.append(leaf)
        points.append(mult)
        boxes.append(_box(mult, bi))
        leaf += 1
    return BranchWalk(p, tuple(bi), tuple(leaves), tuple(points), tuple(boxes))


@dataclass(frozen=True, eq=False)
class StationarityVerdict:
    """Certification outcome with witness, residuals and provenance.

    ``walk`` records the branch visit; ``branch_table`` is expanded from
    it, one row per assignment, when it is first read.
    """

    kind: VerdictKind
    witness: Optional[MultiplierVector]
    failed_branch: Optional[BranchAssignment]
    residuals: Dict[str, float]
    walk: Optional[BranchWalk] = None
    combiner: Optional[CombineResult] = None
    sets: Optional[IndexSets] = None

    def __post_init__(self):
        if (self.witness is None) != (self.kind is VerdictKind.BRANCH_INFEASIBLE):
            raise ValueError("witness must be present exactly for M/S verdicts")

    @functools.cached_property
    def branch_table(self) -> Tuple[BranchRecord, ...]:
        return () if self.walk is None else self.walk.table()


def certify_m_stationarity(data: FirstOrderData, tol: Tolerances = Tolerances(),
                           branch_cap: int = 12) -> StationarityVerdict:
    """End-to-end M-stationarity certification at the given point.

    Classifies the active structure (raising :class:`InfeasiblePoint` on an
    infeasible point), then visits the 2^|biactive| branches of the
    biactive set in lexicographic order (assignments outside it are inert).
    Each LP point covers a box of branches, the product over the biactive
    indices of the choices whose sign it meets (choice 1 where mu_i >= 0,
    choice 2 where nu_i >= 0): it solves each such branch's own polar LP,
    so no LP is solved for them.  The visit walks those boxes and solves
    the polar LP of each branch that no earlier box holds, skipping any
    subtree of branches that one box holds whole.  The first infeasible
    one ends the visit and yields a BranchInfeasible verdict naming it; as
    covered branches are feasible, it is the lexicographically smallest
    failing assignment.  Whether that means "not a local minimizer" or
    "constraint qualification fails" cannot be told apart from
    first-order data, so the verdict reports the raw fact.
    The first branch's LP (every biactive mu_i >= 0, nu_i free) returns
    its polar point with the least total negative part over the nu_i.
    Every S-multiplier lies in that polar, so when the optimum is zero
    (within ``solver_tol * (1 + max|grad f|)``, the nu_i below 0 by that
    roundoff set to 0) the point is an S-multiplier: it lies in every
    branch's sign region, so its box holds every branch, the visit ends
    after one LP and the point is the witness (kind S, no combiner).
    Otherwise no S-multiplier exists; when every branch has a point, the
    witness is the combination of the branch points by
    :func:`schinabeck_combine`, which takes one point per branch (kind
    M).  So the kind is S exactly when an S-multiplier exists.  With no
    biactive index the S sign conditions are vacuous, so the one branch
    point is an S-multiplier and the kind is S, with no combiner.  The
    per-branch table is expanded from the visit's record only when
    ``branch_table`` is read.

    The returned witness always satisfies the base stationarity system
    (see :meth:`ResidualReport.system_ok`) at ``cert_tol``, and an S
    witness has every biactive mu_i, nu_i >= 0.  The kind is
    S, M or BRANCH_INFEASIBLE; when the solvers cannot decide,
    :class:`NumericalFailure` is raised instead.  A negative
    ``branch_cap`` raises ValueError before the point is classified.
    """
    if branch_cap < 0:
        raise ValueError(f"branch_cap must be nonnegative, got {branch_cap}")
    sets = classify_indices(data, tol)
    bi = sorted(sets.zero_zero)
    if len(bi) > branch_cap:
        raise BranchBudgetExceeded(
            f"biactive set has {len(bi)} indices, cap is {branch_cap}"
        )

    cone = LinearizedCone(data, sets)
    walk = _walk_branches(cone, bi, -data.grad_f, tol)
    if walk.failed is not None:
        return StationarityVerdict(
            kind=VerdictKind.BRANCH_INFEASIBLE,
            witness=None,
            failed_branch=_leaf_assignment(data.p, bi, walk.failed),
            residuals={},
            walk=walk,
            combiner=None,
            sets=sets,
        )

    # leaf 0's point holds every leaf exactly when it is an S-multiplier,
    # which is itself an M-witness; the combiner runs only when none exists
    if walk.boxes[0] == (0, 0):
        kind, combine, witness = VerdictKind.S, None, walk.points[0]
    else:
        alphas, owner = walk.expand()
        combine = schinabeck_combine([(walk.points[k], alpha) for k, alpha in zip(owner, alphas)],
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
        walk=walk,
        combiner=combine,
        sets=sets,
    )
