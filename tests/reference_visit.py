"""The per-leaf branch visit, kept as a reference for the box walk.

``reference_certify`` is ``certify_m_stationarity`` as it was before the
visit walked coverage boxes: it builds all 2^|biactive| assignments,
marks each branch's owner as LP points are found, and builds the branch
table eagerly.  It solves its branch LPs through the same
``mpcc_cert.stationarity.polar_branch_membership`` binding, looked up at
each call, so a test can record the LP sequence of both and compare
them, along with the kind, ``failed_branch``, the witness and the
expanded table.  When no branch point is an S-multiplier, the
independent oracle ``oracle_s_exists`` decides whether one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import mpcc_cert.stationarity
from mpcc_cert import (
    BranchAssignment,
    BranchBudgetExceeded,
    BranchRecord,
    CombineResult,
    FirstOrderData,
    LinearizedCone,
    MultiplierVector,
    NumericalFailure,
    Tolerances,
    VerdictKind,
    check_stationarity_system,
    classify_indices,
    enumerate_branch_assignments,
    oracle_s_exists,
    schinabeck_combine,
)
from mpcc_cert.stationarity import _sign_columns


@dataclass(frozen=True, eq=False)
class ReferenceVerdict:
    kind: VerdictKind
    witness: Optional[MultiplierVector]
    failed_branch: Optional[BranchAssignment]
    branch_table: Tuple[BranchRecord, ...]
    combiner: Optional[CombineResult]


def reference_certify(data: FirstOrderData, tol: Tolerances = Tolerances(),
                      branch_cap: int = 12) -> ReferenceVerdict:
    sets = classify_indices(data, tol)
    bi = sorted(sets.zero_zero)
    if len(bi) > branch_cap:
        raise BranchBudgetExceeded(
            f"biactive set has {len(bi)} indices, cap is {branch_cap}"
        )

    cone = LinearizedCone(data, sets)
    alphas = enumerate_branch_assignments(data.p, bi)
    signed = _sign_columns(alphas, bi, data.p)
    owner = np.full(len(alphas), -1)  # index into `found` of each branch's point
    found: List[MultiplierVector] = []
    norms: List[float] = []
    table: List[BranchRecord] = []
    for j, alpha in enumerate(alphas):
        status = "covered"
        if owner[j] < 0:
            mult = mpcc_cert.stationarity.polar_branch_membership(cone, alpha, -data.grad_f,
                                                                  tol.solver_tol)
            if mult is None:
                table.append(BranchRecord(alpha, "infeasible", None))
                table.extend(BranchRecord(a, "not-evaluated", None) for a in alphas[j + 1:])
                return ReferenceVerdict(VerdictKind.BRANCH_INFEASIBLE, None, alpha,
                                        tuple(table), None)
            # the same sign test min_norm_point uses for a feasible start
            in_region = (np.concatenate([mult.mu, mult.nu])[signed] >= 0.0).all(axis=1)
            owner[(owner < 0) & in_region] = len(found)
            owner[j] = len(found)
            found.append(mult)
            norms.append(float(np.linalg.norm(
                np.concatenate([mult.lam, mult.eta, mult.mu, mult.nu]))))
            status = "optimal"
        table.append(BranchRecord(alpha, status, norms[owner[j]]))

    s_point = None
    if bi:
        s_point = next((mult for mult in found
                        if (mult.mu[bi] >= 0.0).all() and (mult.nu[bi] >= 0.0).all()), None)
        if s_point is None:
            s_point = oracle_s_exists(data, sets, tol)[1]
    if s_point is not None:
        kind, combine, witness = VerdictKind.S, None, s_point
    else:
        combine = schinabeck_combine([(found[k], alpha) for k, alpha in zip(owner, alphas)],
                                     bi, tol)
        kind, witness = VerdictKind.M, combine.multiplier
    if not check_stationarity_system(data, sets, witness).system_ok(tol.cert_tol):
        raise NumericalFailure(
            f"{kind.value} witness fails the stationarity system beyond cert_tol"
        )
    return ReferenceVerdict(kind, witness, None, tuple(table), combine)
