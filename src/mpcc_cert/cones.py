"""Linearized-cone membership tests and polar membership via LP.

Membership of a *given* direction is closed-form, so it is tested by
direct inequality evaluation; LPs are reserved for polar membership,
where a feasible multiplier system is exactly the certificate that a
vector lies in the polar of a branch cone (or of the relaxed cone, whose
polar holds the S-multipliers).  A branch LP minimizes the negative
parts of the biactive multipliers it leaves free, so the first branch's
LP finds an S-multiplier whenever one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .model import DEFAULT_SOLVER_TOL, FirstOrderData, IndexSets, MultiplierVector
from .solvers import LinearProgram, LpStatus, _nullspace, lp_solve


@dataclass(frozen=True)
class BranchAssignment:
    """Per-index choice of which complementarity multiplier sign is enforced.

    Entry 1 enforces the H-linearization to vanish (mu >= 0 on the polar
    side), entry 2 the G-linearization (nu >= 0).  Entries at indices
    outside the biactive set are present but ignored.
    """

    choices: Tuple[int, ...]

    def __post_init__(self):
        choices = tuple(map(int, self.choices))
        if not {1, 2}.issuperset(choices):
            raise ValueError("branch choices must be 1 or 2")
        object.__setattr__(self, "choices", choices)

    def restricted(self, biactive: Iterable[int]) -> Tuple[int, ...]:
        return tuple(self.choices[i] for i in sorted(biactive))


def enumerate_branch_assignments(p: int, biactive: Iterable[int]) -> list:
    """All 2^|biactive| assignments in lexicographic order, inert entries 1."""
    bi = sorted(biactive)
    if any(not 0 <= i < p for i in bi):
        raise DimensionMismatch(f"biactive indices must lie in 0..{p - 1}, got {bi}")
    out = []
    for combo in itertools.product((1, 2), repeat=len(bi)):
        choices = [1] * p
        for i, c in zip(bi, combo):
            choices[i] = c
        out.append(BranchAssignment(tuple(choices)))
    return out


@dataclass(frozen=True, eq=False)
class LinearizedCone:
    """View over point data and its index partition defining the cone rows."""

    data: FirstOrderData
    sets: IndexSets

    def __post_init__(self):
        if self.sets.l != self.data.l or self.sets.p != self.data.p:
            raise DimensionMismatch("index sets do not match the data dimensions")


def _check_direction(cone: LinearizedCone, d, name: str = "direction") -> np.ndarray:
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size != cone.data.n:
        raise DimensionMismatch(f"{name}: expected length {cone.data.n}, got {d.size}")
    return d


def _check_alpha(cone: LinearizedCone, alpha: BranchAssignment) -> None:
    if len(alpha.choices) != cone.data.p:
        raise DimensionMismatch("alpha has wrong length")


def _common_rows(cone: LinearizedCone):
    """Rows every branch cone shares: (equalities, <=0 rows).

    The equalities are the h rows, G on I^0+ and H on I^+0; the <=0 rows
    are g on its active set.
    """
    data, sets = cone.data, cone.sets
    eq_rows = np.vstack([data.grad_h, data.grad_G[sorted(sets.zero_plus)],
                         data.grad_H[sorted(sets.plus_zero)]])
    return eq_rows, data.grad_g[sorted(sets.active_g)]


def _branch_system(cone: LinearizedCone, alpha: BranchAssignment):
    """Rows of the branch cone split by sense: (equalities, >=0 rows, <=0 rows).

    The shared rows come first; each biactive index then adds its
    alpha-pinned slope to the equalities and the other one to the >=0 rows.
    """
    data = cone.data
    eq_rows, leq_rows = _common_rows(cone)
    bi = sorted(cone.sets.zero_zero)
    pin_h = np.array([alpha.choices[i] == 1 for i in bi], dtype=bool)[:, None]
    G, H = data.grad_G[bi], data.grad_H[bi]
    return (np.vstack([eq_rows, np.where(pin_h, H, G)]),
            np.where(pin_h, G, H), leq_rows)


def _outside(d: np.ndarray, tol: float, eq_rows, geq_rows, leq_rows) -> bool:
    """True when d breaks a row beyond tol: |r'd| on eq, r'd >= 0, r'd <= 0."""
    return bool((np.abs(eq_rows @ d) > tol).any() or (geq_rows @ d < -tol).any()
                or (leq_rows @ d > tol).any())


def tmpcclin_contains(cone: LinearizedCone, d, tol: float = DEFAULT_SOLVER_TOL) -> bool:
    """Membership in the complementarity-aware linearized tangent cone.

    On biactive indices both linearized slopes must be nonnegative and
    their product must vanish; the product check composes two tolerances,
    a deliberate simple choice over scaling-aware alternatives.
    """
    d = _check_direction(cone, d)
    eq_rows, leq_rows = _common_rows(cone)
    bi = sorted(cone.sets.zero_zero)
    G, H = cone.data.grad_G[bi], cone.data.grad_H[bi]
    if _outside(d, tol, eq_rows, np.vstack([G, H]), leq_rows):
        return False
    return not (np.abs((G @ d) * (H @ d)) > tol).any()


def branch_cone_contains(cone: LinearizedCone, alpha: BranchAssignment, d,
                         tol: float = DEFAULT_SOLVER_TOL) -> bool:
    """Membership in the polyhedral branch cone selected by alpha.

    Identical to the linearized cone except that on each biactive index
    one slope is pinned to zero (per alpha), which makes the product
    condition redundant and the cone convex.
    """
    d = _check_direction(cone, d)
    _check_alpha(cone, alpha)
    return not _outside(d, tol, *_branch_system(cone, alpha))


def branch_cone_inclusion_check(cone: LinearizedCone, alpha: BranchAssignment,
                                samples: int = 1000, seed: int = 0,
                                tol: float = DEFAULT_SOLVER_TOL,
                                membership: Optional[Callable] = None) -> bool:
    """Empirically verify that the branch cone sits inside the linearized cone.

    Random vectors are projected onto the branch cone's equality subspace
    and kept only when the remaining inequalities hold; every retained
    sample must pass ``membership`` (the linearized-cone test by default).
    Returns False on the first counterexample.  Test utility; the
    inclusion always holds for correct membership tests.
    """
    if membership is None:
        membership = tmpcclin_contains
    eq_rows, _, _ = _branch_system(cone, alpha)
    basis = _nullspace(eq_rows)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        d = basis @ (basis.T @ rng.standard_normal(cone.data.n))
        if not branch_cone_contains(cone, alpha, d, tol):
            continue
        if not membership(cone, d, tol):
            return False
    return True


def _biactive_mask(cone: LinearizedCone) -> np.ndarray:
    mask = np.zeros(cone.data.p, dtype=bool)
    mask[sorted(cone.sets.zero_zero)] = True
    return mask


def _polar_membership(cone: LinearizedCone, mu_signed: np.ndarray, nu_signed: np.ndarray,
                      w: np.ndarray, tol: float) -> Optional[MultiplierVector]:
    """The polar LP shared by the branch cones and the relaxed cone.

    ``mu_signed`` and ``nu_signed`` are masks over 0..p-1 naming the mu_i
    and nu_i bounded below by 0; lam is nonnegative on the active g and
    every other multiplier is free.  A free biactive multiplier is split
    into two adjacent nonnegative columns, its row and the negated row,
    and the negated one costs 1, so the LP returns the polar point with
    the least total negative part over its free biactive multipliers.
    The split is the one :func:`lp_solve` makes for a free variable, so
    phase 1 is that of the feasibility LP.  Returns None when the LP is
    infeasible.
    """
    data, sets = cone.data, cone.sets
    active_g = sorted(sets.active_g)
    mu_support = sorted(sets.zero_plus | sets.zero_zero)
    nu_support = sorted(sets.plus_zero | sets.zero_zero)
    biactive = _biactive_mask(cone)

    # one column per multiplier: lam on the active g, eta, mu, nu on their supports
    rows = np.vstack([data.grad_g[active_g], data.grad_h,
                      -data.grad_G[mu_support], -data.grad_H[nu_support]])
    signed = np.concatenate([np.ones(len(active_g), dtype=bool), np.zeros(data.m, dtype=bool),
                             mu_signed[mu_support], nu_signed[nu_support]])
    split = np.concatenate([np.zeros(len(active_g) + data.m, dtype=bool),
                            biactive[mu_support], biactive[nu_support]]) & ~signed
    first = np.arange(signed.size) + np.cumsum(split) - split  # each multiplier's first column
    columns = np.repeat(rows, 1 + split, axis=0)
    minus = first[split] + 1
    columns[minus] *= -1.0
    cost = np.zeros(columns.shape[0])
    cost[minus] = 1.0
    lower = np.repeat(signed | split, 1 + split)
    lp = LinearProgram(objective=cost, eq_matrix=columns.T, eq_rhs=w,
                       bounds=[(0.0, None) if s else (None, None) for s in lower])
    out = lp_solve(lp, tol)
    if out.status is LpStatus.INFEASIBLE:
        return None
    if out.status is not LpStatus.OPTIMAL:
        raise NumericalFailure("polar membership LP did not converge")

    sol = out.solution[first]
    sol[split] -= out.solution[minus]
    a, b, c = np.cumsum([len(active_g), data.m, len(mu_support)])
    lam, mu, nu = np.zeros(data.l), np.zeros(data.p), np.zeros(data.p)
    lam[active_g] = sol[:a]
    mu[mu_support] = sol[b:c]
    nu[nu_support] = sol[c:]
    return MultiplierVector(lam, sol[a:b], mu, nu)


def polar_branch_membership(cone: LinearizedCone, alpha: BranchAssignment, w,
                            tol: float = DEFAULT_SOLVER_TOL) -> Optional[MultiplierVector]:
    """Express w as a polar combination of the branch cone's rows, via LP.

    The polar of the branch cone consists of all combinations
    sum lam_i grad g_i + sum eta_j grad h_j - sum mu_i grad G_i - sum nu_i grad H_i
    with lam >= 0 on the active set, mu supported on the G-active indices,
    nu on the H-active indices, and the alpha-selected biactive multiplier
    nonnegative.  Feasibility of that linear system is decided by
    :func:`lp_solve`; infeasibility certifies that w is outside the polar.

    Returns the multipliers or None when w is not in the polar.  Among
    the polar points the LP returns a vertex with the least total
    negative part over the biactive multipliers alpha leaves free; no
    norm is minimized.
    """
    w = _check_direction(cone, w, "w")
    _check_alpha(cone, alpha)
    biactive = _biactive_mask(cone)
    choices = np.asarray(alpha.choices)
    return _polar_membership(cone, biactive & (choices == 1), biactive & (choices == 2), w, tol)


def polar_s_membership(cone: LinearizedCone, w,
                       tol: float = DEFAULT_SOLVER_TOL) -> Optional[MultiplierVector]:
    """Express w as a polar combination of the relaxed cone's rows, via LP.

    The relaxed cone asks both linearized slopes to be nonnegative on
    every biactive index, so its polar is the branch polar with every
    biactive mu_i and nu_i nonnegative: the S-multipliers when w is
    -grad f.  Such a point lies in every branch's sign region.  Returns
    the multipliers, or None when w is not in the polar.
    """
    w = _check_direction(cone, w, "w")
    biactive = _biactive_mask(cone)
    return _polar_membership(cone, biactive, biactive, w, tol)


def polar_separating_direction(cone: LinearizedCone, alpha: BranchAssignment, w,
                               tol: float = DEFAULT_SOLVER_TOL) -> Optional[np.ndarray]:
    """Produce a branch-cone direction d with w'd > 0, or None if none exists.

    This is the alternative side of the polar membership LP: by the
    theorem of the alternative, w lies outside the polar exactly when such
    a separating direction exists.  The search maximizes w'd over the
    cone, normalized by w'd <= 1.
    """
    w = _check_direction(cone, w, "w")
    _check_alpha(cone, alpha)
    eq_rows, geq_rows, leq_rows = _branch_system(cone, alpha)
    ineq = np.vstack([leq_rows, -geq_rows, w.reshape(1, -1)])
    rhs = np.zeros(ineq.shape[0])
    rhs[-1] = 1.0
    lp = LinearProgram(
        objective=-w,
        eq_matrix=eq_rows,
        eq_rhs=np.zeros(eq_rows.shape[0]),
        ineq_matrix=ineq,
        ineq_rhs=rhs,
    )
    out = lp_solve(lp, tol)
    if out.status is not LpStatus.OPTIMAL:
        raise NumericalFailure("separating-direction LP did not converge")
    d = out.solution
    if w @ d > tol:
        return d
    return None
