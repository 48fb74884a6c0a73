"""Linearized-cone membership tests and polar membership via LP.

Membership of a *given* direction is closed-form, so it is tested by
direct inequality evaluation; LPs are reserved for polar membership,
where a feasible multiplier system is exactly the certificate that a
vector lies in the polar of a branch cone.  A branch LP minimizes the
negative parts of the biactive multipliers it leaves free, so the first
branch's LP finds an S-multiplier whenever one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Tuple

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


def _leaf_assignment(p: int, bi: Sequence[int], leaf: int) -> BranchAssignment:
    """The assignment of leaf ``leaf``: bit ``len(bi) - 1 - t`` set means choice 2 at bi[t]."""
    choices = [1] * p
    for t, i in enumerate(bi):
        choices[i] = 1 + ((leaf >> (len(bi) - 1 - t)) & 1)
    return BranchAssignment(tuple(choices))


def enumerate_branch_assignments(p: int, biactive: Iterable[int]) -> list:
    """All 2^|biactive| assignments in lexicographic order (leaf order), inert entries 1."""
    bi = sorted(biactive)
    if any(not 0 <= i < p for i in bi):
        raise DimensionMismatch(f"biactive indices must lie in 0..{p - 1}, got {bi}")
    return [_leaf_assignment(p, bi, leaf) for leaf in range(1 << len(bi))]


def _indices(members: Iterable[int]) -> np.ndarray:
    return np.array(sorted(members), dtype=int)


@dataclass(frozen=True, eq=False)
class LinearizedCone:
    """Point data and its index partition, with the arrays the cone rows are cut from.

    The arrays are built once, at construction.  ``active_g``,
    ``mu_support`` (I^0+ and I^00), ``nu_support`` (I^+0 and I^00) and
    ``biactive`` (I^00) are sorted index arrays.  ``eq_rows`` (the h rows,
    G on I^0+ and H on I^+0) and ``leq_rows`` (g on its active set) are
    the rows every branch cone shares.  ``polar_rows`` has one row per
    polar multiplier: lam on the active g, eta, then mu and nu on their
    supports with the G and H rows negated; ``polar_biactive`` flags the
    mu and nu rows of biactive indices, whose signs a branch decides.
    """

    data: FirstOrderData
    sets: IndexSets
    active_g: np.ndarray = field(init=False, repr=False)
    mu_support: np.ndarray = field(init=False, repr=False)
    nu_support: np.ndarray = field(init=False, repr=False)
    biactive: np.ndarray = field(init=False, repr=False)
    eq_rows: np.ndarray = field(init=False, repr=False)
    leq_rows: np.ndarray = field(init=False, repr=False)
    polar_rows: np.ndarray = field(init=False, repr=False)
    polar_biactive: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        data, sets = self.data, self.sets
        if sets.l != data.l or sets.p != data.p:
            raise DimensionMismatch("index sets do not match the data dimensions")
        active_g = _indices(sets.active_g)
        mu_support = _indices(sets.zero_plus | sets.zero_zero)
        nu_support = _indices(sets.plus_zero | sets.zero_zero)
        biactive = _indices(sets.zero_zero)
        is_biactive = np.zeros(data.p, dtype=bool)
        is_biactive[biactive] = True
        arrays = {
            "active_g": active_g,
            "mu_support": mu_support,
            "nu_support": nu_support,
            "biactive": biactive,
            "eq_rows": np.vstack([data.grad_h, data.grad_G[_indices(sets.zero_plus)],
                                  data.grad_H[_indices(sets.plus_zero)]]),
            "leq_rows": data.grad_g[active_g],
            "polar_rows": np.vstack([data.grad_g[active_g], data.grad_h,
                                     -data.grad_G[mu_support], -data.grad_H[nu_support]]),
            "polar_biactive": np.concatenate([np.zeros(active_g.size + data.m, dtype=bool),
                                              is_biactive[mu_support], is_biactive[nu_support]]),
        }
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _check_direction(cone: LinearizedCone, d, name: str = "direction") -> np.ndarray:
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size != cone.data.n:
        raise DimensionMismatch(f"{name}: expected length {cone.data.n}, got {d.size}")
    return d


def _check_alpha(cone: LinearizedCone, alpha: BranchAssignment) -> None:
    if len(alpha.choices) != cone.data.p:
        raise DimensionMismatch("alpha has wrong length")


def _branch_system(cone: LinearizedCone, alpha: BranchAssignment):
    """Rows of the branch cone split by sense: (equalities, >=0 rows, <=0 rows).

    The shared rows come first; each biactive index then adds its
    alpha-pinned slope to the equalities and the other one to the >=0 rows.
    """
    bi = cone.biactive
    pin_h = (np.array(alpha.choices, dtype=int)[bi] == 1)[:, None]
    G, H = cone.data.grad_G[bi], cone.data.grad_H[bi]
    return (np.vstack([cone.eq_rows, np.where(pin_h, H, G)]),
            np.where(pin_h, G, H), cone.leq_rows)


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
    G, H = cone.data.grad_G[cone.biactive], cone.data.grad_H[cone.biactive]
    if _outside(d, tol, cone.eq_rows, np.vstack([G, H]), cone.leq_rows):
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


def polar_branch_membership(cone: LinearizedCone, alpha: BranchAssignment, w,
                            tol: float = DEFAULT_SOLVER_TOL) -> Optional[MultiplierVector]:
    """Express w as a polar combination of the branch cone's rows, via LP.

    The polar of the branch cone consists of all combinations
    sum lam_i grad g_i + sum eta_j grad h_j - sum mu_i grad G_i - sum nu_i grad H_i
    with lam >= 0 on the active set, mu supported on the G-active indices,
    nu on the H-active indices, and the alpha-selected biactive multiplier
    nonnegative; every other multiplier is free.  Feasibility of that
    linear system is decided by :func:`lp_solve`; infeasibility certifies
    that w is outside the polar.

    A free biactive multiplier is split into two adjacent nonnegative
    columns, its row and the negated row, and the negated one costs 1, so
    the LP returns a vertex with the least total negative part over the
    biactive multipliers alpha leaves free; no norm is minimized.  The
    split is the one :func:`lp_solve` makes for a free variable, so phase
    1 is that of the feasibility LP.  Returns the multipliers, or None
    when w is not in the polar.
    """
    w = _check_direction(cone, w, "w")
    _check_alpha(cone, alpha)
    data = cone.data
    one = np.array(alpha.choices, dtype=int) == 1
    n_lam = cone.active_g.size
    # one column per multiplier, split where a biactive one is left free
    signed = cone.polar_biactive & np.concatenate([
        np.zeros(n_lam + data.m, dtype=bool), one[cone.mu_support], ~one[cone.nu_support]])
    signed[:n_lam] = True
    split = cone.polar_biactive & ~signed
    first = np.arange(signed.size) + np.cumsum(split) - split  # each multiplier's first column
    columns = np.repeat(cone.polar_rows, 1 + split, axis=0)
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
    a, b, c = np.cumsum([n_lam, data.m, cone.mu_support.size])
    lam, mu, nu = np.zeros(data.l), np.zeros(data.p), np.zeros(data.p)
    lam[cone.active_g] = sol[:a]
    mu[cone.mu_support] = sol[b:c]
    nu[cone.nu_support] = sol[c:]
    return MultiplierVector(lam, sol[a:b], mu, nu)


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
