"""Independent brute-force verifiers: sign-pattern enumeration, grid
search over the weight simplex, and sampled ray-tangency checks for
affine data.

The M and S oracles share one pattern LP.  A pattern is two masks over
the complementarity indices, saying which mu and nu multipliers are
present, and one lower bound per index: -inf (free), 0 (the S system)
or eps (both positive).  ``oracle_m_exists`` enumerates the 3^|biactive|
M patterns; ``oracle_s_exists`` is the single pattern with every
biactive bound at 0.

These deliberately avoid the constructive pipeline's code paths so they
can serve as cross-checks.  They ship in the library (not as test-only
code) so the command line can emit dual certificates.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .cones import LinearizedCone, tmpcclin_contains
from .errors import DimensionMismatch, NotAffine, NumericalFailure, PatternBudgetExceeded
from .model import (
    AffineInstance,
    FirstOrderData,
    IndexSets,
    MultiplierVector,
    Tolerances,
    classify_indices,
    evaluate_affine,
)
from .solvers import LinearProgram, LpStatus, _nullspace, lp_solve


class PatternKind(enum.Enum):
    """One M-condition disjunct for a biactive index.

    ``oracle_m_exists`` tries the members in this order, so it fixes
    which witness is returned first.
    """

    MU_ZERO = "mu-zero"
    NU_ZERO = "nu-zero"
    BOTH_POSITIVE = "both-positive"


def _supports(sets: IndexSets) -> Tuple[np.ndarray, np.ndarray]:
    """Masks over 0..p-1 of the indices where mu (G active) and nu (H active) live."""
    mu_on = np.zeros(sets.p, dtype=bool)
    nu_on = np.zeros(sets.p, dtype=bool)
    mu_on[list(sets.zero_plus | sets.zero_zero)] = True
    nu_on[list(sets.plus_zero | sets.zero_zero)] = True
    return mu_on, nu_on


def _pattern_lp(data: FirstOrderData, sets: IndexSets, mu_on: np.ndarray,
                nu_on: np.ndarray, lower: np.ndarray) -> Optional[MultiplierVector]:
    """Feasibility LP for the base system under one sign pattern.

    ``mu_on`` and ``nu_on`` are masks over 0..p-1 naming the mu and nu
    columns that are present; an absent column is a multiplier fixed at
    zero.  Each present column i is bounded below by ``lower[i]``, with
    -inf for a free multiplier.  lambda is nonnegative on the active g.
    """
    active_g = sorted(sets.active_g)
    rows = np.vstack([data.grad_g[active_g], data.grad_h,
                      -data.grad_G[mu_on], -data.grad_H[nu_on]])
    lows = np.concatenate([np.zeros(len(active_g)), np.full(data.m, -np.inf),
                           lower[mu_on], lower[nu_on]])
    lp = LinearProgram(objective=np.zeros(lows.size), eq_matrix=rows.T, eq_rhs=-data.grad_f,
                       lower=lows)
    out = lp_solve(lp)
    if out.status is LpStatus.INFEASIBLE:
        return None
    if out.status is not LpStatus.OPTIMAL:
        raise NumericalFailure("pattern LP did not converge")

    sol = out.solution
    a, b, c = np.cumsum([len(active_g), data.m, np.count_nonzero(mu_on)])
    lam, mu, nu = np.zeros(data.l), np.zeros(data.p), np.zeros(data.p)
    lam[active_g] = sol[:a]
    mu[mu_on] = sol[b:c]
    nu[nu_on] = sol[c:]
    return MultiplierVector(lam, sol[a:b], mu, nu)


def oracle_m_exists(data: FirstOrderData, sets: IndexSets,
                    tol: Tolerances = Tolerances(),
                    eps: Optional[float] = None) -> Tuple[bool, Optional[MultiplierVector]]:
    """Decide M-multiplier existence by enumerating all 3^|biactive| patterns.

    Per biactive index the pattern fixes mu_i = 0, nu_i = 0, or demands
    both >= eps; the eps-LP is a sound inner approximation of the open
    "both strictly positive" condition.  The default eps is ten times
    ``cert_tol`` so that a returned witness also classifies as M under the
    strict-threshold convention; callers probing near the boundary should
    retry with a smaller eps.

    Raises :class:`PatternBudgetExceeded` for more than 8 biactive indices.
    """
    bi = sorted(sets.zero_zero)
    if len(bi) > 8:
        raise PatternBudgetExceeded(f"biactive set has {len(bi)} indices, pattern cap is 8")
    if eps is None:
        eps = 10.0 * tol.cert_tol
    mu_base, nu_base = _supports(sets)
    for combo in itertools.product(PatternKind, repeat=len(bi)):
        mu_on, nu_on, lower = mu_base.copy(), nu_base.copy(), np.full(data.p, -np.inf)
        for i, kind in zip(bi, combo):
            if kind is PatternKind.MU_ZERO:
                mu_on[i] = False
            elif kind is PatternKind.NU_ZERO:
                nu_on[i] = False
            else:
                lower[i] = eps
        witness = _pattern_lp(data, sets, mu_on, nu_on, lower)
        if witness is not None:
            return True, witness
    return False, None


def oracle_s_exists(data: FirstOrderData, sets: IndexSets,
                    tol: Tolerances = Tolerances()) -> Tuple[bool, Optional[MultiplierVector]]:
    """Decide strong-stationarity multiplier existence with one LP.

    This is the pattern LP with every biactive mu_i and nu_i bounded
    below by 0.
    """
    lower = np.full(data.p, -np.inf)
    lower[list(sets.zero_zero)] = 0.0
    witness = _pattern_lp(data, sets, *_supports(sets), lower)
    return witness is not None, witness


def _triangular_pairs(rem: int):
    """All integer (a, b) >= 0 with a + b <= rem, lexicographic in (a, b)."""
    counts = np.arange(rem, -1, -1) + 1
    a = np.repeat(np.arange(rem + 1), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    b = np.arange(a.size) - np.repeat(starts, counts)
    return a, b


def _weight_grid(k: int, steps: int):
    """Yield integer weight compositions lexicographically, chunk-vectorized."""
    if k == 1:
        yield np.array([[steps]], dtype=float)
    elif k == 2:
        a = np.arange(steps + 1, dtype=float)
        yield np.column_stack([a, steps - a])
    elif k in (3, 4):
        # four points fix the first weight per chunk; three make one chunk
        for i in (range(steps + 1) if k == 4 else (0,)):
            a, b = _triangular_pairs(steps - i)
            block = np.empty((a.size, k))
            if k == 4:
                block[:, 0] = i
            block[:, -3] = a
            block[:, -2] = b
            np.subtract(steps - i - a, b, out=block[:, -1])
            yield block
    else:
        raise ValueError("weight grid supports at most 4 points")


def oracle_combiner_grid(points, biactive: Iterable[int], grid_step: float,
                         tol: float = 1e-7) -> Optional[np.ndarray]:
    """First convex combination on a simplex grid satisfying the M-condition.

    ``points`` are (mu, nu) vectors of equal length 2p; the scan order is
    lexicographic in the integer weight compositions.  Returns the
    combined vector, or None when no grid point qualifies at this
    resolution.  Limited to four points; the grid explodes beyond that.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k > 4:
        raise ValueError("grid search supports at most 4 points")
    if pts.shape[1] % 2:
        raise DimensionMismatch("points must stack (mu, nu) halves of equal length")
    p = pts.shape[1] // 2
    bi = sorted(biactive)
    steps = int(round(1.0 / grid_step))
    for block in _weight_grid(k, steps):
        weights = block / steps
        combo = weights @ pts
        ok = np.ones(combo.shape[0], dtype=bool)
        for i in bi:
            mu_i = combo[:, i]
            nu_i = combo[:, p + i]
            ok &= ((mu_i > tol) & (nu_i > tol)) | (np.abs(mu_i * nu_i) <= tol)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return combo[hits[0]]
    return None


def grid_min_norm(vertices, sign_constraints: Sequence[int],
                  grid_step: float) -> Optional[Tuple[np.ndarray, float]]:
    """Brute-force minimum squared norm over the weight-simplex grid.

    Independent reference for :func:`mpcc_cert.solvers.min_norm_point`;
    sign constraints are enforced on the combined point's coordinates.
    Returns (point, norm_sq) or None when no grid point is sign-feasible.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    k = V.shape[0]
    if k > 4:
        raise ValueError("grid search supports at most 4 vertices")
    gram = V @ V.T
    signs = V[:, list(sign_constraints)]
    steps = int(round(1.0 / grid_step))
    best_weights, best_norm = None, np.inf
    for block in _weight_grid(k, steps):
        weights = block / steps
        # ||w'V||^2 = w'(VV')w: score on the k x k Gram matrix, form no points
        norms = np.einsum("ij,ij->i", weights @ gram, weights)
        if signs.shape[1]:
            norms[(weights @ signs < -1e-12).any(axis=1)] = np.inf
        j = int(np.argmin(norms))
        if norms[j] < best_norm:
            best_norm = norms[j]
            best_weights = weights[j]
    if best_weights is None:
        return None
    point = best_weights @ V
    return point, float(point @ point)


def ray_stays_feasible(inst: AffineInstance, x_bar, d,
                       tol: Tolerances = Tolerances(),
                       slope_tol: float = 1e-9) -> bool:
    """Whether x_bar + t d stays feasible for all small t > 0 (affine data).

    Closed-form: constraints with strict slack allow any slope; active
    ones constrain the slope's sign.  A biactive complementarity pair
    admits the ray exactly when one side's slope vanishes and the other's
    is nonnegative; the ray may run along either side of the pair, so
    both sides (the branches containing the point) are checked.
    """
    if not isinstance(inst, AffineInstance):
        raise NotAffine("ray analysis requires an AffineInstance")
    x = np.asarray(x_bar, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if x.size != inst.n or d.size != inst.n:
        raise DimensionMismatch("x_bar and d must have the instance dimension")

    a = tol.active_tol
    g_vals = inst.A_g @ x + inst.b_g
    h_vals = inst.A_h @ x + inst.b_h
    G_vals = inst.A_G @ x + inst.b_G
    H_vals = inst.A_H @ x + inst.b_H

    for i in range(inst.l):
        if abs(g_vals[i]) <= a and inst.A_g[i] @ d > slope_tol:
            return False
    for j in range(inst.m):
        if abs(inst.A_h[j] @ d) > slope_tol:
            return False
    for i in range(inst.p):
        G_zero = G_vals[i] <= a
        H_zero = H_vals[i] <= a
        sG = inst.A_G[i] @ d
        sH = inst.A_H[i] @ d
        if G_zero and H_zero:
            g_side = abs(sG) <= slope_tol and sH >= -slope_tol
            h_side = abs(sH) <= slope_tol and sG >= -slope_tol
            if not (g_side or h_side):
                return False
        elif H_zero:
            if abs(sH) > slope_tol:
                return False
        elif G_zero:
            if abs(sG) > slope_tol:
                return False
    return True


@dataclass(frozen=True, eq=False)
class TangentSampleReport:
    n_directions: int
    tangent_count: int
    linearized_count: int
    mismatches: Tuple[Tuple[np.ndarray, bool, bool], ...]

    @property
    def agreement(self) -> bool:
        return not self.mismatches


def oracle_tangent_sample(inst: AffineInstance, x_bar, directions: int = 1000,
                          seed: int = 0, tol: Tolerances = Tolerances(),
                          max_recorded: int = 10) -> TangentSampleReport:
    """Sampled comparison of ray tangency against linearized-cone membership.

    For affine constraints a ray direction is tangent exactly when the
    point stays feasible along it for small steps, which
    :func:`ray_stays_feasible` decides in closed form.  Each sampled
    direction is also run through :func:`tmpcclin_contains`; any direction
    tangent-but-not-linearized (or vice versa) is recorded as a mismatch.
    Half of the samples are raw unit directions, half are projected onto
    the equality structure first so the interesting region gets hit.

    Raises :class:`InfeasiblePoint` when x_bar is infeasible.
    """
    if not isinstance(inst, AffineInstance):
        raise NotAffine("tangent sampling requires an AffineInstance")
    x = np.asarray(x_bar, dtype=float).reshape(-1)
    data = evaluate_affine(inst, x)
    sets = classify_indices(data, tol)
    cone = LinearizedCone(data, sets)

    base_basis = _nullspace(cone.eq_rows)

    rng = np.random.default_rng(seed)
    biactive = sorted(sets.zero_zero)
    slope_tol = 1e-9
    tangent_count = 0
    linearized_count = 0
    mismatches = []
    for idx in range(directions):
        raw = rng.standard_normal(inst.n)
        mode = idx % 3
        if mode == 1 and base_basis.size:
            raw = base_basis @ (base_basis.T @ raw)
        elif mode == 2:
            # pin each biactive pair to a random side, so directions land in
            # the (often lower-dimensional) region where tangency can hold
            pins = [inst.A_H[i] if rng.random() < 0.5 else inst.A_G[i] for i in biactive]
            basis = _nullspace(np.vstack([cone.eq_rows, *pins]))
            raw = basis @ (basis.T @ raw) if basis.size else np.zeros(inst.n)
        norm = np.linalg.norm(raw)
        if norm < 1e-12:
            continue
        d = raw / norm
        tangent = ray_stays_feasible(inst, x, d, tol, slope_tol)
        linearized = tmpcclin_contains(cone, d, slope_tol)
        tangent_count += tangent
        linearized_count += linearized
        if tangent != linearized and len(mismatches) < max_recorded:
            mismatches.append((d, tangent, linearized))
    return TangentSampleReport(
        n_directions=directions,
        tangent_count=tangent_count,
        linearized_count=linearized_count,
        mismatches=tuple(mismatches),
    )
