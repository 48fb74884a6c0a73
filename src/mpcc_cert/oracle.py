"""Independent brute-force verifiers: sign-pattern enumeration, grid
search over the weight simplex, and sampled ray-tangency checks for
affine data.

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
from .errors import (
    DimensionMismatch,
    InfeasiblePoint,
    NotAffine,
    NumericalFailure,
    PatternBudgetExceeded,
)
from .model import (
    AffineInstance,
    FirstOrderData,
    IndexSets,
    MultiplierVector,
    Tolerances,
    check_feasibility,
    classify_indices,
    evaluate_affine,
)
from .solvers import LinearProgram, LpStatus, lp_solve


class PatternKind(enum.Enum):
    MU_ZERO = "mu-zero"
    NU_ZERO = "nu-zero"
    BOTH_POSITIVE = "both-positive"


@dataclass(frozen=True)
class PatternAssignment:
    """One M-condition disjunct per biactive index."""

    biactive: Tuple[int, ...]
    kinds: Tuple[PatternKind, ...]

    def __post_init__(self):
        if len(self.biactive) != len(self.kinds):
            raise DimensionMismatch("pattern must cover exactly the biactive set")

    def kind_of(self, index: int) -> Optional[PatternKind]:
        try:
            return self.kinds[self.biactive.index(index)]
        except ValueError:
            return None


def _pattern_lp(data: FirstOrderData, sets: IndexSets,
                pattern: Optional[PatternAssignment],
                eps: float, s_mode: bool) -> Optional[MultiplierVector]:
    """Feasibility LP for the base system plus per-index sign pattern.

    ``s_mode`` ignores the pattern and demands mu, nu >= 0 on the whole
    biactive set (the strong-stationarity system).
    """
    active_g = sorted(sets.active_g)
    mu_support = sorted(sets.zero_plus | sets.zero_zero)
    nu_support = sorted(sets.plus_zero | sets.zero_zero)

    def kind_of(i):
        return None if pattern is None else pattern.kind_of(i)

    columns, bounds = [], []
    layout = []
    for i in active_g:
        columns.append(data.grad_g[i])
        bounds.append((0.0, None))
        layout.append(("lam", i))
    for j in range(data.m):
        columns.append(data.grad_h[j])
        bounds.append((None, None))
        layout.append(("eta", j))
    for i in mu_support:
        if not s_mode and kind_of(i) is PatternKind.MU_ZERO:
            continue
        columns.append(-data.grad_G[i])
        if s_mode and i in sets.zero_zero:
            bounds.append((0.0, None))
        elif kind_of(i) is PatternKind.BOTH_POSITIVE:
            bounds.append((eps, None))
        else:
            bounds.append((None, None))
        layout.append(("mu", i))
    for i in nu_support:
        if not s_mode and kind_of(i) is PatternKind.NU_ZERO:
            continue
        columns.append(-data.grad_H[i])
        if s_mode and i in sets.zero_zero:
            bounds.append((0.0, None))
        elif kind_of(i) is PatternKind.BOTH_POSITIVE:
            bounds.append((eps, None))
        else:
            bounds.append((None, None))
        layout.append(("nu", i))

    A = np.column_stack(columns) if columns else np.zeros((data.n, 0))
    lp = LinearProgram(objective=np.zeros(len(columns)), eq_matrix=A,
                       eq_rhs=-data.grad_f, bounds=bounds)
    out = lp_solve(lp)
    if out.status is LpStatus.INFEASIBLE:
        return None
    if out.status is not LpStatus.OPTIMAL:
        raise NumericalFailure("pattern LP did not converge")
    lam = np.zeros(data.l)
    eta = np.zeros(data.m)
    mu = np.zeros(data.p)
    nu = np.zeros(data.p)
    for (block, idx), value in zip(layout, out.solution):
        if block == "lam":
            lam[idx] = max(value, 0.0)
        elif block == "eta":
            eta[idx] = value
        elif block == "mu":
            mu[idx] = value
        else:
            nu[idx] = value
    return MultiplierVector(lam, eta, mu, nu)


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
    kinds = (PatternKind.MU_ZERO, PatternKind.NU_ZERO, PatternKind.BOTH_POSITIVE)
    for combo in itertools.product(kinds, repeat=len(bi)):
        pattern = PatternAssignment(tuple(bi), combo)
        witness = _pattern_lp(data, sets, pattern, eps, s_mode=False)
        if witness is not None:
            return True, witness
    return False, None


def oracle_s_exists(data: FirstOrderData, sets: IndexSets,
                    tol: Tolerances = Tolerances()) -> Tuple[bool, Optional[MultiplierVector]]:
    """Decide strong-stationarity multiplier existence with one LP."""
    witness = _pattern_lp(data, sets, None, 0.0, s_mode=True)
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
    """
    if not isinstance(inst, AffineInstance):
        raise NotAffine("tangent sampling requires an AffineInstance")
    x = np.asarray(x_bar, dtype=float).reshape(-1)
    data = evaluate_affine(inst, x)
    report = check_feasibility(data, tol)
    if not report.feasible:
        raise InfeasiblePoint(f"x_bar infeasible: {report.describe_worst()}", report)
    sets = classify_indices(data, tol)
    cone = LinearizedCone(data, sets)

    def projector(rows):
        if not rows:
            return np.eye(inst.n)
        E = np.vstack(rows)
        _, s, Vt = np.linalg.svd(E)
        rank = int(np.sum(s > max(s[0], 1.0) * 1e-12)) if s.size else 0
        return Vt[rank:].T

    base_rows = [inst.A_h[j] for j in range(inst.m)]
    base_rows += [inst.A_G[i] for i in sorted(sets.zero_plus)]
    base_rows += [inst.A_H[i] for i in sorted(sets.plus_zero)]
    base_basis = projector(base_rows)

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
            rows = list(base_rows)
            for i in biactive:
                rows.append(inst.A_H[i] if rng.random() < 0.5 else inst.A_G[i])
            basis = projector(rows)
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
