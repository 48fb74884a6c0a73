"""Dense linear-programming and minimum-norm QP kernels.

Two solvers live here:

* :func:`lp_solve`: a two-phase tableau simplex with Bland's
  anti-cycling rule, the one LP entry point (branch polar LPs, oracle
  pattern LPs and min-norm cold starts all go through it).  An LP has
  equality rows, ``<=`` rows and one lower bound per variable (``-inf``
  for a free one); an upper bound is a ``<=`` row.  Both phases run on
  one tableau under one pivot cap.  Problem sizes in this package
  are tiny (tens of variables), so a dense tableau is adequate and keeps
  every pivot auditable.
* :func:`min_norm_point`: the squared-norm minimizer over a polytope
  given by its vertices, intersected with coordinate nonnegativity
  constraints.  It is Wolfe's nearest-point method: the convex weights
  of a corral of affinely independent vertices come from one small KKT
  solve per step, which makes the convex-combination witness free.

Both are pure functions: no global state, concurrent solves are safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .model import DEFAULT_SOLVER_TOL

PIVOT_TOL = 1e-10


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LpOutcome:
    status: LpStatus
    solution: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def _matrix(M, ncols: int, name: str) -> np.ndarray:
    if M is None:
        return np.zeros((0, ncols))
    A = np.asarray(M, dtype=float)
    if A.size == 0:
        # a (k, 0) matrix over zero variables still poses k rows
        return np.zeros((A.shape[0] if A.ndim == 2 and ncols == 0 else 0, ncols))
    A = np.atleast_2d(A)
    if A.shape[1] != ncols:
        raise DimensionMismatch(f"{name}: expected {ncols} columns, got {A.shape[1]}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name}: entries must be finite")
    return A


def _vector(v, length: int, name: str) -> np.ndarray:
    if v is None:
        arr = np.zeros(length)
    else:
        arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != length:
        raise DimensionMismatch(f"{name}: expected length {length}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective'z  s.t.  eq_matrix z = eq_rhs, ineq_matrix z <= ineq_rhs, z >= lower.

    ``lower`` holds one lower bound per variable, ``-inf`` for a free
    one; variables default to free.  An upper bound is a ``<=`` row.
    """

    objective: np.ndarray
    eq_matrix: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ineq_matrix: Optional[np.ndarray] = None
    ineq_rhs: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective: entries must be finite")
        d = c.size
        A_eq = _matrix(self.eq_matrix, d, "eq_matrix")
        b_eq = _vector(self.eq_rhs, A_eq.shape[0], "eq_rhs")
        A_ub = _matrix(self.ineq_matrix, d, "ineq_matrix")
        b_ub = _vector(self.ineq_rhs, A_ub.shape[0], "ineq_rhs")
        if self.lower is None:
            lower = np.full(d, -np.inf)
        else:
            lower = np.asarray(self.lower, dtype=float).reshape(-1)
            if lower.size != d:
                raise DimensionMismatch(f"lower: expected length {d}, got {lower.size}")
            if not np.all(lower < np.inf):  # also false for NaN
                raise ValueError("lower: entries must be finite or -inf")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ineq_matrix", A_ub)
        object.__setattr__(self, "ineq_rhs", b_ub)
        object.__setattr__(self, "lower", lower)

    @property
    def n_vars(self) -> int:
        return self.objective.size


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]


def _simplex(T: np.ndarray, basis: np.ndarray, tol: float, budget: list) -> str:
    """Iterate Bland pivots on a tableau whose last row holds reduced costs.

    Returns "optimal" or "unbounded"; raises NumericalFailure when the
    shared iteration budget is exhausted.
    """
    nrows = T.shape[0] - 1
    while True:
        eligible = T[-1, :-1] < -tol
        j = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[j]:
            return "optimal"
        if budget[0] <= 0:
            raise NumericalFailure("simplex iteration cap exceeded")
        budget[0] -= 1
        col = T[:nrows, j]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        rmin = float(np.minimum.reduce(ratios))
        ties = rows[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        r = int(ties[basis[ties].argmin()])  # Bland tie-break on basis index
        _pivot(T, r, j)
        basis[r] = j


def lp_solve(lp: LinearProgram, tol: float = DEFAULT_SOLVER_TOL) -> LpOutcome:
    """Solve a dense LP by the two-phase simplex method with Bland's rule.

    A free variable is split into an adjacent (+, -) column pair and any
    other variable is shifted by its lower bound, so the working problem
    is in standard form.  Phase 1 minimizes the sum of the artificials,
    then phase 2 the objective on the same tableau.  A phase-1 optimum
    within ``tol * (1 + max|b|)`` of zero means feasible, even when a
    roundoff reduced cost ends phase 1 as "unbounded".  The two phases
    share a cap of 50 * (#columns + #rows) pivots; exceeding it raises
    :class:`NumericalFailure`, which is distinct from infeasibility.
    """
    # Map each original variable onto shifted nonnegative columns.
    free = np.isneginf(lp.lower)
    col_var = np.repeat(np.arange(lp.n_vars), 1 + free)
    col_sign = np.ones(col_var.size)
    col_sign[1:][col_var[1:] == col_var[:-1]] = -1.0  # the second column of a pair
    offset = np.where(free, 0.0, lp.lower)
    ns = col_var.size

    # Rows: the equalities, then the <= rows, each with a slack.
    m_eq = lp.eq_matrix.shape[0]
    m = m_eq + lp.ineq_matrix.shape[0]
    A = np.zeros((m, ns))
    b = np.zeros(m)
    A[:m_eq] = lp.eq_matrix[:, col_var] * col_sign
    b[:m_eq] = lp.eq_rhs - lp.eq_matrix @ offset
    A[m_eq:] = lp.ineq_matrix[:, col_var] * col_sign
    b[m_eq:] = lp.ineq_rhs - lp.ineq_matrix @ offset
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # A slack with coefficient +1 starts basic; the other rows get artificials.
    art_rows = np.nonzero(flip | (np.arange(m) < m_eq))[0]
    art_start = ns + m - m_eq
    ncols = art_start + art_rows.size
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :ns] = A
    T[np.arange(m_eq, m), np.arange(ns, art_start)] = np.where(flip[m_eq:], -1.0, 1.0)
    T[art_rows, np.arange(art_start, ncols)] = 1.0
    T[:m, -1] = b
    basis = np.zeros(m, dtype=int)
    basis[m_eq:] = np.arange(ns, art_start)
    basis[art_rows] = np.arange(art_start, ncols)
    budget = [50 * (ncols + m)]

    # Phase 1: minimize the sum of artificials.
    T[-1, art_start:ncols] = 1.0
    T[-1] -= T[art_rows].sum(axis=0)
    unbounded = _simplex(T, basis, tol, budget) != "optimal"
    # The phase-1 residual carries roundoff of the right-hand side's size.
    # Phase 1 is bounded below by 0, so "unbounded" at a zero residual is
    # a roundoff reduced cost, and the point is feasible.
    if -T[-1, -1] > tol * (1.0 + np.abs(b).max(initial=0.0)):
        if unbounded:
            raise NumericalFailure("phase 1 reported an unbounded auxiliary problem")
        return LpOutcome(LpStatus.INFEASIBLE)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = np.ones(m + 1, dtype=bool)
    for r in np.nonzero(basis >= art_start)[0]:
        cols = np.nonzero(np.abs(T[r, :art_start]) > PIVOT_TOL)[0]
        if cols.size:
            _pivot(T, r, cols[0])
            basis[r] = cols[0]
        else:
            keep[r] = False
    kept_cols = np.ones(ncols + 1, dtype=bool)
    kept_cols[art_start:ncols] = False
    T = T[keep][:, kept_cols]
    basis = basis[keep[:m]]

    # Phase 2: minimize the objective from the phase-1 basis; a zero
    # objective leaves the phase-1 point optimal.
    c_std = np.zeros(art_start)
    c_std[:ns] = lp.objective[col_var] * col_sign
    if c_std.any():
        T[-1, :-1] = c_std
        T[-1, -1] = 0.0
        for r, bc in enumerate(basis):
            if c_std[bc] != 0.0:
                T[-1] -= c_std[bc] * T[r]
        if _simplex(T, basis, tol, budget) == "unbounded":
            return LpOutcome(LpStatus.UNBOUNDED)

    x_std = np.zeros(art_start)
    x_std[basis] = np.maximum(T[:-1, -1], 0.0)  # scrub roundoff negatives
    z = offset + np.bincount(col_var, col_sign * x_std[:ns], minlength=lp.n_vars)

    # Cheap self-check: a claimed optimum must still satisfy the input system.
    viol = 0.0
    if lp.eq_matrix.shape[0]:
        viol = max(viol, np.abs(lp.eq_matrix @ z - lp.eq_rhs).max())
    if lp.ineq_matrix.shape[0]:
        viol = max(viol, np.maximum(lp.ineq_matrix @ z - lp.ineq_rhs, 0.0).max())
    scale = 1.0 + max(np.abs(lp.eq_rhs).max(initial=0.0), np.abs(lp.ineq_rhs).max(initial=0.0))
    if viol > 1e-6 * scale:
        raise NumericalFailure(f"simplex lost feasibility (violation {viol:.3g})")

    return LpOutcome(LpStatus.OPTIMAL, solution=z, objective_value=float(lp.objective @ z))


def lp_feasible(eq_matrix=None, eq_rhs=None, ineq_matrix=None, ineq_rhs=None,
                lower=None, n_vars: Optional[int] = None,
                tol: float = DEFAULT_SOLVER_TOL) -> LpOutcome:
    """Zero-objective wrapper around lp_solve; Optimal means a feasible point.

    ``lower`` is as in :class:`LinearProgram`: one lower bound per
    variable, all free when omitted.  When every block is absent the
    dimension must be given via ``n_vars``; the returned canonical point
    is then the zero vector.
    """
    if n_vars is None:
        if eq_matrix is not None and np.asarray(eq_matrix).size:
            n_vars = np.atleast_2d(np.asarray(eq_matrix)).shape[1]
        elif ineq_matrix is not None and np.asarray(ineq_matrix).size:
            n_vars = np.atleast_2d(np.asarray(ineq_matrix)).shape[1]
        elif lower is not None:
            n_vars = np.size(lower)
        else:
            raise DimensionMismatch("n_vars required when the system is empty")
    lp = LinearProgram(
        objective=np.zeros(n_vars),
        eq_matrix=eq_matrix,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq_matrix,
        ineq_rhs=ineq_rhs,
        lower=lower,
    )
    return lp_solve(lp, tol)


@dataclass(frozen=True, eq=False)
class MinNormProblem:
    """Vertices of a polytope plus coordinates constrained to be >= 0."""

    vertices: np.ndarray
    sign_constraints: Tuple[int, ...] = ()

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.shape[0] < 1:
            raise DimensionMismatch("at least one vertex is required")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        sc = tuple(int(i) for i in self.sign_constraints)
        for i in sc:
            if not 0 <= i < V.shape[1]:
                raise DimensionMismatch(f"sign constraint coordinate {i} out of range")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "sign_constraints", sc)


@dataclass(frozen=True, eq=False)
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    norm_sq: float


def _nullspace(A: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, Vt = np.linalg.svd(A)
    if s.size == 0:
        return np.eye(A.shape[1])
    rank = int(np.sum(s > max(s[0], 1.0) * rtol))
    return Vt[rank:].T


def min_norm_point(prob: MinNormProblem,
                   tol: float = DEFAULT_SOLVER_TOL) -> Optional[MinNormResult]:
    """Minimize ||sum_k w_k v_k||^2 over simplex weights with sign constraints.

    The variables are the convex weights w; constraints are w >= 0,
    sum w = 1 and (V'w)_j >= 0 for each constrained coordinate j.  This is
    Wolfe's nearest-point method (Math. Programming 11, 1976) with sign
    rows.  The free weights F (the corral) and the working sign rows W pose
    a subproblem, min ||V_F'u||^2 with sum u = 1 and S_W,F u = 0, whose
    minimizer u and multipliers come from one KKT solve.  The weights move
    toward u until a weight or a sign row blocks.  At a subproblem minimum,
    the one pinned weight or working sign row with the most negative
    multiplier leaves its bound.  A weight entering with a negative
    multiplier is affinely independent of the corral, and a blocking sign
    row is independent of the working rows, so the KKT matrix stays
    nonsingular and the corral holds at most dim + 1 vertices.  V is
    divided by max|V| on entry, so every threshold is relative to the data.

    Returns None when the constrained polytope is empty; the minimizing
    point is unique whenever it exists, the weights need not be.  Raises
    :class:`NumericalFailure` rather than return weights without a
    positive finite sum, or a point whose constrained coordinates fall
    below ``-tol * (1 + max|V|)``.
    """
    V = prob.vertices
    vmax = np.abs(V).max(initial=0.0)
    U = V / vmax if vmax > 0.0 else V
    k, dim = U.shape
    signed = np.zeros(dim, dtype=bool)
    signed[list(prob.sign_constraints)] = True

    # Feasible start: cheapest is a vertex already satisfying the signs.
    # Its corral is itself, which it minimizes with sum-row multiplier 2 x'x.
    vertex_ok = (U[:, signed] >= 0.0).all(axis=1)
    if vertex_ok.any():
        norms = np.einsum("ij,ij->i", U, U)
        start = np.nonzero(vertex_ok)[0][np.argmin(norms[vertex_ok])]
        w = np.zeros(k)
        w[start] = 1.0
        x = U[start]
        xi = np.array([2.0 * (x @ x)])
    else:
        # a basic solution's support is affinely independent, a valid corral
        out = lp_feasible(
            eq_matrix=np.ones((1, k)),
            eq_rhs=[1.0],
            ineq_matrix=-U[:, signed].T,
            ineq_rhs=np.zeros(signed.sum()),
            lower=np.zeros(k),
            tol=tol,
        )
        if out.status is LpStatus.INFEASIBLE:
            return None
        if out.status is not LpStatus.OPTIMAL:
            raise NumericalFailure("feasibility LP did not converge")
        w = np.where(out.solution > 1e-12, out.solution, 0.0)
        w /= w.sum()
        xi = None

    # Blocking row ids: 0..k-1 are the weight bounds, k + j is the sign row
    # of coordinate j.  xi holds the sum-row and working sign-row
    # multipliers while w minimizes its corral's subproblem, None otherwise.
    free = w > 0.0
    work: list = []  # coordinates of the sign rows held at zero, in KKT order
    for _ in range(50 * (2 * k + int(signed.sum()) + 1)):
        if xi is not None:
            # stationarity on F gives every bound's multiplier; the most
            # negative one leaves its bound
            mult = np.concatenate([2.0 * (U @ x) - xi[0] - U[:, work] @ xi[1:], xi[1:]])
            mult[:k][free] = np.inf
            leave = int(np.argmin(mult))
            if mult[leave] >= -1e-9:
                break
            if leave < k:
                free[leave] = True
            else:
                del work[leave - k]

        F = np.nonzero(free)[0]
        f = F.size
        U_F = U[F]
        kkt = np.zeros((f + 1 + len(work),) * 2)
        kkt[:f, :f] = 2.0 * (U_F @ U_F.T)
        kkt[:f, f] = -1.0
        kkt[f, :f] = 1.0
        kkt[:f, f + 1:] = -U_F[:, work]
        kkt[f + 1:, :f] = U_F[:, work].T
        rhs = np.zeros(kkt.shape[0])
        rhs[f] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular KKT system in the min-norm corral") from None
        u, xi = sol[:f], sol[f:]
        w_F = w[F]
        if f == 1 + len(work):
            # as many rows as free weights: the rows alone fix u, and w_F meets
            # them; the solve would add roundoff that the ratio test reads as a step
            u = w_F
        d = u - w_F
        x, x_u = U_F.T @ w_F, U_F.T @ u

        # blocking rows: free weights and sign rows not in the working set
        step_scale = 1e-12 * (1.0 + np.abs(d).max())
        neg = d < -step_scale
        dx = x_u - x
        sign_neg = signed & (dx < -step_scale)
        sign_neg[work] = False
        rows = np.concatenate([F[neg], k + np.nonzero(sign_neg)[0]])
        steps = np.concatenate([np.maximum(w_F[neg], 0.0) / -d[neg],
                                np.maximum(x[sign_neg], 0.0) / -dx[sign_neg]])
        t = steps.min(initial=1.0)
        if t < 1.0:
            blocker = int(rows[steps <= t + 1e-14 * (1.0 + t)].min())
            w[F] = w_F + t * d
            if blocker < k:
                free[blocker] = False
                w[blocker] = 0.0
            else:
                work.append(blocker - k)
            xi = None
            continue
        w[F], x = u, x_u
    else:
        raise NumericalFailure("active-set iteration cap exceeded")

    # a corral member left at roundoff weight (a degenerate vertex) is no support
    w[w <= 1e-12] = 0.0
    total = w.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise NumericalFailure("active-set iteration ended without a positive weight")
    w /= total
    point = V.T @ w
    if prob.sign_constraints:
        worst = float(point[list(prob.sign_constraints)].min())
        if worst < -tol * (1.0 + vmax):
            raise NumericalFailure(
                f"min-norm point leaves its sign region (coordinate value {worst:.3g})"
            )
    return MinNormResult(point=point, weights=w, norm_sq=float(point @ point))
