"""Dense linear-programming and minimum-norm QP kernels.

Two solvers live here:

* :func:`lp_solve`: a two-phase tableau simplex with Bland's
  anti-cycling rule.  Problem sizes in this package are tiny (tens of
  variables), so a dense tableau is adequate and keeps every pivot
  auditable.
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
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .model import DEFAULT_SOLVER_TOL

PIVOT_TOL = 1e-10

Bound = Tuple[Optional[float], Optional[float]]


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
    """min objective'z  s.t.  eq_matrix z = eq_rhs, ineq_matrix z <= ineq_rhs, bounds.

    ``bounds`` is one (lower, upper) pair per variable with ``None`` for
    an unbounded side; variables default to free.
    """

    objective: np.ndarray
    eq_matrix: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ineq_matrix: Optional[np.ndarray] = None
    ineq_rhs: Optional[np.ndarray] = None
    bounds: Optional[Sequence[Bound]] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective: entries must be finite")
        d = c.size
        A_eq = _matrix(self.eq_matrix, d, "eq_matrix")
        b_eq = _vector(self.eq_rhs, A_eq.shape[0], "eq_rhs")
        A_ub = _matrix(self.ineq_matrix, d, "ineq_matrix")
        b_ub = _vector(self.ineq_rhs, A_ub.shape[0], "ineq_rhs")
        if self.bounds is None:
            bounds = tuple((None, None) for _ in range(d))
        else:
            bounds = tuple((lo, hi) for lo, hi in self.bounds)
            if len(bounds) != d:
                raise DimensionMismatch(f"bounds: expected {d} pairs, got {len(bounds)}")
            for lo, hi in bounds:
                for side in (lo, hi):
                    if side is not None and not np.isfinite(side):
                        raise ValueError("bounds entries must be finite or None")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ineq_matrix", A_ub)
        object.__setattr__(self, "ineq_rhs", b_ub)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _simplex(T: np.ndarray, basis: list, tol: float, budget: list) -> str:
    """Iterate Bland pivots on a tableau whose last row holds reduced costs.

    Returns "optimal" or "unbounded"; raises NumericalFailure when the
    shared iteration budget is exhausted.
    """
    nrows = T.shape[0] - 1
    while True:
        red = T[-1, :-1]
        candidates = np.nonzero(red < -tol)[0]
        if candidates.size == 0:
            return "optimal"
        if budget[0] <= 0:
            raise NumericalFailure("simplex iteration cap exceeded")
        budget[0] -= 1
        j = int(candidates[0])  # Bland: smallest eligible index
        col = T[:nrows, j]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        r = int(min(ties, key=lambda t: basis[t]))  # Bland tie-break on basis index
        _pivot(T, r, j)
        basis[r] = j


class _StandardForm:
    """Phase-1-solved standard form, reusable across objectives."""

    __slots__ = ("T", "basis", "col_var", "col_sign", "offset", "ns", "ncols",
                 "budget", "lp", "tol")


def _prepare(lp: LinearProgram, tol: float, max_iter: Optional[int]):
    """Convert to standard form and run phase 1.

    Returns a _StandardForm ready for phase-2 solves, or an LpOutcome when
    the constraint system is already decided (infeasible).
    """
    d = lp.objective.size

    for lo, hi in lp.bounds:
        if lo is not None and hi is not None and lo > hi + tol:
            return LpOutcome(LpStatus.INFEASIBLE)

    # Map each original variable onto shifted nonnegative columns.
    col_var, col_sign = [], []
    offset = np.zeros(d)
    ub_caps = []  # (standard column, residual upper bound)
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is None and hi is None:
            col_var += [j, j]
            col_sign += [1.0, -1.0]
        elif lo is not None:
            offset[j] = lo
            col_var.append(j)
            col_sign.append(1.0)
            if hi is not None:
                ub_caps.append((len(col_var) - 1, hi - lo))
        else:
            offset[j] = hi
            col_var.append(j)
            col_sign.append(-1.0)
    col_var = np.asarray(col_var, dtype=int)
    col_sign = np.asarray(col_sign, dtype=float)
    ns = col_var.size

    def to_std(A: np.ndarray) -> np.ndarray:
        if ns == 0:
            return np.zeros((A.shape[0], 0))
        return A[:, col_var] * col_sign

    m_eq = lp.eq_matrix.shape[0]
    m_ub = lp.ineq_matrix.shape[0]
    m_cap = len(ub_caps)
    m = m_eq + m_ub + m_cap

    A = np.zeros((m, ns))
    b = np.zeros(m)
    A[:m_eq] = to_std(lp.eq_matrix)
    b[:m_eq] = lp.eq_rhs - lp.eq_matrix @ offset
    A[m_eq:m_eq + m_ub] = to_std(lp.ineq_matrix)
    b[m_eq:m_eq + m_ub] = lp.ineq_rhs - lp.ineq_matrix @ offset
    for i, (k, cap) in enumerate(ub_caps):
        A[m_eq + m_ub + i, k] = 1.0
        b[m_eq + m_ub + i] = cap

    has_slack = np.zeros(m, dtype=bool)
    has_slack[m_eq:] = True

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    slack_sign = np.where(flip, -1.0, 1.0)

    n_slack = int(has_slack.sum())
    # Rows whose slack has +1 coefficient start basic; the rest get artificials.
    needs_art = np.ones(m, dtype=bool)
    slack_col_of_row = np.full(m, -1, dtype=int)
    si = 0
    for r in range(m):
        if has_slack[r]:
            slack_col_of_row[r] = ns + si
            if slack_sign[r] > 0:
                needs_art[r] = False
            si += 1
    art_rows = np.nonzero(needs_art)[0]
    n_art = art_rows.size

    ncols = ns + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :ns] = A
    si = 0
    for r in range(m):
        if has_slack[r]:
            T[r, ns + si] = slack_sign[r]
            si += 1
    for i, r in enumerate(art_rows):
        T[r, ns + n_slack + i] = 1.0
    T[:m, -1] = b

    basis = [0] * m
    for r in range(m):
        if not needs_art[r]:
            basis[r] = slack_col_of_row[r]
    for i, r in enumerate(art_rows):
        basis[r] = ns + n_slack + i

    if max_iter is None:
        max_iter = 50 * (ncols + m)
    budget = [max_iter]

    # Phase 1: minimize the sum of artificials.
    T[-1, ns + n_slack:ncols] = 1.0
    for r in art_rows:
        T[-1] -= T[r]
    status = _simplex(T, basis, tol, budget)
    if status != "optimal":
        raise NumericalFailure("phase 1 reported an unbounded auxiliary problem")
    # the phase-1 residual carries roundoff of the right-hand side's size
    if -T[-1, -1] > tol * (1.0 + np.abs(b).max(initial=0.0)):
        return LpOutcome(LpStatus.INFEASIBLE)

    # Drive remaining artificials out of the basis; drop redundant rows.
    art_start = ns + n_slack
    drop_rows = []
    for r in range(m):
        if basis[r] >= art_start:
            pivot_col = -1
            for j in range(art_start):
                if abs(T[r, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, r, pivot_col)
                basis[r] = pivot_col
            else:
                drop_rows.append(r)
    if drop_rows:
        keep = [r for r in range(m) if r not in set(drop_rows)]
        T = T[keep + [m]]
        basis = [basis[r] for r in keep]
        m = len(keep)
    T = np.delete(T, np.s_[art_start:ncols], axis=1)

    form = _StandardForm()
    form.T = T
    form.basis = basis
    form.col_var = col_var
    form.col_sign = col_sign
    form.offset = offset
    form.ns = ns
    form.ncols = art_start
    form.budget = budget
    form.lp = lp
    form.tol = tol
    return form


def _phase_two(form: _StandardForm, c: np.ndarray) -> LpOutcome:
    """Optimize one objective over a phase-1-solved standard form.

    Restarts from whatever basis the tableau currently holds, so repeated
    calls with different objectives warm-start each other.
    """
    T, basis, ns, ncols = form.T, form.basis, form.ns, form.ncols
    lp = form.lp
    c_std = np.zeros(ncols)
    if ns:
        c_std[:ns] = c[form.col_var] * form.col_sign
    T[-1, :-1] = c_std
    T[-1, -1] = 0.0
    for r, bc in enumerate(basis):
        if c_std[bc] != 0.0:
            T[-1] -= c_std[bc] * T[r]
    status = _simplex(T, basis, form.tol, form.budget)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    x_std = np.zeros(ncols)
    for r, bc in enumerate(basis):
        x_std[bc] = T[r, -1]
    x_std = np.maximum(x_std, 0.0)  # scrub roundoff negatives

    z = form.offset.copy()
    if ns:
        np.add.at(z, form.col_var, form.col_sign * x_std[:ns])

    # Cheap self-check: a claimed optimum must still satisfy the input system.
    viol = 0.0
    if lp.eq_matrix.shape[0]:
        viol = max(viol, np.abs(lp.eq_matrix @ z - lp.eq_rhs).max())
    if lp.ineq_matrix.shape[0]:
        viol = max(viol, np.maximum(lp.ineq_matrix @ z - lp.ineq_rhs, 0.0).max())
    scale = 1.0 + max(np.abs(lp.eq_rhs).max(initial=0.0), np.abs(lp.ineq_rhs).max(initial=0.0))
    if viol > 1e-6 * scale:
        raise NumericalFailure(f"simplex lost feasibility (violation {viol:.3g})")

    return LpOutcome(LpStatus.OPTIMAL, solution=z, objective_value=float(c @ z))


def lp_solve(lp: LinearProgram, tol: float = DEFAULT_SOLVER_TOL,
             max_iter: Optional[int] = None) -> LpOutcome:
    """Solve a dense LP by the two-phase simplex method with Bland's rule.

    Free variables are split, bounded variables shifted, so the working
    problem is in standard form.  ``max_iter`` overrides the default
    iteration cap of 50 * (#columns + #rows); exceeding it raises
    :class:`NumericalFailure`, which is distinct from infeasibility.
    """
    form = _prepare(lp, tol, max_iter)
    if isinstance(form, LpOutcome):
        return form
    return _phase_two(form, lp.objective)


def lp_solve_many(lp: LinearProgram, objectives, tol: float = DEFAULT_SOLVER_TOL,
                  max_iter: Optional[int] = None) -> list:
    """Solve a family of LPs sharing constraints but not objectives.

    Phase 1 runs once; each objective then reoptimizes from the previous
    basis.  Results match independent :func:`lp_solve` calls up to the
    usual freedom in degenerate optima.
    """
    objectives = [np.asarray(c, dtype=float).reshape(-1) for c in objectives]
    for c in objectives:
        if c.size != lp.n_vars:
            raise DimensionMismatch("objective length does not match the program")
    if max_iter is None and objectives:
        max_iter = 50 * (lp.n_vars * 2 + lp.eq_matrix.shape[0]
                         + lp.ineq_matrix.shape[0] + 2) * len(objectives)
    form = _prepare(lp, tol, max_iter)
    if isinstance(form, LpOutcome):
        return [form] * len(objectives)
    return [_phase_two(form, c) for c in objectives]


def lp_feasible(eq_matrix=None, eq_rhs=None, ineq_matrix=None, ineq_rhs=None,
                bounds=None, n_vars: Optional[int] = None,
                tol: float = DEFAULT_SOLVER_TOL) -> LpOutcome:
    """Zero-objective wrapper around lp_solve; Optimal means a feasible point.

    When every block is absent the dimension must be given via ``n_vars``;
    the returned canonical point is then the zero vector.
    """
    if n_vars is None:
        if eq_matrix is not None and np.asarray(eq_matrix).size:
            n_vars = np.atleast_2d(np.asarray(eq_matrix)).shape[1]
        elif ineq_matrix is not None and np.asarray(ineq_matrix).size:
            n_vars = np.atleast_2d(np.asarray(ineq_matrix)).shape[1]
        elif bounds is not None:
            n_vars = len(bounds)
        else:
            raise DimensionMismatch("n_vars required when the system is empty")
    lp = LinearProgram(
        objective=np.zeros(n_vars),
        eq_matrix=eq_matrix,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq_matrix,
        ineq_rhs=ineq_rhs,
        bounds=bounds,
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
            bounds=[(0.0, None)] * k,
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
