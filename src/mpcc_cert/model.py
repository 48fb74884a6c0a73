"""Problem data model: first-order point data, affine instances, index sets.

The primary input is :class:`FirstOrderData`, the values and gradients of
all problem functions at one fixed point.  :class:`AffineInstance` is a
convenience layer producing that data from matrices.  All types are
immutable after construction (stored arrays are frozen), and every
operation here is a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InfeasiblePoint

DEFAULT_ACTIVE_TOL = 1e-8
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_SOLVER_TOL = 1e-9
DEFAULT_CERT_TOL = 1e-7


def _freeze_vector(value, length: int, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float).reshape(-1) if value is not None else np.zeros(length)
    if arr.size != length:
        raise DimensionMismatch(f"{name}: expected length {length}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


def _freeze_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    if value is None:
        arr = np.zeros((rows, cols))
    else:
        arr = np.array(value, dtype=float)
        if arr.size == 0:
            arr = arr.reshape(rows if rows == 0 else -1, cols)
        arr = np.atleast_2d(arr)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"{name}: expected shape ({rows}, {cols}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the pipeline.

    ``active_tol`` classifies constraint activity, ``feas_tol`` bounds
    acceptable constraint violation, ``solver_tol`` is the LP/QP residual
    tolerance and ``cert_tol`` the certificate verification tolerance.
    All thresholds are absolute, except that a witness's gradient residual
    may also exceed ``cert_tol`` by roundoff proportional to the summed
    magnitudes of its terms (see ``ResidualReport.system_ok``); users must
    pre-scale badly scaled data.
    """

    active_tol: float = DEFAULT_ACTIVE_TOL
    feas_tol: float = DEFAULT_FEAS_TOL
    solver_tol: float = DEFAULT_SOLVER_TOL
    cert_tol: float = DEFAULT_CERT_TOL

    def __post_init__(self):
        for name in ("active_tol", "feas_tol", "solver_tol", "cert_tol"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a nonnegative finite number, got {v}")


@dataclass(frozen=True, eq=False)
class FirstOrderData:
    """Values and gradients of f, g, h, G, H at one fixed point."""

    n: int
    l: int
    m: int
    p: int
    grad_f: np.ndarray
    g_vals: np.ndarray = None
    grad_g: np.ndarray = None
    h_vals: np.ndarray = None
    grad_h: np.ndarray = None
    G_vals: np.ndarray = None
    grad_G: np.ndarray = None
    H_vals: np.ndarray = None
    grad_H: np.ndarray = None

    def __post_init__(self):
        for name in ("n", "l", "m", "p"):
            v = getattr(self, name)
            integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
            if isinstance(v, bool) or not integral or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        n, l, m, p = self.n, self.l, self.m, self.p
        object.__setattr__(self, "grad_f", _freeze_vector(self.grad_f, n, "grad_f"))
        object.__setattr__(self, "g_vals", _freeze_vector(self.g_vals, l, "g_vals"))
        object.__setattr__(self, "grad_g", _freeze_matrix(self.grad_g, l, n, "grad_g"))
        object.__setattr__(self, "h_vals", _freeze_vector(self.h_vals, m, "h_vals"))
        object.__setattr__(self, "grad_h", _freeze_matrix(self.grad_h, m, n, "grad_h"))
        object.__setattr__(self, "G_vals", _freeze_vector(self.G_vals, p, "G_vals"))
        object.__setattr__(self, "grad_G", _freeze_matrix(self.grad_G, p, n, "grad_G"))
        object.__setattr__(self, "H_vals", _freeze_vector(self.H_vals, p, "H_vals"))
        object.__setattr__(self, "grad_H", _freeze_matrix(self.grad_H, p, n, "grad_H"))


@dataclass(frozen=True, eq=False)
class AffineInstance:
    """Quadratic objective over affine constraints: g(x) = A_g x + b_g etc.

    The objective is f(x) = 1/2 x'Qx + c'x; Q must be symmetric.  A
    quadratic term is admitted even though only the constraints need to
    be affine for the constraint-qualification guarantee.
    """

    c: np.ndarray
    Q: Optional[np.ndarray] = None
    A_g: Optional[np.ndarray] = None
    b_g: Optional[np.ndarray] = None
    A_h: Optional[np.ndarray] = None
    b_h: Optional[np.ndarray] = None
    A_G: Optional[np.ndarray] = None
    b_G: Optional[np.ndarray] = None
    A_H: Optional[np.ndarray] = None
    b_H: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.array(self.c, dtype=float).reshape(-1)
        n = c.size
        if n == 0:
            raise DimensionMismatch("c must have at least one entry")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

        Q = _freeze_matrix(self.Q, n, n, "Q")
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-12:
            raise ValueError("Q must be symmetric within 1e-12")
        object.__setattr__(self, "Q", Q)

        for mat, rhs in (("A_g", "b_g"), ("A_h", "b_h"), ("A_G", "b_G"), ("A_H", "b_H")):
            mv, rv = getattr(self, mat), getattr(self, rhs)
            if (mv is None) != (rv is None):
                raise DimensionMismatch(f"{mat} and {rhs} must be given together")
            rows = 0 if rv is None else np.asarray(rv, dtype=float).reshape(-1).size
            object.__setattr__(self, rhs, _freeze_vector(rv, rows, rhs))
            object.__setattr__(self, mat, _freeze_matrix(mv, rows, n, mat))
        if self.b_G.size != self.b_H.size:
            raise DimensionMismatch("the G and H blocks must pair up one-to-one")

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def l(self) -> int:
        return self.b_g.size

    @property
    def m(self) -> int:
        return self.b_h.size

    @property
    def p(self) -> int:
        return self.b_G.size


@dataclass(frozen=True)
class IndexSets:
    """Active-set partition of the constraints at the base point.

    ``plus_zero``, ``zero_plus`` and ``zero_zero`` partition the
    complementarity indices {0..p-1}; ``active_g`` collects the active
    inequality constraints.  Indices are 0-based.
    """

    l: int
    p: int
    active_g: frozenset
    plus_zero: frozenset
    zero_plus: frozenset
    zero_zero: frozenset

    def __post_init__(self):
        for name in ("active_g", "plus_zero", "zero_plus", "zero_zero"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if not self.active_g <= set(range(self.l)):
            raise ValueError("active_g must be a subset of {0..l-1}")
        union = self.plus_zero | self.zero_plus | self.zero_zero
        total = len(self.plus_zero) + len(self.zero_plus) + len(self.zero_zero)
        if union != set(range(self.p)) or total != self.p:
            raise ValueError("plus_zero, zero_plus, zero_zero must partition {0..p-1}")


@dataclass(frozen=True, eq=False)
class MultiplierVector:
    """Stationarity multipliers (lambda, eta, mu, nu) for one point."""

    lam: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("lam", "eta", "mu", "nu"):
            arr = np.array(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: entries must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.mu.size != self.nu.size:
            raise DimensionMismatch("mu and nu must have equal length")


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Per-constraint violations at the base point, plus the worst one."""

    g_violation: np.ndarray
    h_violation: np.ndarray
    G_violation: np.ndarray
    H_violation: np.ndarray
    comp_violation: np.ndarray
    max_violation: float
    worst_block: Optional[str]
    worst_index: Optional[int]
    feas_tol: float
    feasible: bool

    def describe_worst(self) -> str:
        if self.worst_block is None:
            return "no constraints"
        return f"{self.worst_block}[{self.worst_index + 1}] violation {self.max_violation:.6g}"


def check_feasibility(data: FirstOrderData, tol: Tolerances = Tolerances()) -> FeasibilityReport:
    """Report constraint violations; feasible iff the worst is within feas_tol.

    The complementarity violation per index is min(max(G_i,0), max(H_i,0)),
    so a pair violates only when both sides are strictly positive.
    """
    g_v = np.maximum(data.g_vals, 0.0)
    h_v = np.abs(data.h_vals)
    G_v = np.maximum(-data.G_vals, 0.0)
    H_v = np.maximum(-data.H_vals, 0.0)
    comp_v = np.minimum(np.maximum(data.G_vals, 0.0), np.maximum(data.H_vals, 0.0))

    worst_block, worst_index, worst = None, None, 0.0
    for block, arr in (("g", g_v), ("h", h_v), ("G", G_v), ("H", H_v), ("complementarity", comp_v)):
        if arr.size and arr.max() > worst:
            worst = float(arr.max())
            worst_block = block
            worst_index = int(arr.argmax())
    return FeasibilityReport(
        g_violation=g_v,
        h_violation=h_v,
        G_violation=G_v,
        H_violation=H_v,
        comp_violation=comp_v,
        max_violation=worst,
        worst_block=worst_block,
        worst_index=worst_index,
        feas_tol=tol.feas_tol,
        feasible=worst <= tol.feas_tol,
    )


def classify_indices(data: FirstOrderData, tol: Tolerances = Tolerances(),
                     feasibility: Optional[FeasibilityReport] = None) -> IndexSets:
    """Partition the constraints into active/biactive sets at the base point.

    A constraint counts as active when its value is within ``active_tol``
    of zero; values exactly at the threshold classify as active, which can
    only enlarge the biactive set.  When ``feas_tol`` exceeds
    ``active_tol`` a complementarity pair can straddle both thresholds; the
    smaller side is then treated as the active one.

    Raises :class:`InfeasiblePoint` when the point violates the
    constraints beyond ``feas_tol``; ``feasibility``, the report of
    :func:`check_feasibility` on the same data and tolerances, saves
    computing it again.
    """
    report = feasibility if feasibility is not None else check_feasibility(data, tol)
    if not report.feasible:
        raise InfeasiblePoint(f"point infeasible: {report.describe_worst()}", report)

    a = tol.active_tol
    active_g = frozenset(i for i in range(data.l) if abs(data.g_vals[i]) <= a)
    plus_zero, zero_plus, zero_zero = set(), set(), set()
    for i in range(data.p):
        G_zero = data.G_vals[i] <= a
        H_zero = data.H_vals[i] <= a
        if G_zero and H_zero:
            zero_zero.add(i)
        elif H_zero:
            plus_zero.add(i)
        elif G_zero:
            zero_plus.add(i)
        elif data.G_vals[i] <= data.H_vals[i]:
            zero_plus.add(i)
        else:
            plus_zero.add(i)
    return IndexSets(
        l=data.l,
        p=data.p,
        active_g=active_g,
        plus_zero=frozenset(plus_zero),
        zero_plus=frozenset(zero_plus),
        zero_zero=frozenset(zero_zero),
    )


def evaluate_affine(inst: AffineInstance, x) -> FirstOrderData:
    """Evaluate an affine instance at x, producing point-local data."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != inst.n:
        raise DimensionMismatch(f"x: expected length {inst.n}, got {x.size}")
    return FirstOrderData(
        n=inst.n,
        l=inst.l,
        m=inst.m,
        p=inst.p,
        grad_f=inst.Q @ x + inst.c,
        g_vals=inst.A_g @ x + inst.b_g,
        grad_g=inst.A_g,
        h_vals=inst.A_h @ x + inst.b_h,
        grad_h=inst.A_h,
        G_vals=inst.A_G @ x + inst.b_G,
        grad_G=inst.A_G,
        H_vals=inst.A_H @ x + inst.b_H,
        grad_H=inst.A_H,
    )
