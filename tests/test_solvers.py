import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc_cert import (
    DimensionMismatch,
    LinearProgram,
    LpStatus,
    MinNormProblem,
    NumericalFailure,
    lp_feasible,
    lp_solve,
    min_norm_point,
)
from mpcc_cert.instances import random_feasible_bounded_lp
from mpcc_cert.oracle import grid_min_norm
from mpcc_cert.solvers import _simplex

from lp_reference import best_vertex_exact, solve_lp_exact

DATA = Path(__file__).resolve().parent / "data"


def _reference_bounds(lower):
    """lp_reference's (lo, hi) pairs for lower bounds only."""
    return [(None if np.isneginf(lo) else lo, None) for lo in lower]


class TestLpSolve:
    def test_simple_lower_bound(self):
        out = lp_solve(LinearProgram(objective=[1.0], lower=[2.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.solution[0] == pytest.approx(2.0, abs=1e-9)
        assert out.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_contradictory_constraints(self):
        out = lp_solve(LinearProgram(objective=[0.0], ineq_matrix=[[1.0]],
                                     ineq_rhs=[-1.0], lower=[0.0]))
        assert out.status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        out = lp_solve(LinearProgram(objective=[-1.0], lower=[0.0]))
        assert out.status is LpStatus.UNBOUNDED

    def test_free_variables_and_equalities(self):
        # min x + y s.t. x - y = 3, x + y >= 1
        out = lp_solve(LinearProgram(
            objective=[1.0, 1.0],
            eq_matrix=[[1.0, -1.0]], eq_rhs=[3.0],
            ineq_matrix=[[-1.0, -1.0]], ineq_rhs=[-1.0],
        ))
        assert out.status is LpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_rows_over_zero_variables(self):
        lp = LinearProgram(objective=np.zeros(0), eq_matrix=np.zeros((2, 0)), eq_rhs=[0.0, 0.0])
        assert lp.eq_matrix.shape == (2, 0)
        assert lp_solve(lp).status is LpStatus.OPTIMAL
        lp = LinearProgram(objective=np.zeros(0), eq_matrix=np.zeros((2, 0)), eq_rhs=[0.0, 1.0])
        assert lp_solve(lp).status is LpStatus.INFEASIBLE

    def test_iteration_cap_raises(self):
        # min -x0 - x1 s.t. x0 + 2 x1 + s = 4 from the slack basis: one pivot
        T = np.array([[1.0, 2.0, 1.0, 4.0],
                      [-1.0, -1.0, 0.0, 0.0]])
        with pytest.raises(NumericalFailure, match="iteration cap"):
            _simplex(T, np.array([2]), 1e-9, [0])
        budget = [1]
        assert _simplex(T, np.array([2]), 1e-9, budget) == "optimal"
        assert budget == [0] and T[-1, -1] == 4.0

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 64])
    def test_phase_one_row_is_the_sequential_subtraction(self, k):
        # lp_solve forms the phase-1 cost row with one sum over the
        # artificial rows; it keeps the pivots of subtracting the rows one
        # by one only while numpy adds them in order, bit for bit
        rows = np.random.default_rng(k).standard_normal((k, 40))
        sequential = np.zeros(40)
        for row in rows:
            sequential -= row
        assert (np.zeros(40) - rows.sum(axis=0)).tobytes() == sequential.tobytes()

    def test_redundant_equality_rows_dropped(self):
        # a duplicated equality leaves a basic artificial that cannot pivot out
        out = lp_solve(LinearProgram(
            objective=[1.0, 0.0],
            eq_matrix=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            eq_rhs=[2.0, 2.0, 4.0],
            lower=[0.0, 0.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_inconsistent_redundant_rows(self):
        out = lp_solve(LinearProgram(
            objective=[0.0, 0.0],
            eq_matrix=[[1.0, 1.0], [2.0, 2.0]],
            eq_rhs=[2.0, 5.0]))
        assert out.status is LpStatus.INFEASIBLE

    def test_fixed_variable_bounds(self):
        # 3 <= x0 <= 3 and -1 <= x1 <= 5, the upper sides as <= rows
        out = lp_solve(LinearProgram(
            objective=[1.0, 1.0],
            ineq_matrix=np.eye(2), ineq_rhs=[3.0, 5.0],
            lower=[3.0, -1.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.solution == pytest.approx([3.0, -1.0], abs=1e-9)

    def test_lower_bounds_validated(self):
        assert np.isneginf(LinearProgram(objective=[1.0, 2.0]).lower).all()
        for bad in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="lower"):
                LinearProgram(objective=[1.0, 2.0], lower=bad)
        with pytest.raises(DimensionMismatch, match="lower"):
            LinearProgram(objective=[1.0, 2.0], lower=[0.0])

    def test_phase_one_roundoff_unbounded_is_feasible(self):
        # An oracle pattern LP of the wide pool, frozen bit for bit: phase 1
        # reaches an objective of about -8e-11 (zero), but one reduced cost
        # of about -1.3e-9 has no positive entry in its column, so the
        # simplex reports "unbounded".  Phase 1 is bounded below by 0, so
        # this is roundoff and the LP is feasible.
        doc = json.loads((DATA / "phase1_roundoff_lp.json").read_text())
        lower = np.array([-np.inf if v is None else v for v in doc["lower"]])
        lp = LinearProgram(objective=doc["objective"], eq_matrix=doc["eq_matrix"],
                           eq_rhs=doc["eq_rhs"], lower=lower)
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert np.abs(lp.eq_matrix @ out.solution - lp.eq_rhs).max() <= 1e-6
        assert (out.solution >= lower).all()

    def test_negative_rhs_equality_flip(self):
        out = lp_solve(LinearProgram(
            objective=[1.0],
            eq_matrix=[[1.0]], eq_rhs=[-3.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.solution[0] == pytest.approx(-3.0, abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_free_variable_is_an_explicit_column_pair(self, seed):
        # polar_branch_membership writes some free multipliers as a [a, -a]
        # column pair bounded below by 0 and relies on lp_solve making that
        # very split for lower = -inf: same tableau, same pivots, same bytes
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        me = int(rng.integers(1, d + 2))
        A = rng.uniform(-5.0, 5.0, (me, d))
        # mostly feasible systems, so that most draws compare solutions
        b = A @ rng.uniform(0.0, 3.0, d) if rng.random() < 0.7 else rng.uniform(-5.0, 5.0, me)
        c = rng.uniform(-1.0, 1.0, d) * (rng.random() < 0.5)
        free = rng.random(d) < 0.5
        out = lp_solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b,
                                     lower=np.where(free, -np.inf, 0.0)))
        col_var = np.repeat(np.arange(d), 1 + free)
        minus = np.nonzero(np.diff(col_var) == 0)[0] + 1
        sign = np.ones(col_var.size)
        sign[minus] = -1.0
        split = lp_solve(LinearProgram(objective=c[col_var] * sign, eq_matrix=A[:, col_var] * sign,
                                       eq_rhs=b, lower=np.zeros(col_var.size)))
        assert split.status is out.status
        if out.status is LpStatus.OPTIMAL:
            z = np.delete(split.solution, minus)
            z[free] -= split.solution[minus]
            assert z.tobytes() == out.solution.tobytes()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_against_exact_simplex(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 11))
        lp = random_feasible_bounded_lp(rng, d=d, n_cons=10)
        out = lp_solve(lp)
        status, _, obj = solve_lp_exact(
            lp.objective, lp.eq_matrix, lp.eq_rhs, lp.ineq_matrix, lp.ineq_rhs,
            _reference_bounds(lp.lower))
        assert status == "optimal"
        assert out.status is LpStatus.OPTIMAL
        x = out.solution
        # the box's upper sides are the last d <= rows
        assert (lp.ineq_matrix @ x - lp.ineq_rhs).max() <= 1e-9
        assert (x >= lp.lower - 1e-9).all()
        assert out.objective_value == pytest.approx(float(obj), abs=1e-7)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        lp = random_feasible_bounded_lp(rng, d=d, n_cons=4)
        out = lp_solve(lp)
        best = best_vertex_exact(
            lp.objective, lp.eq_matrix, lp.eq_rhs, lp.ineq_matrix, lp.ineq_rhs,
            _reference_bounds(lp.lower))
        assert out.status is LpStatus.OPTIMAL
        assert best is not None
        assert out.objective_value == pytest.approx(float(best), abs=1e-7)


class TestLpFeasible:
    def test_simple_system(self):
        out = lp_feasible(eq_matrix=[[1.0, 1.0]], eq_rhs=[2.0], lower=[0.0, 0.0])
        assert out.status is LpStatus.OPTIMAL
        y = out.solution
        assert y.sum() == pytest.approx(2.0, abs=1e-9)
        assert (y >= -1e-9).all()

    def test_inconsistent_equalities(self):
        out = lp_feasible(eq_matrix=[[1.0], [1.0]], eq_rhs=[1.0, 2.0])
        assert out.status is LpStatus.INFEASIBLE

    def test_empty_system_returns_zero(self):
        out = lp_feasible(n_vars=3)
        assert out.status is LpStatus.OPTIMAL
        assert np.array_equal(out.solution, np.zeros(3))


class TestFarkasAlternative:
    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exclusive_or(self, seed, make_feasible):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        A = rng.uniform(-5, 5, (n, k))
        if make_feasible:
            b = A @ rng.uniform(0, 3, k)
        else:
            b = rng.uniform(-5, 5, n)
        primal = lp_feasible(eq_matrix=A, eq_rhs=b, lower=np.zeros(k))
        primal_ok = primal.status is LpStatus.OPTIMAL
        # alternative: exists d with A'd <= 0 and b'd > 0
        alt = lp_solve(LinearProgram(
            objective=-b,
            ineq_matrix=np.vstack([A.T, b.reshape(1, -1)]),
            ineq_rhs=np.concatenate([np.zeros(k), [1.0]]),
        ))
        assert alt.status is LpStatus.OPTIMAL
        alt_ok = b @ alt.solution > 1e-9
        assert primal_ok != alt_ok


class TestMinNormPoint:
    def test_segment_with_sign_constraint(self):
        res = min_norm_point(MinNormProblem(np.array([[3.0, -2.0], [-1.0, 4.0]]), (0,)))
        assert res is not None
        assert res.point == pytest.approx([15 / 13, 10 / 13], abs=1e-9)
        assert res.weights == pytest.approx([7 / 13, 6 / 13], abs=1e-9)

    def test_singleton(self):
        res = min_norm_point(MinNormProblem(np.array([[2.0, 1.0]]), (0,)))
        assert np.array_equal(res.point, [2.0, 1.0])
        assert res.weights == pytest.approx([1.0])

    def test_symmetric_hull_contains_origin(self):
        vertices = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        res = min_norm_point(MinNormProblem(vertices))
        assert res.point == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_empty_intersection(self):
        res = min_norm_point(MinNormProblem(np.array([[-1.0, -2.0], [-3.0, 1.0]]), (0,)))
        assert res is None

    def test_active_sign_constraint(self):
        # unconstrained minimizer has a negative first coordinate; constraint binds
        vertices = np.array([[-2.0, 1.0], [1.0, 1.0]])
        res = min_norm_point(MinNormProblem(vertices, (0,)))
        assert res.point == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_no_feasible_vertex_but_nonempty_region(self):
        # both vertices violate a sign, but the middle of the segment is fine,
        # so the start point must come from the feasibility LP
        vertices = np.array([[-1.0, 2.0], [2.0, -1.0]])
        res = min_norm_point(MinNormProblem(vertices, (0, 1)))
        assert res is not None
        assert res.point == pytest.approx([0.5, 0.5], abs=1e-9)
        assert res.norm_sq == pytest.approx(0.5, abs=1e-9)

    def test_duplicated_vertices(self):
        vertices = np.array([[2.0, -1.0], [2.0, -1.0], [-1.0, 2.0], [-1.0, 2.0]])
        res = min_norm_point(MinNormProblem(vertices))
        assert res.point == pytest.approx([0.5, 0.5], abs=1e-9)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_coordinate_sign_rows_are_vacuous(self):
        # every vertex has the constrained coordinate identically zero
        vertices = np.array([[0.0, 1.0], [0.0, -2.0]])
        res = min_norm_point(MinNormProblem(vertices, (0,)))
        assert res.point == pytest.approx([0.0, 0.0], abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_variational_inequality_and_weights(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        V = rng.uniform(-5, 5, (k, d))
        n_signs = int(rng.integers(0, d + 1))
        signs = tuple(sorted(rng.choice(d, size=n_signs, replace=False).tolist()))
        res = min_norm_point(MinNormProblem(V, signs))
        feasible_vertices = [v for v in V if all(v[c] >= 0 for c in signs)]
        if res is None:
            assert not feasible_vertices
            return
        q, w = res.point, res.weights
        assert (w >= -1e-9).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(V.T @ w - q).max() <= 1e-9
        for c in signs:
            assert q[c] >= -1e-9
        for v in feasible_vertices:
            assert q @ (v - q) >= -1e-7  # optimality certificate
            assert res.norm_sq <= v @ v + 1e-7

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kkt_audit(self, seed):
        # complete optimality check: for a convex QP the sign-constrained
        # stationarity system on the active rows is necessary and sufficient,
        # and its feasibility is decided here by the independent LP kernel
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        V = rng.uniform(-5, 5, (k, d))
        n_signs = int(rng.integers(0, d + 1))
        signs = tuple(sorted(rng.choice(d, size=n_signs, replace=False).tolist()))
        res = min_norm_point(MinNormProblem(V, signs))
        if res is None:
            return
        w = res.weights
        grad = 2.0 * (V @ V.T) @ w
        S = V[:, list(signs)].T if signs else np.zeros((0, k))
        columns = [np.ones(k)]
        columns += [np.eye(k)[i] for i in range(k) if w[i] <= 1e-8]
        columns += [S[j] for j in range(S.shape[0]) if S[j] @ w <= 1e-8]
        lower = np.zeros(len(columns))
        lower[0] = -np.inf
        out = lp_feasible(eq_matrix=np.column_stack(columns), eq_rhs=grad,
                          lower=lower, tol=1e-7)
        assert out.status is LpStatus.OPTIMAL

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equality_heavy_lps_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        me = int(rng.integers(1, d))
        A_eq = rng.uniform(-4, 4, (me, d))
        x0 = rng.uniform(0, 3, d)
        b_eq = A_eq @ x0
        c = rng.uniform(-4, 4, d)
        bounds = [(0.0, 10.0) if rng.random() < 0.7 else (None, 10.0)
                  for _ in range(d)]
        # the upper sides x <= 10 are <= rows; the reference takes the pairs
        lp = LinearProgram(objective=c, eq_matrix=A_eq, eq_rhs=b_eq,
                           ineq_matrix=np.eye(d), ineq_rhs=np.full(d, 10.0),
                           lower=[-np.inf if lo is None else lo for lo, _ in bounds])
        out = lp_solve(lp)
        status, _, obj = solve_lp_exact(c, A_eq, b_eq, None, None, bounds)
        # x0 is feasible by construction, so infeasibility can never be right;
        # unboundedness can occur through the variables left free below
        assert status in ("optimal", "unbounded")
        assert out.status.value == status
        if status == "optimal":
            assert out.objective_value == pytest.approx(float(obj), abs=1e-7)
            assert np.abs(A_eq @ out.solution - b_eq).max() <= 1e-9

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_weight_grid(self, seed, repeat):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        V = rng.uniform(-4, 4, (k, 2))
        if repeat:
            # a repeated vertex; three rows keep the grid small
            V = np.vstack([V[:2], V[rng.integers(0, min(k, 2))]])
            k = V.shape[0]
        signs = (0,) if rng.random() < 0.5 else ()
        res = min_norm_point(MinNormProblem(V, signs))
        ref = grid_min_norm(V, signs, grid_step=1e-3)
        if res is None:
            assert ref is None or ref[1] > -1e-12 and not any(
                all(v[c] >= 0 for c in signs) for v in V)
            return
        assert ref is not None
        # the grid cannot beat the true minimum, and reaches it up to resolution
        assert ref[1] >= res.norm_sq - 1e-9
        resolution = k * 1e-3 * np.linalg.norm(V, axis=1).max()
        assert np.sqrt(ref[1]) - np.sqrt(res.norm_sq) <= resolution + 1e-9

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scaled_vertices_scale_the_norm(self, seed):
        # every threshold is relative to max|V|, so scaling the data changes
        # no decision: the same empty regions, and norms that scale by c^2
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        V = rng.uniform(-5, 5, (k, d)) * (rng.random((k, d)) < 0.7)  # exact zeros too
        signs = tuple(sorted(rng.choice(d, size=int(rng.integers(0, d + 1)),
                                        replace=False).tolist()))
        ref = min_norm_point(MinNormProblem(V, signs))
        for c in (1e-6, 1e-3, 1e3, 1e6):
            res = min_norm_point(MinNormProblem(c * V, signs))
            assert (res is None) == (ref is None), c
            if ref is not None:
                assert res.norm_sq / c ** 2 == pytest.approx(
                    ref.norm_sq, rel=1e-12, abs=1e-24 * np.abs(V).max() ** 2), c

    @pytest.mark.parametrize("signs", [(), (0, 3, 7)])
    def test_many_vertices_small_memory(self, signs):
        # nothing k x k: 4096 vertices in 24 dimensions fit in a few arrays
        # of the input's size, and the support obeys Caratheodory's bound;
        # the offset keeps the origin out of the hull and makes the signs bind
        offset = np.ones(24)
        offset[[0, 3, 7]] = -0.5
        V = np.random.default_rng(24).normal(size=(4096, 24)) + offset
        prob = MinNormProblem(V, signs)
        tracemalloc.start()
        try:
            res = min_norm_point(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert np.count_nonzero(res.weights) <= 24 + 1
        assert np.abs(V.T @ res.weights - res.point).max() <= 1e-12
        assert res.point[list(signs)].min(initial=0.0) >= -1e-12
        in_region = (V[:, list(signs)] >= 0.0).all(axis=1)
        assert (V[in_region] @ res.point).min() >= res.norm_sq - 1e-9  # none lies nearer
