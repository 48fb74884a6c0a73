import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc_cert import (
    AffineInstance,
    DimensionMismatch,
    FirstOrderData,
    InfeasiblePoint,
    LinearProgram,
    MinNormProblem,
    MultiplierVector,
    Tolerances,
    check_feasibility,
    classify_indices,
    evaluate_affine,
)
from mpcc_cert.instances import random_feasible_point_data


def make_data(g=(), G=(), H=(), n=1):
    l, p = len(g), len(G)
    return FirstOrderData(
        n=n, l=l, m=0, p=p,
        grad_f=np.zeros(n),
        g_vals=list(g), grad_g=np.zeros((l, n)),
        G_vals=list(G), grad_G=np.zeros((p, n)),
        H_vals=list(H), grad_H=np.zeros((p, n)),
    )


class TestClassifyIndices:
    def test_documented_partition(self):
        data = make_data(g=[-1.0, 0.0], G=[0.0, 2.0, 0.0], H=[3.0, 0.0, 0.0])
        sets = classify_indices(data, Tolerances(active_tol=1e-8))
        assert sets.active_g == {1}
        assert sets.zero_plus == {0}
        assert sets.plus_zero == {1}
        assert sets.zero_zero == {2}

    def test_empty_dimensions(self):
        data = make_data(n=4)
        sets = classify_indices(data)
        assert sets.active_g == set() == sets.zero_zero
        assert sets.plus_zero == set() == sets.zero_plus

    def test_both_below_threshold_is_biactive(self):
        data = make_data(G=[1e-12], H=[1e-12])
        sets = classify_indices(data, Tolerances(active_tol=1e-8))
        assert sets.zero_zero == {0}

    def test_threshold_value_counts_as_active(self):
        data = make_data(g=[-1e-8], G=[0.0], H=[1.0])
        sets = classify_indices(data, Tolerances(active_tol=1e-8))
        assert sets.active_g == {0}

    def test_infeasible_point_raises_with_worst(self):
        data = make_data(G=[1.0], H=[1.0])
        with pytest.raises(InfeasiblePoint) as exc:
            classify_indices(data)
        assert exc.value.report.worst_block == "complementarity"

    def test_straddle_between_tolerances_uses_smaller_side(self):
        # feasible at feas_tol but both sides above active_tol
        tol = Tolerances(active_tol=1e-10, feas_tol=1e-6)
        data = make_data(G=[1e-8], H=[5e-8])
        sets = classify_indices(data, tol)
        assert sets.zero_plus == {0}

    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariant(self, seed, l, p):
        rng = np.random.default_rng(seed)
        data = random_feasible_point_data(rng, n=3, l=l, m=1, p=p)
        sets = classify_indices(data)
        union = sets.plus_zero | sets.zero_plus | sets.zero_zero
        assert union == set(range(p))
        assert len(sets.plus_zero) + len(sets.zero_plus) + len(sets.zero_zero) == p

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = random_feasible_point_data(rng, n=3, l=3, m=0, p=4)
        sets = classify_indices(data)
        perm = rng.permutation(4)
        permuted = FirstOrderData(
            n=3, l=3, m=0, p=4,
            grad_f=data.grad_f,
            g_vals=data.g_vals, grad_g=data.grad_g,
            G_vals=data.G_vals[perm], grad_G=data.grad_G[perm],
            H_vals=data.H_vals[perm], grad_H=data.grad_H[perm],
        )
        psets = classify_indices(permuted)
        inverse = np.empty(4, dtype=int)
        inverse[perm] = np.arange(4)
        assert psets.zero_zero == {int(inverse[i]) for i in sets.zero_zero}
        assert psets.plus_zero == {int(inverse[i]) for i in sets.plus_zero}
        assert psets.zero_plus == {int(inverse[i]) for i in sets.zero_plus}


class TestEvaluateAffine:
    def test_identity_structure(self):
        inst = AffineInstance(c=[1.0, 1.0], A_G=[[1.0, 0.0]], b_G=[0.0],
                              A_H=[[0.0, 1.0]], b_H=[0.0])
        data = evaluate_affine(inst, [0.0, 0.0])
        assert np.array_equal(data.grad_f, [1.0, 1.0])
        assert np.array_equal(data.G_vals, [0.0])
        assert np.array_equal(data.H_vals, [0.0])

    def test_quadratic_gradient(self):
        inst = AffineInstance(c=[0.0, 0.0], Q=2.0 * np.eye(2))
        data = evaluate_affine(inst, [1.0, 2.0])
        assert np.array_equal(data.grad_f, [2.0, 4.0])

    def test_constant_map(self):
        inst = AffineInstance(c=[0.0], A_g=[[0.0]], b_g=[-3.0])
        for x in ([0.0], [5.0], [-7.5]):
            assert evaluate_affine(inst, x).g_vals[0] == -3.0

    def test_dimension_mismatch(self):
        inst = AffineInstance(c=[1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            evaluate_affine(inst, [1.0])

    def test_non_finite_point_is_blamed_on_x(self):
        inst = AffineInstance(c=[1.0, 1.0], A_g=[[1.0, 0.0]], b_g=[-1.0])
        with pytest.raises(ValueError, match="^x: entries must be finite"):
            evaluate_affine(inst, [np.inf, 0.0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_formulas(self, seed):
        rng = np.random.default_rng(seed)
        n, l, m, p = (int(rng.integers(1, 9)) for _ in range(4))
        inst = AffineInstance(
            c=rng.uniform(-10, 10, n),
            Q=(lambda B: (B + B.T) / 2)(rng.uniform(-10, 10, (n, n))),
            A_g=rng.uniform(-10, 10, (l, n)), b_g=rng.uniform(-10, 10, l),
            A_h=rng.uniform(-10, 10, (m, n)), b_h=rng.uniform(-10, 10, m),
            A_G=rng.uniform(-10, 10, (p, n)), b_G=rng.uniform(-10, 10, p),
            A_H=rng.uniform(-10, 10, (p, n)), b_H=rng.uniform(-10, 10, p),
        )
        x = rng.uniform(-10, 10, n)
        data = evaluate_affine(inst, x)
        assert np.abs(data.g_vals - (inst.A_g @ x + inst.b_g)).max(initial=0) <= 1e-12
        assert np.abs(data.grad_f - (inst.Q @ x + inst.c)).max() <= 1e-12
        rep = check_feasibility(data)
        direct_g = np.maximum(inst.A_g @ x + inst.b_g, 0.0)
        assert np.abs(rep.g_violation - direct_g).max(initial=0) <= 1e-12


class TestCheckFeasibility:
    def test_feasible_point(self):
        data = FirstOrderData(n=1, l=1, m=1, p=1, grad_f=[0.0],
                              g_vals=[-1.0], grad_g=[[0.0]],
                              h_vals=[0.0], grad_h=[[0.0]],
                              G_vals=[0.0], grad_G=[[0.0]],
                              H_vals=[2.0], grad_H=[[0.0]])
        rep = check_feasibility(data)
        assert rep.feasible and rep.max_violation == 0.0

    def test_complementarity_violation(self):
        rep = check_feasibility(make_data(G=[1.0], H=[1.0]))
        assert not rep.feasible
        assert rep.max_violation == 1.0
        assert rep.worst_block == "complementarity"

    def test_threshold_names_worst_violator(self):
        data = FirstOrderData(n=1, l=0, m=1, p=0, grad_f=[0.0],
                              h_vals=[1e-6], grad_h=[[0.0]])
        rep = check_feasibility(data, Tolerances(feas_tol=1e-8))
        assert not rep.feasible
        assert rep.worst_block == "h" and rep.worst_index == 0


class TestInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FirstOrderData(n=1, l=0, m=0, p=0, grad_f=[np.nan])

    def test_dimensions_stored_as_int(self):
        data = FirstOrderData(n=2.0, l=np.int64(1), m=0, p=0, grad_f=[1.0, 0.0],
                              g_vals=[-1.0], grad_g=[[1.0, 0.0]])
        assert [type(v) for v in (data.n, data.l, data.m, data.p)] == [int] * 4
        assert (data.n, data.l) == (2, 1)
        assert classify_indices(data).l == 1

    @pytest.mark.parametrize("bad", [True, 1.5, -1, float("nan"), float("inf"), "1", None])
    def test_rejects_non_integral_dimension(self, bad):
        with pytest.raises(ValueError, match="l must be a nonnegative integer"):
            FirstOrderData(n=1, l=bad, m=0, p=0, grad_f=[0.0])

    def test_rejects_bad_lengths(self):
        with pytest.raises(DimensionMismatch):
            FirstOrderData(n=2, l=1, m=0, p=0, grad_f=[1.0, 0.0], g_vals=[0.0, 1.0],
                           grad_g=[[1.0, 0.0]])

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            AffineInstance(c=[0.0, 0.0], Q=[[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_unpaired_complementarity_blocks(self):
        with pytest.raises(DimensionMismatch):
            AffineInstance(c=[0.0, 0.0], A_G=[[1.0, 0.0]], b_G=[0.0])

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            Tolerances(active_tol=-1e-9)

    def test_rejects_non_finite_objective(self):
        with pytest.raises(ValueError, match="^c: entries must be finite"):
            AffineInstance(c=[np.nan, 1.0])

    @pytest.mark.parametrize("make, fields", [
        (functools.partial(FirstOrderData, n=1, l=1, m=0, p=1),
         {"grad_f": [1.0], "g_vals": [-1.0], "grad_g": [[1.0]], "G_vals": [0.0],
          "grad_G": [[1.0]], "H_vals": [0.0], "grad_H": [[-1.0]]}),
        (AffineInstance, {"c": [1.0, 0.0], "Q": np.eye(2), "A_g": [[1.0, 0.0]], "b_g": [-1.0]}),
        (MultiplierVector, {"lam": [1.0], "eta": [], "mu": [0.5], "nu": [-0.5]}),
        (LinearProgram, {"objective": [1.0, 0.0], "eq_matrix": [[1.0, 1.0]], "eq_rhs": [1.0],
                         "ineq_matrix": [[1.0, 0.0]], "ineq_rhs": [2.0],
                         "lower": [0.0, -np.inf]}),
        (MinNormProblem, {"vertices": [[1.0, 2.0], [3.0, -1.0]]}),
    ], ids=["FirstOrderData", "AffineInstance", "MultiplierVector", "LinearProgram",
            "MinNormProblem"])
    def test_records_store_read_only_copies(self, make, fields):
        given = {name: np.array(value, dtype=float) for name, value in fields.items()}
        record = make(**given)
        for name, arr in given.items():
            stored = getattr(record, name)
            assert not np.shares_memory(stored, arr), name
            assert not stored.flags.writeable, name
            before = stored.copy()
            arr[...] = 7.0
            assert np.array_equal(stored, before), name

    def test_arrays_are_frozen(self):
        data = make_data(G=[0.0], H=[0.0])
        with pytest.raises(ValueError):
            data.G_vals[0] = 5.0
