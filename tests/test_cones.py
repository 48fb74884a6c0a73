import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcc_cert import (
    AffineInstance,
    BranchAssignment,
    FirstOrderData,
    DimensionMismatch,
    LinearizedCone,
    LpStatus,
    branch_cone_contains,
    branch_cone_inclusion_check,
    classify_indices,
    enumerate_branch_assignments,
    evaluate_affine,
    lp_feasible,
    polar_branch_membership,
    polar_separating_direction,
    tmpcclin_contains,
)
from mpcc_cert.instances import random_affine_instance
from mpcc_cert.oracle import oracle_m_exists

from conftest import bilinear_pair_data


@pytest.fixture
def pair_cone():
    data = bilinear_pair_data([1.0, 1.0])
    return LinearizedCone(data, classify_indices(data))


class TestMembership:
    def test_axis_direction_in_cone(self, pair_cone):
        assert tmpcclin_contains(pair_cone, [1.0, 0.0])

    def test_diagonal_violates_product(self, pair_cone):
        assert not tmpcclin_contains(pair_cone, [1.0, 1.0])

    def test_negative_slope_excluded(self, pair_cone):
        assert not tmpcclin_contains(pair_cone, [-1.0, 0.0])

    def test_branch_one_contains_g_axis(self, pair_cone):
        assert branch_cone_contains(pair_cone, BranchAssignment((1,)), [1.0, 0.0])

    def test_branch_one_excludes_h_axis(self, pair_cone):
        assert not branch_cone_contains(pair_cone, BranchAssignment((1,)), [0.0, 1.0])

    def test_branch_two_contains_h_axis(self, pair_cone):
        assert branch_cone_contains(pair_cone, BranchAssignment((2,)), [0.0, 1.0])

    def test_dimension_mismatch(self, pair_cone):
        with pytest.raises(DimensionMismatch):
            tmpcclin_contains(pair_cone, [1.0])

    @pytest.mark.parametrize("check", [
        branch_cone_contains, polar_branch_membership, polar_separating_direction])
    def test_alpha_length_mismatch(self, pair_cone, check):
        with pytest.raises(DimensionMismatch, match="alpha has wrong length"):
            check(pair_cone, BranchAssignment((1, 2)), [1.0, 0.0])

    @pytest.mark.parametrize("check", [polar_branch_membership, polar_separating_direction])
    def test_w_length_mismatch(self, pair_cone, check):
        with pytest.raises(DimensionMismatch, match="w: expected length 2"):
            check(pair_cone, BranchAssignment((1,)), [1.0])

    @pytest.mark.parametrize("biactive", [[0, 5], [-1]])
    def test_assignments_reject_out_of_range_biactive(self, biactive):
        with pytest.raises(DimensionMismatch, match=r"must lie in 0\.\.1"):
            enumerate_branch_assignments(2, biactive)


def _reference_contains(cone, d, tol, alpha=None):
    """Row-by-row membership in alpha's branch cone, or the linearized cone."""
    data, sets = cone.data, cone.sets
    ok = ([abs(data.grad_h[j] @ d) <= tol for j in range(data.m)]
          + [abs(data.grad_G[i] @ d) <= tol for i in sets.zero_plus]
          + [abs(data.grad_H[i] @ d) <= tol for i in sets.plus_zero]
          + [data.grad_g[i] @ d <= tol for i in sets.active_g])
    for i in sets.zero_zero:
        sG, sH = data.grad_G[i] @ d, data.grad_H[i] @ d
        if alpha is None:
            ok.append(sG >= -tol and sH >= -tol and abs(sG * sH) <= tol)
        elif alpha.choices[i] == 1:
            ok.append(abs(sH) <= tol and sG >= -tol)
        else:
            ok.append(abs(sG) <= tol and sH >= -tol)
    return all(ok)


def _span_complement(rows, n):
    """Orthonormal basis of the directions every row is orthogonal to."""
    if not rows.shape[0]:
        return np.eye(n)
    _, s, vt = np.linalg.svd(rows)
    return vt[int(np.sum(s > 1e-12)):].T


class TestMembershipAgainstRows:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_row_by_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(0, 4))
        inst = random_affine_instance(
            rng, n=int(rng.integers(1, 6)), l=int(rng.integers(0, 3)),
            m=int(rng.integers(0, 2)), p=p, objective="random",
            min_biactive=int(rng.integers(0, p + 1)))
        data = evaluate_affine(inst, np.zeros(inst.n))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        shared = np.vstack([data.grad_h, data.grad_G[sorted(sets.zero_plus)],
                            data.grad_H[sorted(sets.plus_zero)]])
        for alpha in enumerate_branch_assignments(p, sets.zero_zero):
            pinned = [data.grad_H[i] if alpha.choices[i] == 1 else data.grad_G[i]
                      for i in sorted(sets.zero_zero)]
            bases = (np.eye(inst.n), _span_complement(shared, inst.n),
                     _span_complement(np.vstack([shared] + pinned), inst.n))
            for k in range(36):
                # scales from 1e-10 to 10 put rows on both sides of tol; the
                # bases give raw directions, directions with the shared
                # equalities at zero, and directions in alpha's equality space
                basis = bases[k % 3]
                d = basis @ (basis.T @ rng.standard_normal(inst.n)) * 10.0 ** rng.uniform(-10, 1)
                assert branch_cone_contains(cone, alpha, d) == \
                    _reference_contains(cone, d, 1e-9, alpha)
                assert tmpcclin_contains(cone, d) == _reference_contains(cone, d, 1e-9)


class TestInclusion:
    def test_holds_on_pair_instance(self, pair_cone):
        for alpha in enumerate_branch_assignments(1, {0}):
            assert branch_cone_inclusion_check(pair_cone, alpha, samples=1000, seed=1)

    def test_vacuous_without_complementarity(self):
        empty = evaluate_affine(AffineInstance(c=[1.0, 1.0]), [0.0, 0.0])
        cone = LinearizedCone(empty, classify_indices(empty))
        assert branch_cone_inclusion_check(cone, BranchAssignment(()), samples=100, seed=2)

    def test_corrupted_membership_is_caught(self, pair_cone):
        def negated_product(cone, d, tol):
            # sabotage: demand a *nonzero* product on the biactive pair
            i = next(iter(cone.sets.zero_zero))
            sG = cone.data.grad_G[i] @ np.asarray(d, dtype=float)
            sH = cone.data.grad_H[i] @ np.asarray(d, dtype=float)
            return abs(sG * sH) > tol

        assert not branch_cone_inclusion_check(
            pair_cone, BranchAssignment((1,)), samples=500, seed=3,
            membership=negated_product)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=4, l=2, m=1, p=2, objective="random")
        data = evaluate_affine(inst, np.zeros(4))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        for alpha in enumerate_branch_assignments(2, sets.zero_zero):
            assert branch_cone_inclusion_check(cone, alpha, samples=200, seed=seed)


class TestPolarMembership:
    def test_unique_pair_multipliers(self, pair_cone):
        mult = polar_branch_membership(pair_cone, BranchAssignment((1,)), [-1.0, -1.0])
        assert mult is not None
        assert mult.mu[0] == pytest.approx(1.0, abs=1e-9)
        assert mult.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_negative_mu_only_in_branch_two(self, pair_cone):
        # w = (1, -1) needs mu = -1 and nu = 1: in branch 2's polar, not in
        # branch 1's, whose mu >= 0 (so no S-multiplier either)
        mult = polar_branch_membership(pair_cone, BranchAssignment((2,)), [1.0, -1.0])
        assert mult.mu[0] == pytest.approx(-1.0, abs=1e-9)
        assert mult.nu[0] == pytest.approx(1.0, abs=1e-9)
        assert polar_branch_membership(pair_cone, BranchAssignment((1,)), [1.0, -1.0]) is None

    def test_zero_vector_always_representable(self, pair_cone):
        mult = polar_branch_membership(pair_cone, BranchAssignment((2,)), [0.0, 0.0])
        assert mult is not None
        assert np.abs(mult.mu).max() <= 1e-9 and np.abs(mult.nu).max() <= 1e-9

    def test_not_in_polar_outside_span(self):
        # only G(x) = x1 active with H strictly positive: nu is forced off,
        # so nothing can generate the second coordinate
        data = FirstOrderData(
            n=2, l=0, m=0, p=1, grad_f=[0.0, 0.0],
            G_vals=[0.0], grad_G=[[1.0, 0.0]],
            H_vals=[1.0], grad_H=[[0.0, 1.0]])
        cone = LinearizedCone(data, classify_indices(data))
        w = np.array([0.0, 1.0])
        assert polar_branch_membership(cone, BranchAssignment((1,)), w) is None
        # same verdict from a hand-built feasibility system: w = -mu * grad_G
        out = lp_feasible(eq_matrix=np.array([[-1.0], [0.0]]), eq_rhs=w)
        assert out.status is LpStatus.INFEASIBLE

    def test_separating_direction_certifies_exclusion(self):
        data = FirstOrderData(
            n=2, l=0, m=0, p=1, grad_f=[0.0, 0.0],
            G_vals=[0.0], grad_G=[[1.0, 0.0]],
            H_vals=[1.0], grad_H=[[0.0, 1.0]])
        cone = LinearizedCone(data, classify_indices(data))
        alpha = BranchAssignment((1,))
        w = np.array([0.0, 1.0])
        d = polar_separating_direction(cone, alpha, w)
        assert d is not None
        assert w @ d > 1e-9
        assert branch_cone_contains(cone, alpha, d, 1e-9)

    def test_member_has_no_separator(self, pair_cone):
        assert polar_separating_direction(
            pair_cone, BranchAssignment((1,)), [-1.0, -1.0]) is None


def _random_cone_and_alpha(rng):
    inst = random_affine_instance(
        rng, n=int(rng.integers(2, 6)), l=int(rng.integers(0, 3)),
        m=int(rng.integers(0, 2)), p=int(rng.integers(1, 4)), objective="random")
    data = evaluate_affine(inst, np.zeros(inst.n))
    sets = classify_indices(data)
    cone = LinearizedCone(data, sets)
    choices = tuple(int(c) for c in rng.integers(1, 3, size=inst.p))
    return cone, BranchAssignment(choices)


def _sample_cone_direction(cone, alpha, rng):
    """One branch-cone point found by an LP with a random objective."""
    from mpcc_cert.cones import _branch_system
    from mpcc_cert.solvers import LinearProgram, lp_solve

    eq_rows, geq_rows, leq_rows = _branch_system(cone, alpha)
    n = cone.data.n
    lp = LinearProgram(
        objective=rng.standard_normal(n),
        eq_matrix=eq_rows, eq_rhs=np.zeros(eq_rows.shape[0]),
        # the box -1 <= d <= 1, its upper sides as the last n rows
        ineq_matrix=np.vstack([leq_rows, -geq_rows, np.eye(n)]),
        ineq_rhs=np.concatenate([np.zeros(leq_rows.shape[0] + geq_rows.shape[0]), np.ones(n)]),
        lower=np.full(n, -1.0),
    )
    out = lp_solve(lp)
    assert out.status is LpStatus.OPTIMAL
    return out.solution


class TestPolarSoundnessCompleteness:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_soundness_and_completeness(self, seed):
        rng = np.random.default_rng(seed)
        cone, alpha = _random_cone_and_alpha(rng)
        w = -cone.data.grad_f
        mult = polar_branch_membership(cone, alpha, w)
        if mult is not None:
            for _ in range(25):
                d = _sample_cone_direction(cone, alpha, rng)
                assert branch_cone_contains(cone, alpha, d, 1e-7)
                assert w @ d <= 1e-9
        else:
            d = polar_separating_direction(cone, alpha, w)
            assert d is not None
            assert w @ d > 1e-9
            assert branch_cone_contains(cone, alpha, d, 1e-7)


class TestKktReduction:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_complementarity_reduces_to_kkt(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=3, l=3, m=1, p=0,
                                      objective="random", min_biactive=0)
        data = evaluate_affine(inst, np.zeros(3))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        mult = polar_branch_membership(cone, BranchAssignment(()), -data.grad_f)
        exists, witness = oracle_m_exists(data, sets)
        assert (mult is not None) == exists
        if mult is not None:
            # KKT multipliers: gradient identity, signs, support
            r = data.grad_f + mult.lam @ data.grad_g + mult.eta @ data.grad_h
            assert np.abs(r).max() <= 1e-8
            assert all(mult.lam[i] >= -1e-9 for i in sets.active_g)
            assert all(mult.lam[i] == 0.0 for i in set(range(3)) - sets.active_g)
