import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpcc_cert.model
import mpcc_cert.oracle
from mpcc_cert import (
    FirstOrderData,
    InfeasiblePoint,
    MultiplierClass,
    NotAffine,
    PatternBudgetExceeded,
    check_stationarity_system,
    classify_indices,
    classify_multiplier,
    evaluate_affine,
    grid_min_norm,
    min_norm_point,
    oracle_combiner_grid,
    oracle_m_exists,
    oracle_s_exists,
    oracle_tangent_sample,
    ray_stays_feasible,
)
from mpcc_cert.instances import random_affine_instance
from mpcc_cert.model import Tolerances
from mpcc_cert.solvers import MinNormProblem
from mpcc_cert.stationarity import m_condition_holds

from conftest import bilinear_pair_data, bilinear_pair_instance, m_not_s_instance
from lp_reference import solve_lp_exact


class TestOracleMExists:
    def test_both_positive_pattern(self):
        data = bilinear_pair_data([1.0, 1.0])
        sets = classify_indices(data)
        exists, witness = oracle_m_exists(data, sets)
        assert exists
        assert witness.mu[0] == pytest.approx(1.0, abs=1e-9)
        assert witness.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_forced_mixed_signs_has_no_m_point(self):
        data = bilinear_pair_data([-1.0, 1.0])
        sets = classify_indices(data)
        exists, witness = oracle_m_exists(data, sets)
        assert not exists and witness is None

    def test_exclusivity_with_pipeline(self):
        # the oracle proving no M-multiplier exists must coincide with the
        # pipeline not certifying
        from mpcc_cert import VerdictKind, certify_m_stationarity

        data = bilinear_pair_data([-1.0, 1.0])
        verdict = certify_m_stationarity(data)
        assert verdict.kind not in (VerdictKind.M, VerdictKind.S)
        assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE

    def test_branch_infeasible_point_can_still_be_m_stationary(self):
        # grad f = (0, -1): the H-branch refuses the gradient (the point is
        # not a constraint-qualified minimizer: f decreases along the x2 axis)
        # yet mu = 0, nu = -1 is a perfectly good M-multiplier.  The verdict
        # reports the raw branch failure, not a stationarity disproof.
        from mpcc_cert import VerdictKind, certify_m_stationarity

        data = bilinear_pair_data([0.0, -1.0])
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
        assert verdict.failed_branch.choices == (2,)
        sets = classify_indices(data)
        exists, witness = oracle_m_exists(data, sets)
        assert exists
        assert classify_multiplier(data, sets, witness) is MultiplierClass.M

    def test_kkt_case(self):
        data = FirstOrderData(n=1, l=1, m=0, p=0, grad_f=[1.0],
                              g_vals=[0.0], grad_g=[[-1.0]])
        exists, witness = oracle_m_exists(data, classify_indices(data))
        assert exists
        assert witness.lam[0] == pytest.approx(1.0, abs=1e-9)

    def test_pattern_budget(self):
        p = 9
        data = FirstOrderData(n=p, l=0, m=0, p=p, grad_f=np.zeros(p),
                              G_vals=np.zeros(p), grad_G=np.eye(p),
                              H_vals=np.zeros(p), grad_H=np.eye(p)[::-1].copy())
        with pytest.raises(PatternBudgetExceeded):
            oracle_m_exists(data, classify_indices(data))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_witness_classifies_m_or_s(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=4, l=2, m=1, p=2, objective="seeded")
        data = evaluate_affine(inst, np.zeros(4))
        sets = classify_indices(data)
        exists, witness = oracle_m_exists(data, sets)
        assert exists
        rep = check_stationarity_system(data, sets, witness)
        assert rep.system_ok(1e-7)
        assert classify_multiplier(data, sets, witness) in (
            MultiplierClass.M, MultiplierClass.S)


class TestOracleSExists:
    def test_bilinear_minimum_is_strongly_stationary(self):
        data = bilinear_pair_data([1.0, 1.0])
        exists, witness = oracle_s_exists(data, classify_indices(data))
        assert exists
        assert witness.mu[0] >= -1e-9 and witness.nu[0] >= -1e-9

    def test_m_not_s_instance(self):
        data = evaluate_affine(m_not_s_instance(), np.zeros(3))
        sets = classify_indices(data)
        assert oracle_m_exists(data, sets)[0]
        assert not oracle_s_exists(data, sets)[0]


def _exact_feasible(data, mu_bounds, nu_bounds):
    """Exact feasibility of the stationarity system with every multiplier a column.

    Activity is read off the data (the instances are evaluated at their
    base point, where active values are exactly 0): lambda is >= 0 on
    the active g and fixed at 0 elsewhere; eta is free; mu and nu take
    the per-index bounds given.
    """
    A = np.hstack([data.grad_g.T, data.grad_h.T, -data.grad_G.T, -data.grad_H.T])
    bounds = ([(0.0, None) if v == 0.0 else (0.0, 0.0) for v in data.g_vals]
              + [(None, None)] * data.m + list(mu_bounds) + list(nu_bounds))
    status, _, _ = solve_lp_exact(np.zeros(A.shape[1]), A, -data.grad_f, None, None, bounds)
    return status == "optimal"


class TestOracleAgainstExactLp:
    """The float oracles against exact rational LPs built from the data.

    A seeded instance keeps n <= m + p, so every pattern system has at
    least n columns and the seeded gradient lies in their span whatever
    its rounding.  A random gradient may take n up to m + p + 2, where it
    is generically outside the span.  The exact and float answers may
    then only differ by a fault.
    """

    def test_s_and_m_answers_match_exact_systems(self):
        eps = 10.0 * Tolerances().cert_tol
        s_answers, m_answers = set(), set()
        for seed in range(60):
            rng = np.random.default_rng([8008, seed])
            p, m, l = int(rng.integers(1, 4)), int(rng.integers(0, 2)), int(rng.integers(0, 3))
            objective = "seeded" if seed % 2 else "random"
            n = int(rng.integers(1, m + p + (1 if objective == "seeded" else 3)))
            inst = random_affine_instance(rng, n, l, m, p, objective=objective)
            data = evaluate_affine(inst, np.zeros(inst.n))
            sets = classify_indices(data)
            G_zero, H_zero = data.G_vals == 0.0, data.H_vals == 0.0
            bi = np.flatnonzero(G_zero & H_zero)

            def side(active, other_active, lo):
                return [((lo if o else None), None) if a else (0.0, 0.0)
                        for a, o in zip(active, other_active)]

            s_exact = _exact_feasible(data, side(G_zero, H_zero, 0.0), side(H_zero, G_zero, 0.0))
            assert oracle_s_exists(data, sets)[0] == s_exact, f"seed {seed} ({objective})"
            s_answers.add(s_exact)
            if p > 2:
                continue
            m_exact = False
            for combo in itertools.product(range(3), repeat=bi.size):
                mu_b = side(G_zero, H_zero, None)
                nu_b = side(H_zero, G_zero, None)
                for i, kind in zip(bi, combo):
                    if kind == 0:
                        mu_b[i] = (0.0, 0.0)
                    elif kind == 1:
                        nu_b[i] = (0.0, 0.0)
                    else:
                        mu_b[i] = nu_b[i] = (eps, None)
                m_exact = m_exact or _exact_feasible(data, mu_b, nu_b)
            assert oracle_m_exists(data, sets)[0] == m_exact, f"seed {seed} ({objective})"
            m_answers.add(m_exact)
        assert s_answers == m_answers == {True, False}  # both outcomes are exercised


class TestCombinerGrid:
    def test_opposite_corners_find_near_origin(self):
        points = np.array([[1.0, -1.0], [-1.0, 1.0]])
        found = oracle_combiner_grid(points, {0}, grid_step=1e-3)
        assert found is not None
        assert np.abs(found).max() <= 1e-3

    def test_single_point(self):
        found = oracle_combiner_grid(np.array([[2.0, 1.0]]), {0}, grid_step=1e-3)
        assert np.array_equal(found, [2.0, 1.0])

    def test_segment_scan_hits_product_zero_boundary_first(self):
        points = np.array([[3.0, -2.0], [-1.0, 4.0]])
        found = oracle_combiner_grid(points, {0}, grid_step=1e-3)
        assert found is not None
        assert m_condition_holds(found[0], found[1], 1e-7)
        # the lexicographic scan reaches the exact mu = 0 crossing (weight
        # 0.25 on the first point) before the both-positive window opens
        assert found == pytest.approx([0.0, 2.5], abs=1e-12)

    def test_no_valid_point_at_resolution(self):
        # only weight (1, 0) would satisfy the condition; exclude it by choosing
        # points whose combinations always have a mixed-sign nonzero product
        points = np.array([[1.0, -1.0], [2.0, -2.0]])
        found = oracle_combiner_grid(points, {0}, grid_step=0.25)
        assert found is None

    def test_rejects_too_many_points(self):
        with pytest.raises(ValueError):
            oracle_combiner_grid(np.zeros((5, 2)), {0}, grid_step=0.5)

    def test_finds_whenever_combiner_succeeds(self, rng):
        from mpcc_cert import schinabeck_combine
        from mpcc_cert.instances import random_branch_points

        for _ in range(20):
            points = random_branch_points(rng, 2)
            res = schinabeck_combine(points, {0, 1})
            raw = np.array([np.concatenate([m.mu, m.nu]) for m, _ in points])
            found = oracle_combiner_grid(raw, {0, 1}, grid_step=0.02, tol=1e-3)
            assert found is not None


class TestGridMinNorm:
    def test_matches_qp_on_documented_problems(self):
        cases = [
            (np.array([[3.0, -2.0], [-1.0, 4.0]]), (0,)),
            (np.array([[2.0, 1.0]]), (0,)),
            (np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]), ()),
        ]
        for vertices, signs in cases:
            got = min_norm_point(MinNormProblem(vertices, signs))
            ref = grid_min_norm(vertices, signs, grid_step=1e-3)
            assert abs(np.sqrt(got.norm_sq) - np.sqrt(ref[1])) <= 1e-3


class TestRayTangency:
    def test_axis_ray_is_tangent(self):
        inst = bilinear_pair_instance([1.0, 1.0])
        assert ray_stays_feasible(inst, [0.0, 0.0], [1.0, 0.0])

    def test_diagonal_ray_leaves_feasible_set(self):
        inst = bilinear_pair_instance([1.0, 1.0])
        assert not ray_stays_feasible(inst, [0.0, 0.0], [1.0, 1.0])

    def test_requires_affine_instance(self):
        data = bilinear_pair_data([1.0, 1.0])
        with pytest.raises(NotAffine):
            ray_stays_feasible(data, [0.0, 0.0], [1.0, 0.0])


class TestTangentSample:
    def test_pair_instance_has_no_mismatch(self):
        inst = bilinear_pair_instance([1.0, 1.0])
        report = oracle_tangent_sample(inst, [0.0, 0.0], directions=500, seed=7)
        assert report.agreement
        assert report.tangent_count > 0  # the axis quadrant region gets hit

    def test_infeasible_base_point(self):
        inst = bilinear_pair_instance([1.0, 1.0])
        with pytest.raises(InfeasiblePoint, match="^point infeasible: "):
            oracle_tangent_sample(inst, [1.0, 1.0], directions=10)

    def test_checks_feasibility_once(self, monkeypatch):
        calls = []
        real = mpcc_cert.model.check_feasibility

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # count at both bindings a caller could use
        monkeypatch.setattr(mpcc_cert.model, "check_feasibility", counted)
        monkeypatch.setattr(mpcc_cert.oracle, "check_feasibility", counted, raising=False)
        oracle_tangent_sample(bilinear_pair_instance([1.0, 1.0]), [0.0, 0.0], directions=10)
        assert len(calls) == 1

    def test_not_affine_guard(self):
        with pytest.raises(NotAffine):
            oracle_tangent_sample(bilinear_pair_data([1.0, 1.0]), [0.0, 0.0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_affine_instances_agree(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(
            rng, n=int(rng.integers(2, 5)), l=int(rng.integers(0, 3)),
            m=int(rng.integers(0, 2)), p=int(rng.integers(1, 3)),
            objective="random")
        report = oracle_tangent_sample(inst, np.zeros(inst.n), directions=300, seed=seed)
        assert report.agreement, report.mismatches
