import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpcc_cert.cones
import mpcc_cert.stationarity
from mpcc_cert import (
    AffineInstance,
    BranchAssignment,
    BranchBudgetExceeded,
    DimensionMismatch,
    FirstOrderData,
    InfeasiblePoint,
    LinearizedCone,
    MinNormProblem,
    MultiplierClass,
    MultiplierVector,
    SystemViolated,
    Tolerances,
    VerdictKind,
    certify_m_stationarity,
    check_stationarity_system,
    classify_indices,
    classify_multiplier,
    enumerate_branch_assignments,
    evaluate_affine,
    min_norm_point,
    polar_branch_membership,
    schinabeck_combine,
)
from mpcc_cert.instances import random_affine_instance, random_branch_points
from mpcc_cert.oracle import oracle_m_exists, oracle_s_exists
from mpcc_cert.stationarity import m_condition_holds

from conftest import bilinear_pair_data, m_not_s_instance
from reference_visit import reference_certify


def pair_sets(data):
    return classify_indices(data)


def mv(p, mu, nu, lam=(), eta=()):
    return MultiplierVector(np.asarray(lam, float), np.asarray(eta, float),
                            np.asarray(mu, float), np.asarray(nu, float))


def acceptance_mix_data(i):
    """Problem i of the acceptance-2 mix drawn from default_rng([2002, i]), at x = 0.

    Dimensions are drawn as acceptance test 2 draws them; problems with
    ``i % 10 < 7`` have seeded objectives.
    """
    rng = np.random.default_rng([2002, i])
    n, l, m, p = (int(rng.integers(2, 7)), int(rng.integers(0, 4)),
                  int(rng.integers(0, 4)), int(rng.integers(1, 5)))
    inst = random_affine_instance(rng, n, l, m, p,
                                  objective="seeded" if i % 10 < 7 else "random")
    return evaluate_affine(inst, np.zeros(n))


def acceptance_2_instances(count=200):
    """(trial, instance) of acceptance test 2, drawn in order from default_rng(2002)."""
    rng = np.random.default_rng(2002)
    for trial in range(count):
        n, l, m, p = (int(rng.integers(2, 7)), int(rng.integers(0, 4)),
                      int(rng.integers(0, 4)), int(rng.integers(1, 5)))
        objective = "seeded" if trial % 10 < 7 else "random"
        yield trial, random_affine_instance(rng, n, l, m, p, objective=objective)


def seeded_ladder():
    """20 seeded instances per p = 1..8 with every pair biactive, from default_rng([p, i])."""
    for p in range(1, 9):
        for i in range(20):
            yield (p, i), random_affine_instance(np.random.default_rng([p, i]), 2 * p, 3, 1, p,
                                                 objective="seeded", min_biactive=p)


def count_calls(monkeypatch, module, name):
    """Count calls made through ``module.name``; returns a one-element list."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_lp_solves(monkeypatch):
    return count_calls(monkeypatch, mpcc_cert.cones, "lp_solve")


def own_branch_points(data):
    """Every branch's own polar LP point, paired with its assignment."""
    sets = classify_indices(data)
    cone = LinearizedCone(data, sets)
    return [(polar_branch_membership(cone, alpha, -data.grad_f), alpha)
            for alpha in enumerate_branch_assignments(data.p, sets.zero_zero)]


class TestCheckSystem:
    def test_zero_residuals(self):
        data = bilinear_pair_data([1.0, 1.0])
        rep = check_stationarity_system(data, pair_sets(data), mv(1, [1.0], [1.0]))
        assert rep.gradient == 0.0
        assert rep.system_ok(1e-12)
        assert rep.biactive_pairs == ((0, 1.0, 1.0),)

    def test_zero_multipliers_leave_gradient(self):
        data = bilinear_pair_data([1.0, 1.0])
        rep = check_stationarity_system(data, pair_sets(data), mv(1, [0.0], [0.0]))
        assert rep.gradient == 1.0

    def test_negative_active_lambda_reported(self):
        data = FirstOrderData(n=1, l=1, m=0, p=0, grad_f=[1.0],
                              g_vals=[0.0], grad_g=[[-1.0]])
        rep = check_stationarity_system(data, classify_indices(data),
                                        mv(0, [], [], lam=[-1.0]))
        assert rep.lambda_active_min == -1.0


class TestClassifyMultiplier:
    def setup_method(self):
        # zero gradient rows make the base system hold for any (mu, nu),
        # isolating the biactive sign classification
        self.data = FirstOrderData(
            n=2, l=0, m=0, p=1, grad_f=[0.0, 0.0],
            G_vals=[0.0], grad_G=[[0.0, 0.0]],
            H_vals=[0.0], grad_H=[[0.0, 0.0]])
        self.sets = pair_sets(self.data)

    def classify(self, mu, nu):
        return classify_multiplier(self.data, self.sets, mv(1, [mu], [nu]))

    def test_both_positive_is_s(self):
        assert self.classify(1.0, 1.0) is MultiplierClass.S

    def test_product_zero_negative_side_is_m(self):
        assert self.classify(0.0, -5.0) is MultiplierClass.M

    def test_one_sided_positive_is_a(self):
        assert self.classify(0.5, -0.5) is MultiplierClass.A

    def test_both_negative_is_w_only(self):
        assert self.classify(-1.0, -2.0) is MultiplierClass.W_ONLY

    def test_system_violation_raises(self):
        data = bilinear_pair_data([1.0, 1.0])
        with pytest.raises(SystemViolated):
            classify_multiplier(data, pair_sets(data), mv(1, [0.0], [0.0]))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=200)
    def test_nesting(self, mu, nu):
        cls = self.classify(mu, nu)
        ct = Tolerances().cert_tol
        s_pred = mu >= -ct and nu >= -ct
        m_pred = (mu > ct and nu > ct) or abs(mu * nu) <= ct
        a_pred = mu >= -ct or nu >= -ct
        if cls is MultiplierClass.S:
            assert s_pred and m_pred and a_pred
        elif cls is MultiplierClass.M:
            assert m_pred and a_pred
        elif cls is MultiplierClass.A:
            assert a_pred


class TestSynthesize:
    def test_both_branches_unique_solution(self):
        data = bilinear_pair_data([1.0, 1.0])
        cone = LinearizedCone(data, pair_sets(data))
        for choice in (1, 2):
            mult = polar_branch_membership(cone, BranchAssignment((choice,)), -data.grad_f)
            assert mult.mu[0] == pytest.approx(1.0, abs=1e-9)
            assert mult.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_gradient_gives_zero_multipliers(self):
        data = bilinear_pair_data([0.0, 0.0])
        cone = LinearizedCone(data, pair_sets(data))
        for choice in (1, 2):
            mult = polar_branch_membership(cone, BranchAssignment((choice,)), -data.grad_f)
            assert np.abs(mult.mu).max() <= 1e-9 and np.abs(mult.nu).max() <= 1e-9

    def test_descent_objective_kills_branch_one(self):
        data = bilinear_pair_data([-1.0, 0.0])
        cone = LinearizedCone(data, pair_sets(data))
        assert polar_branch_membership(cone, BranchAssignment((1,)), -data.grad_f) is None
        mult = polar_branch_membership(cone, BranchAssignment((2,)), -data.grad_f)
        assert mult.mu[0] == pytest.approx(-1.0, abs=1e-9)
        assert mult.nu[0] == pytest.approx(0.0, abs=1e-9)


class TestCombine:
    def combine(self, points, p=1):
        wrapped = [
            (mv(p, v[:p], v[p:]), alpha)
            for v, alpha in points
        ]
        return schinabeck_combine(wrapped, range(p))

    def test_opposite_corners_meet_at_origin(self):
        res = self.combine([
            (np.array([1.0, -1.0]), BranchAssignment((1,))),
            (np.array([-1.0, 1.0]), BranchAssignment((2,))),
        ])
        assert res.multiplier.mu[0] == pytest.approx(0.0, abs=1e-9)
        assert res.multiplier.nu[0] == pytest.approx(0.0, abs=1e-9)

    def test_identical_points_pass_through(self):
        res = self.combine([
            (np.array([2.0, 1.0]), BranchAssignment((1,))),
            (np.array([2.0, 1.0]), BranchAssignment((2,))),
        ])
        assert res.multiplier.mu[0] == pytest.approx(2.0, abs=1e-9)
        assert res.multiplier.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_shared_segment_minimum(self):
        res = self.combine([
            (np.array([3.0, -2.0]), BranchAssignment((1,))),
            (np.array([-1.0, 4.0]), BranchAssignment((2,))),
        ])
        assert res.multiplier.mu[0] == pytest.approx(15 / 13, abs=1e-9)
        assert res.multiplier.nu[0] == pytest.approx(10 / 13, abs=1e-9)

    def test_weights_carry_lambda_eta(self):
        points = [
            (mv(1, [1.0, ], [-1.0], lam=[2.0], eta=[1.0]), BranchAssignment((1,))),
            (mv(1, [-1.0], [1.0], lam=[0.0], eta=[-1.0]), BranchAssignment((2,))),
        ]
        res = schinabeck_combine(points, {0})
        w = res.weights
        assert res.multiplier.lam[0] == pytest.approx(2.0 * w[0], abs=1e-9)
        assert res.multiplier.eta[0] == pytest.approx(w[0] - w[1], abs=1e-9)

    def test_missing_branch_rejected(self):
        with pytest.raises(ValueError):
            self.combine([(np.array([1.0, 1.0]), BranchAssignment((1,)))])

    def test_duplicate_branch_rejected(self):
        with pytest.raises(ValueError):
            self.combine([
                (np.array([1.0, 1.0]), BranchAssignment((1,))),
                (np.array([2.0, 2.0]), BranchAssignment((1,))),
            ])

    @pytest.mark.parametrize("biactive", [[0, 5], [-1, 0]])
    def test_biactive_index_out_of_range_rejected(self, biactive):
        points = random_branch_points(np.random.default_rng(0), 2)
        with pytest.raises(DimensionMismatch, match="biactive indices"):
            schinabeck_combine(points, biactive)

    def test_point_outside_own_region_rejected(self):
        with pytest.raises(ValueError):
            self.combine([
                (np.array([-1.0, 1.0]), BranchAssignment((1,))),  # mu must be >= 0
                (np.array([1.0, 1.0]), BranchAssignment((2,))),
            ])

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_combiner_guarantee(self, seed, p):
        rng = np.random.default_rng(seed)
        points = random_branch_points(rng, p)
        res = schinabeck_combine(points, range(p))
        w = res.weights
        assert (w >= -1e-9).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        stacked = np.array([np.concatenate([m.mu, m.nu]) for m, _ in points])
        recon = w @ stacked
        combined = np.concatenate([res.multiplier.mu, res.multiplier.nu])
        assert np.abs(recon - combined).max() <= 1e-7
        for i in range(p):
            assert m_condition_holds(res.multiplier.mu[i], res.multiplier.nu[i], 1e-7)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_max_min_monotonicity(self, seed, p):
        rng = np.random.default_rng(seed)
        res = schinabeck_combine(random_branch_points(rng, p), range(p))
        norms = [v for _, v in res.branch_norms]
        combined = np.concatenate([res.multiplier.mu, res.multiplier.nu])
        assert combined @ combined == pytest.approx(max(norms), abs=1e-7)
        assert all(combined @ combined >= v - 1e-9 for v in norms)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_repeated_points_and_nonbinding_rows(self, seed, p):
        rng = np.random.default_rng(seed)
        points = random_branch_points(rng, p)
        # coordinates kept nonnegative in every point give sign rows that bind nowhere
        keep = rng.random(2 * p) < 0.3
        points = [(mv(p, *np.split(np.where(keep, np.abs(v), v), 2)), alpha)
                  for v, alpha in ((np.concatenate([m.mu, m.nu]), a) for m, a in points)]
        # reuse an earlier point wherever it lies in the later branch's region
        for j, (_, alpha) in enumerate(points):
            for earlier, _ in points[:j]:
                own = [earlier.mu[i] if alpha.choices[i] == 1 else earlier.nu[i]
                       for i in range(p)]
                if min(own) >= 0.0 and rng.random() < 0.7:
                    points[j] = (earlier, alpha)
                    break
        res = schinabeck_combine(points, range(p))
        assert res.weights.shape == (len(points),)
        first = {}
        for j, (m, _) in enumerate(points):
            if first.setdefault(id(m), j) != j:
                assert res.weights[j] == 0.0
        stacked = np.array([np.concatenate([m.mu, m.nu]) for m, _ in points])
        assert len(res.branch_norms) == len(points)
        for alpha, norm_sq in res.branch_norms:
            signed = tuple(i if alpha.choices[i] == 1 else p + i for i in range(p))
            direct = min_norm_point(MinNormProblem(stacked, signed))
            assert norm_sq == pytest.approx(direct.norm_sq, abs=Tolerances().solver_tol)
        combined = np.concatenate([res.multiplier.mu, res.multiplier.nu])
        assert np.abs(res.weights @ stacked - combined).max() <= 1e-7

    @pytest.mark.parametrize("index", [902, 1163, 1617])
    def test_own_lp_points_pass_or_fail_loudly(self, index):
        # every branch's own LP point, not the covered set certify passes:
        # on these inputs an earlier active-set QP pinned every weight at
        # zero or left its region; the combination must now succeed
        data = acceptance_mix_data(index)
        sets = classify_indices(data)
        bi = sorted(sets.zero_zero)
        points = own_branch_points(data)
        assert all(m is not None for m, _ in points)
        res = schinabeck_combine(points, bi)
        assert np.all(np.isfinite(res.weights))
        assert (res.weights >= 0.0).all()
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for i in bi:
            assert m_condition_holds(res.multiplier.mu[i], res.multiplier.nu[i], 1e-7)

    # (mu, nu) of the eight branches' own LP points of the acceptance-mix
    # problem drawn from default_rng([7, 238]) (n, l, m, p = 6, 3, 3, 3,
    # every pair biactive), as the feasibility-only branch LPs found them;
    # five are distinct, and rows 0 and 2 differ only in the last digits
    REPEATED_ROWS = np.array([
        [0.0, 4.045676069872135, 0.0, 7.061032661259224, 0.0, 0.0],
        [13.181710581861822, 0.0, -10.698416483930231, 2.259258696873594, 0.0, 0.0],
        [0.0, 4.045676069872129, 0.0, 7.061032661259217, 0.0, 0.0],
        [0.0, 4.045676069872129, 0.0, 7.061032661259217, 0.0, 0.0],
        [-2.7975682002411353, 0.0, 0.0, 3.0445597388630166, 0.0, 0.0],
        [13.181710581861822, 0.0, -10.698416483930231, 2.259258696873594, 0.0, 0.0],
        [-208.78191566165992, -12.824405116016365, 131.97294852569982, 0.0, 0.0, 0.0],
        [-208.78191566165992, -12.824405116016365, 131.97294852569982, 0.0, 0.0, 0.0],
    ])

    def test_repeated_rows_match_the_distinct_hull(self):
        # an earlier active-set QP hit its iteration cap on these repeated
        # rows in region (2, 2, 2)
        stacked = self.REPEATED_ROWS
        distinct = np.unique(stacked, axis=0)
        assert distinct.shape[0] == 5
        signed = (3, 4, 5)  # region (2, 2, 2): every nu_i >= 0
        got = min_norm_point(MinNormProblem(stacked, signed))
        ref = min_norm_point(MinNormProblem(distinct, signed))
        assert got.norm_sq == pytest.approx(ref.norm_sq, rel=1e-12)
        assert np.abs(got.point - ref.point).max() <= 1e-9

    def test_tie_breaks_to_lexicographically_smallest(self):
        res = self.combine([
            (np.array([1.0, -1.0]), BranchAssignment((1,))),
            (np.array([-1.0, 1.0]), BranchAssignment((2,))),
        ])
        assert res.selected.choices == (1,)


class TestRelaxationTree:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.sampled_from([0.0, 1.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_qp_per_region(self, seed, p, shift):
        rng = np.random.default_rng(seed)
        # a nonnegative shift keeps every point in its region and moves the
        # hull off the origin, so reuse below the root is exercised too
        points = [(mv(p, m.mu + shift * rng.random(p), m.nu + shift * rng.random(p)), alpha)
                  for m, alpha in random_branch_points(rng, p)]
        res = schinabeck_combine(points, range(p))
        stacked = np.array([np.concatenate([m.mu, m.nu]) for m, _ in points])
        best = None
        for (_, alpha), (got_alpha, got) in zip(points, res.branch_norms):
            signed = tuple(i if alpha.choices[i] == 1 else p + i for i in range(p))
            direct = min_norm_point(MinNormProblem(stacked, signed)).norm_sq
            assert got_alpha.choices == alpha.choices
            assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)
            if best is None or direct > best[1] * (1.0 + 1e-9) + 1e-12:
                best = (alpha, direct)
        assert res.selected.choices == best[0].choices
        for i in range(p):
            assert m_condition_holds(res.multiplier.mu[i], res.multiplier.nu[i], 1e-7)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_origin_in_hull_costs_one_qp(self, monkeypatch, p):
        calls = count_calls(monkeypatch, mpcc_cert.stationarity, "min_norm_point")
        rng = np.random.default_rng(p)
        points = []
        for alpha in enumerate_branch_assignments(p, range(p)):
            # +1 on the coordinate the branch bounds, -1 on the other; an
            # assignment and its complement get opposite points, so their
            # combination is the origin
            sign = np.array([1.0 if c == 1 else -1.0 for c in alpha.choices])
            points.append((mv(p, *(rng.uniform(0.5, 2.0) * np.concatenate([sign, -sign])
                                   .reshape(2, p))), alpha))
        res = schinabeck_combine(points, range(p))
        assert calls[0] == 1
        assert len(res.branch_norms) == 2 ** p
        assert all(v <= 1e-20 for _, v in res.branch_norms)
        assert res.selected.choices == (1,) * p
        for i in range(p):
            assert m_condition_holds(res.multiplier.mu[i], res.multiplier.nu[i], 1e-7)


class TestConvexityOfBaseSystem:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_convex_combination_keeps_base_residuals(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=4, l=2, m=1, p=2, objective="seeded")
        data = evaluate_affine(inst, np.zeros(4))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        mults = []
        for alpha in enumerate_branch_assignments(2, sets.zero_zero):
            mult = polar_branch_membership(cone, alpha, -data.grad_f)
            assert mult is not None  # seeded objective guarantees every branch
            rep = check_stationarity_system(data, sets, mult)
            assert rep.system_ok(1e-9)
            mults.append(mult)
        w = rng.random(len(mults))
        w /= w.sum()
        combo = MultiplierVector(
            sum(wi * m.lam for wi, m in zip(w, mults)),
            sum(wi * m.eta for wi, m in zip(w, mults)),
            sum(wi * m.mu for wi, m in zip(w, mults)),
            sum(wi * m.nu for wi, m in zip(w, mults)),
        )
        rep = check_stationarity_system(data, sets, combo)
        assert rep.system_ok(1e-7)


class TestCertify:
    def test_bilinear_minimum_is_s(self):
        verdict = certify_m_stationarity(bilinear_pair_data([1.0, 1.0]))
        assert verdict.kind is VerdictKind.S
        assert verdict.witness.mu[0] == pytest.approx(1.0, abs=1e-9)
        assert verdict.witness.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_descent_objective_is_branch_infeasible(self):
        verdict = certify_m_stationarity(bilinear_pair_data([-1.0, 0.0]))
        assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
        assert verdict.failed_branch.choices == (1,)
        assert verdict.witness is None

    def test_kkt_degenerate_case(self):
        data = FirstOrderData(n=1, l=1, m=0, p=0, grad_f=[1.0],
                              g_vals=[0.0], grad_g=[[-1.0]])
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.M
        assert verdict.witness.lam[0] == pytest.approx(1.0, abs=1e-9)
        assert len(verdict.branch_table) == 1

    @pytest.mark.parametrize("l", [0, 1])
    def test_no_constraint_rows(self, l):
        # nothing active, no equality and p = 0: the polar LP has no columns
        def point(grad_f):
            return FirstOrderData(n=1, l=l, m=0, p=0, grad_f=grad_f,
                                  g_vals=[-1.0] * l, grad_g=[[1.0]] * l)

        stationary = point([0.0])
        verdict = certify_m_stationarity(stationary)
        assert verdict.kind is VerdictKind.M
        assert verdict.witness.lam.tolist() == [0.0] * l
        assert verdict.witness.eta.size == verdict.witness.mu.size == 0
        assert oracle_m_exists(stationary, classify_indices(stationary))[0] is True

        descent = point([1.0])
        verdict = certify_m_stationarity(descent)
        assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
        assert verdict.failed_branch.choices == ()
        assert verdict.witness is None
        assert oracle_m_exists(descent, classify_indices(descent)) == (False, None)

    def test_m_but_not_s_instance(self):
        data = evaluate_affine(m_not_s_instance(), np.zeros(3))
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.M
        mu, nu = verdict.witness.mu[0], verdict.witness.nu[0]
        assert abs(mu * nu) <= 1e-9
        assert min(mu, nu) < -1e-3  # genuinely not strongly stationary

    def test_infeasible_point_raises(self):
        data = FirstOrderData(n=2, l=0, m=0, p=1, grad_f=[0.0, 0.0],
                              G_vals=[1.0], grad_G=[[1.0, 0.0]],
                              H_vals=[1.0], grad_H=[[0.0, 1.0]])
        with pytest.raises(InfeasiblePoint):
            certify_m_stationarity(data)

    def test_branch_cap(self):
        def biactive_identity(p):
            return FirstOrderData(
                n=p, l=0, m=0, p=p, grad_f=np.zeros(p),
                G_vals=np.zeros(p), grad_G=np.eye(p),
                H_vals=np.zeros(p), grad_H=np.eye(p)[::-1].copy())

        with pytest.raises(BranchBudgetExceeded):
            certify_m_stationarity(biactive_identity(13))
        with pytest.raises(BranchBudgetExceeded):
            certify_m_stationarity(biactive_identity(4), branch_cap=3)
        verdict = certify_m_stationarity(biactive_identity(4), branch_cap=4)
        assert verdict.kind in (VerdictKind.M, VerdictKind.S)
        assert len(verdict.branch_table) == 16

    @pytest.mark.parametrize("data", [FirstOrderData(n=1, l=0, m=0, p=0, grad_f=[0.0]),
                                      bilinear_pair_data([1.0, 1.0])], ids=["p0", "p1"])
    def test_negative_branch_cap_is_a_value_error(self, monkeypatch, data):
        # a usage error, raised before the point is classified; not a
        # biactive set that exceeds the cap
        classified = count_calls(monkeypatch, mpcc_cert.stationarity, "classify_indices")
        with pytest.raises(ValueError, match="branch_cap must be nonnegative, got -1"):
            certify_m_stationarity(data, branch_cap=-1)
        assert classified[0] == 0
        # a cap of exactly the biactive count, 0 included, still certifies
        verdict = certify_m_stationarity(data, branch_cap=data.p)
        assert verdict.kind in (VerdictKind.M, VerdictKind.S)

    def test_branch_and_qp_counts(self, monkeypatch):
        lp_calls = count_lp_solves(monkeypatch)
        branch_lps = count_calls(monkeypatch, mpcc_cert.stationarity, "polar_branch_membership")
        qp_calls = count_calls(monkeypatch, mpcc_cert.stationarity, "min_norm_point")
        inst = m_not_s_instance()
        data = evaluate_affine(inst, np.zeros(3))
        verdict = certify_m_stationarity(data)
        n_biactive = len(verdict.sets.zero_zero)
        # the first branch LP's positive optimum shows that no S-multiplier
        # exists, so no other LP runs; then the combiner builds the M-witness
        assert branch_lps[0] == 2 ** n_biactive
        assert lp_calls[0] == branch_lps[0]
        assert verdict.kind is VerdictKind.M
        # at most one QP per node of the combiner's relaxation tree
        assert qp_calls[0] <= 2 ** (n_biactive + 1) - 1

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.sampled_from(["seeded", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_full_enumeration(self, seed, p, objective):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=int(rng.integers(2, 7)), l=int(rng.integers(0, 4)),
                                      m=int(rng.integers(0, 3)), p=p, objective=objective,
                                      min_biactive=int(rng.integers(1, p + 1)))
        data = evaluate_affine(inst, np.zeros(inst.n))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        alphas = enumerate_branch_assignments(data.p, sets.zero_zero)
        failed = next((alpha for alpha in alphas
                       if polar_branch_membership(cone, alpha, -data.grad_f) is None), None)
        verdict = certify_m_stationarity(data)
        if failed is None:
            assert verdict.kind in (VerdictKind.M, VerdictKind.S)
            assert verdict.failed_branch is None
        else:
            assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
            assert verdict.failed_branch.choices == failed.choices
        assert [rec.alpha.choices for rec in verdict.branch_table] == [a.choices for a in alphas]

    def test_coverage_saves_branch_lps(self, monkeypatch):
        lp_calls = count_lp_solves(monkeypatch)
        inst = random_affine_instance(np.random.default_rng([6, 0]), n=12, l=3, m=1, p=6,
                                      objective="seeded", min_biactive=6)
        data = evaluate_affine(inst, np.zeros(12))
        verdict = certify_m_stationarity(data)
        statuses = [rec.status for rec in verdict.branch_table]
        assert len(statuses) == 64
        assert lp_calls[0] < 64
        assert lp_calls[0] == statuses.count("optimal")
        assert set(statuses) == {"optimal", "covered"}
        # a branch point is already S, so no S-LP runs and no combiner
        assert verdict.kind is VerdictKind.S
        assert verdict.combiner is None
        # the combiner still takes every branch's own point
        combine = schinabeck_combine(own_branch_points(data), verdict.sets.zero_zero)
        assert len(combine.weights) == 64

    @pytest.mark.parametrize("seed", range(4))
    def test_no_lp_after_failed_branch(self, monkeypatch, seed):
        lp_calls = count_lp_solves(monkeypatch)
        inst = random_affine_instance(np.random.default_rng([7, seed]), n=14, l=3, m=1, p=7,
                                      objective="random", min_biactive=7)
        verdict = certify_m_stationarity(evaluate_affine(inst, np.zeros(14)))
        assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
        statuses = [rec.status for rec in verdict.branch_table]
        at = statuses.index("infeasible")
        assert verdict.branch_table[at].alpha.choices == verdict.failed_branch.choices
        assert set(statuses[:at]) <= {"optimal", "covered"}
        assert statuses[at + 1:] == ["not-evaluated"] * (len(statuses) - at - 1)
        assert lp_calls[0] == statuses.count("optimal") + 1

    def test_determinism(self):
        data = evaluate_affine(m_not_s_instance(), np.zeros(3))
        v1 = certify_m_stationarity(data)
        v2 = certify_m_stationarity(data)
        assert v1.kind is v2.kind
        assert np.array_equal(v1.witness.mu, v2.witness.mu)
        assert np.array_equal(v1.combiner.weights, v2.combiner.weights)
        assert v1.combiner.selected.choices == v2.combiner.selected.choices

    def test_residuals_within_cert_tol(self):
        data = evaluate_affine(m_not_s_instance(), np.zeros(3))
        verdict = certify_m_stationarity(data)
        for key in ("gradient", "lambda_inactive_abs", "mu_pluszero_abs",
                    "nu_zeroplus_abs", "m_condition"):
            assert verdict.residuals[key] <= 1e-7
        assert verdict.residuals["lambda_active_min"] >= -1e-7

    def test_equality_constraint_multiplier(self):
        # h(x) = x1 + x2 + x3 = 0 with the pair G = x1, H = x2 at the origin:
        # the identity forces eta = -grad_f_3, mu = grad_f_1 + eta,
        # nu = grad_f_2 + eta, all unique
        data = FirstOrderData(
            n=3, l=0, m=1, p=1,
            grad_f=[2.0, 3.0, 1.0],
            h_vals=[0.0], grad_h=[[1.0, 1.0, 1.0]],
            G_vals=[0.0], grad_G=[[1.0, 0.0, 0.0]],
            H_vals=[0.0], grad_H=[[0.0, 1.0, 0.0]])
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.S
        assert verdict.witness.eta[0] == pytest.approx(-1.0, abs=1e-9)
        assert verdict.witness.mu[0] == pytest.approx(1.0, abs=1e-9)
        assert verdict.witness.nu[0] == pytest.approx(2.0, abs=1e-9)

    def test_nonzero_base_point_with_quadratic_objective(self):
        # f = x1^2 + x2^2 - 2 x1 + x2 over (x1 - 1) perp x2 at x_bar = (1, 0):
        # grad f = (0, 1) there, so mu = 0 and nu = 1
        inst = AffineInstance(
            c=[-2.0, 1.0], Q=2.0 * np.eye(2),
            A_G=[[1.0, 0.0]], b_G=[-1.0],
            A_H=[[0.0, 1.0]], b_H=[0.0])
        data = evaluate_affine(inst, [1.0, 0.0])
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.S
        assert verdict.witness.mu[0] == pytest.approx(0.0, abs=1e-9)
        assert verdict.witness.nu[0] == pytest.approx(1.0, abs=1e-9)

    def test_wide_biactive_set(self):
        # 64 branches certify cleanly, and a 64-vertex combiner hull over
        # every branch's own point still yields an M-witness
        rng = np.random.default_rng(99)
        inst = random_affine_instance(rng, n=8, l=2, m=1, p=6,
                                      objective="seeded", min_biactive=6)
        data = evaluate_affine(inst, np.zeros(8))
        sets = classify_indices(data)
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.S
        assert verdict.combiner is None
        assert len(verdict.branch_table) == 64
        rep = check_stationarity_system(data, sets, verdict.witness)
        assert rep.system_ok(1e-7)

        combine = schinabeck_combine(own_branch_points(data), sets.zero_zero)
        assert len(combine.branch_norms) == 64
        rep = check_stationarity_system(data, sets, combine.multiplier)
        assert rep.system_ok(1e-7)
        assert all(m_condition_holds(mu, nu, 1e-7) for _, mu, nu in rep.biactive_pairs)


class TestBranchSignConditions:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_synthesized_multipliers_respect_branch_signs(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=4, l=2, m=1, p=3, objective="seeded")
        data = evaluate_affine(inst, np.zeros(4))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        for alpha in enumerate_branch_assignments(3, sets.zero_zero):
            mult = polar_branch_membership(cone, alpha, -data.grad_f)
            assert mult is not None
            for i in sorted(sets.zero_zero):
                if alpha.choices[i] == 1:
                    assert mult.mu[i] >= 0.0
                else:
                    assert mult.nu[i] >= 0.0
            for i in sorted(sets.plus_zero):
                assert mult.mu[i] == 0.0
            for i in sorted(sets.zero_plus):
                assert mult.nu[i] == 0.0
            inactive = set(range(data.l)) - sets.active_g
            assert all(mult.lam[i] == 0.0 for i in inactive)


class TestObjectiveScaling:
    def test_scaled_gradient_keeps_verdict(self):
        # the branch polars are cones, so scaling -grad f by a positive
        # factor keeps every branch's LP feasible or infeasible; a phase-1
        # test against an absolute tolerance flipped 34 of these to
        # branch-infeasible at 1e6
        for trial, inst in acceptance_2_instances(120):
            base = certify_m_stationarity(evaluate_affine(inst, np.zeros(inst.n)))
            scaled = certify_m_stationarity(
                evaluate_affine(dataclasses.replace(inst, c=1e6 * inst.c), np.zeros(inst.n)))
            assert scaled.kind is base.kind, trial
            assert scaled.failed_branch == base.failed_branch, trial

    # acceptance-mix inputs whose S witness, with grad f scaled by 1e6, has a
    # gradient residual of 1.2e-7 to 2.1e-6 from summing terms of 5e8 to 1.4e10
    ROUNDOFF_INPUTS = (2, 46, 276, 1128, 1360)

    @pytest.mark.parametrize("i", ROUNDOFF_INPUTS)
    def test_scaled_gradient_certifies_with_unscaled_kind(self, i):
        data = acceptance_mix_data(i)
        base = certify_m_stationarity(data)
        scaled = certify_m_stationarity(dataclasses.replace(data, grad_f=1e6 * data.grad_f))
        assert scaled.kind is base.kind
        assert scaled.failed_branch == base.failed_branch
        rep = check_stationarity_system(data, scaled.sets, scaled.witness)
        assert rep.gradient > Tolerances().cert_tol
        assert rep.gradient_scale > 1e8

    @pytest.mark.parametrize("i", ROUNDOFF_INPUTS)
    def test_perturbed_witness_fails_at_unit_scale(self, i):
        # the roundoff room is far below a real error at unit scale
        data = acceptance_mix_data(i)
        verdict = certify_m_stationarity(data)
        sets, w = verdict.sets, verdict.witness
        assert check_stationarity_system(data, sets, w).system_ok(Tolerances().cert_tol)
        mu = w.mu.copy()
        mu[sorted(sets.zero_zero)[0]] += 1e-6
        rep = check_stationarity_system(data, sets, dataclasses.replace(w, mu=mu))
        assert rep.gradient > 1e-7
        assert not rep.system_ok(Tolerances().cert_tol)


def witness_vector(witness):
    return np.concatenate([witness.lam, witness.eta, witness.mu, witness.nu])


class TestMetamorphic:
    """Transformations that leave the mathematics unchanged leave the verdict unchanged."""

    @given(st.integers(0, 1999), st.floats(-6.0, 6.0), st.integers(0, 2 ** 31 - 1))
    @example(i=0, exponent=-6.0, seed=0)
    @example(i=0, exponent=6.0, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_scaling_and_row_order(self, i, exponent, seed):
        # scaling grad f by c > 0 scales every polar point by c, so the kind
        # and failed branch stay and an S witness scales by c; the order of
        # the g and h rows only reorders lam and eta
        data = acceptance_mix_data(i)
        base = certify_m_stationarity(data)
        c = 10.0 ** exponent
        scaled = certify_m_stationarity(dataclasses.replace(data, grad_f=c * data.grad_f))
        assert (scaled.kind, scaled.failed_branch) == (base.kind, base.failed_branch)
        if base.kind is VerdictKind.S:
            want = c * witness_vector(base.witness)
            assert np.abs(witness_vector(scaled.witness) - want).max() <= 1e-9 * np.abs(want).max()
        rng = np.random.default_rng(seed)
        pg, ph = rng.permutation(data.l), rng.permutation(data.m)
        permuted = certify_m_stationarity(dataclasses.replace(
            data, g_vals=data.g_vals[pg], grad_g=data.grad_g[pg],
            h_vals=data.h_vals[ph], grad_h=data.grad_h[ph]))
        assert (permuted.kind, permuted.failed_branch) == (base.kind, base.failed_branch)


def swap_g_h(inst):
    return dataclasses.replace(inst, A_G=inst.A_H, b_G=inst.b_H, A_H=inst.A_G, b_H=inst.b_G)


def permute(inst, rng):
    """The same problem with its variables, g rows and complementarity pairs reordered.

    Returns the problem and the pair order: its pair k is pair ``order[k]`` here.
    """
    px, pg, pc = (rng.permutation(k) for k in (inst.n, inst.b_g.size, inst.b_G.size))
    return AffineInstance(c=inst.c[px], Q=inst.Q[np.ix_(px, px)],
                          A_g=inst.A_g[pg][:, px], b_g=inst.b_g[pg],
                          A_h=inst.A_h[:, px], b_h=inst.b_h,
                          A_G=inst.A_G[pc][:, px], b_G=inst.b_G[pc],
                          A_H=inst.A_H[pc][:, px], b_H=inst.b_H[pc]), pc


def certify_and_s_exists(inst):
    data = evaluate_affine(inst, np.zeros(inst.n))
    exists, _ = oracle_s_exists(data, classify_indices(data))
    return certify_m_stationarity(data), exists


def kind_and_s_exists(inst):
    verdict, exists = certify_and_s_exists(inst)
    return verdict.kind, exists


class TestSKind:
    """The kind is S exactly when an S-multiplier exists."""

    def test_s_iff_oracle_on_acceptance_2(self):
        for trial, inst in acceptance_2_instances():
            kind, exists = kind_and_s_exists(inst)
            assert (kind is VerdictKind.S) == exists, trial

    def test_s_iff_oracle_on_seeded_ladder(self):
        for key, inst in seeded_ladder():
            kind, exists = kind_and_s_exists(inst)
            assert exists, key  # the generator builds an S-multiplier in
            assert kind is VerdictKind.S, key

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.sampled_from(["seeded", "random"]))
    @settings(max_examples=80, deadline=None)
    def test_kind_survives_swap_and_permutation(self, seed, p, objective):
        rng = np.random.default_rng(seed)
        inst = random_affine_instance(rng, n=int(rng.integers(2, 7)), l=int(rng.integers(0, 4)),
                                      m=int(rng.integers(0, 3)), p=p, objective=objective,
                                      min_biactive=int(rng.integers(1, p + 1)))
        kind, exists = kind_and_s_exists(inst)
        assert (kind is VerdictKind.S) == exists
        data = evaluate_affine(inst, np.zeros(inst.n))
        cone = LinearizedCone(data, classify_indices(data))
        permuted, order = permute(inst, rng)
        # each transformed problem's failed branch, mapped back to this one's pairs
        for other, back in ((swap_g_h(inst), lambda choices: 3 - choices),
                            (permuted, lambda choices: choices[np.argsort(order)])):
            verdict, other_exists = certify_and_s_exists(other)
            assert (verdict.kind, other_exists) == (kind, exists)
            if verdict.failed_branch is not None:
                # infeasible here too, but not necessarily this problem's
                # failed branch: a 1 <-> 2 flip reverses the lexicographic order
                alpha = BranchAssignment(back(np.array(verdict.failed_branch.choices)))
                assert polar_branch_membership(cone, alpha, -data.grad_f) is None

    def test_s_verdict_skips_the_combiner(self, monkeypatch):
        # seeded-wide instance 0: the first branch LP finds an S-multiplier
        branch_lps = count_calls(monkeypatch, mpcc_cert.stationarity, "polar_branch_membership")
        combines = count_calls(monkeypatch, mpcc_cert.stationarity, "schinabeck_combine")
        qp_calls = count_calls(monkeypatch, mpcc_cert.stationarity, "min_norm_point")
        inst = random_affine_instance(np.random.default_rng([6, 0]), 12, 3, 1, 6,
                                      objective="seeded", min_biactive=6)
        verdict = certify_m_stationarity(evaluate_affine(inst, np.zeros(12)))
        assert verdict.kind is VerdictKind.S
        assert verdict.combiner is None
        assert (branch_lps[0], combines[0], qp_calls[0]) == (1, 0, 0)
        assert verdict.residuals["m_condition"] == 0.0

    @pytest.mark.parametrize("i", range(40))
    def test_first_branch_lp_decides_s(self, monkeypatch, i):
        # the seeded-wide pool: the generator builds an S-multiplier into
        # every instance, and the first branch LP, which minimizes the
        # negative parts of its free nu_i, finds one (on instance 18 no
        # feasibility-only branch point was S, and a separate S-LP was needed)
        lp_calls = count_lp_solves(monkeypatch)
        branch_lps = count_calls(monkeypatch, mpcc_cert.stationarity, "polar_branch_membership")
        combines = count_calls(monkeypatch, mpcc_cert.stationarity, "schinabeck_combine")
        inst = random_affine_instance(np.random.default_rng([6, i]), 12, 3, 1, 6,
                                      objective="seeded", min_biactive=6)
        verdict = certify_m_stationarity(evaluate_affine(inst, np.zeros(12)))
        assert verdict.kind is VerdictKind.S
        assert verdict.combiner is None
        assert (verdict.witness.mu >= 0.0).all() and (verdict.witness.nu >= 0.0).all()
        assert (branch_lps[0], lp_calls[0], combines[0]) == (1, 1, 0)
        assert verdict.walk.leaves == (0,)
        assert {rec.status for rec in verdict.branch_table[1:]} == {"covered"}

    def test_roundoff_below_zero_at_leaf_0_is_s(self, monkeypatch):
        # rounded data leave one free nu_i of the first branch LP's optimal
        # vertex at -9.5e-16, within the LP tolerance: an S-multiplier,
        # whose roundoff is cleared so that its box holds every branch
        rng = np.random.default_rng([99, 11103])
        n, l, m, p = (int(rng.integers(2, 9)), int(rng.integers(0, 6)),
                      int(rng.integers(0, 4)), int(rng.integers(1, 6)))
        inst = random_affine_instance(rng, n, l, m, p, objective="random",
                                      min_biactive=int(rng.integers(1, p + 1)))
        inst = dataclasses.replace(inst, c=np.round(inst.c), A_g=np.round(inst.A_g),
                                   A_G=np.round(inst.A_G), A_H=np.round(inst.A_H))
        data = evaluate_affine(inst, np.zeros(n))
        sets = classify_indices(data)
        bi = sorted(sets.zero_zero)
        assert bi == [0, 1, 2]
        raw = polar_branch_membership(LinearizedCone(data, sets), BranchAssignment((1, 1, 1)),
                                      -data.grad_f)
        assert -1e-15 <= raw.nu[bi].min() < 0.0
        branch_lps = count_calls(monkeypatch, mpcc_cert.stationarity, "polar_branch_membership")
        verdict = certify_m_stationarity(data)
        assert verdict.kind is VerdictKind.S
        assert branch_lps[0] == 1
        assert (verdict.witness.mu[bi] >= 0.0).all() and (verdict.witness.nu[bi] >= 0.0).all()
        assert oracle_s_exists(data, sets)[0]


def witness_bytes(witness):
    if witness is None:
        return None
    return b"".join(v.tobytes() for v in (witness.lam, witness.eta, witness.mu, witness.nu))


def table_rows(table):
    return [(rec.alpha.choices, rec.status, rec.multiplier_norm) for rec in table]


class TestBoxWalk:
    """The box walk against the per-leaf visit it replaced (tests/reference_visit.py)."""

    def assert_same_as_reference(self, monkeypatch, data):
        solved = []
        real = mpcc_cert.stationarity.polar_branch_membership

        def recording(cone, alpha, *args):
            solved.append(alpha.choices)
            return real(cone, alpha, *args)

        monkeypatch.setattr(mpcc_cert.stationarity, "polar_branch_membership", recording)
        ref = reference_certify(data)
        ref_solved, solved[:] = solved[:], []
        verdict = certify_m_stationarity(data)
        assert solved == ref_solved
        assert verdict.kind is ref.kind
        assert verdict.failed_branch == ref.failed_branch
        assert witness_bytes(verdict.witness) == witness_bytes(ref.witness)
        assert table_rows(verdict.branch_table) == table_rows(ref.branch_table)

    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("objective", ["seeded", "random"])
    def test_matches_reference_on_ladder(self, monkeypatch, p, objective):
        for i in range(10):
            inst = random_affine_instance(np.random.default_rng([p, i]), 2 * p, 3, 1, p,
                                          objective=objective, min_biactive=p)
            self.assert_same_as_reference(monkeypatch, evaluate_affine(inst, np.zeros(inst.n)))

    def test_matches_reference_on_acceptance_2(self, monkeypatch):
        for _, inst in acceptance_2_instances():
            self.assert_same_as_reference(monkeypatch, evaluate_affine(inst, np.zeros(inst.n)))

    def test_lp_branch_owns_itself_outside_its_box(self, monkeypatch):
        # a branch LP point whose own selected sign is below 0 (roundoff)
        # still serves its own branch, as in the per-leaf visit; its box
        # holds only branch (2, 1)
        points = {(1, 1): mv(2, [-1e-17, 1.0], [1.0, -1.0]),
                  (1, 2): mv(2, [1.0, 2.0], [1.0, 2.0])}
        solved = []

        def fake_lp(cone, alpha, w, tol):
            solved.append(alpha.choices)
            return points[alpha.choices]

        monkeypatch.setattr(mpcc_cert.stationarity, "polar_branch_membership", fake_lp)
        data = FirstOrderData(n=2, l=0, m=0, p=2, grad_f=np.zeros(2),
                              G_vals=np.zeros(2), grad_G=np.eye(2),
                              H_vals=np.zeros(2), grad_H=np.eye(2)[::-1].copy())
        cone = mpcc_cert.cones.LinearizedCone(data, classify_indices(data))
        walk = mpcc_cert.stationarity._walk_branches(cone, [0, 1], np.zeros(2), Tolerances())
        assert solved == [(1, 1), (1, 2)]
        assert walk.expand()[1] == [0, 1, 0, 1]
        norms = [np.linalg.norm([-1e-17, 1.0, 1.0, -1.0]), np.linalg.norm([1.0, 2.0, 1.0, 2.0])]
        assert table_rows(walk.table()) == [
            ((1, 1), "optimal", norms[0]), ((1, 2), "optimal", norms[1]),
            ((2, 1), "covered", norms[0]), ((2, 2), "covered", norms[1])]

    @pytest.mark.parametrize("i", range(5))
    def test_large_biactive_set(self, monkeypatch, i):
        # 2**24 branches: the first LP finds an S-multiplier, which covers
        # every branch, and the table is never expanded
        branch_lps = count_calls(monkeypatch, mpcc_cert.stationarity, "polar_branch_membership")
        inst = random_affine_instance(np.random.default_rng([24, i]), 48, 3, 1, 24,
                                      objective="seeded", min_biactive=24)
        data = evaluate_affine(inst, np.zeros(48))
        start = time.perf_counter()
        verdict = certify_m_stationarity(data, branch_cap=24)
        elapsed = time.perf_counter() - start
        assert verdict.kind is VerdictKind.S
        assert len(verdict.sets.zero_zero) == 24
        assert branch_lps[0] == 1
        assert elapsed < 1.0
        assert "branch_table" not in vars(verdict)
