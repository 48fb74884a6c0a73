"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every tolerance below is the contract value, not a
calibrated one.
"""

import json
import time

import numpy as np

from mpcc_cert import (
    BranchAssignment,
    LinearizedCone,
    LpStatus,
    VerdictKind,
    certify_m_stationarity,
    check_stationarity_system,
    classify_indices,
    evaluate_affine,
    grid_min_norm,
    min_norm_point,
    oracle_m_exists,
    oracle_s_exists,
    oracle_tangent_sample,
    polar_branch_membership,
    polar_separating_direction,
    schinabeck_combine,
)
from mpcc_cert.cli import main
from mpcc_cert.cones import _branch_system
from mpcc_cert.solvers import _nullspace
from mpcc_cert.instances import (
    random_affine_instance,
    random_branch_points,
)
from mpcc_cert.solvers import LinearProgram, MinNormProblem, lp_solve
from mpcc_cert.stationarity import m_condition_holds

from conftest import bilinear_pair_data, m_not_s_instance


def report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS - {detail} ({elapsed:.1f}s)")


def test_acceptance_1_combiner_suite():
    """500 random biactive point families; the combiner succeeds on 100%."""
    start = time.time()
    rng = np.random.default_rng(1001)
    n_instances = 500
    for trial in range(n_instances):
        p = 1 + trial % 5
        points = random_branch_points(rng, p)
        res = schinabeck_combine(points, range(p))
        w = res.weights
        assert (w >= -1e-9).all()
        assert abs(w.sum() - 1.0) <= 1e-9
        stacked = np.array([np.concatenate([m.mu, m.nu]) for m, _ in points])
        combined = np.concatenate([res.multiplier.mu, res.multiplier.nu])
        assert np.abs(w @ stacked - combined).max() <= 1e-7
        for i in range(p):
            assert m_condition_holds(res.multiplier.mu[i], res.multiplier.nu[i], 1e-7)
    report(1, f"combiner valid on {n_instances}/{n_instances} instances, p in 1..5",
           time.time() - start)


def test_acceptance_2_certification_suite():
    """200 random affine instances: certified witnesses verify; oracle agrees."""
    start = time.time()
    rng = np.random.default_rng(2002)
    n_instances = 200
    certified = 0
    branch_infeasible = 0
    for trial in range(n_instances):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(0, 4))
        m = int(rng.integers(0, 4))
        p = int(rng.integers(1, 5))
        objective = "seeded" if trial % 10 < 7 else "random"
        inst = random_affine_instance(rng, n, l, m, p, objective=objective)
        data = evaluate_affine(inst, np.zeros(n))
        sets = classify_indices(data)
        assert len(sets.zero_zero) >= 1
        verdict = certify_m_stationarity(data)
        if verdict.kind is VerdictKind.BRANCH_INFEASIBLE:
            branch_infeasible += 1
            continue
        assert verdict.kind in (VerdictKind.M, VerdictKind.S)
        certified += 1
        residuals = check_stationarity_system(data, sets, verdict.witness)
        assert residuals.gradient <= 1e-7
        assert residuals.lambda_active_min >= -1e-7
        assert residuals.lambda_inactive_abs <= 1e-7
        assert residuals.mu_pluszero_abs <= 1e-7
        assert residuals.nu_zeroplus_abs <= 1e-7
        exists, _ = oracle_m_exists(data, sets)
        if not exists:  # tolerate witnesses on the strictness boundary
            exists, _ = oracle_m_exists(data, sets, eps=1e-7)
        assert exists, f"oracle disagrees on certified instance {trial}"
    assert certified >= 120, f"suite too thin: only {certified} certified instances"
    report(2, f"{certified} certified + {branch_infeasible} branch-infeasible "
              f"of {n_instances}; all witnesses verified, oracle agreed",
           time.time() - start)


def test_acceptance_3_curated_instances():
    """The three documented instances behave exactly as derived."""
    start = time.time()
    # (a) min x1+x2 over the complementarity pair: strongly stationary
    verdict = certify_m_stationarity(bilinear_pair_data([1.0, 1.0]))
    assert verdict.kind is VerdictKind.S
    assert abs(verdict.witness.mu[0] - 1.0) <= 1e-9
    assert abs(verdict.witness.nu[0] - 1.0) <= 1e-9

    # (b) min -x1: branch alpha=(1) cannot host the gradient
    verdict = certify_m_stationarity(bilinear_pair_data([-1.0, 0.0]))
    assert verdict.kind is VerdictKind.BRANCH_INFEASIBLE
    assert verdict.failed_branch.choices == (1,)

    # (c) linear data whose minimizer is M- but not strongly stationary
    data = evaluate_affine(m_not_s_instance(), np.zeros(3))
    sets = classify_indices(data)
    verdict = certify_m_stationarity(data)
    assert verdict.kind is VerdictKind.M
    m_exists, _ = oracle_m_exists(data, sets)
    s_exists, _ = oracle_s_exists(data, sets)
    assert m_exists and not s_exists
    report(3, "curated instances: S / branch-infeasible / M-not-S all confirmed",
           time.time() - start)


def test_acceptance_4_polar_soundness_completeness():
    """100 random branch cones; multipliers and separators certify both sides."""
    start = time.time()
    rng = np.random.default_rng(4004)
    n_cones = 100
    n_directions = 1000
    members = 0
    outsiders = 0
    sampled = 0
    for trial in range(n_cones):
        n = int(rng.integers(2, 6))
        inst = random_affine_instance(
            rng, n, l=int(rng.integers(0, 3)), m=int(rng.integers(0, 2)),
            p=int(rng.integers(1, 4)),
            objective="seeded" if trial % 2 == 0 else "random")
        data = evaluate_affine(inst, np.zeros(n))
        sets = classify_indices(data)
        cone = LinearizedCone(data, sets)
        alpha = BranchAssignment(tuple(int(c) for c in rng.integers(1, 3, size=data.p)))
        w = -data.grad_f
        mult = polar_branch_membership(cone, alpha, w)
        if mult is not None:
            members += 1
            eq_rows, geq_rows, leq_rows = _branch_system(cone, alpha)
            # the maximum of w'd over the box-bounded cone bounds every direction in it
            out = lp_solve(LinearProgram(
                objective=-w,
                eq_matrix=eq_rows, eq_rhs=np.zeros(eq_rows.shape[0]),
                ineq_matrix=np.vstack([leq_rows, -geq_rows, np.eye(n)]),
                ineq_rhs=np.concatenate([np.zeros(leq_rows.shape[0] + geq_rows.shape[0]),
                                         np.ones(n)]),
                lower=np.full(n, -1.0),
            ))
            assert out.status is LpStatus.OPTIMAL
            assert w @ out.solution <= 1e-9
            # sampled directions, checked without the simplex: project onto the
            # equality subspace and keep those meeting the inequalities
            basis = _nullspace(eq_rows)
            d = rng.standard_normal((n_directions, n)) @ basis @ basis.T
            inside = (d @ geq_rows.T >= 0.0).all(axis=1) & (d @ leq_rows.T <= 0.0).all(axis=1)
            assert (d[inside] @ w <= 1e-9 * (1.0 + np.abs(d[inside]).max(axis=1))).all()
            sampled += int(inside.sum())
        else:
            outsiders += 1
            d = polar_separating_direction(cone, alpha, w)
            assert d is not None
            assert w @ d > 1e-9
            from mpcc_cert import branch_cone_contains
            assert branch_cone_contains(cone, alpha, d, 1e-7)
    assert members >= 30 and outsiders >= 10, (members, outsiders)
    report(4, f"{members} members: cone maxima of w'd and {sampled} sampled cone "
              f"directions sound; "
              f"{outsiders} exclusions came with separating directions",
           time.time() - start)


def test_acceptance_5_affine_cq_probe():
    """50 random affine instances, 1000 directions each: no tangent mismatch."""
    start = time.time()
    rng = np.random.default_rng(5005)
    n_instances = 50
    total_tangent = 0
    for trial in range(n_instances):
        inst = random_affine_instance(
            rng, n=int(rng.integers(2, 5)), l=int(rng.integers(0, 3)),
            m=int(rng.integers(0, 2)), p=int(rng.integers(1, 3)),
            objective="random")
        rep = oracle_tangent_sample(inst, np.zeros(inst.n), directions=1000,
                                    seed=trial)
        assert rep.agreement, f"instance {trial}: {len(rep.mismatches)} mismatches"
        total_tangent += rep.tangent_count
    assert total_tangent > 0
    report(5, f"{n_instances} instances x 1000 directions, zero mismatches "
              f"({total_tangent} tangent hits)", time.time() - start)


def test_acceptance_6_min_norm_vs_grid():
    """QP norms match the weight-grid search on the documented problems."""
    start = time.time()
    cases = [
        (np.array([[3.0, -2.0], [-1.0, 4.0]]), (0,)),
        (np.array([[2.0, 1.0]]), (0,)),
        (np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]), ()),
    ]
    for vertices, signs in cases:
        res = min_norm_point(MinNormProblem(vertices, signs))
        ref = grid_min_norm(vertices, signs, grid_step=1e-3)
        assert ref is not None
        assert abs(np.sqrt(res.norm_sq) - np.sqrt(ref[1])) <= 1e-3
    report(6, "3 documented problems agree with the 1e-3 weight grid",
           time.time() - start)


def test_acceptance_7_cli_determinism(capsys):
    """Repeated certify runs emit byte-identical JSON apart from timing."""
    start = time.time()
    files = ("problems/bilinear_min.json", "problems/bilinear_descent.json",
             "problems/m_not_s.json", "problems/kkt_only.json")
    for path in files:
        outputs = []
        for _ in range(2):
            main(["certify", path, "--json", "--oracle"])
            doc = json.loads(capsys.readouterr().out)
            doc.pop("timing")
            outputs.append(json.dumps(doc, sort_keys=False))
        assert outputs[0] == outputs[1], path
    report(7, f"{len(files)} curated files, byte-identical reports modulo timing",
           time.time() - start)
