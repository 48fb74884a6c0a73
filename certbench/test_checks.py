"""Tests of the benchmark's output checks: right outputs pass, wrong ones do not.

    python3 -m pytest certbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def bilinear(grad_f):
    """min grad_f'x s.t. 0 <= x1 complementary to x2 >= 0, at the origin."""
    return checks.affine_problem(c=grad_f, A_g=[], b_g=[], A_h=[], b_h=[],
                                 A_G=[[1.0, 0.0]], b_G=[0.0], A_H=[[0.0, 1.0]], b_H=[0.0])


def s_witness(mu=1.0, nu=1.0):
    return (np.zeros(0), np.zeros(0), np.array([mu]), np.array([nu]))


def test_true_witness_passes_and_perturbed_one_fails():
    prob = bilinear([1.0, 1.0])
    assert checks.certify_problems(prob, True, "S", s_witness(), None) == []
    assert checks.certify_problems(prob, True, "M", s_witness(), None) == []
    assert checks.certify_problems(prob, True, "S", s_witness(mu=1.0 + 1e-5), None)
    assert checks.certify_problems(prob, True, "S", None, None)


def test_sign_conditions_on_the_biactive_set():
    # grad f = (mu, nu) = (-1, 2): the only multiplier has mixed signs, not M
    prob = bilinear([-1.0, 2.0])
    assert checks.witness_problems(prob, *s_witness(mu=-1.0, nu=2.0), strong=False) == [
        "M-condition fails on the biactive set"]
    # a witness with mu = 0 satisfies M but not S
    prob = bilinear([0.0, -2.0])
    assert checks.certify_problems(prob, False, "M", s_witness(mu=0.0, nu=-2.0), None) == []
    assert checks.certify_problems(prob, False, "S", s_witness(mu=0.0, nu=-2.0), None)


def test_branch_infeasible_confirmed_only_for_the_empty_branch():
    prob = bilinear([-1.0, 0.0])  # needs mu = -1: branch 1 (mu >= 0) is empty
    assert checks.branch_polar_infeasible(prob, (1,))
    assert not checks.branch_polar_infeasible(prob, (2,))
    assert checks.certify_problems(prob, False, "branch-infeasible", None, (1,)) == []
    assert checks.certify_problems(prob, False, "branch-infeasible", None, (2,))
    assert checks.certify_problems(prob, True, "branch-infeasible", None, (1,))


def test_flipped_verdict_is_rejected():
    prob = bilinear([1.0, 1.0])  # strongly stationary: every branch is feasible
    assert checks.certify_problems(prob, False, "branch-infeasible", None, (1,))
    assert checks.certify_problems(prob, False, "branch-infeasible", None, (2,))


def test_combine_guarantee():
    points = np.array([[2.0, -1.0], [-1.0, 2.0]])  # (mu, nu) for choices 1 and 2
    w = np.array([0.5, 0.5])
    assert checks.combine_problems(points, w, [0.5], [0.5]) == []
    assert checks.combine_problems(points, w, [0.5], [0.6])
    assert checks.combine_problems(points, [0.6, 0.6], [0.6], [0.6])
    assert checks.combine_problems(points, [0.8, 0.2], [1.4], [-0.4])


def cli_stdout(verdict="S", witness=(1.0, 1.0), consistent=True, oracle_mu=1.0):
    mult = lambda mu, nu: {"lambda": [], "eta": [], "mu": [mu], "nu": [nu]}
    return json.dumps({
        "verdict": verdict,
        "witness": None if witness is None else mult(*witness),
        "failed_branch": [1] if verdict == "branch-infeasible" else None,
        "oracle": {"m_exists": True, "witness": mult(oracle_mu, 1.0),
                   "consistent_with_verdict": consistent},
    })


def test_cli_report():
    prob = bilinear([1.0, 1.0])
    assert checks.cli_problems(prob, True, 0, cli_stdout()) == []
    assert checks.cli_problems(prob, True, 2, cli_stdout())
    assert checks.cli_problems(prob, True, 0, cli_stdout(consistent=False))
    assert checks.cli_problems(prob, True, 0, cli_stdout(oracle_mu=1.5))
    assert checks.cli_problems(prob, True, 0, cli_stdout(witness=(1.0, 1.1)))
    assert checks.cli_problems(prob, False, 2, cli_stdout("branch-infeasible", None))
    assert checks.cli_problems(prob, True, 4, "")


def test_program_outputs_pass():
    import run

    for pool in (run.certify_pool(base=6, size=3, p=3, objective="seeded"),
                 run.certify_pool(base=7, size=3, p=3, objective="random"),
                 run.combine_pool(base=5, size=3, p=2)):
        for i in range(pool.size):
            assert pool.check(i, pool.call(i)) == []
