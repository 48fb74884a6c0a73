"""certify's kind and failed branch against an exact-arithmetic reference walk.

The reference shares no code with ``lp_solve``, ``cones`` or the box walk:
it poses each leaf's polar system from the point data itself, visits every
leaf in lexicographic order and decides each one with
``lp_reference.solve_lp_exact``, which is exact on the given floats.  The
first infeasible leaf is the failed branch; when none is, the exact S
system (every biactive mu_i, nu_i >= 0) decides S or M.

Every branch cone contains the lineality space L, the directions
orthogonal to every polar row, so an exact multiplier needs grad f to be
exactly orthogonal to L.  Floats cannot settle that, and certify's
tolerance does: on inputs with L != {0} whose objective was back-solved
in floats, certify says S where no exact multiplier exists, and the exact
walk fails at the first leaf, (1, ..., 1).  Where L = {0} the verdicts
must agree; the only disagreement allowed elsewhere is exactly that one.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mpcc_cert import VerdictKind, certify_m_stationarity, classify_indices, evaluate_affine
from mpcc_cert.instances import random_affine_instance

from conftest import bilinear_pair_data, m_not_s_instance
from lp_reference import solve_lp_exact


def cli_small_instance(i):
    # certbench's cli-small draw i, evaluated at x = 0
    rng = np.random.default_rng([2002, i])
    n, l, m, p = (int(rng.integers(2, 7)), int(rng.integers(0, 4)),
                  int(rng.integers(0, 4)), int(rng.integers(1, 5)))
    return random_affine_instance(rng, n, l, m, p,
                                  objective="seeded" if i % 10 < 7 else "random")


def wide_instance(p, i):
    r = np.random.default_rng([77, p, i])
    n, l, m = int(r.integers(p, 2 * p + 2)), int(r.integers(0, 2 * p)), int(r.integers(0, 2))
    return random_affine_instance(r, n, l, m, p, objective="random", min_biactive=p)


SAMPLE = ([(f"cli-small-{i}", cli_small_instance, (i,)) for i in range(200)]
          + [(f"wide-{p}-{i}", wide_instance, (p, i)) for p in (2, 3, 4) for i in range(10)])


def exact_rank(rows):
    """Rank of a float matrix, by Gaussian elimination over Fractions."""
    M = [[Fraction(float(v)) for v in row] for row in rows]
    rank, cols = 0, len(M[0]) if M else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, len(M)):
            f = M[r][col] / M[rank][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def exact_verdict(data, sets):
    """(kind, failed choices on the biactive indices, dim L) by exact arithmetic."""
    active_g = sorted(sets.active_g)
    bi = sorted(sets.zero_zero)
    mu_support = sorted(sets.zero_plus | sets.zero_zero)
    nu_support = sorted(sets.plus_zero | sets.zero_zero)
    # one row per multiplier: -grad f = sum lam grad g + eta grad h - mu grad G - nu grad H
    rows = ([data.grad_g[i] for i in active_g] + list(data.grad_h)
            + [-data.grad_G[i] for i in mu_support] + [-data.grad_H[i] for i in nu_support])
    lineality_dim = data.n - exact_rank(rows)

    def feasible(mu_signed, nu_signed):
        bounds = ([(0.0, None)] * len(active_g) + [(None, None)] * data.m
                  + [(0.0, None) if i in mu_signed else (None, None) for i in mu_support]
                  + [(0.0, None) if i in nu_signed else (None, None) for i in nu_support])
        if not rows:
            return not data.grad_f.any()
        A_eq = np.array(rows).T
        status, _, _ = solve_lp_exact([0.0] * len(rows), A_eq, -data.grad_f, None, None, bounds)
        return status == "optimal"

    for choices in product((1, 2), repeat=len(bi)):
        mu_signed = {i for i, c in zip(bi, choices) if c == 1}
        nu_signed = {i for i, c in zip(bi, choices) if c == 2}
        if not feasible(mu_signed, nu_signed):
            return VerdictKind.BRANCH_INFEASIBLE, choices, lineality_dim
    kind = VerdictKind.S if feasible(set(bi), set(bi)) else VerdictKind.M
    return kind, None, lineality_dim


def test_exact_reference_verdicts():
    disagreements = []
    for name, build, args in SAMPLE:
        inst = build(*args)
        data = evaluate_affine(inst, np.zeros(inst.n))
        verdict = certify_m_stationarity(data)
        bi = sorted(verdict.sets.zero_zero)
        got = (verdict.kind, None if verdict.failed_branch is None
               else tuple(verdict.failed_branch.choices[i] for i in bi))
        kind, failed, lineality_dim = exact_verdict(data, classify_indices(data))
        if got == (kind, failed):
            continue
        disagreements.append(name)
        # the tolerance decided: certify found an S-multiplier within it,
        # while no exact multiplier exists for the given floats
        assert lineality_dim >= 1, (name, got, kind, failed)
        assert got == (VerdictKind.S, None), (name, got, kind, failed)
        assert (kind, failed) == (VerdictKind.BRANCH_INFEASIBLE, (1,) * len(bi)), name
    # every disagreement is on a seeded cli-small input; none on the wide pool
    assert all(name.startswith("cli-small-") and int(name.split("-")[-1]) % 10 < 7
               for name in disagreements), disagreements


@pytest.mark.parametrize("data, kind, failed", [
    # G = x1, H = x2 at the origin: the unique multipliers are mu = grad_f[0]
    # and nu = grad_f[1]
    (bilinear_pair_data([1.0, 1.0]), VerdictKind.S, None),
    (bilinear_pair_data([1.0, -1.0]), VerdictKind.BRANCH_INFEASIBLE, (2,)),
    (bilinear_pair_data([-1.0, 1.0]), VerdictKind.BRANCH_INFEASIBLE, (1,)),
    (evaluate_affine(m_not_s_instance(), np.zeros(3)), VerdictKind.M, None),
], ids=["S", "fails-2", "fails-1", "M"])
def test_exact_reference_on_known_points(data, kind, failed):
    assert exact_verdict(data, classify_indices(data)) == (kind, failed, 0)
