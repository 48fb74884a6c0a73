#!/usr/bin/env python3
"""Count and fingerprint every LP the certification pipeline solves.

    python scripts/lp_digest.py

Wraps ``lp_solve`` where the package calls it (``mpcc_cert.cones``,
``mpcc_cert.oracle`` and ``mpcc_cert.solvers``) and runs five fixed
pools:

* seeded-wide: ``certify_m_stationarity`` on ``default_rng([6, i])``,
  i < 40, with 6 biactive pairs and seeded objectives;
* random-wide: the same on ``default_rng([7, i])`` with 7 pairs and
  random objectives;
* wide: for p = 2..8, 300 instances each from ``default_rng([77, p, i])``
  with n in [p, 2p+2), l in [0, 2p), m in [0, 2) and random objectives;
* cli-small: ``certify_m_stationarity`` plus ``oracle_m_exists`` on the
  2000 problem draws ``default_rng([2002, i])`` of certbench's cli-small
  workload, evaluated in-process;
* row-scaled: ``certify_m_stationarity`` on the cli-small draws and then
  the wide draws, numbered k = 0..4099 in that order, with every
  constraint row of input k (its gradient and its value) multiplied by a
  factor drawn log-uniform in [1e-3, 1e3] from ``default_rng([5, k])``,
  one per g row, then h, G and H rows.  The MPCC does not change, so a
  raise here is a numerical defect.

For each pool it prints the number of LPs and a SHA-256 over every LP's
status, solution bytes and objective, in call order, plus the number of
inputs whose call raised.  Two versions of the package that print the same
lines solved the same LPs and got the same answers, bit for bit.
"""

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import mpcc_cert.cones
import mpcc_cert.oracle
import mpcc_cert.solvers
from mpcc_cert import (
    AffineInstance,
    MpccError,
    Tolerances,
    certify_m_stationarity,
    evaluate_affine,
    oracle_m_exists,
)
from mpcc_cert.instances import random_affine_instance

BINDINGS = (mpcc_cert.cones, mpcc_cert.oracle, mpcc_cert.solvers)


class Digest:
    def __init__(self):
        self.count = 0
        self.raised = 0
        self.sha = hashlib.sha256()

    def record(self, out):
        self.count += 1
        self.sha.update(out.status.value.encode())
        if out.solution is not None:
            self.sha.update(out.solution.tobytes())
        self.sha.update(repr(out.objective_value).encode())


def wrap_lp_solve(state):
    real = mpcc_cert.solvers.lp_solve

    def traced(lp, *args, **kwargs):
        out = real(lp, *args, **kwargs)
        state[0].record(out)
        return out

    for module in BINDINGS:
        module.lp_solve = traced


def affine_draws(base, count, p, objective):
    for i in range(count):
        yield random_affine_instance(np.random.default_rng([base, i]), 2 * p, 3, 1, p,
                                     objective=objective, min_biactive=p)


def wide_draws():
    for p in range(2, 9):
        for i in range(300):
            r = np.random.default_rng([77, p, i])
            n, l, m = int(r.integers(p, 2 * p + 2)), int(r.integers(0, 2 * p)), int(r.integers(0, 2))
            yield random_affine_instance(r, n, l, m, p, objective="random", min_biactive=p)


def cli_small_draws():
    # the draws of certbench's cli-small pool, in its order
    for i in range(2000):
        rng = np.random.default_rng([2002, i])
        n, l, m, p = (int(rng.integers(2, 7)), int(rng.integers(0, 4)),
                      int(rng.integers(0, 4)), int(rng.integers(1, 5)))
        yield random_affine_instance(rng, n, l, m, p,
                                     objective="seeded" if i % 10 < 7 else "random")


def row_scaled_draws(lo=1e-3, hi=1e3):
    for k, inst in enumerate(itertools.chain(cli_small_draws(), wide_draws())):
        factors = np.exp(np.random.default_rng([5, k]).uniform(
            np.log(lo), np.log(hi), inst.l + inst.m + 2 * inst.p))
        blocks = dict(zip("ghGH", np.split(factors, np.cumsum([inst.l, inst.m, inst.p]))))
        yield AffineInstance(
            c=inst.c, Q=inst.Q,
            **{f"A_{b}": getattr(inst, f"A_{b}") * f[:, None] for b, f in blocks.items()},
            **{f"b_{b}": getattr(inst, f"b_{b}") * f for b, f in blocks.items()})


def certify(inst):
    certify_m_stationarity(evaluate_affine(inst, np.zeros(inst.n)))


def certify_and_oracle(inst):
    data = evaluate_affine(inst, np.zeros(inst.n))
    tol = Tolerances()
    verdict = certify_m_stationarity(data, tol)
    oracle_m_exists(data, verdict.sets, tol, eps=10.0 * tol.cert_tol)


POOLS = (
    ("seeded-wide", lambda: affine_draws(6, 40, 6, "seeded"), certify),
    ("random-wide", lambda: affine_draws(7, 40, 7, "random"), certify),
    ("wide", wide_draws, certify),
    ("cli-small", cli_small_draws, certify_and_oracle),
    ("row-scaled", row_scaled_draws, certify),
)


def main() -> int:
    state = [None]
    wrap_lp_solve(state)
    for name, draws, run in POOLS:
        digest = state[0] = Digest()
        for inst in draws():
            try:
                run(inst)
            except MpccError:
                digest.raised += 1
        print(f"{name}: {digest.count} LPs, {digest.raised} raised, "
              f"sha256 {digest.sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
