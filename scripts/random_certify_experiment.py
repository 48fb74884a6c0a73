#!/usr/bin/env python3
"""Certify a batch of random affine instances and summarize the outcomes.

Useful for eyeballing how often random objectives admit certificates, how
the branch count scales, how many branch LPs coverage and the early exit
save, how many S verdicts the first branch LP decides on its own, and
whether the oracles ever disagree with the constructive pipeline (they
must not: every certified instance has an M-multiplier, and the kind is S
exactly when ``oracle_s_exists`` finds one).

Example:
    python scripts/random_certify_experiment.py --count 100 --seed 3 --oracle
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from mpcc_cert import (
    VerdictKind,
    certify_m_stationarity,
    classify_indices,
    evaluate_affine,
    oracle_m_exists,
    oracle_s_exists,
)
from mpcc_cert.instances import random_affine_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--objective", choices=("seeded", "random", "mixed"),
                        default="mixed")
    parser.add_argument("--max-p", type=int, default=4)
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check certified instances with the pattern oracle "
                             "and every S kind with oracle_s_exists")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    verdicts = Counter()
    statuses = Counter()
    disagreements = 0
    s_disagreements = 0
    s_at_leaf_0 = 0
    start = time.perf_counter()
    for trial in range(args.count):
        if args.objective == "mixed":
            objective = "seeded" if trial % 2 == 0 else "random"
        else:
            objective = args.objective
        inst = random_affine_instance(
            rng,
            n=int(rng.integers(2, 7)),
            l=int(rng.integers(0, 4)),
            m=int(rng.integers(0, 3)),
            p=int(rng.integers(1, args.max_p + 1)),
            objective=objective,
        )
        data = evaluate_affine(inst, np.zeros(inst.n))
        verdict = certify_m_stationarity(data)
        verdicts[verdict.kind.value] += 1
        # reading the table expands it from the verdict's branch walk
        statuses.update(rec.status for rec in verdict.branch_table)
        # the first branch LP's point lies in every branch's sign region
        s_at_leaf_0 += verdict.kind is VerdictKind.S and verdict.walk.boxes[0] == (0, 0)
        if args.oracle and verdict.kind in (VerdictKind.M, VerdictKind.S):
            sets = classify_indices(data)
            exists, _ = oracle_m_exists(data, sets)
            if not exists:
                exists, _ = oracle_m_exists(data, sets, eps=1e-7)
            if not exists:
                disagreements += 1
                print(f"!! oracle disagreement on trial {trial}")
        if args.oracle:
            s_exists, _ = oracle_s_exists(data, classify_indices(data))
            if s_exists != (verdict.kind is VerdictKind.S):
                s_disagreements += 1
                print(f"!! S disagreement on trial {trial}: kind {verdict.kind.value}, "
                      f"oracle_s_exists {s_exists}")
    elapsed = time.perf_counter() - start

    print(f"instances: {args.count}  (objective={args.objective}, seed={args.seed})")
    for kind, count in sorted(verdicts.items()):
        print(f"  {kind:>18}: {count}")
    solved = statuses["optimal"] + statuses["infeasible"]
    print(f"branch LPs: {solved} solved, {statuses['covered']} covered, "
          f"{statuses['not-evaluated']} not evaluated; "
          f"S verdicts decided at leaf 0: {s_at_leaf_0} of {verdicts['S']}")
    if args.oracle:
        print(f"  oracle disagreements: {disagreements}")
        print(f"  S disagreements: {s_disagreements}")
    print(f"elapsed: {elapsed:.2f}s ({1000 * elapsed / args.count:.1f} ms/instance)")
    return 1 if disagreements or s_disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
