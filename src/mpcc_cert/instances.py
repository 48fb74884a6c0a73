"""Random instance generators shared by tests and experiment scripts.

All generators take an explicit :class:`numpy.random.Generator` so runs
are reproducible from a single seed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .cones import BranchAssignment
from .model import AffineInstance, FirstOrderData, MultiplierVector


def random_branch_points(rng: np.random.Generator, p: int,
                         low: float = -5.0, high: float = 5.0
                         ) -> List[Tuple[MultiplierVector, BranchAssignment]]:
    """One (mu, nu) point per branch assignment, clamped into its sign region.

    Entries are uniform in [low, high]; for each biactive index the
    assignment-selected coordinate is clamped at zero from below, so every
    point lies in its own region (boundary included).
    """
    from .cones import enumerate_branch_assignments

    points = []
    for alpha in enumerate_branch_assignments(p, range(p)):
        v = rng.uniform(low, high, size=2 * p)
        for i in range(p):
            if alpha.choices[i] == 1:
                v[i] = max(v[i], 0.0)
            else:
                v[p + i] = max(v[p + i], 0.0)
        mult = MultiplierVector(np.zeros(0), np.zeros(0), v[:p], v[p:])
        points.append((mult, alpha))
    return points


def random_affine_instance(rng: np.random.Generator, n: int, l: int, m: int, p: int,
                           objective: str = "seeded",
                           min_biactive: int = 1) -> AffineInstance:
    """Random affine instance feasible at the origin with a biactive pair.

    Constraint rows have uniform entries in [-3, 3]; offsets are arranged
    so x = 0 is feasible: inequality rows are active with probability 1/2,
    equality offsets vanish, and each complementarity index is placed in
    one of the three activity categories (at least ``min_biactive`` of
    them biactive).

    ``objective="seeded"`` back-solves the gradient from multipliers that
    are valid for *every* branch (nonnegative on the whole biactive set),
    so the certification pipeline is guaranteed to succeed on the
    instance; ``objective="random"`` draws the gradient freely and leaves
    the outcome open.
    """
    if p < min_biactive:
        raise ValueError("p must be at least min_biactive")

    A_g = rng.uniform(-3.0, 3.0, size=(l, n))
    b_g = np.where(rng.random(l) < 0.5, 0.0, -rng.uniform(0.5, 3.0, size=l))
    A_h = rng.uniform(-3.0, 3.0, size=(m, n))
    b_h = np.zeros(m)
    A_G = rng.uniform(-3.0, 3.0, size=(p, n))
    A_H = rng.uniform(-3.0, 3.0, size=(p, n))

    b_G = np.zeros(p)
    b_H = np.zeros(p)
    categories = ["00"] * min_biactive + [
        rng.choice(["00", "0+", "+0"]) for _ in range(p - min_biactive)
    ]
    rng.shuffle(categories)
    for i, cat in enumerate(categories):
        if cat == "0+":
            b_H[i] = rng.uniform(0.5, 3.0)
        elif cat == "+0":
            b_G[i] = rng.uniform(0.5, 3.0)

    if objective == "seeded":
        lam = np.where(b_g == 0.0, rng.uniform(0.0, 2.0, size=l), 0.0)
        eta = rng.uniform(-2.0, 2.0, size=m)
        mu = np.zeros(p)
        nu = np.zeros(p)
        for i, cat in enumerate(categories):
            if cat == "00":
                mu[i] = rng.uniform(0.0, 2.0)
                nu[i] = rng.uniform(0.0, 2.0)
            elif cat == "0+":
                mu[i] = rng.uniform(-2.0, 2.0)
            else:
                nu[i] = rng.uniform(-2.0, 2.0)
        c = -(lam @ A_g + eta @ A_h - mu @ A_G - nu @ A_H)
    elif objective == "random":
        c = rng.uniform(-3.0, 3.0, size=n)
    else:
        raise ValueError(f"unknown objective mode {objective!r}")

    return AffineInstance(c=c, A_g=A_g, b_g=b_g, A_h=A_h, b_h=b_h,
                          A_G=A_G, b_G=b_G, A_H=A_H, b_H=b_H)


def random_feasible_point_data(rng: np.random.Generator, n: int, l: int, m: int,
                               p: int) -> FirstOrderData:
    """Feasible first-order point data with a random activity pattern."""
    g_vals = np.where(rng.random(l) < 0.5, 0.0, -rng.uniform(0.1, 5.0, size=l))
    G_vals = np.zeros(p)
    H_vals = np.zeros(p)
    for i in range(p):
        cat = rng.choice(["00", "0+", "+0"])
        if cat == "0+":
            H_vals[i] = rng.uniform(0.1, 5.0)
        elif cat == "+0":
            G_vals[i] = rng.uniform(0.1, 5.0)
    return FirstOrderData(
        n=n, l=l, m=m, p=p,
        grad_f=rng.uniform(-10.0, 10.0, size=n),
        g_vals=g_vals,
        grad_g=rng.uniform(-10.0, 10.0, size=(l, n)),
        h_vals=np.zeros(m),
        grad_h=rng.uniform(-10.0, 10.0, size=(m, n)),
        G_vals=G_vals,
        grad_G=rng.uniform(-10.0, 10.0, size=(p, n)),
        H_vals=H_vals,
        grad_H=rng.uniform(-10.0, 10.0, size=(p, n)),
    )


def random_feasible_bounded_lp(rng: np.random.Generator, d: int, n_cons: int,
                               box: float = 10.0):
    """An LP feasible at a hidden point and bounded by a box: z >= -box, last d rows z <= box."""
    from .solvers import LinearProgram

    x0 = rng.uniform(-box / 2, box / 2, size=d)
    A = rng.uniform(-5.0, 5.0, size=(n_cons, d))
    b = A @ x0 + rng.uniform(0.0, 5.0, size=n_cons)
    c = rng.uniform(-5.0, 5.0, size=d)
    return LinearProgram(
        objective=c,
        ineq_matrix=np.vstack([A, np.eye(d)]),
        ineq_rhs=np.concatenate([b, np.full(d, box)]),
        lower=np.full(d, -box),
    )
