"""Shared instance families for the test suite."""

import numpy as np

from shadowlp import LPInstance, RngStream, smoothed_instance
from shadowlp.oracle import enumerate_feasible_bases, region_bounded
from shadowlp.rng import uniform_sphere


def cube_instance(d=3, c=None):
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.ones(2 * d)
    if c is None:
        c = np.zeros(d)
        c[0] = 1.0
    return LPInstance(A, b, np.asarray(c, float))


def ball_instance(gen, d, n, sigma, perturb_b=True):
    """Random unit directions with rhs 1, scaled so combined rows have norm 1."""
    dirs = uniform_sphere(gen, d, n)
    abar = dirs / np.sqrt(2.0)
    bbar = np.full(n, 1.0 / np.sqrt(2.0))
    c = uniform_sphere(gen, d)
    return smoothed_instance(gen, abar, bbar, c, sigma, perturb_b=perturb_b)


def mixed_instance(gen, d, n, sigma, b_low=-0.12, b_high=0.75):
    """Random halfspaces with mixed offsets; some instances come out empty."""
    bbar = gen.uniform(b_low, b_high, n)
    dirs = uniform_sphere(gen, d, n)
    radii = np.sqrt(1.0 - bbar**2) * gen.uniform(0.5, 1.0, n)
    abar = dirs * radii[:, None]
    c = uniform_sphere(gen, d)
    return smoothed_instance(gen, abar, bbar, c, sigma)


def bounded_mixed_instance(gen, d, n, sigma, max_tries=50):
    """Rejection-sample mixed instances until the feasible region is bounded.

    Returns (smoothed_instance, enumerated bases).
    """
    for _ in range(max_tries):
        si = mixed_instance(gen, d, n, sigma)
        bases = enumerate_feasible_bases(si.lp())
        if region_bounded(si.lp(), bases):
            return si, bases
    raise RuntimeError("could not draw a bounded instance")


def bounded_ball_instance(gen, d, n, sigma, max_tries=50):
    for _ in range(max_tries):
        si = ball_instance(gen, d, n, sigma)
        bases = enumerate_feasible_bases(si.lp())
        if bases and region_bounded(si.lp(), bases):
            return si, bases
    raise RuntimeError("could not draw a bounded instance")


def unbounded_in_c_instance(gen, d, n):
    """Feasible region opening along c: every row has a clearly negative
    inner product with c, so the recession cone is a narrow wedge around c
    and its extreme rays improve c."""
    c = uniform_sphere(gen, d)
    rows = []
    while len(rows) < n:
        v = uniform_sphere(gen, d)
        v = v - (v @ c) * c  # tangential part
        tang = np.linalg.norm(v)
        if tang < 1e-9:
            continue
        v = v / tang
        # direction tilted away from c; row^T c = -0.45
        row = 0.893 * v - 0.45 * c
        rows.append(row / np.linalg.norm(row))
    A = np.array(rows)
    b = gen.uniform(0.5, 1.5, n)
    return LPInstance(A, b, c)


def infeasible_instance(gen, d, n):
    """x_1 <= -1 and -x_1 <= -1 embedded among random padding rows."""
    assert n >= d + 3
    e1 = np.zeros(d)
    e1[0] = 1.0
    rows = [e1, -e1]
    b = [-1.0, -1.0]
    for _ in range(n - 2):
        rows.append(uniform_sphere(gen, d))
        b.append(float(gen.uniform(0.5, 1.5)))
    c = uniform_sphere(gen, d)
    return LPInstance(np.array(rows), np.array(b), c)


def open_box_instance(seed):
    """Rows near (e1, e2, e3, -e3) with rhs near 1 and c = (1, 1, 0).

    The feasible region is unbounded along -e1 and -e2 while c is bounded
    on it (the optimum is about 2), so phases 1-2 can surface rays that do
    not improve c and `solve` has to retry.
    """
    gen = RngStream(900 + seed, 0).generator()
    base = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    A = base + 0.01 * gen.standard_normal((4, 3))
    b = 1.0 + 0.01 * gen.standard_normal(4)
    return LPInstance(A, b, np.array([1.0, 1.0, 0.0]))
