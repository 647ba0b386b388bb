"""Shared instance families and checks for the test suite.

The ball and mixed families are the package's and the benchmark's own
definitions, imported so that the tests draw the same instances.
`build_vertex_graph` and `validate_path` check the engine against
enumeration, and `reference_discovery` checks vertex discovery against a
walk that tests every edge from both ends; they are used only here.
"""

import sys
from collections import deque
from pathlib import Path

import numpy as np

from shadowlp import LPInstance, RngStream
from shadowlp.experiments import scaling_instance
from shadowlp.oracle import VertexGraph, enumerate_feasible_bases, region_bounded
from shadowlp.rng import uniform_sphere
from shadowlp.simplex import TOL_FEAS, make_basis, multipliers, ratio_test

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from bench.workloads import mixed_instance  # noqa: E402


def cube_instance(d=3, c=None):
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.ones(2 * d)
    if c is None:
        c = np.zeros(d)
        c[0] = 1.0
    return LPInstance(A, b, np.asarray(c, float))


def ball_instance(gen, d, n, sigma):
    """The scaling study's ball family: unit directions with rhs 1, scaled so
    combined rows have norm 1."""
    return scaling_instance(gen, d, n, sigma, "ball")


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


def empty_slab_instance(seed, d=4):
    """x_1 <= -1 and -x_1 <= -1 with -x_j <= 1 (j >= 2): empty and pointed.

    The -x_j rows carry 0.01 noise off the first column, and c = |N(0, I)|.
    The unit system these rows give phase 1 is bounded only in a narrow
    cone, so a Gaussian phase-1 objective usually ends on a ray.
    """
    gen = RngStream(100 + seed, 0).generator()
    A = np.zeros((d + 1, d))
    A[0, 0], A[1, 0] = 1.0, -1.0
    A[2:, 1:] = -np.eye(d - 1) + 0.01 * gen.standard_normal((d - 1, d - 1))
    b = np.array([-1.0, -1.0, *np.ones(d - 1)])
    return LPInstance(A, b, np.abs(gen.standard_normal(d)))


def rank_deficient_instance(seed):
    """The d=4 empty slab with a fifth coordinate that no row uses, c_5 = 0.3."""
    inst = empty_slab_instance(seed)
    A = np.column_stack([inst.A, np.zeros(inst.n)])
    return LPInstance(A, inst.b, np.append(inst.c, 0.3))


def apex_instance(seed):
    """30 rows N(0, I_4) whose last column is |.| + 0.5, b = that column and
    c = e_4: max x_4 is 1, at the apex e_4 where every row is tight."""
    gen = RngStream(200 + seed, 0).generator()
    A = gen.standard_normal((30, 4))
    A[:, 3] = np.abs(A[:, 3]) + 0.5
    return LPInstance(A, A[:, 3].copy(), np.eye(4)[3])


def orthant_instance(seed, d=4):
    """Rows -(I + 0.01 N) with b = 1 plus six rows -|N| with b = 1, and
    c = |N|: a region around the positive orthant on which c is unbounded."""
    gen = RngStream(300 + seed, 0).generator()
    A = np.vstack([
        -(np.eye(d) + 0.01 * gen.standard_normal((d, d))),
        -np.abs(gen.standard_normal((6, d))),
    ])
    return LPInstance(A, np.ones(d + 6), np.abs(gen.standard_normal(d)))


def build_vertex_graph(bases):
    """Graph on enumerated bases: adjacent iff they share d-1 indices and
    their vertices are geometrically distinct."""
    m = len(bases)
    adjacency = [set() for _ in range(m)]
    sets = [frozenset(bs.indices) for bs in bases]
    for i in range(m):
        for j in range(i + 1, m):
            if len(sets[i] & sets[j]) == len(sets[i]) - 1:
                if np.linalg.norm(bases[i].x - bases[j].x) > 1e-9:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return VertexGraph(
        bases=[bs.indices for bs in bases],
        points=np.array([bs.x for bs in bases]),
        adjacency=adjacency,
    )


def reference_discovery(A, b, start_indices):
    """Vertex discovery as a plain breadth-first walk: all d ratio tests at
    every basis, each computing its own slack, and a basis numbered when it
    is first met.  `oracle.discover_vertex_graph` must give the same bases in
    the same order, the same adjacency and the same points."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    bases = [make_basis(A, b, start_indices)]
    ids = {bases[0].indices: 0}
    adjacency = [set()]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        basis = bases[i]
        for leaving in basis.indices:
            res = ratio_test(A, b, basis, leaving)
            if res.entering is None:
                continue
            nb = tuple(sorted(set(basis.indices) - {leaving} | {res.entering}))
            j = ids.get(nb)
            if j is None:
                j = ids[nb] = len(bases)
                bases.append(make_basis(A, b, nb))
                adjacency.append(set())
                queue.append(j)
            adjacency[i].add(j)
            adjacency[j].add(i)
    return VertexGraph(
        bases=[bs.indices for bs in bases],
        points=np.array([bs.x for bs in bases]),
        adjacency=adjacency,
    )


def validate_path(A, b, path):
    """Assert every recorded basis is feasible and optimal at its breakpoint."""
    for basis, lam in zip(path.bases, path.lambdas):
        resid = (A @ basis.x - b).max()
        if resid > TOL_FEAS:
            raise AssertionError(
                f"basis {basis.indices} infeasible by {resid:.3e} at lambda={lam}"
            )
        y_lam = (1.0 - lam) * path.y + lam * path.y2
        mu = multipliers(basis, y_lam)
        if mu.min() < -1e-8:
            raise AssertionError(
                f"basis {basis.indices} multiplier {mu.min():.3e} at lambda={lam}"
            )
