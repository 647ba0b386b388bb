"""Brute-force ground truth for small instances.

Everything here trades cycles for independence from the pivot engine:
feasible bases by exhaustive enumeration, LP optima by scanning vertices,
shadow polygons of bounded regions by projecting every vertex and taking
a planar convex hull, and combinatorial distances by BFS on the vertex
graph.  Guards cap the enumeration size; the lower-bound experiments swap
enumeration for pivot-based vertex discovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Optional

import numpy as np

from .errors import DegenerateShadow, TooLarge, Unreachable
from .simplex import Basis, make_basis, ratio_test
from .solver import Infeasible, Optimal, Unbounded

ENUM_GUARD = 10**7
VERTEX_GUARD = 10**6

_CHUNK = 65536


def orthonormal_frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows (f1, f2): f1 along u, f2 the normalized residual of v.

    Projections through this frame are shared by the polygon oracle and the
    path instrumentation so that planar coordinates agree everywhere.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise ValueError("first frame vector is zero")
    f1 = u / nu
    resid = v - (v @ f1) * f1
    nr = np.linalg.norm(resid)
    if nr <= 1e-12 * max(1.0, np.linalg.norm(v)):
        raise ValueError("frame vectors are linearly dependent")
    return np.vstack([f1, resid / nr])


def enumerate_feasible_bases(inst) -> list[Basis]:
    """All index sets I with A_I invertible and A x_I <= b + 1e-9.

    Raises TooLarge past ENUM_GUARD index sets.
    """
    A, b = np.asarray(inst.A, float), np.asarray(inst.b, float)
    n, d = A.shape
    total = comb(n, d)
    if total > ENUM_GUARD:
        raise TooLarge(f"binom({n},{d}) = {total} exceeds guard {ENUM_GUARD}")
    out: list[Basis] = []
    combos = combinations(range(n), d)
    while True:
        chunk = np.array(list(islice(combos, _CHUNK)), dtype=int)
        if chunk.size == 0:
            break
        sub = A[chunk]  # (k, d, d)
        scale = np.abs(sub).max(axis=(1, 2))
        dets = np.abs(np.linalg.det(sub))
        ok = dets > 1e-12 * np.maximum(scale, 1e-300) ** d
        if not np.any(ok):
            continue
        idx_ok = chunk[ok]
        x = np.linalg.solve(sub[ok], b[idx_ok][..., None])[..., 0]
        feas = np.all(x @ A.T <= b[None, :] + 1e-9, axis=1)
        for row in idx_ok[feas]:
            out.append(make_basis(A, b, row))
    return out


def _unbounded_edges(A, b, bases: list[Basis]):
    """Yield (basis, ray) for every unbounded edge at a feasible basis."""
    for basis in bases:
        for leaving in basis.indices:
            res = ratio_test(A, b, basis, leaving)
            if res.entering is None:
                yield basis, -res.direction


def region_bounded(inst, bases: Optional[list[Basis]] = None) -> bool:
    """True iff the feasible region has no recession ray.

    A nonempty pointed polyhedron is unbounded exactly when some vertex has
    an unbounded edge; an empty region counts as bounded.
    """
    if bases is None:
        bases = enumerate_feasible_bases(inst)
    for _ in _unbounded_edges(inst.A, inst.b, bases):
        return False
    return True


def _grid_feasible_point(inst) -> Optional[np.ndarray]:
    A, b, d = inst.A, inst.b, inst.A.shape[1]
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    for scale in (0.0, 0.1, 1.0, 10.0, 100.0):
        pts = scale * gen.standard_normal((2048 // 5, d))
        feas = np.all(pts @ A.T <= b[None, :] + 1e-9, axis=1)
        if np.any(feas):
            return pts[np.argmax(feas)]
    return None


def lp_optimum_oracle(inst, objective: np.ndarray, bases: Optional[list[Basis]] = None):
    """Classify max objective^T x over Ax <= b by brute force.

    Optimal: argmax over enumerated vertices.  Unbounded: some feasible
    basis has an unbounded edge improving the objective.  Infeasible: no
    feasible basis and no point from a sampling grid satisfies the system.
    """
    objective = np.asarray(objective, float)
    if bases is None:
        bases = enumerate_feasible_bases(inst)
    if not bases:
        if _grid_feasible_point(inst) is not None:
            raise RuntimeError(
                "region is nonempty but has no vertex; oracle only handles "
                "pointed feasible sets"
            )
        return Infeasible(certificate=None)
    scale = max(1.0, float(np.linalg.norm(objective)))
    for basis, ray in _unbounded_edges(inst.A, inst.b, bases):
        if objective @ ray > 1e-9 * scale * np.linalg.norm(ray):
            return Unbounded(ray=ray, x=basis.x)
    best = max(bases, key=lambda bs: float(objective @ bs.x))
    return Optimal(basis_indices=best.indices, x=best.x)


# ---------------------------------------------------------------------------
# Planar convex hull (monotone chain, orientation predicate with tolerance)


def _orient(o, a, b) -> int:
    """Sign of the turn o->a->b; 0 within a relative collinearity tolerance."""
    ax, ay = a[0] - o[0], a[1] - o[1]
    bx, by = b[0] - o[0], b[1] - o[1]
    cross = ax * by - ay * bx
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), 1.0)
    if abs(cross) <= 1e-12 * scale * scale:
        return 0
    return 1 if cross > 0 else -1


def convex_hull_2d(points: np.ndarray) -> list[int]:
    """Indices of hull vertices in counterclockwise order, collinear points dropped."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m == 0:
        return []
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if m == 1:
        return [int(order[0])]

    def build(seq):
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2 and _orient(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 0:
                chain.pop()
            chain.append(int(i))
        return chain

    lower = build(order)
    upper = build(order[::-1])
    hull = lower[:-1] + upper[:-1]
    # coincident input points can survive as repeated hull vertices
    cleaned = [hull[0]]
    for idx in hull[1:]:
        if not np.array_equal(pts[idx], pts[cleaned[-1]]):
            cleaned.append(idx)
    while len(cleaned) > 1 and np.array_equal(pts[cleaned[-1]], pts[cleaned[0]]):
        cleaned.pop()
    return cleaned


@dataclass
class ShadowPolygon:
    """Projection of the feasible vertices onto span(c, z), hull-ordered.

    `points` walk the full boundary of the bounded shadow counterclockwise.
    """

    frame: np.ndarray          # (2, d)
    points: np.ndarray         # (m, 2) hull vertices, CCW
    bases: list[tuple[int, ...]]


def shadow_polygon_oracle(
    inst, c: np.ndarray, z: np.ndarray, bases: Optional[list[Basis]] = None
) -> ShadowPolygon:
    """Project a bounded region's feasible vertices to span(c, z) and hull them.

    Raises ValueError when the region has no vertex or is unbounded, and
    DegenerateShadow when a hull vertex has more than one pre-image within
    1e-9 (the projection is then degenerate and path labels would be
    ambiguous).
    """
    frame = orthonormal_frame(c, z)
    if bases is None:
        bases = enumerate_feasible_bases(inst)
    if not bases:
        raise ValueError("no feasible vertices to project")
    if not region_bounded(inst, bases):
        raise ValueError("region is unbounded; its shadow is not a polygon")
    verts = np.array([bs.x for bs in bases])
    proj = verts @ frame.T  # (m, 2)
    hull_points = proj[convex_hull_2d(proj)]
    hull_bases = []
    for p in hull_points:
        matches = np.flatnonzero(np.linalg.norm(proj - p, axis=1) <= 1e-9)
        # count geometrically distinct pre-images
        distinct: list[int] = []
        for mi in matches:
            if all(np.linalg.norm(verts[mi] - verts[mj]) > 1e-9 for mj in distinct):
                distinct.append(int(mi))
        if len(distinct) != 1:
            raise DegenerateShadow(
                f"hull point {p} has {len(distinct)} pre-image vertices"
            )
        hull_bases.append(bases[distinct[0]].indices)
    return ShadowPolygon(frame=frame, points=hull_points, bases=hull_bases)


def hull_arc(polygon: ShadowPolygon, y: np.ndarray, y2: np.ndarray) -> list[tuple[int, ...]]:
    """Bases along the hull from the y-optimal vertex to the y2-optimal vertex.

    The walk direction follows the rotational sweep of the objectives within
    the polygon's frame, which is exactly the vertex order the pivot engine
    traverses between the two optima.
    """
    py = polygon.frame @ np.asarray(y, float)
    py2 = polygon.frame @ np.asarray(y2, float)
    cross = py[0] * py2[1] - py[1] * py2[0]
    if abs(cross) <= 1e-14 * max(np.linalg.norm(py) * np.linalg.norm(py2), 1e-300):
        raise ValueError("objectives project to dependent directions")
    step = 1 if cross > 0 else -1
    m = len(polygon.points)
    start = int(np.argmax(polygon.points @ py))
    end = int(np.argmax(polygon.points @ py2))
    arc = [polygon.bases[start]]
    i = start
    while i != end:
        i = (i + step) % m
        arc.append(polygon.bases[i])
        if len(arc) > m:
            raise RuntimeError("arc walk failed to terminate")
    return arc


# ---------------------------------------------------------------------------
# Vertex graph and BFS distances


@dataclass
class VertexGraph:
    bases: list[tuple[int, ...]]
    points: np.ndarray           # (m, d)
    adjacency: list[set[int]]

    def __len__(self) -> int:
        return len(self.bases)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def discover_vertex_graph(A: np.ndarray, b: np.ndarray, start_indices) -> VertexGraph:
    """Explore the 1-skeleton by pivoting outward from one feasible basis.

    Used where enumeration is hopeless (the lower-bound instances); raises
    TooLarge past VERTEX_GUARD vertices.
    """
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    start = make_basis(A, b, start_indices)
    bases = [start]
    ids = {start.indices: 0}
    adjacency: list[set[int]] = [set()]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        basis = bases[i]
        for leaving in basis.indices:
            res = ratio_test(A, b, basis, leaving)
            if res.entering is None:
                continue  # unbounded edge; no neighbor on this side
            nb = tuple(sorted(set(basis.indices) - {leaving} | {res.entering}))
            j = ids.get(nb)
            if j is None:
                if len(bases) >= VERTEX_GUARD:
                    raise TooLarge(f"vertex guard {VERTEX_GUARD} exceeded")
                j = len(bases)
                ids[nb] = j
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


def bfs_distance(graph: VertexGraph, source: int, target: int) -> int:
    """Hop count of the shortest edge path between two graph vertices."""
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        i = queue.popleft()
        for j in graph.adjacency[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                if j == target:
                    return dist[j]
                queue.append(j)
    raise Unreachable(f"vertex {target} not reachable from {source}")
