"""Near-ball polytope construction and its diameter lower-bound checks.

Rows drawn densely from the unit sphere with right-hand side one give a
feasible region squeezed between two balls; the polar polytope then has
uniformly small facets, and small facets force long edge paths between a
linear objective's maximizer and minimizer.  The chain asserted here is
deterministic in the measured quantities: inner/outer radii, the maximum
polar facet diameter, and the BFS distance on the discovered 1-skeleton.

The dense set (dense_set_with_retry) is a greedy eta-packing of the sphere
with a proof that it is eta-dense, built by greedy_dense_set from no points:
it covers the sphere with cells, keeps points where a cell cannot be covered,
and returns when no cell is open.  It uses no random numbers, so the
packing is a function of (eta, d) alone.

The cells come from the cube map: a direction g lands on the cube surface at
g / max|g_j|, on one of 2d faces.  Each face is first cut into G^(d-1)
squares of side 2/G, with G the smallest grid whose half-diagonal
r = sqrt(d-1)/G is at most eta/2, and a square that stays open is cut into
2^(d-1) squares of half its side.  A cell is covered once a kept point p
lies within eta - r - 1e-9 of its centre c (the square's centre scaled to
unit length).  Radial projection from the cube surface, where every point
has norm >= 1, onto the sphere is the nearest-point map onto the unit ball
and so 1-Lipschitz: every direction s in the cell has |s - c| <= r, hence
|s - p| < eta - 1e-9 and s.p > 1 - eta^2/2 with a margin of about 1e-9 eta,
far above the rounding of the centres and of the inner products.  Every
direction in a covered cell is thus one the greedy test rejects.

Each level drops its covered cells and offers the centres of the others to
the greedy test, in cell order.  A centre at least eta from every kept point
is kept and covers its own cell.  The level then drops the cells the new
points cover and splits the rest.  A cell stays open only while its centre
is within eta of the packing but no kept point is within eta - r - 1e-9,
so only directions nearly eta from every kept point keep cells open as r
shrinks.  When no cell is open, every direction lies within eta of a kept
point.  Splits stop at r = 1e-9, the scale of the margin, and a level holds
at most 2^20 open cells; past either, UncoveredCell names eta and an open
cell.

At eta = 2 the first kept centre's antipode is also a cell centre, exactly
eta from it, and the greedy test keeps it only when their inner product
rounds to -1 or below.  Where it does, the two points cover every other
cell; where it does not, the cells around the antipode stay open until the
open-cell cap and UncoveredCell names eta = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonpositiveRhs, TooFewRows, UncoveredCell
from .instance import LPInstance
from .oracle import VertexGraph, bfs_distance, discover_vertex_graph
from .rng import SmoothedInstance, as_generator, uniform_sphere
from .solver import Optimal, solve


@dataclass(frozen=True)
class DenseSet:
    """Greedy eta-packing of the sphere, proven eta-dense by cell refinement."""

    eta: float
    points: np.ndarray  # (m, d) unit rows, pairwise distances >= eta

    def __len__(self) -> int:
        return len(self.points)


# probes per matmul in _max_cos, and survivors per Gram block in _accept; keeps
# the temporaries at (packing size) x 512 and 512 x 512
_CHUNK = 512
# the cover test's distance margin, the half-diagonal below which cells are
# not split (there the margin outweighs r), the open cells a level may hold,
# and the cells the fill builds at a time
_MARGIN = 1e-9
_MIN_R = 1e-9
_MAX_OPEN = 1 << 20
_CELLS = 1 << 15


def _max_cos(points: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """For each probe, its largest inner product with a row of `points`.

    For unit vectors ||x - s||^2 = 2 - 2 x.s, so this is the nearest-point
    test; -inf where `points` is empty.
    """
    if not len(points):
        return np.full(len(probes), -np.inf)
    if len(probes) <= _CHUNK:  # the one chunk is probes itself
        return (points @ probes.T).max(axis=0)
    out = np.empty(len(probes))
    for lo in range(0, len(probes), _CHUNK):
        out[lo:lo + _CHUNK] = (points @ probes[lo:lo + _CHUNK].T).max(axis=0)
    return out


def _greedy_block(cand: np.ndarray, cos_cut: float) -> np.ndarray:
    """Mask of the rows a sequential greedy keeps: each row closer than the
    cut to an earlier kept row is dropped, in row order."""
    # a gemm on a transposed copy; cand @ cand.T would take the slower syrk
    close = cand @ np.ascontiguousarray(cand.T) > cos_cut
    keep = np.zeros(len(cand), dtype=bool)
    free = np.ones(len(cand), dtype=bool)
    while free.any():
        i = int(free.argmax())
        keep[i] = True
        free &= ~close[i]
        free[i] = False
    return keep


def _accept(cand: np.ndarray, best: np.ndarray, cos_cut: float) -> np.ndarray:
    """Positions of the rows of `cand` that a one-at-a-time greedy keeps, in
    row order.

    `best` holds each row's largest inner product with the packing kept
    before `cand`; a row is kept when that and its inner products with the
    rows of `cand` kept before it are at most cos_cut.  The survivors of
    `best` are decided 512 at a time: a matmul against the rows kept in
    earlier blocks, then a sequential greedy on the block's closeness mask.
    """
    survivors = np.flatnonzero(best <= cos_cut)
    taken = np.zeros(len(cand), dtype=bool)
    for lo in range(0, len(survivors), _CHUNK):
        block = survivors[lo:lo + _CHUNK]
        block = block[_max_cos(cand[taken], cand[block]) <= cos_cut]
        taken[block[_greedy_block(cand[block], cos_cut)]] = True
    return np.flatnonzero(taken)


def _split(cube: np.ndarray, axis: np.ndarray, half: float, k: int,
           lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells lo..hi-1 of the split of every cell in `cube` into k^(d-1)
    cells of half side `half`: their centres on the cube surface and their
    face axes.  Cell i's children are numbered i k^(d-1) on, in np.indices
    order over the face's other axes, taken cyclically from axis + 1."""
    d = cube.shape[1]
    parent, j = np.divmod(np.arange(lo, hi), k ** (d - 1))
    out = cube[parent]
    ax = axis[parent]
    step = np.array(np.unravel_index(j, (k,) * (d - 1)), dtype=float).T
    cols = (ax[:, None] + np.arange(1, d)) % d
    out[np.arange(len(out))[:, None], cols] += (2.0 * step + 1.0 - k) * half
    return out, ax


def greedy_dense_set(eta: float, d: int) -> np.ndarray:
    """A greedy eta-packing of the unit sphere in R^d, grown from no points
    until every cube-map cell is covered (module docstring); raises
    UncoveredCell where the refinement stops short."""
    if not 0.0 < eta <= 2.0:
        raise ValueError("eta must be in (0, 2]")
    if d < 2:
        raise ValueError("d must be >= 2")
    cos_cut = 1.0 - eta * eta / 2.0
    points = np.empty((0, d))
    # the 2d faces, +e_f then -e_f, split first into k^(d-1) cells, then in halves
    cube = np.repeat(np.eye(d), 2, axis=0)
    cube[1::2] *= -1.0
    axis = np.repeat(np.arange(d), 2)
    half, k = 1.0, math.ceil(2.0 * math.sqrt(d - 1) / eta)
    while len(cube):
        half /= k
        r = half * math.sqrt(d - 1)
        if r < _MIN_R:
            raise _uncovered(eta, cube[0], r * k, f"splitting it below r = {_MIN_R:g}")
        cover_cut = 1.0 - (eta - r - _MARGIN) ** 2 / 2.0 + 1e-12
        total = len(cube) * k ** (d - 1)
        cells, axes, count = [], [], 0
        for lo in range(0, total, _CELLS):
            child, ax = _split(cube, axis, half, k, lo, min(lo + _CELLS, total))
            unit = child / np.linalg.norm(child, axis=1, keepdims=True)
            best = _max_cos(points, unit)
            live = np.flatnonzero(best <= cover_cut)
            new = unit[live[_accept(unit[live], best[live], cos_cut)]]
            if len(new):
                points = np.concatenate((points, new))
                live = live[_max_cos(new, unit[live]) <= cover_cut]
            cells.append(child[live])
            axes.append(ax[live])
            count += len(live)
            if count > _MAX_OPEN:
                raise _uncovered(eta, child[live[0]], r,
                                 f"more than {_MAX_OPEN} cells open at that size")
        cube, axis, k = np.concatenate(cells), np.concatenate(axes), 2
    return points


def _uncovered(eta: float, centre: np.ndarray, r: float, why: str) -> UncoveredCell:
    unit = centre / np.linalg.norm(centre)
    cell = ", ".join(f"{v:.6g}" for v in unit)
    return UncoveredCell(f"eta={eta}: the cell centred at ({cell}) with half-diagonal "
                         f"{r:.3g} is still open, and covering it needs {why}")


def dense_set_with_retry(eta: float, d: int) -> DenseSet:
    """greedy_dense_set's packing, proven eta-dense and read-only, since a
    study's runs share it.  The name is the one bench/tracer.py wraps."""
    points = greedy_dense_set(eta, d)
    points.flags.writeable = False
    return DenseSet(eta=float(eta), points=points)


def default_row_count(sigma: float, d: int) -> int:
    return int(math.floor((4.0 / sigma) ** d))


def build_lb_instance(rng, dense: DenseSet, sigma: float,
                      c: Optional[np.ndarray] = None,
                      n: Optional[int] = None) -> SmoothedInstance:
    """Rows = dense sphere points (padded to n with fresh sphere points),
    right-hand side one, both sides perturbed with sigma.

    The padding keeps every row a unit sphere point, so the augmented row
    set is still eta-dense.  n defaults to floor((4/sigma)^d) when sigma > 0.
    Note the combined rows (s_i, 1) have norm sqrt(2); all downstream
    measurements are invariant under row scaling so the description is kept
    unscaled.
    """
    gen = as_generator(rng)
    d = dense.points.shape[1]
    if n is None:
        n = default_row_count(sigma, d) if sigma > 0 else len(dense)
    if n < len(dense):
        raise TooFewRows(f"n={n} smaller than the dense set ({len(dense)})")
    rows = dense.points
    if n > len(dense):
        rows = np.vstack([rows, uniform_sphere(gen, d, size=n - len(dense))])
    bbar = np.ones(n)
    A = rows + sigma * gen.standard_normal(rows.shape) if sigma > 0 else rows.copy()
    b = bbar + sigma * gen.standard_normal(n) if sigma > 0 else bbar.copy()
    if c is None:
        c = np.zeros(d)
        c[0] = 1.0
    return SmoothedInstance(A=A, b=b, c=c, abar=rows, bbar=bbar, sigma=float(sigma))


@dataclass
class SandwichResult:
    inner_radius: float  # min_i b_i / ||a_i||
    outer_radius: Optional[float]  # max vertex norm, when vertices given
    inner_ok: bool
    outer_ok: Optional[bool]


def sandwich_check(inst, eta: float, vertices: Optional[np.ndarray] = None) -> SandwichResult:
    """Check (1-2eta) B subset P subset (1+4eta) B directly.

    Inner containment holds iff every halfspace sits at distance >= 1-2eta
    from the origin; outer containment iff every vertex (caller-supplied,
    typically from graph discovery) has norm <= 1+4eta.
    """
    norms = np.linalg.norm(inst.A, axis=1)
    inner_radius = float((inst.b / norms).min())
    outer_radius = None
    outer_ok = None
    if vertices is not None and len(vertices):
        outer_radius = float(np.linalg.norm(vertices, axis=1).max())
        outer_ok = outer_radius <= 1.0 + 4.0 * eta
    return SandwichResult(
        inner_radius=inner_radius,
        outer_radius=outer_radius,
        inner_ok=inner_radius >= 1.0 - 2.0 * eta,
        outer_ok=outer_ok,
    )


def _facet_diameter(inst, bases) -> float:
    """The largest polar facet diameter over `bases` (equal-length index
    sequences) in one array step: a basis's rows a_i / b_i span its vertex's
    polar facet, whose diameter is their largest pairwise distance.
    NonpositiveRhs names the first basis with a row of b_i <= 0."""
    idx = np.array(bases, dtype=np.intp)
    rhs = inst.b[idx]
    low = rhs.min(axis=1)
    bad = (low <= 0.0).nonzero()[0]
    if len(bad):
        raise NonpositiveRhs(f"basis row with b = {low[bad[0]]:.3e}")
    pts = inst.A[idx] / rhs[:, :, None]
    # p_j - p_i for every pair i < j of each basis
    first, second = np.triu_indices(idx.shape[1], 1)
    diff = pts[:, second] - pts[:, first]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    return float(dist.max(initial=0.0))


@dataclass
class DiameterRecord:
    d: int
    sigma: float
    eta: float
    n_rows: int
    n_dense: int
    outcome: str
    error: str = ""                     # set on the rows of runs that raised
    vertices: int = 0
    edges: int = 0
    bfs_hops: int = -1
    path_bound: float = float("nan")
    bound_holds: Optional[bool] = None
    gamma: float = float("nan")         # max polar facet diameter, recentered
    radius: float = float("nan")        # max vertex distance from the recentering point
    eta_event: float = float("nan")     # measured perturbation + density level
    event_holds: bool = False
    sandwich_inner_ok: Optional[bool] = None
    sandwich_outer_ok: Optional[bool] = None
    eta_star: float = float("nan")      # empirical sandwich level from radii
    gamma_origin: float = float("nan")  # max facet diameter in the origin description
    facet_bound_applicable: bool = False
    facet_bound_ok: Optional[bool] = None


def _max_facet_diameter(inst_like, graph: VertexGraph) -> float:
    return _facet_diameter(inst_like, graph.bases)


def diameter_experiment(rng, dense: DenseSet, sigma: float,
                        n: Optional[int] = None) -> DiameterRecord:
    """Lay a near-ball instance on `dense` and verify its diameter chain.

    The packing gives d and eta, and n defaults as in build_lb_instance.
    Draws a uniform objective c on the sphere, discovers the full 1-skeleton
    by pivoting from the c-optimal vertex, recenters the inequality
    description at the vertex centroid (so the polar is defined even when a
    perturbed b_i drops below zero), measures the enclosing radius R and the
    max polar facet diameter gamma, and checks that the BFS distance between
    the c-max and c-min vertices is at least (d-1) (2/(R gamma) - 2) -- an
    implication that holds run by run.
    """
    gen = as_generator(rng)
    d, eta = dense.points.shape[1], dense.eta
    c = uniform_sphere(gen, d)
    inst = build_lb_instance(gen, dense, sigma, c=c, n=n)
    rec = DiameterRecord(
        d=d, sigma=sigma, eta=eta, n_rows=inst.n, n_dense=len(dense), outcome="pending",
    )
    # measured perturbation level; with it the density/perturbation
    # preconditions become checkable facts rather than probability events
    pert_a = float(np.linalg.norm(inst.A - inst.abar, axis=1).max())
    pert_b = float(np.abs(inst.b - inst.bbar).max())
    rec.eta_event = max(eta, pert_a, pert_b)
    rec.event_holds = rec.eta_event <= 0.125

    outcome, _, _ = solve(gen, inst)
    if not isinstance(outcome, Optimal):
        rec.outcome = outcome.kind
        return rec
    rec.outcome = "optimal"

    graph = discover_vertex_graph(inst.A, inst.b, outcome.basis_indices)
    rec.vertices = len(graph)
    rec.edges = graph.edge_count

    sandwich = sandwich_check(inst, rec.eta_event, vertices=graph.points)
    rec.sandwich_inner_ok = sandwich.inner_ok
    rec.sandwich_outer_ok = sandwich.outer_ok

    # empirical sandwich level and the facet-diameter implication; the polar
    # around the origin needs all b_i > 0, which inner_radius > 0 certifies
    r_in = sandwich.inner_radius
    r_out = sandwich.outer_radius
    rec.eta_star = max((1.0 - r_in) / 2.0, (r_out - 1.0) / 4.0, 0.0)
    if r_in > 0.0:
        rec.gamma_origin = _max_facet_diameter(inst, graph)
        rec.facet_bound_applicable = rec.eta_star <= 0.25
        if rec.facet_bound_applicable:
            rec.facet_bound_ok = rec.gamma_origin <= 8.0 * math.sqrt(rec.eta_star) + 1e-12

    # recentered description for the run-by-run diameter bound
    center = graph.points.mean(axis=0)
    b_shift = inst.b - inst.A @ center
    if b_shift.min() <= 0.0:
        raise NonpositiveRhs("vertex centroid is not interior; degenerate instance")
    shifted = LPInstance(A=inst.A, b=b_shift, c=inst.c)
    rec.gamma = _max_facet_diameter(shifted, graph)
    rec.radius = float(np.linalg.norm(graph.points - center, axis=1).max())
    rec.path_bound = (d - 1) * (2.0 / (rec.radius * rec.gamma) - 2.0)

    cvals = graph.points @ inst.c
    v_max = int(np.argmax(cvals))
    v_min = int(np.argmin(cvals))
    rec.bfs_hops = bfs_distance(graph, v_max, v_min)
    rec.bound_holds = rec.bfs_hops >= rec.path_bound
    return rec
