"""Near-ball polytope construction and its diameter lower-bound checks.

Rows drawn densely from the unit sphere with right-hand side one give a
feasible region squeezed between two balls; the polar polytope then has
uniformly small facets, and small facets force long edge paths between a
linear objective's maximizer and minimizer.  The chain asserted here is
deterministic in the measured quantities: inner/outer radii, the maximum
polar facet diameter, and the BFS distance on the discovered 1-skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AuditFailed, NonpositiveRhs, TooFewRows
from .instance import LPInstance
from .oracle import VertexGraph, bfs_distance, discover_vertex_graph
from .rng import SmoothedInstance, as_generator, uniform_sphere
from .solver import Optimal, solve


@dataclass(frozen=True)
class DenseSet:
    """Greedy maximal eta-packing of the sphere; maximality makes it eta-dense."""

    eta: float
    points: np.ndarray  # (m, d) unit rows, pairwise distances >= eta
    audited: bool
    audit_samples: int

    def __len__(self) -> int:
        return len(self.points)


# probes per matmul in _max_cos, and survivors per in-batch Gram block; keeps
# the temporaries at (packing size) x 512 and 512 x 512
_CHUNK = 512


def _max_cos(points: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """For each probe, its largest inner product with a row of `points`.

    For unit vectors ||x - s||^2 = 2 - 2 x.s, so this is the nearest-point
    test; -inf where `points` is empty.
    """
    out = np.full(len(probes), -np.inf)
    if len(points):
        for lo in range(0, len(probes), _CHUNK):
            out[lo:lo + _CHUNK] = (points @ probes[lo:lo + _CHUNK].T).max(axis=0)
    return out


def _greedy_block(cand: np.ndarray, cos_cut: float) -> np.ndarray:
    """Mask of the rows a sequential greedy keeps: each row closer than the
    cut to an earlier kept row is dropped, in row order."""
    close = cand @ cand.T > cos_cut
    keep = np.zeros(len(cand), dtype=bool)
    free = np.ones(len(cand), dtype=bool)
    while free.any():
        i = int(free.argmax())
        keep[i] = True
        free &= ~close[i]
        free[i] = False
    return keep


def greedy_dense_set(rng, eta: float, d: int, audit_samples: int = 100_000,
                     batch: int = 4096) -> DenseSet:
    """Stream sphere points, keeping those >= eta from everything kept so far.

    The stream is drawn `batch` candidates at a time and each batch is
    decided exactly as a one-candidate-at-a-time greedy would: candidates
    within eta of the packing kept before the batch are rejected at once,
    and the survivors are accepted or rejected in stream order against
    the points accepted earlier in the same batch (a matmul against earlier
    blocks, then a sequential greedy on a 512 x 512 closeness mask).

    A rejection streak counts consecutive rejected candidates across
    batches and restarts at every acceptance.  The stream stops at the
    candidate where the streak reaches `audit_samples`; points accepted
    later in that batch are dropped.  The packing is then audited with
    fresh samples, which must all have a kept point within eta; AuditFailed
    is raised if the packing was not yet maximal.
    """
    if not 0.0 < eta <= 2.0:
        raise ValueError("eta must be in (0, 2]")
    if d < 2:
        raise ValueError("d must be >= 2")
    gen = as_generator(rng)
    points = np.empty((0, d))
    streak = 0
    cos_cut = 1.0 - eta * eta / 2.0
    while streak < audit_samples:
        cand = uniform_sphere(gen, d, size=batch)
        survivors = np.flatnonzero(_max_cos(points, cand) <= cos_cut)
        taken = np.zeros(batch, dtype=bool)
        for lo in range(0, len(survivors), _CHUNK):
            block = survivors[lo:lo + _CHUNK]
            block = block[_max_cos(cand[taken], cand[block]) <= cos_cut]
            taken[block[_greedy_block(cand[block], cos_cut)]] = True
        pos = np.flatnonzero(taken)
        # rejections before each acceptance; the first run continues the
        # streak carried over from earlier batches
        runs = np.diff(pos, prepend=-1 - streak) - 1
        stop = np.flatnonzero(runs >= audit_samples)
        if len(stop):
            pos = pos[:stop[0]]
            streak = audit_samples
        else:
            streak = batch - 1 - pos[-1] if len(pos) else streak + batch
        points = np.concatenate((points, cand[pos]))
    # audit: fresh samples must all be within eta of the packing
    remaining = audit_samples
    while remaining > 0:
        take = min(remaining, 16384)
        probes = uniform_sphere(gen, d, size=take)
        worst = float(_max_cos(points, probes).min())
        if worst < cos_cut:
            dist = math.sqrt(max(2.0 - 2.0 * worst, 0.0))
            raise AuditFailed(
                f"audit point at distance {dist:.4f} > eta={eta}; "
                "increase the rejection streak"
            )
        remaining -= take
    return DenseSet(eta=float(eta), points=points, audited=True,
                    audit_samples=audit_samples)


def dense_set_with_retry(rng, eta: float, d: int, audit_samples: int = 100_000,
                         attempts: int = 4) -> DenseSet:
    """greedy_dense_set, quadrupling the rejection streak after audit failures."""
    gen = as_generator(rng)
    streak = audit_samples
    for _ in range(attempts - 1):
        try:
            return greedy_dense_set(gen, eta, d, audit_samples=streak)
        except AuditFailed:
            streak *= 4
    return greedy_dense_set(gen, eta, d, audit_samples=streak)


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
    return SmoothedInstance(
        abar=rows, bbar=bbar, sigma=float(sigma),
        A=A, b=b, c=np.asarray(c, float),
        a_draws=A - rows, b_draws=b - bbar,
    )


@dataclass
class SandwichResult:
    eta: float
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
        eta=float(eta),
        inner_radius=inner_radius,
        outer_radius=outer_radius,
        inner_ok=inner_radius >= 1.0 - 2.0 * eta,
        outer_ok=outer_ok,
    )


def polar_facet_diameter(inst, vertex_basis) -> float:
    """Max pairwise distance among the normalized rows a_i / b_i of a basis.

    Those points span the facet of the polar polytope that corresponds to
    the vertex; all basis rows must have b_i > 0.
    """
    indices = list(getattr(vertex_basis, "indices", vertex_basis))
    rhs = inst.b[indices]
    if rhs.min() <= 0.0:
        raise NonpositiveRhs(f"basis row with b = {rhs.min():.3e}")
    pts = inst.A[indices] / rhs[:, None]
    diam = 0.0
    for i in range(len(pts)):
        d2 = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        if len(d2):
            diam = max(diam, float(d2.max()))
    return diam


@dataclass
class DiameterRecord:
    d: int
    sigma: float
    eta: float
    n_rows: int
    n_dense: int
    outcome: str
    vertices: int = 0
    edges: int = 0
    bfs_hops: int = -1
    path_bound: float = float("nan")
    gamma: float = float("nan")         # max polar facet diameter, recentered
    radius: float = float("nan")        # max vertex distance from the recentering point
    bound_holds: Optional[bool] = None
    eta_event: float = float("nan")     # measured perturbation + density level
    event_holds: bool = False
    sandwich_inner_ok: Optional[bool] = None
    sandwich_outer_ok: Optional[bool] = None
    eta_star: float = float("nan")      # empirical sandwich level from radii
    gamma_origin: float = float("nan")  # max facet diameter in the origin description
    facet_bound_applicable: bool = False
    facet_bound_ok: Optional[bool] = None


def _max_facet_diameter(inst_like, graph: VertexGraph) -> float:
    gamma = 0.0
    for indices in graph.bases:
        gamma = max(gamma, polar_facet_diameter(inst_like, indices))
    return gamma


def diameter_experiment(rng, d: int, sigma: float, c: Optional[np.ndarray] = None,
                        eta: Optional[float] = None, n: Optional[int] = None,
                        pad: bool = True, audit_samples: int = 100_000,
                        guard: int = 10**6) -> DiameterRecord:
    """Build a near-ball instance and verify the measured diameter chain.

    Discovers the full 1-skeleton by pivoting from the c-optimal vertex,
    recenters the inequality description at the vertex centroid (so the
    polar is defined even when a perturbed b_i drops below zero), measures
    the enclosing radius R and the max polar facet diameter gamma, and
    checks that the BFS distance between the c-max and c-min vertices is at
    least (d-1) (2/(R gamma) - 2) -- an implication that holds run by run.
    """
    gen = as_generator(rng)
    if eta is None:
        if sigma <= 0:
            raise ValueError("eta must be given when sigma = 0")
        eta = sigma
    dense = dense_set_with_retry(gen, eta, d, audit_samples=audit_samples)
    if c is None:
        c = uniform_sphere(gen, d)
    if n is None and not pad:
        n = len(dense)
    inst = build_lb_instance(gen, dense, sigma, c=c, n=n)
    rec = DiameterRecord(
        d=d, sigma=sigma, eta=eta, n_rows=inst.n, n_dense=len(dense), outcome="pending",
    )
    # measured perturbation level; with it the density/perturbation
    # preconditions become checkable facts rather than probability events
    pert_a = float(np.linalg.norm(inst.a_draws, axis=1).max()) if inst.n else 0.0
    pert_b = float(np.abs(inst.b_draws).max()) if inst.n else 0.0
    rec.eta_event = max(eta, pert_a, pert_b)
    rec.event_holds = rec.eta_event <= 0.125

    outcome, _, _ = solve(gen, inst)
    if not isinstance(outcome, Optimal):
        rec.outcome = outcome.kind
        return rec
    rec.outcome = "optimal"

    graph = discover_vertex_graph(inst.A, inst.b, outcome.basis_indices, guard=guard)
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
