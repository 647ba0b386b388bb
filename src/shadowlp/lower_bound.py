"""Near-ball polytope construction and its diameter lower-bound checks.

Rows drawn densely from the unit sphere with right-hand side one give a
feasible region squeezed between two balls; the polar polytope then has
uniformly small facets, and small facets force long edge paths between a
linear objective's maximizer and minimizer.  The chain asserted here is
deterministic in the measured quantities: inner/outer radii, the maximum
polar facet diameter, and the BFS distance on the discovered 1-skeleton.

The dense set is a greedy eta-packing of streamed sphere points, stopped
once a streak of consecutive candidates is rejected and then audited with
fresh samples.  A packing that fails its audit is resumed, not rebuilt: its
points, cover table and streak carry over while the stream continues to a
4x longer streak (dense_set_with_retry).

Once the packing saturates, nearly every candidate lies deep inside some
kept point's eta-ball, so a covered-cell table (`_CoverTable`) rejects
those without normalizing them or comparing them with the packing.  The
table cuts the
sphere by the cube map: a direction g lands on the cube surface at
g / max|g_j|, on one of 2d faces, each split into G^(d-1) squares of side
2/G.  A cell counts as covered once a kept point p lies within
eta - r - 1e-9 of its centre c (the cell's cube centre scaled to unit
length), where r = sqrt(d-1)/G is the square's half-diagonal.  Radial
projection from the cube surface, where every point has norm >= 1, onto the
sphere is the nearest-point map onto the unit ball and so 1-Lipschitz:
every direction s in the cell has |s - c| <= r, hence |s - p| < eta - 1e-9
and s.p > 1 - eta^2/2 with a margin of about 1e-9 eta, far above the
rounding of the cell lookup and of the inner products.  A candidate in a
covered cell is therefore one the nearest-point test rejects too, and,
with the other candidates' near-cut inner products recomputed in the whole
batch's matmul shape (greedy_dense_set), the packing, the audit and the
random stream are the same bits as without the table.  G is the smallest grid with r <= eta/8, capped at the largest
with at most 2^14 cells and 2^18 voxels (the lookup indexes the G^d voxel
grid of the cube).  The table is off where it covers too little to pay for
itself: when G < 16, which is from d = 4 on (the budget allows G <= 12) and
for eta above about 0.53 sqrt(d-1) (packings of a few dozen points), and
when r > 3 eta / 4 (eta below about 0.036 at d = 3).

A saturated packing keeps nothing from almost every batch.  On criterion
7's packings (d = 3, eta = 0.25) about 0.8% of a batch lands outside
covered cells, so such a batch costs its Philox draw, the cell lookup (|g|
taken once into a (d, rows) buffer that then holds the grid coordinates)
and a (packing size) x (uncovered rows) matmul; when no inner product is
at or near the cut, the batch only lengthens the rejection streak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AuditFailed, NonpositiveRhs, TooFewRows
from .instance import LPInstance
from .oracle import VertexGraph, bfs_distance, discover_vertex_graph
from .rng import SmoothedInstance, as_generator, uniform_sphere, unit_rows
from .solver import Optimal, solve


@dataclass(frozen=True)
class DenseSet:
    """Greedy maximal eta-packing of the sphere; maximality makes it eta-dense."""

    eta: float
    points: np.ndarray  # (m, d) unit rows, pairwise distances >= eta
    audit_samples: int

    def __len__(self) -> int:
        return len(self.points)


# probes per matmul in _max_cos, and survivors per in-batch Gram block; keeps
# the temporaries at (packing size) x 512 and 512 x 512
_CHUNK = 512
_BATCH = 4096    # candidates greedy_dense_set draws and decides at a time
_ATTEMPTS = 4    # greedy_dense_set calls dense_set_with_retry makes at most


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
    close = cand @ cand.T > cos_cut
    keep = np.zeros(len(cand), dtype=bool)
    free = np.ones(len(cand), dtype=bool)
    while free.any():
        i = int(free.argmax())
        keep[i] = True
        free &= ~close[i]
        free[i] = False
    return keep


# the cover table's grid: cells with half-diagonal about eta / _ETA_PER_R,
# within budgets of cube-face cells (their centres are a d-column array) and
# of voxels of the G^d grid (the lookup table, one byte each).  Grids
# coarser than _MIN_GRID, or cells with r above _MAX_R_PER_ETA eta, cover
# too little of the sphere to pay for the lookup and for folding every kept
# point against every open cell.  Measured on budget grids: at d = 5 (G = 6)
# packings ran 16-25% slower (a saturated eta = 0.7 packing left 78% of
# candidates uncovered); at d = 4 (G = 12) from 15% faster (eta = 0.25,
# streak 100000) to 8% slower (eta = 0.15 and 0.2, streak 20000)
_ETA_PER_R = 8
_MAX_CELLS = 1 << 14
_MAX_VOXELS = 1 << 18
_MIN_GRID = 16
_MAX_R_PER_ETA = 0.75
# rows whose largest |entry| is below this may have a norm that underflows
# to zero, which unit_rows redraws; such a batch skips the table
_TINY = 1e-150
# a matmul's last bit depends on its shape (a one-probe product takes
# another BLAS kernel, and the column's place in a block matters), so
# _max_cos of the uncovered rows alone can differ by an ulp from the whole
# batch's; values this close to the cut are taken in the whole batch's
# 512-row chunk instead
_NEAR_CUT = 1e-12


def _cover_grid(d: int, eta: float) -> int:
    """The cover table's grid G: the smallest with r = sqrt(d-1)/G at most
    eta / _ETA_PER_R, or the largest within budget; 0 (no table) when G is
    below _MIN_GRID or r above _MAX_R_PER_ETA eta."""
    grid = 1
    while (2 * d * (grid + 1) ** (d - 1) <= _MAX_CELLS
           and (grid + 1) ** d <= _MAX_VOXELS):
        grid += 1
    grid = min(grid, math.ceil(_ETA_PER_R * math.sqrt(d - 1) / eta))
    r = math.sqrt(d - 1) / grid
    return grid if grid >= _MIN_GRID and r <= _MAX_R_PER_ETA * eta else 0


class _CoverTable:
    """Cube-map cells of S^(d-1) that lie within eta of the packing.

    A face cell is (axis f, sign, the other axes' grid indices); its voxel
    is the G^d grid cell with index G-1 (sign +) or 0 (sign -) on axis f.
    A voxel can hold cells of several faces (along cube edges), so the
    lookup table counts each voxel's cells not yet covered and a direction
    counts as covered when its voxel's count is zero.  That needs no face
    choice per row: the voxel of g / max|g_j| is the voxel of a face cell
    holding it.  Only the open cells' centres and voxels are kept.
    """

    def __init__(self, d: int, grid: int, eta: float):
        r = math.sqrt(d - 1) / grid
        self.grid = grid
        # p.c above this puts p within eta - r - 1e-9 of c; the 1e-12 is
        # far above the rounding of p.c and of |p|, |c| = 1
        self.cut = 1.0 - (eta - r - 1e-9) ** 2 / 2.0 + 1e-12
        place = grid ** np.arange(d)
        self.weights = place.astype(float)
        inner = np.indices((grid,) * (d - 1)).reshape(d - 1, -1).T
        ticks = -1.0 + (2.0 * inner + 1.0) / grid
        n = len(inner)
        self.centres = np.empty((2 * d * n, d))
        self.voxel = np.empty(2 * d * n, dtype=np.intp)
        faces = [(f, s) for f in range(d) for s in (1.0, -1.0)]
        for lo, (f, s) in zip(range(0, 2 * d * n, n), faces):
            other = np.arange(d) != f
            self.centres[lo:lo + n, f] = s
            self.centres[lo:lo + n, other] = ticks
            side = grid - 1 if s > 0 else 0
            self.voxel[lo:lo + n] = inner @ place[other] + side * place[f]
        self.centres /= np.linalg.norm(self.centres, axis=1, keepdims=True)
        self.open_count = np.zeros(grid ** d, dtype=np.int8)
        np.add.at(self.open_count, self.voxel, np.int8(1))
        # interior voxels hold no cells and no direction lands in them
        self.open_count[self.open_count == 0] = 1

    def uncovered(self, g: np.ndarray) -> Optional[np.ndarray]:
        """Positions of the rows of g (raw normals) outside covered cells;
        None (every row) when a row is so short its norm may underflow."""
        n, d = g.shape
        # |g| once, one contiguous row per axis; the same buffer then holds
        # the grid coordinates
        k = np.abs(g.T, out=np.empty((d, n)))
        top = np.maximum(k[0], k[1])
        for j in range(2, d):
            np.maximum(top, k[j], out=top)
        if top.min() < _TINY:
            return None
        # grid coordinates (g / top + 1) G / 2 in [0, G]; a rounding just
        # below 0 truncates to 0 like a floor
        half = self.grid / 2.0
        np.divide(half, top, out=top)
        np.multiply(g.T, top, out=k)
        k += half
        np.trunc(k, out=k)
        np.minimum(k, self.grid - 1, out=k)
        voxel = (self.weights @ k).astype(np.intp)
        return self.open_count[voxel].nonzero()[0]

    def fold(self, points: np.ndarray) -> None:
        """Mark the open cells within eta - r - 1e-9 of `points` covered."""
        hit = _max_cos(points, self.centres) > self.cut
        np.subtract.at(self.open_count, self.voxel[hit], np.int8(1))
        self.centres = self.centres[~hit]
        self.voxel = self.voxel[~hit]


def _draw(gen, d: int, size: int, table: Optional[_CoverTable]):
    """Draw `size` sphere points' normals as uniform_sphere does.

    Returns the raw normals, the positions of the rows outside covered
    cells (None for every row, as without a table), and those rows scaled
    to unit length with the bits uniform_sphere gives them (in g itself
    when every row is kept).
    """
    g = gen.standard_normal((size, d))
    rows = None if table is None else table.uncovered(g)
    return g, rows, unit_rows(gen, g if rows is None else g.take(rows, axis=0))


class _Packing:
    """A greedy packing's progress: its kept points, its cover table (None
    until a batch accepts a point, or when the grid rule leaves it off) and
    its rejection streak.  dense_set_with_retry carries one across attempts."""

    def __init__(self, d: int):
        self.points = np.empty((0, d))
        self.table: Optional[_CoverTable] = None
        self.streak = 0


def greedy_dense_set(rng, eta: float, d: int, audit_samples: int = 100_000,
                     *, _packing: Optional[_Packing] = None) -> DenseSet:
    """Stream sphere points, keeping those >= eta from everything kept so far.

    The stream is drawn _BATCH candidates at a time and each batch is
    decided exactly as a one-candidate-at-a-time greedy would: candidates
    within eta of the packing kept before the batch are rejected at once,
    and the survivors are accepted or rejected in stream order against
    the points accepted earlier in the same batch (a matmul against earlier
    blocks, then a sequential greedy on a 512 x 512 closeness mask).

    The first rejection needs no inner products for candidates in a
    covered cell of the cover table (module docstring): a cell is covered
    once a kept point lies within eta - r - 1e-9 of its centre, r being the
    cell's half-diagonal, so every direction in it is within eta - 1e-9 of
    that point and the nearest-point test rejects it too.  Only the other
    candidates are normalized and compared with the packing, in smaller
    matmuls whose last bit can differ from the whole batch's; an inner
    product within 1e-12 of the cut is recomputed in the whole batch's
    512-row chunk, and so is an audit chunk's minimum.  The table
    grows by the points each batch accepts; its grid G is the smallest with
    r = sqrt(d-1)/G <= eta/8, capped at the largest with 2d G^(d-1) <= 2^14
    cells and G^d <= 2^18 voxels, and it is off when G < 16 or r > 3 eta/4.
    A batch with a row whose largest |entry| is below 1e-150 bypasses it,
    so uniform_sphere's redraw of a zero-norm row (its squares can
    underflow) happens on the same draws.

    A rejection streak counts consecutive rejected candidates across
    batches and restarts at every acceptance.  The stream stops at the
    candidate where the streak reaches `audit_samples`, which is the streak
    it stops with; points accepted later in that batch are dropped.  The
    packing is then audited with fresh samples, which must all have a kept
    point within eta; AuditFailed is raised if the packing was not yet
    maximal, with the distance of the worst probe in the failing chunk of
    16384.  Draws, packing, message and the generator's state afterwards do
    not depend on the table.

    `_packing` is dense_set_with_retry's resume state: the call starts from
    its points, table and streak instead of an empty packing, and leaves in
    it what the stream stopped with, before the audit.  Called without it,
    the packing starts empty with a streak of zero.
    """
    if not 0.0 < eta <= 2.0:
        raise ValueError("eta must be in (0, 2]")
    if d < 2:
        raise ValueError("d must be >= 2")
    if audit_samples < 1:
        raise ValueError("audit_samples must be >= 1")
    gen = as_generator(rng)
    grid = _cover_grid(d, eta)
    packing = _Packing(d) if _packing is None else _packing
    points, table, streak = packing.points, packing.table, packing.streak
    cos_cut = 1.0 - eta * eta / 2.0
    while streak < audit_samples:
        g, rows, cand = _draw(gen, d, _BATCH, table)
        best = _max_cos(points, cand)
        if not len(best) or best.min() - cos_cut >= _NEAR_CUT:
            # every candidate is rejected, and none near enough to the cut
            # to be recomputed: the batch only lengthens the streak
            streak = min(streak + _BATCH, audit_samples)
            continue
        if rows is not None:  # see _NEAR_CUT
            for i in np.flatnonzero(np.abs(best - cos_cut) < _NEAR_CUT):
                lo = rows[i] - rows[i] % _CHUNK
                chunk = unit_rows(gen, g[lo:lo + _CHUNK].copy())
                best[i] = _max_cos(points, chunk)[rows[i] - lo]
        survivors = np.flatnonzero(best <= cos_cut)
        taken = np.zeros(len(cand), dtype=bool)
        for lo in range(0, len(survivors), _CHUNK):
            block = survivors[lo:lo + _CHUNK]
            block = block[_max_cos(cand[taken], cand[block]) <= cos_cut]
            taken[block[_greedy_block(cand[block], cos_cut)]] = True
        acc = np.flatnonzero(taken)
        pos = acc if rows is None else rows[acc]
        # rejections before each acceptance; the first run continues the
        # streak carried over from earlier batches
        runs = np.diff(pos, prepend=-1 - streak) - 1
        stop = np.flatnonzero(runs >= audit_samples)
        if len(stop):
            acc = acc[:stop[0]]
            streak = audit_samples
        else:
            # the stream stops where the trailing run reaches audit_samples
            run = _BATCH - 1 - pos[-1] if len(pos) else streak + _BATCH
            streak = min(run, audit_samples)
        points = np.concatenate((points, cand[acc]))
        if grid and len(acc):
            if table is None:
                # built after the first batch, whose 512 x 512 Gram blocks
                # are the packing's peak memory
                table = _CoverTable(d, grid, eta)
            table.fold(cand[acc])
    packing.points, packing.table, packing.streak = points, table, streak
    # audit: fresh samples must all be within eta of the packing
    remaining = audit_samples
    while remaining > 0:
        take = min(remaining, 16384)
        g, rows, probes = _draw(gen, d, take, table)
        worst = _max_cos(points, probes).min(initial=np.inf)
        if rows is not None and worst < cos_cut + _NEAR_CUT:
            # covered probes are far above the cut, so this is the chunk's
            # minimum up to the last bit; take it over every probe
            worst = _max_cos(points, unit_rows(gen, g)).min()
        if worst < cos_cut:
            dist = math.sqrt(max(2.0 - 2.0 * float(worst), 0.0))
            raise AuditFailed(
                f"audit point at distance {dist:.4f} > eta={eta}; "
                "increase the rejection streak"
            )
        remaining -= take
    return DenseSet(eta=float(eta), points=points, audit_samples=audit_samples)


def dense_set_with_retry(rng, eta: float, d: int, audit_samples: int = 100_000) -> DenseSet:
    """greedy_dense_set, resumed with a 4x longer streak after audit failures.

    Each of at most _ATTEMPTS greedy_dense_set calls continues the packing
    the previous one left when its audit failed: the kept points, the cover
    table and the rejection streak carry over, new candidates stream (drawn
    after the failed audit's samples) until the streak reaches the
    quadrupled target, and the packing is audited again with fresh samples.
    A run whose first audit passes draws exactly what greedy_dense_set does.
    """
    if audit_samples < 1:
        raise ValueError("audit_samples must be >= 1")
    gen = as_generator(rng)
    packing = _Packing(d)
    streak = audit_samples
    for _ in range(_ATTEMPTS - 1):
        try:
            return greedy_dense_set(gen, eta, d, audit_samples=streak, _packing=packing)
        except AuditFailed:
            streak *= 4
    return greedy_dense_set(gen, eta, d, audit_samples=streak, _packing=packing)


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


def polar_facet_diameter(inst, vertex_basis) -> float:
    """Max pairwise distance among the normalized rows a_i / b_i of a basis.

    Those points span the facet of the polar polytope that corresponds to
    the vertex; all basis rows must have b_i > 0.
    """
    return _facet_diameter(inst, [getattr(vertex_basis, "indices", vertex_basis)])


def _facet_diameter(inst, bases) -> float:
    """The largest polar_facet_diameter over `bases` (equal-length index
    sequences), in one array step; NonpositiveRhs names the first basis
    with a row of b_i <= 0."""
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


def diameter_experiment(rng, d: int, sigma: float, eta: Optional[float] = None,
                        n: Optional[int] = None, pad: bool = True,
                        audit_samples: int = 100_000) -> DiameterRecord:
    """Build a near-ball instance and verify the measured diameter chain.

    Draws a uniform objective c on the sphere, discovers the full 1-skeleton
    by pivoting from the c-optimal vertex, recenters the inequality
    description at the vertex centroid (so the polar is defined even when a
    perturbed b_i drops below zero), measures the enclosing radius R and the
    max polar facet diameter gamma, and checks that the BFS distance between
    the c-max and c-min vertices is at least (d-1) (2/(R gamma) - 2) -- an
    implication that holds run by run.
    """
    gen = as_generator(rng)
    if eta is None:
        if sigma <= 0:
            raise ValueError("eta must be given when sigma = 0")
        eta = sigma
    dense = dense_set_with_retry(gen, eta, d, audit_samples=audit_samples)
    c = uniform_sphere(gen, d)
    if n is None and not pad:
        n = len(dense)
    inst = build_lb_instance(gen, dense, sigma, c=c, n=n)
    rec = DiameterRecord(
        d=d, sigma=sigma, eta=eta, n_rows=inst.n, n_dense=len(dense), outcome="pending",
    )
    # measured perturbation level; with it the density/perturbation
    # preconditions become checkable facts rather than probability events
    pert_a = float(np.linalg.norm(inst.a_draws, axis=1).max())
    pert_b = float(np.abs(inst.b_draws).max())
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
