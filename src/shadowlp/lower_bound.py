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

Where more than 512 points take part, a product of the fill (a level's
centres against the packing, a block of candidates against the points kept
before it, the open cells against a level's new points) compares each
centre only with the points that can reach it.  The centres are sorted
along a Z-order curve into the aligned cubes of one side that tile
[-1, 1]^d, so that each cube's centres are a run of that order; the side
balances one test per cube and point against the products left.  Let m be
a cube's centre and rho half its diagonal, so every centre c in it has
|c - m| <= rho.  A kept point p with |p - m| > rho + eta + 1e-6 has, by the
triangle inequality, |p - c| > eta + 1e-6 for every such c, so
p.c < 1 - eta^2/2 - 1e-6 eta: below the greedy test's cut, and so below the
cover test's, which lies above it.  Such a p can neither block a centre of
the cube nor cover its cell, and leaving it out changes no decision.  The
test reads p.m < (1 + m.m - (rho + eta + 1e-6)^2) / 2 for a unit p; the
1e-6 margin is far above the rounding of that sum, of the inner products
and of the cube a centre is sorted into.  At eta = 2 no point is left out.
So the packings are the same bit for bit whichever points a product skips.

At eta = 2 the first kept centre's antipode is also a cell centre, exactly
eta from it, and the greedy test keeps it only when their inner product
rounds to -1 or below.  Where it does, the two points cover every other
cell; where it does not, the cells around the antipode stay open until the
open-cell cap and UncoveredCell names eta = 2.

Vertex discovery (_discover) walks only the rows that can touch the
polytope P.  Let dist_i = b_i / ||a_i||, the distance of row i's hyperplane
from the origin, S the rows with dist_i < r, and P_S, which contains P, the
region of the rows in S.  A try walks P_S from the optimal basis, whose rows
are tight at the optimum x* and so have dist_i <= ||x*|| (the try checks that
they are in S), and stops at the first unbounded edge and at the first
vertex of norm r - 2e-9 / min_i ||a_i|| - 1e-12 r or more.  At a vertex y
below that norm, every row i outside S has slack
b_i - a_i.y >= ||a_i|| (dist_i - ||y||) > 2e-9: twice discovery's
degeneracy cut, far above the rounding of the slack.  A try that stops at
neither thus meets only such vertices.  Along the edge from one of them to
the next, the slack of a row outside S is affine and above 2e-9 at both
ends, so the row blocks only beyond the next vertex and never wins a ratio
test over every row; nor is it within the degeneracy cut at any vertex.
The walk over S then makes every choice of the walk over every row, and
gives the same bases, points and adjacency, its row numbers mapped back
through S.  (P_S is then a polytope in the open ball of radius r, on which
every row outside S holds strictly, so P_S = P.)  The one gap is rounding:
a product over the rows of S may differ in the last bit from the same rows
of a product over every row, so an exact tie could break another way; the
tests compare the graphs with the full walk's.

The first radius is the larger of 1.02 ||x*|| and the 160th-smallest
distance.  A try that meets a vertex of norm v grows r to 1.02 max(r, v).
An unbounded edge, a start row outside S, an S of half the rows or more, or
a zero row (min_i ||a_i|| = 0) walks every row instead.  The factor is
small because the vertices' norms spread with sigma: at d = 3 the largest
is 1.001-1.007 times ||x*|| at sigma = 0.02, 1.02-1.05 times at 0.05 and
1.08-1.27 times at 0.25, where the 160 rows decide.  A factor of 1.05 would
keep 240,000-340,000 of the 8 million rows of a padded sigma = 0.02 run,
and 1.02 keeps 15,000-25,000; at sigma = 0.05 both keep a few thousand.

The LP solve (_solve) runs on a row set S too, first the rows nearer the
origin than the 160th-smallest distance, and solves each S-LP with solve,
with the run's sigma, since solve sizes its artificial noise by it.  When
every row of S has b_i > 0, the origin satisfies each strictly
(a_i.0 = 0 < b_i) and so lies inside P_S: solve then climbs from it to a
vertex and walks phase 3 alone, drawing nothing (solver module docstring).
On criterion 7's runs the climb takes about 45 us and the walk 0-2 pivots,
where the three phases took 0.7-1.0 ms.  Any other S, or a climb that
finds no vertex, takes solve's three phases; only solve's phase 2 can
prove such an S-LP infeasible.  As P is in P_S, an S-LP that is
infeasible proves P empty, and its Farkas certificate, zero outside S, is
one for P.  An S-LP optimum x_S at basis B counts only when
  (1) every row outside B, over all n rows, has slack b_i - a_i.x_S above
      2e-9, twice discovery's degeneracy cut, and
  (2) every multiplier mu of c = A_B^T mu is above TOL_OPT max(1, ||c||).
By (1) x_S lies in P.  By (2), c.y = mu.(A_B y) <= mu.b_B = c.x_S on P_S,
with equality only where A_B y = b_B, that is at x_S: so x_S is P's only
optimal vertex, and by (1) B, the only rows tight there, its only basis.
Neither condition asks more of S than that it hold B, or of the answer than
that B be a basis of S, however it was found.  So a try that fails (1)
adds to S exactly the rows it names, those outside B with slack at most
2e-9 at x_S, and tries again, as Clarkson's constraint-sampling LP
algorithm does.  A try that meets (1) but not (2) has found an optimum of
P that a larger S leaves as it is, with a multiplier too small to rule out
a tie, so it solves every row instead, as do a try that adds no row, an
unbounded S-LP, any ShadowLpError and an S of half the rows or more.  That
solve starts from the generator state the first try began at, and so draws
what a solve on every row alone draws; the solve is the run's last draw,
so which path answered changes no later value.  The answer keeps x's bits:
the three phases and the climbed walk both end in phase 3, which gives x
as make_basis's A_B^{-1} b_B, over the rows of B
in sorted order, and S keeps the row order (the rows added are merged in),
so the S-LP's basis gathers to the same d x d matrix and right-hand side
as B does from every row (the power-of-two rescale that solve may apply to
either row set scales that system exactly).  As for discovery, the tests
compare the answers with a solve on every row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import _pairs
from .errors import NonpositiveRhs, ShadowLpError, TooFewRows, UncoveredCell
from .oracle import (_DEGENERATE_SLACK, VertexGraph, _LeftBall, bfs_distance,
                     discover_vertex_graph)
from .rng import SmoothedInstance, _squared_norms, as_generator, uniform_sphere, unit_rows
from .simplex import TOL_OPT
from .solver import Infeasible, Optimal, SolveOutcome, solve


@dataclass(frozen=True)
class DenseSet:
    """Greedy eta-packing of the sphere, proven eta-dense by cell refinement."""

    eta: float
    points: np.ndarray  # (m, d) unit rows, pairwise distances >= eta

    def __len__(self) -> int:
        return len(self.points)


# survivors per Gram block in _accept: a block's Gram grows as its square, and
# each block also costs a product against the rows kept before it
_CHUNK = 384
# the cover test's distance margin, the half-diagonal below which cells are
# not split (there the margin outweighs r), the open cells a level may hold,
# and the cells the fill builds at a time
_MARGIN = 1e-9
_MIN_R = 1e-9
_MAX_OPEN = 1 << 20
_CELLS = 1 << 15
# _max_cos: the packing size up to which every probe meets every point, the
# inner products per matmul there, the reach test's distance margin, and the
# cost of a cube's Python step in _near_max_cos, in inner products
_ROWS = 512
_PAIRS = 1 << 18
_REACH_MARGIN = 1e-6
_CUBE = 10_000
# the solve's and discovery's rows (module docstring): the solve first takes
# the rows below the _FLOOR-th smallest row distance; discovery's first radius
# is the larger of that distance and _GROW times the optimum's norm, and a
# try that meets a vertex at the radius grows it to _GROW times that norm
_GROW = 1.02
_FLOOR = 160
# the rows that _perturb draws, and that the n-vector passes of a lower-bound
# run take, at a time
_BLOCK = 1 << 16


def _max_cos(points: np.ndarray, probes: np.ndarray, cut: float) -> np.ndarray:
    """For each probe, its largest inner product with a row of `points`
    where that exceeds `cut`, and a value at most `cut` elsewhere (-inf
    where no row is compared with it).

    For unit vectors ||x - s||^2 = 2 - 2 x.s, so this is the nearest-point
    test at distance sqrt(2 - 2 cut).  Past _ROWS rows a probe meets only
    the rows near it (_near_max_cos).
    """
    if len(points) > _ROWS:
        return _near_max_cos(points, probes, cut)
    return _every_max_cos(points, probes)


def _every_max_cos(points: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Each probe's largest inner product with every row of `points`, in
    matmuls of _PAIRS // len(points) probes; -inf where `points` is empty."""
    if not len(points):
        return np.full(len(probes), -np.inf)
    step = max(1, _PAIRS // len(points))
    if len(probes) <= step:
        return (points @ probes.T).max(axis=0)
    out = np.empty(len(probes))
    for lo in range(0, len(probes), step):
        out[lo:lo + step] = (points @ probes[lo:lo + step].T).max(axis=0)
    return out


def _near_max_cos(points: np.ndarray, probes: np.ndarray, cut: float) -> np.ndarray:
    """_max_cos with the probes sorted into small cubes, where the probes of
    a cube meet only the unit rows that can reach one of them (module
    docstring)."""
    chord = math.sqrt(2.0 - 2.0 * cut)
    order, start, centre, radius = _cubes(probes, len(points), chord)
    reach = radius + chord + _REACH_MARGIN
    # ||p - m||^2 = 1 + m.m - 2 p.m > reach^2 rules the row p out
    floor = (1.0 + np.add.reduce(centre * centre, axis=1) - reach * reach) / 2.0
    near = centre @ points.T >= floor[:, None]
    end = np.append(start[1:], len(probes))
    out = np.full(len(probes), -np.inf)
    for j in np.flatnonzero(near.any(axis=1)).tolist():
        run = order[start[j]:end[j]]
        out[run] = _every_max_cos(points[near[j]], probes[run])
    return out


@functools.lru_cache(maxsize=4)
def _spread(d: int, bits: int) -> np.ndarray:
    """Read-only table of v -> v's low `bits` bits spread d places apart."""
    v = np.arange(1 << bits)
    out = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        out |= ((v >> b) & 1) << (b * d)
    out.flags.writeable = False
    return out


def _cubes(probes: np.ndarray, rows: int,
           chord: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The probes sorted into the aligned cubes of one side that tile
    [-1, 1]^d.

    Returns `order`, which lists the probes along a Z-order curve, so that
    the probes of a cube are a run of it; `start`, where the run of each
    cube that holds a probe begins; `centre`, those cubes' centres; and
    `radius`, half their diagonal.  The side is the power of two that
    minimizes the estimated work of _near_max_cos with `rows` rows at
    distance `chord`: a reach test and a Python step per cube, and for each
    probe the rows in a cap of chordal radius radius + chord, about a share
    ((radius + chord) / 2)^(d-1) of the sphere.
    """
    d = probes.shape[1]
    bits = min(8, 63 // d)
    scale = 1 << (bits - 1)
    q = ((probes + 1.0) * scale).astype(np.intp)
    np.clip(q, 0, 2 * scale - 1, out=q)
    spread = _spread(d, bits)
    code = spread[q[:, 0]]
    for c in range(1, d):
        code |= spread[q[:, c]] << c
    order = np.argsort(code)
    code = code[order]
    # a cube of side 2^t bins begins where a code differs from the one
    # before it in bit t of some axis or higher
    top = (np.frexp((code[1:] ^ code[:-1]).astype(float))[1] - 1) // d

    def work(t: int) -> float:
        cap = min(1.0, ((1 << t) / scale * math.sqrt(d) / 2.0 + chord) / 2.0)
        cubes = 1 + np.count_nonzero(top >= t)
        return (rows + _CUBE) * cubes + rows * len(probes) * cap ** (d - 1)

    t = min(range(bits + 1), key=work)
    start = np.concatenate(([0], np.flatnonzero(top >= t) + 1))
    corner = (q[order[start]] >> t) << t
    centre = (corner + (1 << t) / 2.0) / scale - 1.0
    return order, start, centre, (1 << t) / scale * math.sqrt(d) / 2.0


def _greedy_block(cand: np.ndarray, cos_cut: float) -> np.ndarray:
    """Mask of the rows a sequential greedy keeps: each row closer than the
    cut to an earlier kept row is dropped, in row order."""
    keep = np.zeros(len(cand), dtype=bool)
    if not len(cand):
        return keep
    # a gemm on a transposed copy; cand @ cand.T would take the slower syrk
    far = cand @ np.ascontiguousarray(cand.T) <= cos_cut
    free = np.ones(len(cand), dtype=bool)
    i = 0
    while free[i]:
        keep[i] = True
        free &= far[i]
        free[i] = False
        i = free.argmax()
    return keep


def _accept(cand: np.ndarray, best: np.ndarray, cos_cut: float) -> np.ndarray:
    """Positions of the rows of `cand` that a one-at-a-time greedy keeps, in
    row order.

    `best` holds each row's largest inner product with the packing kept
    before `cand`, or a value at most cos_cut where that is; a row is kept
    when that and its inner products with the rows of `cand` kept before it
    are at most cos_cut.  The survivors of `best` are decided _CHUNK at a
    time: a product against the rows kept in earlier blocks, then a
    sequential greedy on the block's closeness mask.
    """
    survivors = (best <= cos_cut).nonzero()[0]
    taken = np.zeros(len(cand), dtype=bool)
    for lo in range(0, len(survivors), _CHUNK):
        block = survivors[lo:lo + _CHUNK]
        if lo:
            block = block[_max_cos(cand[taken], cand[block], cos_cut) <= cos_cut]
        taken[block[_greedy_block(cand[block], cos_cut)]] = True
    return taken.nonzero()[0]


@functools.lru_cache(maxsize=4)
def _offsets(d: int, k: int) -> np.ndarray:
    """Read-only (d, k^(d-1), d) table: row j of slice a is child j's
    offset from its parent's centre, in half sides, for a cell of face axis
    a (np.indices order over the other axes, taken cyclically from a + 1)."""
    step = np.indices((k,) * (d - 1)).reshape(d - 1, -1).T
    table = np.zeros((d, k ** (d - 1), d))
    for a in range(d):
        table[a][:, (a + np.arange(1, d)) % d] = 2.0 * step + 1.0 - k
    table.flags.writeable = False
    return table


def _split(cube: np.ndarray, axis: np.ndarray, half: float, k: int,
           lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells lo..hi-1 of the split of every cell in `cube` into k^(d-1)
    cells of half side `half`: their centres on the cube surface and their
    face axes.  Cell i's children are numbered i k^(d-1) on, in np.indices
    order over the face's other axes, taken cyclically from axis + 1."""
    d = cube.shape[1]
    per = k ** (d - 1)
    # every child of the parents that cells lo..hi-1 come from
    first, skip = divmod(lo, per)
    ax = axis[first:-(-hi // per)]
    child = (cube[first:first + len(ax), None] + _offsets(d, k)[ax] * half).reshape(-1, d)
    return child[skip:skip + hi - lo], np.repeat(ax, per)[skip:skip + hi - lo]


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
            unit = child / np.sqrt(_squared_norms(child))[:, None]
            best = _max_cos(points, unit, cos_cut)
            live = (best <= cover_cut).nonzero()[0]
            new = unit[live[_accept(unit[live], best[live], cos_cut)]]
            if len(new):
                points = np.concatenate((points, new))
                live = live[_max_cos(new, unit[live], cos_cut) <= cover_cut]
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
                      n: Optional[int] = None) -> tuple[SmoothedInstance, float]:
    """Rows = dense sphere points (padded to n with fresh sphere points),
    right-hand side one, both sides perturbed with sigma; returns the
    instance and the measured perturbation, the larger of
    max_i ||a_i - s_i|| and max_i |b_i - 1| over the unperturbed rows s_i.

    The padding keeps every row a unit sphere point, so the augmented row
    set is still eta-dense.  n defaults to floor((4/sigma)^d) when sigma > 0.
    Note the combined rows (s_i, 1) have norm sqrt(2); all downstream
    measurements are invariant under row scaling so the description is kept
    unscaled.  A and b are perturbed in place (_perturb), so the build holds
    no n x d array but A.
    """
    gen = as_generator(rng)
    d = dense.points.shape[1]
    if n is None:
        n = default_row_count(sigma, d) if sigma > 0 else len(dense)
    if n < len(dense):
        raise TooFewRows(f"n={n} smaller than the dense set ({len(dense)})")
    A = np.empty((n, d))
    A[:len(dense)] = dense.points
    if n > len(dense):
        # uniform_sphere's draws, made in A itself
        unit_rows(gen, gen.standard_normal(out=A[len(dense):]))
    b = np.ones(n)
    moved = 0.0
    if sigma > 0:  # A's noise, then b's
        moved = max(_perturb(gen, A, sigma), _perturb(gen, b[:, None], sigma))
    if c is None:
        c = np.zeros(d)
        c[0] = 1.0
    return SmoothedInstance(A=A, b=b, c=c, sigma=float(sigma)), moved


def _perturb(gen: np.random.Generator, x: np.ndarray, sigma: float) -> float:
    """Add sigma times standard normals drawn from `gen` to the rows of x in
    place, _BLOCK rows at a time, and return the largest row norm of the
    change x_new - x_old.

    The draws are those of one gen.standard_normal(x.shape) call, and each
    row is x_old + sigma * noise as one whole-array expression forms it.
    The change is measured as x_old - x_new, its exact negation.  For a
    one-column x such as b[:, None] that is max |x_new - x_old| exactly: the
    square root of a double's rounded square is its magnitude where the
    square neither under- nor overflows, as where x_old = 1.
    """
    sq = 0.0
    for lo in range(0, len(x), _BLOCK):
        rows = x[lo:lo + _BLOCK]
        new = gen.standard_normal(rows.shape)
        new *= sigma
        new += rows
        rows -= new
        sq = max(sq, _squared_norms(rows).max())
        rows[...] = new
    return math.sqrt(sq)


def _kth_smallest(x: np.ndarray, k: int) -> float:
    """np.partition(x, k)[k] without a copy of x: the k-th smallest of the
    k + 1 smallest of each _BLOCK slice, among which are x's k + 1 smallest;
    the value is one of x's own, so its bits are the same.  Each slice's
    k + 1 are copied out, so that its partitioned copy is freed at once."""
    least = [np.partition(x[lo:lo + _BLOCK], k)[:k + 1].copy() if len(x) - lo > k + 1
             else x[lo:lo + _BLOCK] for lo in range(0, len(x), _BLOCK)]
    return float(np.partition(np.concatenate(least), k)[k])


@dataclass
class SandwichResult:
    inner_radius: float  # min_i b_i / ||a_i||
    outer_radius: Optional[float]  # max vertex norm, when vertices given
    inner_ok: bool
    outer_ok: Optional[bool]


def sandwich_check(inst, eta: float, vertices: Optional[np.ndarray] = None,
                   dist: Optional[np.ndarray] = None) -> SandwichResult:
    """Check (1-2eta) B subset P subset (1+4eta) B directly.

    Inner containment holds iff every halfspace sits at distance >= 1-2eta
    from the origin; outer containment iff every vertex (caller-supplied,
    typically from graph discovery) has norm <= 1+4eta.  `dist` is each
    row's distance b_i / ||a_i|| when the caller has it.
    """
    if dist is None:
        dist = inst.b / np.sqrt(_squared_norms(inst.A))
    inner_radius = float(dist.min())
    outer_radius = None
    outer_ok = None
    if vertices is not None and len(vertices):
        outer_radius = math.sqrt(_squared_norms(vertices).max())
        outer_ok = outer_radius <= 1.0 + 4.0 * eta
    return SandwichResult(
        inner_radius=inner_radius,
        outer_radius=outer_radius,
        inner_ok=inner_radius >= 1.0 - 2.0 * eta,
        outer_ok=outer_ok,
    )


def _facet_diameter(A: np.ndarray, b: np.ndarray, bases) -> float:
    """The largest polar facet diameter of {A x <= b} over `bases`
    (equal-length index sequences) in one array step: a basis's rows
    a_i / b_i span its vertex's polar facet, whose diameter is their largest
    pairwise distance.  NonpositiveRhs names the first basis with a row of
    b_i <= 0."""
    idx = np.array(bases, dtype=np.intp)
    rhs = b[idx]
    low = rhs.min(axis=1)
    bad = (low <= 0.0).nonzero()[0]
    if len(bad):
        raise NonpositiveRhs(f"basis row with b = {low[bad[0]]:.3e}")
    pts = A[idx] / rhs[:, :, None]
    # p_j - p_i for every pair i < j of each basis
    first, second = _pairs(idx.shape[1])
    diff = pts[:, second] - pts[:, first]
    # the square root of the largest square: sqrt rounds monotonically
    return math.sqrt(_squared_norms(diff).max(initial=0.0))


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


def _max_facet_diameter(A: np.ndarray, b: np.ndarray, graph: VertexGraph) -> float:
    return _facet_diameter(A, b, graph.bases)


def _solve(gen: np.random.Generator, inst: SmoothedInstance, dist: np.ndarray,
           floor: float) -> SolveOutcome:
    """solve(gen, inst)'s outcome, from an LP on the rows whose distance
    `dist` is below `floor`, grown by the rows that cut its optimum until
    that is certified, or from solve(gen, inst) itself with `gen` restored
    to its state on entry (module docstring).  A try whose rows all have
    b_i > 0 is answered by solve's climb, which draws nothing; a three-phase
    solve on the other row sets draws a different number of values from
    `gen` than a solve on every row."""
    state = gen.bit_generator.state
    margin = TOL_OPT * max(1.0, float(np.linalg.norm(inst.c)))
    rows = (dist < floor).nonzero()[0]
    while 2 * len(rows) < inst.n:
        part = SmoothedInstance(A=inst.A.take(rows, axis=0), b=inst.b.take(rows), c=inst.c,
                                sigma=inst.sigma)
        try:
            outcome = solve(gen, part)[0]
        except ShadowLpError:
            break
        if isinstance(outcome, Infeasible):  # P is in P_S
            y = np.zeros(inst.n)
            y[rows] = outcome.certificate
            return Infeasible(certificate=y)
        if not isinstance(outcome, Optimal):
            break
        basis = rows[list(outcome.basis_indices)]
        cut = _cut_rows(inst.A, inst.b, outcome.x, basis)
        if not len(cut):
            if np.linalg.solve(inst.A[basis].T, inst.c).min() <= margin:
                break  # a tie that no larger S breaks
            return Optimal(basis_indices=tuple(basis.tolist()), x=outcome.x)
        grown = np.union1d(rows, cut)
        if len(grown) == len(rows):
            break
        rows = grown
    gen.bit_generator.state = state
    return solve(gen, inst)[0]


def _cut_rows(A: np.ndarray, b: np.ndarray, x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The rows outside `basis` whose slack b_i - a_i.x is at most
    2 _DEGENERATE_SLACK, those that fail the certificate's condition (1);
    the slacks are computed _BLOCK rows at a time, so no n-vector is held."""
    cut = []
    for lo in range(0, len(b), _BLOCK):
        slack = A[lo:lo + _BLOCK] @ x
        np.subtract(b[lo:lo + _BLOCK], slack, out=slack)
        inside = basis[(basis >= lo) & (basis < lo + len(slack))]
        slack[inside - lo] = math.inf
        cut.append((slack <= 2.0 * _DEGENERATE_SLACK).nonzero()[0] + lo)
    return np.concatenate(cut)


def _discover(A: np.ndarray, b: np.ndarray, start, x: np.ndarray, low: float,
              dist: np.ndarray, floor: float) -> VertexGraph:
    """discover_vertex_graph(A, b, start), walked from the optimum `x` on
    the rows whose distance `dist` (b_i / ||a_i||) is below a radius, from
    the larger of `floor` and _GROW ||x||, grown until a try is certified,
    or on every row (module docstring); `low` is min_i ||a_i||."""
    rows_of_start = np.array(start, dtype=np.intp)
    r = max(floor, _GROW * float(np.linalg.norm(x)))
    while low > 0.0 and 0.0 < r < math.inf:
        rows = (dist < r).nonzero()[0]
        if 2 * len(rows) >= len(dist) or not (dist[rows_of_start] < r).all():
            break
        try:
            # a row outside S keeps a slack above 2 _DEGENERATE_SLACK at a
            # vertex of norm below the radius passed
            graph = discover_vertex_graph(
                A.take(rows, axis=0), b.take(rows), rows.searchsorted(rows_of_start),
                radius=r - 2.0 * _DEGENERATE_SLACK / low - 1e-12 * r)
        except _LeftBall as exc:  # exc.norm is inf for an unbounded edge
            r = _GROW * max(r, exc.norm)
            continue
        bases = list(map(tuple, rows[np.array(graph.bases)].tolist()))
        return VertexGraph(bases, graph.points, graph.adjacency)
    return discover_vertex_graph(A, b, start)


def diameter_experiment(rng, dense: DenseSet, sigma: float,
                        n: Optional[int] = None) -> DiameterRecord:
    """Lay a near-ball instance on `dense` and verify its diameter chain.

    The packing gives d and eta, and n defaults as in build_lb_instance.
    Draws a uniform objective c on the sphere, solves the LP on the rows
    near the origin and those that cut their optimum, discovers the full
    1-skeleton by pivoting from the c-optimal vertex over the rows that can
    touch it (module docstring), both from one partition of the row
    distances at the _FLOOR-th smallest, recenters the inequality
    description at the vertex centroid (so the polar is defined even when a
    perturbed b_i drops below zero), measures the enclosing radius R and the
    max polar facet diameter gamma, and checks that the BFS distance between
    the c-max and c-min vertices is at least (d-1) (2/(R gamma) - 2) -- an
    implication that holds run by run.

    The solve is the run's last draw from the stream: a solve on some of
    the rows draws a different number of values than one on every row, so
    a draw after it would depend on which of them ran.
    """
    gen = as_generator(rng)
    d, eta = dense.points.shape[1], dense.eta
    c = uniform_sphere(gen, d)
    inst, moved = build_lb_instance(gen, dense, sigma, c=c, n=n)
    rec = DiameterRecord(
        d=d, sigma=sigma, eta=eta, n_rows=inst.n, n_dense=len(dense), outcome="pending",
    )
    # measured perturbation level; with it the density/perturbation
    # preconditions become checkable facts rather than probability events
    rec.eta_event = max(eta, moved)
    rec.event_holds = rec.eta_event <= 0.125

    # the row norms, then the distances b_i / ||a_i||, in one n-vector; the
    # squares are summed _BLOCK rows at a time, so no other n-vector is held
    dist = np.empty(inst.n)
    for lo in range(0, inst.n, _BLOCK):
        dist[lo:lo + _BLOCK] = _squared_norms(inst.A[lo:lo + _BLOCK])
    np.sqrt(dist, out=dist)
    low = float(dist.min())
    np.divide(inst.b, dist, out=dist)
    k = min(_FLOOR, inst.n) - 1
    floor = _kth_smallest(dist, k)
    outcome = _solve(gen, inst, dist, floor)
    if not isinstance(outcome, Optimal):
        rec.outcome = outcome.kind
        return rec
    rec.outcome = "optimal"

    graph = _discover(inst.A, inst.b, outcome.basis_indices, outcome.x, low, dist, floor)
    rec.vertices = len(graph)
    rec.edges = graph.edge_count

    sandwich = sandwich_check(inst, rec.eta_event, vertices=graph.points, dist=dist)
    del dist  # b_shift below is the run's next n-vector
    rec.sandwich_inner_ok = sandwich.inner_ok
    rec.sandwich_outer_ok = sandwich.outer_ok

    # empirical sandwich level and the facet-diameter implication; the polar
    # around the origin needs all b_i > 0, which inner_radius > 0 certifies
    r_in = sandwich.inner_radius
    r_out = sandwich.outer_radius
    rec.eta_star = max((1.0 - r_in) / 2.0, (r_out - 1.0) / 4.0, 0.0)
    if r_in > 0.0:
        rec.gamma_origin = _max_facet_diameter(inst.A, inst.b, graph)
        rec.facet_bound_applicable = rec.eta_star <= 0.25
        if rec.facet_bound_applicable:
            rec.facet_bound_ok = rec.gamma_origin <= 8.0 * math.sqrt(rec.eta_star) + 1e-12

    # recentered description for the run-by-run diameter bound
    center = graph.points.mean(axis=0)
    b_shift = inst.A @ center
    np.subtract(inst.b, b_shift, out=b_shift)
    if b_shift.min() <= 0.0:
        raise NonpositiveRhs("vertex centroid is not interior; degenerate instance")
    rec.gamma = _max_facet_diameter(inst.A, b_shift, graph)
    rec.radius = math.sqrt(_squared_norms(graph.points - center).max())
    rec.path_bound = (d - 1) * (2.0 / (rec.radius * rec.gamma) - 2.0)

    cvals = graph.points @ inst.c
    v_max = int(np.argmax(cvals))
    v_min = int(np.argmin(cvals))
    rec.bfs_hops = bfs_distance(graph, v_max, v_min)
    rec.bound_holds = rec.bfs_hops >= rec.path_bound
    return rec
