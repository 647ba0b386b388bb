"""Instrumentation over recorded shadow paths and polygons.

Measures the separation quantities that drive pivot-count bounds: the best
multiplier margin attainable on an objective segment, relative slacks of
nonbasic rows, projected norms and neighbor distances on the shadow plane,
exterior angles, and the annulus-clipped boundary integral of 1/||x||.
Also provides the doubling objective schedule Z, Z+c, Z+2c, ..., Z+2^k c, c
and the Monte Carlo experiment checking that a random segment hitting a
basis cone usually hits it with margin to spare.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonConvexInput, ShadowLpError, ZeroVertex
from .oracle import orthonormal_frame
from .rng import as_generator, exp_ball_sample
from .simplex import Basis, ShadowPath, UnboundedRay, multipliers, run_shadow_path


def good_multiplier_threshold(d: int) -> float:
    """Margin m = ln(1/0.99)/(2d) used for the good-multiplier classification."""
    return math.log(1.0 / 0.99) / (2.0 * d)


def relative_gap_threshold(sigma: float, d: int, n: int) -> float:
    """Slack cut g = sigma / (5000 d^{3/2} ln(n)^{3/2})."""
    return sigma / (5000.0 * d**1.5 * math.log(n) ** 1.5)


@functools.lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of range(d) in `np.triu_indices(d, 1)` order, read-only."""
    r = np.arange(d)
    pairs = np.nonzero(r[:, None] < r)  # np.triu_indices(d, 1) at a fifth of its cost
    for a in pairs:
        a.setflags(write=False)
    return pairs


def multiplier_margins(mu0: np.ndarray, mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (k, d) multiplier stacks at the segment's two ends, the
    max over lambda in [0,1] of min((1-lambda) mu0 + lambda mu1).

    Each coordinate is affine in lambda, so the piecewise-linear concave
    minimum is maximized at an endpoint or at a crossing of two coordinates;
    those breakpoints are enumerated exactly.  A row's candidates are 0 and
    1, then every pairwise crossing da / (da - db), pairs taken in
    `np.triu_indices(d, 1)` order, kept when its denominator is nonzero and
    it lies strictly inside (0, 1).  All k * (2 + d(d-1)/2) candidates are
    evaluated in one array step, a discarded one at lambda 0, where it
    repeats candidate 0 bit for bit and so is never the first maximum.  The
    witness is the first candidate attaining the row maximum, as a scan
    keeping only strict improvements would pick; a candidate whose minimum
    is NaN is never chosen, so when every minimum is NaN (or -inf) the row
    gives (-inf, 0.0).
    Returns (margins, witness lambdas), each of length k.
    """
    k, d = mu0.shape
    i, j = _pairs(d)
    lam = np.zeros((k, 2 + len(i)))
    lam[:, 1] = 1.0
    rows = np.arange(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        da = mu0[:, i] - mu0[:, j]
        den = da - (mu1[:, i] - mu1[:, j])
        cross = da / den
        lam[:, 2:] = np.where((den != 0.0) & (cross > 0.0) & (cross < 1.0), cross, 0.0)
        # (k, d, candidates), so each minimum is an elementwise one across
        # the d coordinate planes: the same value and NaN as a reduction
        # along a row, but not always the same sign of a zero, which the
        # margin takes from a row reduction of the chosen candidate
        at = (1.0 - lam)[:, None, :] * mu0[:, :, None] + lam[:, None, :] * mu1[:, :, None]
        vals = np.minimum.reduce(at, axis=1)
        vals[np.isnan(vals)] = -np.inf
        best = vals.argmax(axis=1)  # 0.0 and -0.0 tie, so the sign cannot move it
        margins = np.minimum.reduce(at[rows, :, best], axis=1)
    margins[np.isnan(margins)] = -np.inf
    return margins, lam[rows, best]


def multiplier_margin(basis: Basis, c: np.ndarray, c2: np.ndarray) -> tuple[float, float]:
    """max over lambda in [0,1] of the minimum coordinate of the multipliers
    A_I^{-T}((1-lambda) c + lambda c2): `multiplier_margins` on one basis.

    Returns (margin, witness lambda).
    """
    margins, lams = multiplier_margins(multipliers(basis, c)[None], multipliers(basis, c2)[None])
    return float(margins[0]), float(lams[0])


def relative_slack(inst, basis: Basis) -> float:
    """min over nonbasic rows of (b_j - a_j^T x_I) / ||x_I||.

    The minimum over no rows (every row basic) is inf.
    """
    x = basis.x
    norm = math.sqrt(x.dot(x))  # np.linalg.norm's arithmetic for a 1-d float vector
    if norm <= 1e-12:
        raise ZeroVertex(f"basic solution norm {norm:.3e} too small")
    slack = inst.b - inst.A @ x
    slack.put(basis.indices, np.inf)
    return float(np.minimum.reduce(slack) / norm)


@dataclass
class PathReport:
    """Per-basis separation measurements for one recorded shadow path."""

    indices: list[tuple[int, ...]]
    margins: np.ndarray            # best multiplier margin on [c, c2]
    witness_lambdas: np.ndarray
    rel_slacks: np.ndarray         # nan where the vertex norm was below threshold
    proj_norms: np.ndarray         # norms of the (c, c2)-frame coordinates
    good_multiplier: np.ndarray    # bool, margin >= m
    relative_gap: np.ndarray       # bool, slack >= g
    far_from_neighbors: np.ndarray  # bool, all path neighbors >= rho * proj norm
    triple: np.ndarray             # bool, self and both neighbors in M-and-G
    m: float
    g: float
    rho: float

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def good_multiplier_frac(self) -> float:
        return float(self.good_multiplier.mean())

    @property
    def relative_gap_frac(self) -> float:
        return float(self.relative_gap.mean())

    @property
    def triple_count(self) -> int:
        return int(self.triple.sum())

    @property
    def far_count(self) -> int:
        return int(self.far_from_neighbors.sum())

    @property
    def min_proj_norm(self) -> float:
        return float(self.proj_norms.min())

    @property
    def max_proj_norm(self) -> float:
        return float(self.proj_norms.max())


def triple_mask(member: np.ndarray) -> np.ndarray:
    """Members of a path-graph subset whose both neighbors are also members."""
    member = np.asarray(member, dtype=bool)
    out = np.zeros_like(member)
    if len(member) >= 3:
        out[1:-1] = member[1:-1] & member[:-2] & member[2:]
    return out


def triples_inequality(member: np.ndarray) -> tuple[int, int]:
    """(lhs, rhs) of 3|S| <= 2k + |T^S| + 2|V| on a recorded path graph,
    which is one component (k = 1)."""
    member = np.asarray(member, dtype=bool)
    lhs = 3 * int(member.sum())
    rhs = 2 + int(triple_mask(member).sum()) + 2 * len(member)
    return lhs, rhs


def classify_path(
    path: ShadowPath,
    inst,
    g: Optional[float] = None,
    rho: float = 0.5,
) -> PathReport:
    """Label every path basis with its separation memberships.

    The objectives are the path's own, y and y2.  The multiplier threshold
    m is good_multiplier_threshold(d), and g must be supplied by the caller
    when a meaningful sigma exists (else it defaults to 0, making the
    relative-gap mask a plain feasibility mask).

    The multipliers of every basis at y and y2 are stacked, and
    `multiplier_margins` evaluates the breakpoint candidates of all bases in
    one array step, keeping per basis the first maximum, never a NaN one.
    Per basis, `relative_slack` gives the slack (inf when every row is basic,
    nan left in `rel_slacks` for a near-zero vertex).  A basis is far from
    its neighbours when each adjacent path edge is at least rho times its
    projected norm; a NaN length or norm counts as not far.
    """
    c, c2 = path.y, path.y2
    d = len(c)
    m = good_multiplier_threshold(d)
    if g is None:
        g = 0.0
    frame = orthonormal_frame(c, c2)
    k = len(path.bases)
    mu0 = np.empty((k, d))
    mu1 = np.empty((k, d))
    slacks = np.full(k, np.nan)
    proj = np.empty((k, 2))
    for i, basis in enumerate(path.bases):
        mu0[i] = multipliers(basis, c)
        mu1[i] = multipliers(basis, c2)
        try:
            slacks[i] = relative_slack(inst, basis)
        except ZeroVertex:
            pass
        proj[i] = frame @ basis.x
    margins, witnesses = multiplier_margins(mu0, mu1)
    norms = np.linalg.norm(proj, axis=1)
    good = margins >= m
    gap = np.where(np.isnan(slacks), False, slacks >= g)
    # each edge's length serves both endpoints; np.linalg.norm's 1-D
    # arithmetic per edge, because norm(..., axis=1) can differ from it in
    # the last bit
    edges = np.array([math.sqrt(e.dot(e)) for e in proj[1:] - proj[:-1]])
    reach = rho * norms
    far = np.ones(k, dtype=bool)
    far[1:] &= edges >= reach[1:]
    far[:-1] &= edges >= reach[:-1]
    return PathReport(
        indices=path.index_sequence,
        margins=margins,
        witness_lambdas=witnesses,
        rel_slacks=slacks,
        proj_norms=norms,
        good_multiplier=good,
        relative_gap=gap,
        far_from_neighbors=far,
        triple=triple_mask(good & gap),
        m=float(m),
        g=float(g),
        rho=float(rho),
    )


# ---------------------------------------------------------------------------
# Polygon geometry


def exterior_angles(points: np.ndarray) -> np.ndarray:
    """Exterior angle at each vertex of a convex polygon (any orientation).

    Raises NonConvexInput when a turn changes sign or degenerates.  For a
    bounded convex polygon the angles sum to 2*pi.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 3:
        raise NonConvexInput(f"polygon needs >= 3 vertices, got {m}")
    angles = np.empty(m)
    sign_seen = 0.0
    for i in range(m):
        e_in = pts[i] - pts[i - 1]
        e_out = pts[(i + 1) % m] - pts[i]
        cross = e_in[0] * e_out[1] - e_in[1] * e_out[0]
        dot = float(e_in @ e_out)
        ang = math.atan2(cross, dot)
        if ang == 0.0 or abs(ang) >= math.pi - 1e-12:
            raise NonConvexInput(f"degenerate turn at vertex {i}")
        if sign_seen == 0.0:
            sign_seen = math.copysign(1.0, ang)
        elif math.copysign(1.0, ang) != sign_seen:
            raise NonConvexInput(f"turn direction flips at vertex {i}")
        angles[i] = abs(ang)
    return angles


def _edge_annulus_integral(p: np.ndarray, q: np.ndarray, R: float, r: float) -> float:
    """Closed form of the integral of 1/||x|| along [p, q] clipped to the
    annulus r <= ||x|| <= R."""
    v = q - p
    length = float(np.linalg.norm(v))
    if length == 0.0:
        return 0.0
    v = v / length
    beta = float(v @ p)
    c2 = float(p @ p)
    min_sq = c2 - beta * beta  # squared distance of the edge line from 0

    def ball_interval(radius):
        disc = beta * beta - c2 + radius * radius
        if disc < 0.0:
            return None
        root = math.sqrt(disc)
        return (-beta - root, -beta + root)

    inside_R = ball_interval(R)
    if inside_R is None:
        return 0.0
    lo = max(0.0, inside_R[0])
    hi = min(length, inside_R[1])
    if lo >= hi:
        return 0.0
    inside_r = ball_interval(r)
    if inside_r is None:
        pieces = [(lo, hi)]
    else:
        # the parts of [lo, hi] before and after the inner ball
        a, b = inside_r
        pieces = [(x0, x1) for x0, x1 in ((lo, min(a, hi)), (max(b, lo), hi)) if x1 > x0]

    radial = min_sq <= 1e-24 * max(c2, 1.0)
    total = 0.0
    for x0, x1 in pieces:
        if radial:
            # the edge line passes through the origin: 1/||x|| = 1/|s + beta|
            a0, a1 = x0 + beta, x1 + beta
            total += abs(math.log(abs(a1)) - math.log(abs(a0)))
        else:
            # ||x||^2 = (s + beta)^2 + min_sq; asinh does not cancel where s + beta < 0
            h = math.sqrt(min_sq)
            total += math.asinh((x1 + beta) / h) - math.asinh((x0 + beta) / h)
    return total


def boundary_integral(points: np.ndarray, R: float, r: float) -> float:
    """Integral of 1/||x|| over the closed polygon boundary clipped to D(R, r).

    Piecewise closed form (no quadrature), so the annulus bound
    4*pi*ceil(log2(R/r)) can be asserted without integration error.
    """
    if not R > r > 0:
        raise ValueError("need R > r > 0")
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    total = 0.0
    for i in range(m):
        total += _edge_annulus_integral(pts[i], pts[(i + 1) % m], R, r)
    return total


def annulus_integral_bound(R: float, r: float) -> float:
    return 4.0 * math.pi * math.ceil(math.log2(R / r))


# ---------------------------------------------------------------------------
# Random segment vs. cone Monte Carlo


@dataclass
class ConeTrial:
    trials: int
    m: float
    p0: float        # frequency the segment meets the cone at threshold 0
    pm: float        # frequency at threshold m
    stderr_diff: float  # std error of mean(1[pm] - 0.99 * 1[p0])

    @property
    def satisfied(self) -> bool:
        return self.pm >= 0.99 * self.p0 - 3.0 * self.stderr_diff


def segment_cone_trial(rng, B: np.ndarray, c: np.ndarray, c2: np.ndarray,
                       m: float, trials: int) -> ConeTrial:
    """Estimate how often [c+Z, c2+Z] meets {x : B^{-1} x >= tau}, tau in {0, m}.

    Z is drawn from the e^{-||x||} distribution.  Per draw, each coordinate
    of B^{-1}(c + Z + lambda (c2 - c)) is affine in lambda, so the feasible
    lambda window is an exact interval intersection.
    """
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    col_norms = np.linalg.norm(B, axis=0)
    if col_norms.max() > 2.0 + 1e-9:
        raise ValueError(f"column norm {col_norms.max():.3f} exceeds 2")
    gen = as_generator(rng)
    binv = np.linalg.inv(B)
    zs = exp_ball_sample(gen, d, trials)
    v0 = (np.asarray(c, float) + zs) @ binv.T
    v1 = (np.asarray(c2, float) + zs) @ binv.T

    def hits(tau: float) -> np.ndarray:
        a = v0 - tau
        b = v1 - tau
        lo = np.zeros_like(a)
        hi = np.ones_like(a)
        dec = (a >= 0.0) & (b < 0.0)
        inc = (a < 0.0) & (b >= 0.0)
        none = (a < 0.0) & (b < 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = a / (a - b)
        hi[dec] = root[dec]
        lo[inc] = root[inc]
        lo[none] = 1.0
        hi[none] = 0.0
        return lo.max(axis=1) <= hi.min(axis=1)

    hit0 = hits(0.0)
    hitm = hits(m)
    diff = hitm.astype(float) - 0.99 * hit0.astype(float)
    stderr = float(diff.std(ddof=1) / math.sqrt(trials))
    return ConeTrial(
        p0=float(hit0.mean()),
        pm=float(hitm.mean()),
        m=float(m),
        trials=trials,
        stderr_diff=stderr,
    )


# ---------------------------------------------------------------------------
# Doubling objective schedule


@dataclass
class ObjectiveSchedule:
    """Objectives Z, Z+c, Z+2c, ..., Z+2^k c, then c (just (Z, c) for k=0)."""

    k: int
    objectives: list[np.ndarray]


def auto_segment_count(n: int, d: int) -> int:
    """k = 5 d ceil(log2(n t)) with t = 2 e d ln n."""
    t = 2.0 * math.e * d * math.log(n)
    return 5 * d * math.ceil(math.log2(n * t))


def build_schedule(c: np.ndarray, z: np.ndarray, n: int, d: int,
                   k: Optional[int] = None) -> ObjectiveSchedule:
    c = np.asarray(c, dtype=float)
    z = np.asarray(z, dtype=float)
    if abs(np.linalg.norm(c) - 1.0) > 1e-9:
        raise ValueError("c must be a unit vector")
    if k is None:
        k = auto_segment_count(n, d)
    if k == 0:
        objectives = [z, c]
    else:
        objectives = [z] + [z + (2.0**i) * c for i in range(k + 1)] + [c]
    return ObjectiveSchedule(k=k, objectives=objectives)


def run_schedule(A: np.ndarray, b: np.ndarray, schedule: ObjectiveSchedule,
                 start: Basis) -> list[ShadowPath]:
    """Run the pivot engine over every consecutive objective pair.

    The start basis must be optimal for the first objective; each segment
    starts from the previous segment's final basis.  Raises ShadowLpError
    when a segment ends on an unbounded ray.
    """
    paths = []
    basis = start
    for i, (y, y2) in enumerate(zip(schedule.objectives, schedule.objectives[1:])):
        path, out = run_shadow_path(A, b, y, y2, basis)
        if isinstance(out, UnboundedRay):
            raise ShadowLpError(
                f"schedule segment {i} (objective {i} to {i + 1}) is unbounded"
            )
        paths.append(path)
        basis = out.basis
    return paths


def compose_paths_inequality(segment_paths: list[ShadowPath],
                             full_path: ShadowPath) -> tuple[int, int]:
    """(lhs, rhs) of sum |P_i| <= |P_full| + 2 (M - 1) over M consecutive segments."""
    lhs = sum(len(p) for p in segment_paths)
    rhs = len(full_path) + 2 * (len(segment_paths) - 1)
    return lhs, rhs


def compose_far_sets_inequality(segment_reports: list[PathReport],
                                full_report: PathReport) -> tuple[int, int]:
    """(lhs, rhs) of sum |H_i| <= |H_full| + 2 kappa, kappa = objective count."""
    lhs = sum(rep.far_count for rep in segment_reports)
    rhs = full_report.far_count + 2 * (len(segment_reports) + 1)
    return lhs, rhs
