"""Shadow-vertex LP solver: a climb from an interior origin, or three phases.

Phase 1 solves the unit system max z^T x, Ax <= 1 for a random Gaussian
objective z, starting from a basis of d artificial constraints built around
a randomly rotated simplex; construction or acceptance failures rebuild
with fresh randomness.  Phase 2 lifts to the interpolation system
Ax + (1-b)t <= 1, enters at the phase-1 basis edge, and walks the shadow
path toward maximizing t until an edge crosses the t = 1 slice (whose
tight rows form a z-optimal feasible basis of the input LP) or until the
t-maximum proves the input infeasible, in which case the optimal basis
multipliers convert into a Farkas certificate.  Phase 3 follows the
shadow path from z to the input objective c.

Phases 1-2 exist only to find a vertex that is optimal for some objective.
When every b_i > 0 the origin is strictly feasible, and `solve` finds one
without them (_climb): step k moves from x = 0 along c projected onto the
null space of the rows already tight, so they stay tight, and the first row
to block joins them.  A row that blocks has a_i.g > 0 on a direction g
orthogonal to the rows before it, so the d rows are independent and tight
at a vertex.  Phase 3 alone then walks from that vertex to c, from the
objective z = the sum of the vertex's rows, whose multipliers there are all
1.  The climb draws no random numbers.  A climb step that no row blocks (an
unbounded ray, or c in the span of the tight rows, a tie), or a walk or
verification that raises, falls back to the three phases, which then draw
what they draw without the climb.

All certificates are re-verified numerically before being returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import linalg
from .errors import (
    CertificateInvalid,
    CycleDetected,
    DimensionTooSmall,
    NoVertex,
    NumericalStall,
    RerunRay,
    RestartLimitExceeded,
    ShadowLpError,
    SingularError,
)
from .instance import LPInstance
from .rng import as_generator, random_rotation
from .simplex import (
    TOL_DIR,
    TOL_FEAS,
    TOL_OPT,
    Basis,
    Finished,
    ShadowPath,
    UnboundedRay,
    _blocking_row,
    make_basis,
    multipliers,
    run_shadow_path,
)

MAX_RESTARTS = 64
# solve() rescales (A, b) when its largest (a_i, b_i) norm, and c when its
# norm, lies outside this range; the seeded corpora (row norms 1.04-2.03,
# unit c) lie inside it
ROW_NORM_RANGE = (0.25, 4.0)


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Optimal:
    basis_indices: tuple[int, ...]
    x: np.ndarray

    kind = "optimal"


@dataclass(frozen=True)
class Unbounded:
    # a ray, and the feasible vertex x it leaves from; phases 1-2 (whose
    # unit system ignores b) give no x, and `solve` never answers with those
    ray: np.ndarray
    x: Optional[np.ndarray] = None

    kind = "unbounded"


@dataclass(frozen=True)
class Infeasible:
    certificate: Optional[np.ndarray]  # y >= 0, y^T A = 0, y^T b < 0

    kind = "infeasible"


SolveOutcome = Union[Optimal, Unbounded, Infeasible]


def verify_outcome(inst, outcome: SolveOutcome) -> None:
    """Re-check an outcome's certificate against the instance, independently
    of how it was produced.  Raises CertificateInvalid on any violation.

    The check runs on `_row_scaled(inst)`, the exact copy that `solve`
    solves, whose row norms fit the absolute tolerances below.
    """
    scaled = _row_scaled(inst)
    A, b, c = scaled.A, scaled.b, scaled.c
    if isinstance(outcome, (Optimal, Unbounded)):
        if outcome.x is None:
            raise CertificateInvalid("unbounded ray without a feasible point")
        resid = (A @ outcome.x - b).max()
        if resid > TOL_FEAS:
            raise CertificateInvalid(f"{outcome.kind} point infeasible by {resid:.3e}")
    if isinstance(outcome, Optimal):
        f = linalg.factorize(A[list(outcome.basis_indices)])
        mu = linalg.solve_transpose(f, c)
        if mu.min() < -TOL_OPT * max(1.0, float(np.linalg.norm(c))):
            raise CertificateInvalid(f"optimality multiplier {mu.min():.3e}")
    elif isinstance(outcome, Unbounded):
        norm = float(np.linalg.norm(outcome.ray))
        if norm == 0.0:
            raise CertificateInvalid("zero unbounded ray")
        r = outcome.ray / norm
        row_scale = np.maximum(1.0, np.linalg.norm(A, axis=1))
        bad = (A @ r) / row_scale
        if bad.max() > 1e-9:
            raise CertificateInvalid(f"ray leaves recession cone by {bad.max():.3e}")
        gain = float(c @ r)
        if gain <= 0.0:
            raise CertificateInvalid(f"ray does not improve objective (c.r = {gain:.3e})")
    elif isinstance(outcome, Infeasible):
        y = outcome.certificate
        if y is None:
            raise CertificateInvalid("missing Farkas certificate")
        if y.min() < -1e-12:
            raise CertificateInvalid(f"certificate has negative entry {y.min():.3e}")
        y = np.clip(y, 0.0, None)
        l1 = float(np.abs(y).sum())
        if l1 == 0.0:
            raise CertificateInvalid("zero Farkas certificate")
        combo = np.abs(y @ A).max()
        if combo > 1e-8 * l1:
            raise CertificateInvalid(f"y^T A = {combo:.3e} exceeds 1e-8 * ||y||_1")
        if y @ b >= -1e-10:
            raise CertificateInvalid(f"y^T b = {y @ b:.3e} not negative")
    else:
        raise TypeError(f"unknown outcome {outcome!r}")


# ---------------------------------------------------------------------------
# Phase 1: unit system with artificial starting constraints


@functools.lru_cache(maxsize=None)
def regular_simplex_directions(d: int) -> np.ndarray:
    """d unit vectors orthogonal to e_d forming a regular simplex around 0.

    Rows sum to zero, have unit norm, pairwise inner products -1/(d-1), and
    last coordinate exactly 0.  Computed once per d; the array is read-only.
    """
    # e_i - 1/d are the vertices of a regular simplex in the hyperplane 1^perp
    verts = np.eye(d) - np.full((d, d), 1.0 / d)
    q, _ = np.linalg.qr(np.ones((d, 1)), mode="complete")
    coords = verts @ q[:, 1:]  # coordinates in an orthonormal basis of 1^perp
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    out = np.zeros((d, d))
    out[:, : d - 1] = coords
    out.setflags(write=False)
    return out


def build_unit_lp_prime(
    rng, A: np.ndarray, sigma: float, z=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append d artificial constraints (R s_i)^T x <= 1 around a rotated simplex.

    The unperturbed points s_i sit on the hyperplane {x : e_d^T x = 3} at
    distance 1/(10*sqrt(ln d)) from 3 e_d, are perturbed with standard
    deviation sigma, and are rotated by a fresh Haar rotation R.  The basic
    solution of the artificial rows is feasible and optimal for the rotated
    objective R e_d with constant probability.  z=None draws a Gaussian z.
    Returns (A with the d artificial rows appended, R e_d, z).
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    if d < 3:
        raise DimensionTooSmall(f"artificial basis construction needs d >= 3, got {d}")
    gen = as_generator(rng)
    radius = 1.0 / (10.0 * np.sqrt(np.log(d)))
    s_bar = 3.0 * np.eye(d)[d - 1] + radius * regular_simplex_directions(d)
    s = s_bar + sigma * gen.standard_normal((d, d))
    rot = random_rotation(gen, d)
    z = gen.standard_normal(d) if z is None else z
    return np.vstack([A, s @ rot.T]), rot[:, d - 1], z


def _artificial_start(A: np.ndarray, A_art: np.ndarray, objective: np.ndarray) -> Optional[Basis]:
    """Basis of the artificial rows of A_art (A plus d rows), or None when
    it is singular, infeasible for A x <= 1 or not optimal for `objective`."""
    n, d = A.shape
    try:
        basis = make_basis(A_art, np.ones(n + d), range(n, n + d))
    except SingularError:
        return None
    if (A @ basis.x).max() > 1.0 + TOL_FEAS:
        return None
    mu = multipliers(basis, objective)
    if mu.min() < -TOL_OPT:
        return None
    return basis


def phase1_solve(
    rng,
    A: np.ndarray,
    sigma: float,
    stats: SolveStats,
    z: Optional[np.ndarray] = None,
) -> Union[tuple[Basis, np.ndarray], Unbounded]:
    """Solve max z^T x, Ax <= 1 for `z`, or a fresh Gaussian z per attempt;
    returns (basis of Ax <= 1 optimal for z, z).

    Rebuilds the artificial system with fresh randomness, at most
    MAX_RESTARTS times in all, whenever the starting basis fails to
    materialize or the optimum leans on an artificial row (the artificial
    simplex cut off the true optimum).
    An unbounded shadow run returns its ray, which says nothing about the
    input LP: the unit system never reads b.  Every attempt adds to
    `stats.restarts` and every walk to `stats.pivots_phase1`.
    """
    gen = as_generator(rng)
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    reasons: list[str] = []
    for _ in range(MAX_RESTARTS):
        stats.restarts += 1
        A_art, objective, z_try = build_unit_lp_prime(gen, A, sigma, z)
        start = _artificial_start(A, A_art, objective)
        if start is None:
            reasons.append("start-construction")
            continue
        try:
            path, out = run_shadow_path(A_art, np.ones(n + d), objective, z_try, start)
        except (NumericalStall, CycleDetected) as exc:
            reasons.append(f"engine:{type(exc).__name__}")
            continue
        stats.pivots_phase1 += path.pivots
        if isinstance(out, UnboundedRay):
            return Unbounded(ray=out.ray)
        if any(i >= n for i in out.basis.indices):
            reasons.append("cut-off")
            continue
        return make_basis(A, np.ones(n), out.basis.indices), z_try
    raise RestartLimitExceeded(
        f"phase 1 failed {MAX_RESTARTS} times; failure reasons: {reasons}"
    )


# ---------------------------------------------------------------------------
# Phase 2: interpolation system


def interpolation_matrix(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A | 1-b]: the lifted system [A | 1-b] (x, t) <= 1 slices to the unit
    system at t = 0 and to the input feasible set at t = 1."""
    return np.column_stack([A, 1.0 - b])


def _farkas_from_lifted(basis_hat: Basis, n: int) -> np.ndarray:
    mu_hat = multipliers(basis_hat, np.eye(basis_hat.d)[-1])
    y = np.zeros(n)
    y[list(basis_hat.indices)] = np.clip(mu_hat, 0.0, None)
    return y


def _crossing_basis(A: np.ndarray, b: np.ndarray, indices, z: np.ndarray) -> Basis:
    """Build the input-system basis for a t=1 crossing edge and verify it."""
    basis = make_basis(A, b, indices)
    resid = (A @ basis.x - b).max()
    if resid > 1e-6:
        raise CertificateInvalid(f"crossing basis infeasible by {resid:.3e}")
    mu = multipliers(basis, z)
    if mu.min() < -1e-6 * max(1.0, float(np.linalg.norm(z))):
        raise CertificateInvalid(f"crossing basis not z-optimal ({mu.min():.3e})")
    return basis


def phase2_solve(
    rng,
    inst,
    unit_basis: Basis,
    z: np.ndarray,
    stats: SolveStats,
) -> Union[Basis, Infeasible, Unbounded]:
    """Carry a z-optimal unit-system basis to a z-optimal input-system basis.

    Starts on the interpolation edge tight at the unit basis, then follows
    the combined shadow path toward maximizing t with `run_shadow_path`,
    stopping at the first edge that crosses t = 1; if the t-maximum is
    reached below 1 the input system is empty and the optimal multipliers
    give a Farkas certificate.  Returns the input-system Basis, Infeasible
    or, for a numerical ray below t = 1, Unbounded; the walk's pivot count
    is added to `stats.pivots_phase2` whichever it returns.
    """
    gen = as_generator(rng)
    A, b = inst.A, inst.b
    n, d = A.shape
    lifted = interpolation_matrix(A, b)
    ones = np.ones(n)
    # one extra coordinate would extend z to a spherically symmetric lifted
    # objective (z, z_ext); the walk below starts at the edge normal
    # (z, w_star) instead, which spans the same plane together with e_{d+1}
    # for every z_ext, so the value itself is never needed and the draw only
    # pins the stream layout
    gen.standard_normal()

    idx = list(unit_basis.indices)
    mu_unit = multipliers(unit_basis, z)
    w_star = float(mu_unit @ (1.0 - b[idx]))
    y_start = np.append(z, w_star)
    y_target = np.zeros(d + 1)
    y_target[d] = 1.0

    # The edge {A_I x + (1-b_I) t = 1} leaves (x_I, 0) along -w in the +t
    # direction and reaches t = 1, where A_I x = b_I, at step 1; when no row
    # blocks it before that, the unit basis rows are the crossing basis
    w = np.append(linalg.solve(unit_basis.factorization, 1.0 - b[idx]), -1.0)
    step, entering, _ = _blocking_row(lifted, ones, np.append(unit_basis.x, 0.0), w, idx)
    if step >= 1.0:
        return _crossing_basis(A, b, idx, z)

    def crossed(basis_hat, leaving):
        # the rows of basis_hat other than `leaving` are tight at t = 1
        remaining = [i for i in basis_hat.indices if i != leaving]
        return _crossing_basis(A, b, remaining, z)

    def crossing(path, leaving, res):
        """Stop on the first edge that crosses the t = 1 slice."""
        t_cur = float(path.bases[-1].x[d])
        t_next = t_cur - res.step * res.direction[d]
        if t_cur < 1.0 <= t_next + 1e-15:
            return crossed(path.bases[-1], leaving)
        return None

    start = make_basis(lifted, ones, (*unit_basis.indices, entering))
    path, out = run_shadow_path(lifted, ones, y_start, y_target, start, stop=crossing)
    stats.pivots_phase2 += path.pivots
    if isinstance(out, Basis):
        return out
    if isinstance(out, Finished):
        t_star = float(out.basis.x[d])
        if t_star >= 1.0 + 1e-9:
            raise CertificateInvalid(
                f"t-maximum {t_star} above 1 without a detected crossing"
            )
        return Infeasible(certificate=_farkas_from_lifted(out.basis, n))
    if out.ray[d] > TOL_DIR:
        # the unbounded edge escapes through t = 1
        return crossed(out.basis, out.leaving)
    return Unbounded(ray=out.ray[:d])


# ---------------------------------------------------------------------------
# Phase 3 and the full pipeline


def phase3_solve(A: np.ndarray, b: np.ndarray, c: np.ndarray, z_basis: Basis,
                 z: np.ndarray) -> tuple[SolveOutcome, ShadowPath]:
    """Follow the shadow path of {A x <= b} from the random objective z to
    the input c."""
    path, out = run_shadow_path(A, b, z, c, z_basis)
    if isinstance(out, Finished):
        return Optimal(basis_indices=out.basis.indices, x=out.basis.x), path
    return Unbounded(ray=out.ray, x=out.basis.x), path


def _climb(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> Optional[list[int]]:
    """The d rows tight at the vertex of {A x <= b} reached from x = 0, for
    b > 0, by d ratio tests: step k moves along c projected onto the null
    space of the rows already tight, and the first row to block joins them.
    None when a step has no blocking row: an unbounded ray, or a direction
    too short for any row to block, as where c lies in the tight rows' span.
    """
    d = A.shape[1]
    x = np.zeros(d)
    q = np.zeros((d, d))  # its first k rows: an orthonormal basis of the tight rows' span
    tight: list[int] = []
    for k in range(d):
        g = c - (q @ c) @ q
        step, row, _ = _blocking_row(A, b, x, -g, tight)
        if row is None:
            return None
        x = x + step * g
        tight.append(row)
        u = A[row] - (q @ A[row]) @ q
        q[k] = u / math.sqrt(u @ u)
    return tight


@dataclass
class SolveStats:
    """A solve's counts.  Restarts and phase 1-2 pivots add up over both
    passes; `retries` is 1 when phases 1-2 were rerun.  A solve answered by
    the climb and phase 3 alone has every count but `pivots_phase3` at 0:
    `restarts == 0` marks it, since the three phases make at least one
    phase-1 attempt."""

    restarts: int = 0
    pivots_phase1: int = 0
    pivots_phase2: int = 0
    pivots_phase3: int = 0
    retries: int = 0

    @property
    def pivots_total(self) -> int:
        return self.pivots_phase1 + self.pivots_phase2 + self.pivots_phase3


def _solve_once(gen, inst, art_sigma, stats, z=None):
    p1 = phase1_solve(gen, inst.A, art_sigma, stats, z)
    if isinstance(p1, Unbounded):
        return p1, None
    unit_basis, z = p1
    p2 = phase2_solve(gen, inst, unit_basis, z, stats)
    if isinstance(p2, (Infeasible, Unbounded)):
        return p2, None
    outcome, path = phase3_solve(inst.A, inst.b, inst.c, p2, z)
    stats.pivots_phase3 = path.pivots
    return outcome, path


def _solve_climbed(inst) -> Optional[tuple[SolveOutcome, SolveStats, ShadowPath]]:
    """solve's answer from the climb and phase 3 alone, for b > 0, verified;
    None when the climb finds no vertex or the walk or the check raises."""
    A, b, c = inst.A, inst.b, inst.c
    tight = _climb(A, b, c)
    if tight is None:
        return None
    try:
        start = make_basis(A, b, tight)
        # every multiplier of this objective is 1 at the start
        outcome, path = phase3_solve(A, b, c, start, A.take(start.rows, axis=0).sum(axis=0))
        verify_outcome(inst, outcome)
    except ShadowLpError:
        return None
    return outcome, SolveStats(pivots_phase3=path.pivots), path


def _max_row_sq(A: np.ndarray, b: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow to inf is handled by the caller
        return float((np.einsum("ij,ij->i", A, A) + b * b).max(initial=0.0))


def _scale_exponent(A: np.ndarray, b: np.ndarray) -> int:
    """e with the largest (a_i, b_i) norm over 2^e in [1/2, 1) when that norm
    is outside ROW_NORM_RANGE; else 0, which no norm outside it gives.

    When the squared norms under- or overflow, the norms are taken of
    (A, b) / 2^k instead, 2^k the scale of the largest entry.
    """
    k = 0
    sq = _max_row_sq(A, b)
    if sq == 0.0 or sq == math.inf:
        k = math.frexp(max(np.abs(A).max(initial=0.0), np.abs(b).max(initial=0.0)))[1]
        sq = _max_row_sq(np.ldexp(A, -k), np.ldexp(b, -k))
    top = math.sqrt(sq)  # the largest row norm over 2^k
    low, high = ROW_NORM_RANGE
    if top == 0.0 or low <= math.ldexp(top, k) <= high:
        return 0
    return math.frexp(top)[1] + k


def _row_scaled(inst: LPInstance) -> LPInstance:
    """inst with (A, b) divided by the power of two that puts its largest
    row norm in [1/2, 1), and c by the one that puts its norm there, each
    only when that norm is outside ROW_NORM_RANGE; else inst itself.

    The artificial rows (at height 3, radius 1/(10 sqrt(ln d))) and the
    absolute guards are sized for such norms.  Dividing by a power of two
    is exact, so the copy has the feasible region, vertices, rays and
    optimal vertices of inst, and a Farkas y for the copy is one for inst.
    """
    e = _scale_exponent(inst.A, inst.b)
    f = _scale_exponent(inst.c[None, :], np.zeros(1))
    if e == 0 and f == 0:
        return inst
    return LPInstance(np.ldexp(inst.A, -e), np.ldexp(inst.b, -e), np.ldexp(inst.c, -f))


def solve(rng, inst, *, climb: bool = True
          ) -> tuple[SolveOutcome, SolveStats, Optional[ShadowPath]]:
    """Solve inst and return (outcome, per-phase stats, phase-3 path).

    With `climb` and every b_i > 0, the origin is strictly feasible: the
    solve climbs from it to a vertex (_climb) and walks phase 3 alone from
    there, drawing nothing from rng.  A climb step that no row blocks, or a
    walk or verification that raises ShadowLpError, falls back to the three
    phases, which then run as they would with climb=False.  climb=False
    always runs the paper's three phases.

    Only phase 3, starting at a feasible vertex, answers with a ray.  When
    phase 1 or 2 ends on one, phases 1-2 rerun once with z = A^T |g|,
    g ~ N(0, I_n), in the cone of the rows: every objective on their paths
    is then bounded.  Raises NoVertex when rank A < d: up front when n < d,
    else when a phase 1-2 ray calls for the rank.  A ray from the rerun is a
    numerical failure and raises RerunRay.  Raises DimensionTooSmall up
    front when d < 3.

    When the largest row norm of (A, b), or the norm of c, is outside
    ROW_NORM_RANGE, the phases and the verification run on a copy with
    (A, b), or c, divided by an exact power of two (_row_scaled).  The
    answer's x, ray and Farkas y hold for the input as they are; the
    phase-3 path is that of the scaled copy, and the climb's test b > 0 is
    made on it too.
    """
    inst_lp = _row_scaled(inst)
    n, d = inst_lp.A.shape
    if d < 3:
        raise DimensionTooSmall(f"artificial basis construction needs d >= 3, got {d}")
    if n < d:
        raise NoVertex(f"n = {n} < d = {d}: the region has no vertex")
    if climb and inst_lp.b.min() > 0.0:
        climbed = _solve_climbed(inst_lp)
        if climbed is not None:
            return climbed
    # keep the artificial noise well below the simplex radius
    # 1/(10 sqrt(ln d)); near it the start construction rarely yields
    # nonnegative multipliers and the restart loop churns
    cap = min(
        1.0 / (4.0 * np.sqrt(d * np.log(max(n, 3)))),
        1.0 / (80.0 * np.sqrt(np.log(d))),
    )
    art_sigma = getattr(inst, "sigma", None)
    art_sigma = cap if art_sigma is None or art_sigma <= 0 else min(art_sigma, cap)
    gen = as_generator(rng)
    stats = SolveStats()
    outcome, path = _solve_once(gen, inst_lp, art_sigma, stats)
    if isinstance(outcome, Unbounded) and outcome.x is None:
        rank = int(np.linalg.matrix_rank(inst_lp.A))
        if rank < d:
            raise NoVertex(f"rank A = {rank} < d = {d}: the region has no vertex")
        stats.retries = 1
        z = inst_lp.A.T @ np.abs(gen.standard_normal(n))
        outcome, path = _solve_once(gen, inst_lp, art_sigma, stats, z)
        if isinstance(outcome, Unbounded) and outcome.x is None:
            norms = np.hypot(np.linalg.norm(inst_lp.A, axis=1), inst_lp.b)
            raise RerunRay(
                "phases 1-2 ended on a ray after the rerun with z = A^T|g|, "
                "which is bounded in exact arithmetic: a numerical failure; "
                f"the (a_i, b_i) row norms of the LP solved span {norms.min():.3e} to {norms.max():.3e}"
            )
    verify_outcome(inst_lp, outcome)
    return outcome, stats, path
