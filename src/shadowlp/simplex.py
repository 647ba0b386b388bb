"""Shadow vertex pivot engine.

Walks the bases that are optimal for objectives y_lambda = lambda*y2 +
(1-lambda)*y as lambda sweeps 0 -> 1.  Each pivot finds the largest lambda
keeping all basis multipliers nonnegative, drops the constraint whose
multiplier hit zero, and enters the first constraint that blocks the
resulting edge.  The visited vertices project onto the boundary of the
two-dimensional shadow of the feasible set on span(y, y2).

Functions here take the constraint data (A, b) directly so the same engine
drives unit, interpolation, and input systems.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from . import linalg
from .errors import CycleDetected, NegativeStep, NotOptimal, NumericalStall, PivotLimitExceeded

# Optimality is declared at multipliers >= -TOL_OPT, feasibility at residual
# <= TOL_FEAS, and a row only blocks an edge when its rate is below -TOL_DIR.
# Two orders of magnitude separate the assertion layer from the detection
# layer.
TOL_OPT = 1e-9
TOL_FEAS = 1e-8
TOL_DIR = 1e-11

PIVOT_LIMIT = 10**6

_INTP = np.dtype(np.intp)


class Basis(namedtuple("Basis", "indices factorization x rows")):
    """A sorted d-subset of row indices with its factorization and vertex.

    `indices` is the sorted tuple of row indices, `factorization` the
    linalg.BasisFactorization of A_I and `x` the vertex A_I^{-1} b_I.
    `rows` holds the same indices as an intp array, built from `indices`
    when not given; the pivot loop gathers and zeroes rows with it.
    """

    __slots__ = ()

    def __new__(cls, indices, factorization, x, rows=None):
        if rows is None:
            rows = np.array(indices, dtype=np.intp)
        return tuple.__new__(cls, (indices, factorization, x, rows))

    @property
    def d(self) -> int:
        return len(self.indices)


def make_basis(A: np.ndarray, b: np.ndarray, indices) -> Basis:
    """Factorize A_I and compute the basic solution x_I = A_I^{-1} b_I.

    `indices` is any iterable of row indices.  A 1-d intp array, which the
    pivot loop passes, is sorted as an array; it is not modified.
    """
    if indices.__class__ is np.ndarray and indices.dtype is _INTP and indices.ndim == 1:
        rows = indices.copy()
        rows.sort()
        idx = tuple(rows.tolist())
    else:
        idx = tuple(sorted(map(int, indices)))
        rows = np.array(idx, dtype=np.intp)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in basis {idx}")
    # take on a C-contiguous A copies only the d rows (on a strided A it
    # copies the whole matrix first); the bits are those of A[rows]
    f = linalg.factorize(A.take(rows, axis=0))
    x = linalg.solve(f, b.take(rows))
    return Basis(idx, f, x, rows)


def multipliers(basis: Basis, y: np.ndarray) -> np.ndarray:
    """Multipliers mu with A_I^T mu = y, ordered like basis.indices."""
    return linalg.solve_transpose(basis.factorization, y)


def max_lambda(
    basis: Basis,
    y: np.ndarray,
    y2: np.ndarray,
    lambda_lo: float,
) -> tuple[float, Optional[int]]:
    """Largest lambda in [lambda_lo, 1] keeping all multipliers nonnegative.

    Each multiplier is affine in lambda, so the first zero crossing among the
    decreasing coordinates is found by interpolation.  Returns (lambda,
    leaving row index), with leaving None when the basis stays optimal all
    the way to lambda = 1.  Ties break toward the smallest row index.
    Raises NotOptimal when a multiplier is below -1e-6 at lambda_lo.
    """
    mu1 = multipliers(basis, y2)
    mu_lo = multipliers(basis, (1.0 - lambda_lo) * y + lambda_lo * y2).tolist()
    low = min(mu_lo)
    # a nan multiplier passes: the check is on the array minimum, which is nan
    if low < -1e-6 and not any(map(math.isnan, mu_lo)):
        raise NotOptimal(
            f"basis {basis.indices} is not optimal at lambda={lambda_lo} "
            f"(multiplier {low:.3e})"
        )
    # Python floats on length-d vectors: the same IEEE operations as array
    # arithmetic, without its per-call cost
    lo = float(lambda_lo)
    best_lam = 1.0
    leaving = None
    for p, m1 in enumerate(mu1.tolist()):
        if not m1 < 0.0:  # only coordinates negative at lambda = 1 can block
            continue
        m0 = mu_lo[p]
        num = (1.0 - lo) * m0
        den = m0 - m1
        lam = lo + (num / den if den else _divide_by_zero(num, den))
        if lam < lo:  # the clamp keeps nan, as np.maximum/np.minimum do
            lam = lo
        if lam > 1.0:
            lam = 1.0
        row = basis.indices[p]
        if lam < best_lam - 1e-15 or (abs(lam - best_lam) <= 1e-15 and (leaving is None or row < leaving)):
            best_lam = lam
            leaving = row
    if leaving is None or best_lam >= 1.0:
        return 1.0, None
    return best_lam, leaving


def _divide_by_zero(num: float, den: float) -> float:
    """num / den for a zero den, as numpy divides: +-inf, or nan for a zero
    or nan num; without numpy's divide-by-zero warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(num, den))


class RatioResult(NamedTuple):
    step: float  # may be inf
    entering: Optional[int]
    direction: np.ndarray  # w = A_I^{-1} e_j; the vertex moves along -w


@lru_cache(maxsize=None)
def _unit_vectors(d: int) -> np.ndarray:
    """The d x d identity, read-only and kept once per dimension: row j is
    the e_j of every ratio test."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _blocking_row(A, b, x, w, tight) -> tuple[float, Optional[int], float]:
    """First row of A y <= b to block the ray x - s w, s >= 0.

    Row i blocks iff a_i^T w < -TOL_DIR, at step (b_i - a_i^T x) / (-a_i^T w);
    rows in `tight` never block.  Returns (step, row, slack of row); ties go
    to the smallest row, and (inf, None, nan) when nothing blocks.
    """
    # ndarray.dot reaches the same gemv as @ with less dispatch; on a
    # strided A it would copy the matrix first, hence contiguous engine data
    rates = A.dot(w)
    slack = b - A.dot(x)
    rates.put(tight, 0.0)
    rows = (rates < -TOL_DIR).nonzero()[0]
    if rows.size == 0:
        return np.inf, None, np.nan
    steps = slack[rows] / (-rates[rows])
    best = int(steps.argmin())  # first minimum: ties go to the smallest row
    row = int(rows[best])
    return float(steps[best]), row, float(slack[row])


def ratio_test(A: np.ndarray, b: np.ndarray, basis: Basis, leaving: int) -> RatioResult:
    """Step length to the first constraint blocking the edge that relaxes `leaving`.

    The edge direction is -w with w = A_I^{-1} e_j (j = position of leaving in
    the basis); `_blocking_row` picks the entering row among the nonbasic
    ones.  Returns step = inf and entering = None when nothing blocks (the
    edge is an unbounded ray).
    """
    pos = basis.indices.index(leaving)
    w = linalg.solve(basis.factorization, _unit_vectors(len(basis.indices))[pos])
    step, entering, slack = _blocking_row(A, b, basis.x, w, basis.rows)
    if step < -1e-9:
        raise NegativeStep(
            f"step {step:.3e} for leaving row {leaving}; slack "
            f"{slack:.3e} on row {entering}"
        )
    return RatioResult(max(step, 0.0), entering, w)


@dataclass(frozen=True)
class Finished:
    basis: Basis


@dataclass(frozen=True)
class UnboundedRay:
    ray: np.ndarray
    basis: Basis  # basis at which the unbounded edge was found
    leaving: int

PivotOutcome = Union[Finished, UnboundedRay]


@dataclass
class ShadowPath:
    """Ordered bases visited between objectives y and y2, with breakpoints.

    lambdas[i] is the sweep value at which bases[i] became optimal;
    lambdas[0] = 0 and the sequence is nondecreasing.  Consecutive bases
    differ in exactly one index.
    """

    y: np.ndarray
    y2: np.ndarray
    bases: list[Basis]
    lambdas: list[float]

    def __len__(self) -> int:
        return len(self.bases)

    @property
    def index_sequence(self) -> list[tuple[int, ...]]:
        return [bs.indices for bs in self.bases]

    @property
    def pivots(self) -> int:
        return len(self.bases) - 1


def run_shadow_path(
    A: np.ndarray,
    b: np.ndarray,
    y: np.ndarray,
    y2: np.ndarray,
    start: Basis,
    stop: Optional[Callable[[ShadowPath, int, RatioResult], Any]] = None,
) -> tuple[ShadowPath, PivotOutcome]:
    """Follow the shadow path from y to y2 starting at a y-optimal basis.

    Returns the recorded path plus Finished(basis optimal for y2) or
    UnboundedRay.  Raises PivotLimitExceeded past PIVOT_LIMIT pivots,
    CycleDetected if a basis repeats, and NumericalStall when two
    consecutive pivots fail to advance lambda by 1e-12 at a basis not optimal for y2.

    `stop(path, leaving, res)`, when given, sees every blocked edge before
    the engine pivots along it: the edge leaves path.bases[-1] by relaxing
    row `leaving`, and `res` is its ratio test.  A non-None return value
    ends the walk and is returned in place of the engine's own outcome.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    y, y2 = np.asarray(y, float), np.asarray(y2, float)
    path = ShadowPath(y=y, y2=y2, bases=[start], lambdas=[0.0])
    bases, lambdas = path.bases, path.lambdas
    seen = {start.indices}
    basis = start
    lam = 0.0
    stalls = 0
    while True:
        lam_new, leaving = max_lambda(basis, y, y2, lam)
        if leaving is None:
            return path, Finished(basis)
        res = ratio_test(A, b, basis, leaving)
        if res.entering is None:
            return path, UnboundedRay(ray=-res.direction, basis=basis, leaving=leaving)
        if stop is not None:
            out = stop(path, leaving, res)
            if out is not None:
                return path, out
        if lam_new <= lam + 1e-12:
            stalls += 1
            if stalls >= 2:
                if multipliers(basis, y2).min() >= -TOL_OPT * max(1.0, np.linalg.norm(y2)):
                    return path, Finished(basis)
                raise NumericalStall(
                    f"lambda stuck at {lam:.17g} for two pivots (basis {basis.indices})"
                )
        else:
            stalls = 0
        if len(bases) > PIVOT_LIMIT:
            raise PivotLimitExceeded(f"exceeded {PIVOT_LIMIT} pivots")
        # the entering row takes the leaving row's place; make_basis sorts
        rows = basis.rows.copy()
        rows[basis.indices.index(leaving)] = res.entering
        basis = make_basis(A, b, rows)
        if basis.indices in seen:
            raise CycleDetected(f"basis {basis.indices} repeated")
        seen.add(basis.indices)
        lam = lam_new
        bases.append(basis)
        lambdas.append(lam)
