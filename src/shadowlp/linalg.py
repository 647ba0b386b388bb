"""Dense kernels for basis matrices: factorize, solve, transpose-solve.

Factorizations are plain partial-pivoting LU from LAPACK's getrf and solves
use getrs; both are resolved once at import and called directly.  At the
sizes this package targets (d <= 50) scipy's `lu_factor`/`lu_solve`
wrappers cost more than the arithmetic.  At d = 20 on a 2-vCPU x86-64 host
with one BLAS thread (best of 7 timings): a factorization went from 34-40
us through `lu_factor` to 14-20 us, of which getrf is 6-8 us and the rest
the finiteness, scale and pivot-floor checks; a solve went from 14-19 us
through `lu_solve` to 3.1-3.6 us, of which getrs is 1.3-2.0 us.  The
factors and solutions are bit-identical to the wrappers'.

Every basis is still refactored from scratch.  Measured the same way, a
pivot's three kernels at d = 20, n = 2000 take about 105 us: `ratio_test`
50 (27 of them in two O(n d) matrix-vector products), `max_lambda` 28 and
`make_basis` 27, of which getrf is about 6.  A rank-one-updated inverse
could save little more than the getrf, and it would move every basic
solution and multiplier in its last bits, so seeded paths and outputs
would no longer reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SingularError

# A matrix is declared singular iff min |pivot| < SINGULAR_RTOL * max |entry|.
# Smoothed inputs are generic, so tripping this signals a bug or a degenerate
# artificial construction rather than bad luck.
SINGULAR_RTOL = 1e-12

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass(frozen=True)
class BasisFactorization:
    """Permuted triangular factors of a square matrix, plus its pivot record."""

    lu: np.ndarray
    piv: np.ndarray
    pivots: np.ndarray  # |diag(U)|, in elimination order

    @property
    def d(self) -> int:
        return self.lu.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together (test/diagnostic helper)."""
        lower = np.tril(self.lu, -1) + np.eye(self.d)
        upper = np.triu(self.lu)
        m = lower @ upper
        # getrf records row i <-> piv[i] swaps in elimination order; undo them
        # in reverse to recover the original row order.
        for i in range(self.d - 1, -1, -1):
            j = self.piv[i]
            if j != i:
                m[[i, j]] = m[[j, i]]
        return m


def factorize(m: np.ndarray) -> BasisFactorization:
    """LU-factorize a square matrix, raising SingularError below the pivot floor."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()  # nan or inf exactly when some entry is
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if scale == 0.0:
        raise SingularError("zero matrix")
    # info > 0 flags an exactly zero pivot; the pivot floor below covers it
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    pivots = np.abs(lu.diagonal())
    if pivots.min() < SINGULAR_RTOL * scale:
        raise SingularError(
            f"pivot {pivots.min():.3e} below {SINGULAR_RTOL:.0e} * {scale:.3e}"
        )
    return BasisFactorization(lu=lu, piv=piv, pivots=pivots)


def _getrs_checked(f: BasisFactorization, rhs, trans: int) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != f.d:
        raise ValueError(f"right-hand side of shape {rhs.shape} for a {f.d}x{f.d} basis")
    x, info = _getrs(f.lu, f.piv, rhs, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def solve(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for the factorized A."""
    return _getrs_checked(f, rhs, 0)


def solve_transpose(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A^T x = rhs for the factorized A."""
    return _getrs_checked(f, rhs, 1)
