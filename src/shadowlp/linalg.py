"""Dense kernels for basis matrices: factorize, solve, transpose-solve.

Factorizations are plain partial-pivoting LU from LAPACK's getrf and solves
use getrs; both are resolved once at import and called directly, because at
the sizes this package targets (d <= 50) scipy's `lu_factor`/`lu_solve`
wrappers cost more than the arithmetic.  The factors and solutions are
bit-identical to the wrappers'.

Every basis is still refactored from scratch.  Replaying the kernel calls of
six seeded d = 10, n = 500 solves on a 2-vCPU x86-64 host with one BLAS
thread (best of 9 passes), a pivot's three kernels take about 41 us:
`ratio_test` 18 (two O(n d) matrix-vector products and the blocking-row
selection on length-n arrays), `make_basis` 15, of which `factorize` is 6
around a 2 us getrf and the solve 1.3, and `max_lambda` 8, of which its two
transpose-solves are 2.6.  Most of what is left is numpy's fixed cost per
call on arrays of length d, which is why these kernels take argmax/argmin
in place of max/min reductions, skip `asarray` on float64 arrays, gather
basis rows with one index array and scan crossings in Python floats.  A
rank-one-updated inverse could save little more than the getrf, and it would
move every basic solution and multiplier in its last bits, so seeded paths
and outputs would no longer reproduce.
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
_F64 = np.dtype(np.float64)  # float64 ndarrays skip the asarray conversion


@dataclass(frozen=True)
class BasisFactorization:
    """Permuted triangular factors of a square matrix, plus its pivot record."""

    lu: np.ndarray
    piv: np.ndarray
    pivots: np.ndarray  # |diag(U)|, in elimination order

    @property
    def d(self) -> int:
        return self.lu.shape[0]


def factorize(m: np.ndarray) -> BasisFactorization:
    """LU-factorize a square matrix, raising SingularError below the pivot floor."""
    if m.__class__ is not np.ndarray or m.dtype is not _F64:
        m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # extremes by argmax/argmin: the values max()/min() give, NaN included
    # (a NaN entry is returned as the extreme), at a fraction of a
    # reduction's per-call cost
    a = np.abs(m.ravel())
    scale = a[a.argmax()]  # nan or inf exactly when some entry is
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if scale == 0.0:
        raise SingularError("zero matrix")
    # info > 0 flags an exactly zero pivot; the pivot floor below covers it
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    pivots = np.abs(lu.diagonal())
    low = pivots[pivots.argmin()]
    if low < SINGULAR_RTOL * scale:
        raise SingularError(f"pivot {low:.3e} below {SINGULAR_RTOL:.0e} * {scale:.3e}")
    return BasisFactorization(lu, piv, pivots)


def _getrs_checked(f: BasisFactorization, rhs, trans: int) -> np.ndarray:
    if rhs.__class__ is not np.ndarray or rhs.dtype is not _F64:
        rhs = np.asarray(rhs, dtype=float)
    d = f.lu.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != d:
        raise ValueError(f"right-hand side of shape {rhs.shape} for a {d}x{d} basis")
    x, info = _getrs(f.lu, f.piv, rhs, trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def solve(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for the factorized A."""
    return _getrs_checked(f, rhs, 0)


def solve_transpose(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A^T x = rhs for the factorized A."""
    return _getrs_checked(f, rhs, 1)
