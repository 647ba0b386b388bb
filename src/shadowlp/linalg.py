"""Dense kernels for basis matrices: factorize, solve, transpose-solve.

Factorizations are plain partial-pivoting LU from LAPACK's getrf and solves
use getrs; both are resolved once at import and called directly, because at
the sizes this package targets (d <= 50) scipy's `lu_factor`/`lu_solve`
wrappers cost more than the arithmetic.  The factors and solutions are
bit-identical to the wrappers'.

Every basis is still refactored from scratch.  Replaying the kernel calls of
six seeded d = 10, n = 500 solves on a 2-vCPU x86-64 host with one BLAS
thread (best of 25 passes, lowest of three runs), a pivot's three kernels
take about 27 us: `ratio_test` 12, of which the blocking-row scan is 9.5
(two O(n d) matrix-vector products and the selection on length-n arrays),
`make_basis` 9, of which `factorize` is 4.6 around a 2.5 us getrf and the
solve 1.1, and `max_lambda` 6, of which its two transpose-solves are 2.2.
Most of what is left is numpy's fixed cost per call, which is why these
kernels take argmax/argmin in place of max/min reductions, skip `asarray`
on float64 arrays, build their records as named tuples, gather basis rows
with `take` from a sorted index array that the pivot loop carries, and scan
crossings in Python floats.  A rank-one-updated inverse could save little
more than the getrf, and it would move every basic solution and multiplier
in its last bits, so seeded paths and outputs would no longer reproduce.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SingularError

# A matrix is declared singular iff min |pivot| < SINGULAR_RTOL * max |entry|.
# Smoothed inputs are generic, so tripping this signals a bug or a degenerate
# artificial construction rather than bad luck.
SINGULAR_RTOL = 1e-12

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
_F64 = np.dtype(np.float64)  # float64 ndarrays skip the asarray conversion


class BasisFactorization(NamedTuple):
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


def solve(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for the factorized A."""
    if rhs.__class__ is not np.ndarray or rhs.dtype is not _F64:
        rhs = np.asarray(rhs, dtype=float)
    lu = f.lu
    if rhs.ndim not in (1, 2) or rhs.shape[0] != lu.shape[0]:
        raise _rhs_error(rhs, lu)
    x, info = _getrs(lu, f.piv, rhs, 0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def solve_transpose(f: BasisFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A^T x = rhs for the factorized A."""
    # the body of solve with trans = 1, written out: a shared helper
    # would add a Python frame to each of a pivot's four solves
    if rhs.__class__ is not np.ndarray or rhs.dtype is not _F64:
        rhs = np.asarray(rhs, dtype=float)
    lu = f.lu
    if rhs.ndim not in (1, 2) or rhs.shape[0] != lu.shape[0]:
        raise _rhs_error(rhs, lu)
    x, info = _getrs(lu, f.piv, rhs, 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def _rhs_error(rhs: np.ndarray, lu: np.ndarray) -> ValueError:
    d = lu.shape[0]
    return ValueError(f"right-hand side of shape {rhs.shape} for a {d}x{d} basis")
