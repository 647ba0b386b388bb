import numpy as np
import pytest

from shadowlp import SingularError, factorize, linsolve, solve_transpose
from shadowlp.rng import RngStream


def test_identity_pivots_are_one():
    f = factorize(np.eye(3))
    assert np.allclose(f.pivots, 1.0)


def test_duplicated_row_is_singular():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularError):
        factorize(m)


def test_solve_identity_and_diag():
    f = factorize(np.eye(2))
    assert np.allclose(linsolve(f, np.array([2.0, 3.0])), [2.0, 3.0])
    f = factorize(np.diag([2.0, 4.0]))
    assert np.allclose(linsolve(f, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_seeded_residual():
    gen = RngStream(2, 0).generator()
    m = gen.standard_normal((6, 6))
    rhs = gen.standard_normal(6)
    x = linsolve(factorize(m), rhs)
    assert np.abs(m @ x - rhs).max() <= 1e-9 * (1 + np.abs(rhs).max())


def test_solve_transpose_hand_case():
    # A = [[1,1],[0,1]]; A^T mu = (1,1) has mu = (1, 0)
    f = factorize(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(solve_transpose(f, np.array([1.0, 1.0])), [1.0, 0.0])
    assert np.allclose(solve_transpose(factorize(np.eye(2)), np.array([1.0, 0.0])), [1.0, 0.0])


def test_solve_transpose_seeded_residual():
    gen = RngStream(3, 0).generator()
    m = gen.standard_normal((7, 7))
    rhs = gen.standard_normal(7)
    mu = solve_transpose(factorize(m), rhs)
    assert np.abs(m.T @ mu - rhs).max() <= 1e-9 * (1 + np.abs(rhs).max())


def test_thousand_seeded_solves_within_tolerance():
    gen = RngStream(4, 0).generator()
    checked = 0
    while checked < 1000:
        d = int(gen.integers(2, 9))
        m = gen.standard_normal((d, d))
        if np.linalg.cond(m) >= 1e8:
            continue
        rhs = gen.standard_normal(d)
        x = linsolve(factorize(m), rhs)
        assert np.abs(m @ x - rhs).max() <= 1e-9 * (1 + np.abs(rhs).max())
        checked += 1


def test_transpose_agrees_on_singularity():
    gen = RngStream(5, 0).generator()
    mats = [gen.standard_normal((4, 4)) for _ in range(50)]
    sing = np.ones((3, 3))
    mats.append(sing)
    mats.append(np.array([[1.0, 2.0], [2.0, 4.0]]))
    for m in mats:
        def verdict(a):
            try:
                factorize(a)
                return False
            except SingularError:
                return True
        assert verdict(m) == verdict(m.T)


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        factorize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        factorize(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(SingularError):
        factorize(np.zeros((3, 3)))


def test_kernels_bit_equal_scipy_lu_wrappers():
    # the direct getrf/getrs calls give exactly what scipy's wrappers give
    from scipy.linalg import lu_factor, lu_solve

    for d in range(2, 51):
        gen = RngStream(6, d).generator()
        m = gen.standard_normal((d, d))
        rhs = gen.standard_normal(d)
        f = factorize(m)
        lu, piv = lu_factor(m, check_finite=False)
        assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv)
        assert np.array_equal(f.pivots, np.abs(np.diag(lu)))
        ref = lu_solve((lu, piv), rhs, check_finite=False)
        assert np.array_equal(linsolve(f, rhs), ref)
        ref_t = lu_solve((lu, piv), rhs, trans=1, check_finite=False)
        assert np.array_equal(solve_transpose(f, rhs), ref_t)


def test_exactly_singular_and_bad_rhs():
    # getrf meets an exactly zero pivot; the pivot floor turns it into SingularError
    with pytest.raises(SingularError):
        factorize(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]))
    with pytest.raises(SingularError):
        factorize(np.array([[0.0, 1.0], [0.0, 2.0]]))
    f = factorize(np.eye(3))
    with pytest.raises(ValueError):
        linsolve(f, np.ones(2))
    with pytest.raises(ValueError):
        solve_transpose(f, np.ones((3, 1, 1)))
