import numpy as np
import pytest

from shadowlp import NotOptimal, RngStream, ShadowLpError
from shadowlp.oracle import enumerate_feasible_bases, lp_optimum_oracle
from shadowlp.simplex import (
    TOL_DIR,
    Basis,
    Finished,
    _blocking_row,
    UnboundedRay,
    make_basis,
    max_lambda,
    multipliers,
    ratio_test,
    run_shadow_path,
    validate_path,
)
from shadowlp.solver import Optimal

from helpers import ball_instance, bounded_ball_instance


def square_instance():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return A, np.ones(4)


def test_max_lambda_constant_multipliers():
    A, b = square_instance()
    basis = make_basis(A, b, (0, 2))  # vertex (1, 1)
    y = np.array([1.0, 1.0])
    lam, leaving = max_lambda(basis, y, y, 0.0)
    assert lam == 1.0 and leaving is None


def test_max_lambda_affine_root_by_hand():
    # identity basis, mu(lambda) = (1 - 2 lambda, 1): root at 0.5 on coord 0
    basis = make_basis(np.eye(2), np.zeros(2), (0, 1))
    y = np.array([1.0, 1.0])
    y2 = np.array([-1.0, 1.0])
    lam, leaving = max_lambda(basis, y, y2, 0.0)
    assert abs(lam - 0.5) < 1e-15
    assert leaving == 0


def test_max_lambda_matches_grid_scan():
    gen = RngStream(20, 0).generator()
    for _ in range(20):
        si = ball_instance(gen, 3, 12, 0.05)
        inst = si.lp()
        bases = enumerate_feasible_bases(inst)
        if not bases:
            continue
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        if not isinstance(opt, Optimal):
            continue
        basis = make_basis(inst.A, inst.b, opt.basis_indices)
        y2 = gen.standard_normal(3)
        lam, leaving = max_lambda(basis, y, y2, 0.0)
        lams = np.linspace(0, 1, 10001)
        mu0 = multipliers(basis, y)
        mu1 = multipliers(basis, y2)
        vals = (1 - lams)[:, None] * mu0 + lams[:, None] * mu1
        feasible = lams[np.all(vals >= -1e-12, axis=1)]
        assert abs(lam - feasible.max()) < 1e-4


def test_ratio_test_trivials():
    # single blocking row with slack 2 and rate -1 -> step 2
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    b = np.array([0.0, 0.0, 2.0])
    basis = make_basis(A, b, (0, 1))  # vertex at origin
    res = ratio_test(A, b, basis, 0)
    assert res.entering == 2 and abs(res.step - 2.0) < 1e-12
    # no blocking row -> unbounded edge
    A2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b2 = np.zeros(2)
    res2 = ratio_test(A2, b2, make_basis(A2, b2, (0, 1)), 0)
    assert res2.entering is None and np.isinf(res2.step)


def test_ratio_test_new_point_tight():
    gen = RngStream(21, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
    inst = si.lp()
    basis = bases[0]
    leaving = basis.indices[0]
    res = ratio_test(inst.A, inst.b, basis, leaving)
    if res.entering is not None:
        x_new = basis.x - res.step * res.direction
        assert abs(inst.A[res.entering] @ x_new - inst.b[res.entering]) < 1e-8


def test_square_path_two_vertices():
    A, b = square_instance()
    # start at (1,-1), optimal (weakly) for (1, 0); target (0, 1)
    start = make_basis(A, b, (0, 3))
    path, out = run_shadow_path(A, b, np.array([1.0, 0.0]), np.array([0.0, 1.0]), start)
    assert isinstance(out, Finished)
    assert path.index_sequence == [(0, 3), (0, 2)]
    assert np.allclose(out.basis.x, [1.0, 1.0])
    validate_path(A, b, path)


def test_start_not_optimal_raises_typed_error():
    A, b = square_instance()
    start = make_basis(A, b, (0, 2))  # vertex (1, 1): not optimal for (-1, 1)
    with pytest.raises(NotOptimal) as caught:
        run_shadow_path(A, b, np.array([-1.0, 1.0]), np.array([0.0, 1.0]), start)
    assert isinstance(caught.value, ShadowLpError) and isinstance(caught.value, ValueError)
    assert str(caught.value) == "basis (0, 2) is not optimal at lambda=0.0 (multiplier -1.000e+00)"


def test_start_already_optimal():
    A, b = square_instance()
    start = make_basis(A, b, (0, 2))
    path, out = run_shadow_path(A, b, np.array([1.0, 1.0]), np.array([2.0, 2.0000001]), start)
    assert isinstance(out, Finished) and len(path) == 1 and path.pivots == 0


def test_unbounded_ray_detected():
    # wedge open upward: x <= 1, -x <= 1 in 2-d leaves y free
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.ones(3)
    start = make_basis(A, b, (0, 2))  # vertex (1, -1)
    path, out = run_shadow_path(A, b, np.array([1.0, -1.0]), np.array([0.0, 1.0]), start)
    assert isinstance(out, UnboundedRay)
    ray = out.ray / np.linalg.norm(out.ray)
    assert (A @ ray).max() <= 1e-9
    assert np.array([0.0, 1.0]) @ ray > 0


def test_lambdas_nondecreasing_and_path_valid():
    gen = RngStream(22, 0).generator()
    for _ in range(10):
        si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
        inst = si.lp()
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        path, out = run_shadow_path(inst.A, inst.b, y, si.c, start)
        assert isinstance(out, Finished)
        assert path.lambdas[0] == 0.0
        assert all(b >= a for a, b in zip(path.lambdas, path.lambdas[1:]))
        validate_path(inst.A, inst.b, path)
        # consecutive bases differ in exactly one index
        for b1, b2 in zip(path.bases, path.bases[1:]):
            assert len(set(b1.indices) & set(b2.indices)) == len(b1.indices) - 1
        # graph-path property: no repeats
        seqs = path.index_sequence
        assert len(set(seqs)) == len(seqs)


def test_scale_invariance_of_basis_sequence():
    gen = RngStream(23, 0).generator()
    checked = 0
    while checked < 50:
        si, bases = bounded_ball_instance(gen, 3, 12, 0.05)
        inst = si.lp()
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        if not isinstance(opt, Optimal):
            continue
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        ref, _ = run_shadow_path(inst.A, inst.b, y, si.c, start)
        for sa, sb, sy, sy2 in ((0.5, 3.0, 10.0, 0.5), (3.0, 0.5, 0.5, 10.0), (10.0, 10.0, 3.0, 3.0)):
            A2, b2 = sa * inst.A, sb * inst.b
            start2 = make_basis(A2, b2, opt.basis_indices)
            path2, _ = run_shadow_path(A2, b2, sy * y, sy2 * si.c, start2)
            assert path2.index_sequence == ref.index_sequence
        checked += 1


def test_reversal_property():
    gen = RngStream(24, 0).generator()
    for _ in range(10):
        si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
        inst = si.lp()
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        fwd, out = run_shadow_path(inst.A, inst.b, y, si.c, start)
        back, out2 = run_shadow_path(inst.A, inst.b, si.c, y, out.basis)
        assert back.index_sequence == fwd.index_sequence[::-1]


def test_composition_overlap_at_most_two():
    gen = RngStream(25, 0).generator()
    for _ in range(10):
        si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
        inst = si.lp()
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        mid = 0.5 * y + 0.5 * si.c
        first, out1 = run_shadow_path(inst.A, inst.b, y, mid, start)
        second, _ = run_shadow_path(inst.A, inst.b, mid, si.c, out1.basis)
        overlap = set(first.index_sequence) & set(second.index_sequence)
        assert len(overlap) <= 2


def test_make_basis_rejects_duplicates():
    A, b = square_instance()
    with pytest.raises(ValueError):
        make_basis(A, b, (0, 0))


def _basis_bits(basis):
    f = basis.factorization
    return (basis.indices, *((a.dtype.str, a.shape, a.tobytes()) for a in (basis.rows, f.lu, f.piv, f.pivots, basis.x)))


def _basis_or_error(A, b, indices):
    try:
        return _basis_bits(make_basis(A, b, indices))
    except ValueError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("strided", [False, True])
def test_make_basis_index_array_matches_other_forms(strided):
    # the pivot loop passes an intp array: it must be sorted and checked for
    # duplicates exactly as a tuple, set or generator is, and left unchanged
    gen = RngStream(21, 0).generator()
    A = gen.standard_normal((9, 4))
    b = gen.standard_normal(9)
    if strided:  # a column slice: take copies it whole, to the same bits
        A = np.hstack([A, b[:, None]])[:, :4]
        assert not A.flags.c_contiguous
    for rows in ([7, 2, 5, 0], [0, 3, 6, 8], [8, 6, 3, 1]):
        arr = np.array(rows, dtype=np.intp)
        want = _basis_or_error(A, b, tuple(rows))
        assert want[0] == tuple(sorted(rows))
        for form in (set(rows), (i for i in rows), arr):
            assert _basis_or_error(A, b, form) == want
        assert arr.tolist() == rows
    for rows in ([5, 2, 5, 0], [1, 1, 1, 1]):
        want = _basis_or_error(A, b, tuple(rows))
        assert want == (ValueError, f"duplicate indices in basis {tuple(sorted(rows))}")
        assert _basis_or_error(A, b, (i for i in rows)) == want
        assert _basis_or_error(A, b, np.array(rows, dtype=np.intp)) == want
    # a Basis built without rows derives them from its indices
    basis = make_basis(A, b, (0, 3, 6, 8))
    rebuilt = Basis(indices=basis.indices, factorization=basis.factorization, x=basis.x)
    assert _basis_bits(rebuilt) == _basis_bits(basis)


def test_ratio_test_exact_tie_enters_smaller_row():
    # from vertex (1, 1), relaxing x <= 1 moves along -x; rows 2 and 3 both
    # block at step exactly 2, listed with the steeper rate first and last
    for rows in ([[-2.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [-2.0, 0.0]]):
        A = np.array([[1.0, 0.0], [0.0, 1.0], *rows, [-1.0, 0.0]])
        b = np.array([1.0, 1.0, -A[2, 0], -A[3, 0], 5.0])
        res = ratio_test(A, b, make_basis(A, b, (0, 1)), 0)
        assert res.step == 2.0
        assert res.entering == 2


def test_blocking_row_ties_threshold_and_tight_rows():
    # x = 0 and w = e_1, so row i's rate a_i^T w is A[i, 0] and its slack b_i
    x, w = np.zeros(2), np.array([1.0, 0.0])
    A = np.array([[-5.0, 0.0], [-TOL_DIR, 1.0], [-2.0, 0.0], [-1.0, 3.0], [1.0, 0.0],
                  [-4.0, 1.0]])
    b = np.array([0.0, 1e-20, 2.0, 1.0, 0.5, 4.0])
    # rows 2, 3 and 5 block at step exactly 1 and the smallest row enters;
    # row 1's rate of exactly -TOL_DIR does not block, and tight row 0 never
    # blocks, though its rate is negative and its slack 0
    assert _blocking_row(A, b, x, w, [0]) == (1.0, 2, 2.0)
    assert _blocking_row(A, b, x, w, [0, 2]) == (1.0, 3, 1.0)
    A[1, 0] = np.nextafter(-TOL_DIR, -1.0)  # past the threshold, row 1 blocks first
    assert _blocking_row(A, b, x, w, [0])[1] == 1
    step, row, _ = _blocking_row(A, b, x, w, [0, 1, 2, 3, 5])
    assert step == np.inf and row is None


def _max_lambda_sequential(basis, y, y2, lambda_lo):
    """max_lambda as a scan over the basis positions (the reference)."""
    mu1 = multipliers(basis, y2)
    mu_lo = multipliers(basis, (1.0 - lambda_lo) * y + lambda_lo * y2)
    best_lam = 1.0
    leaving = None
    for pos in range(len(mu_lo)):
        if mu1[pos] >= 0.0:
            continue
        lam = lambda_lo + (1.0 - lambda_lo) * mu_lo[pos] / (mu_lo[pos] - mu1[pos])
        lam = min(max(lam, lambda_lo), 1.0)
        row = basis.indices[pos]
        if lam < best_lam - 1e-15 or (abs(lam - best_lam) <= 1e-15 and (leaving is None or row < leaving)):
            best_lam = lam
            leaving = row
    if leaving is None or best_lam >= 1.0:
        return 1.0, None
    return best_lam, leaving


def test_max_lambda_near_ties_match_sequential_scan():
    # identity basis: the multipliers are y and y2 themselves, so coordinate
    # i with y2_i = -1 and y_i = t / (1 - t) crosses zero at lambda ~ t
    d = 8
    basis = make_basis(np.eye(d), np.zeros(d), range(d))
    gen = RngStream(7, 0).generator()
    for _ in range(600):
        lo = float(gen.choice([0.0, 0.1, 0.5, 0.9]))
        t0 = float(gen.choice([lo, lo + 1e-15, 0.3, 0.95, 1.0 - 3e-15, 1.0 - 1e-15, 1.0]))
        t0 = min(max(t0, lo), 1.0)
        spacing = float(gen.choice([0.0, 2e-16, 5e-16, 1e-15, 1.5e-15, 5e-15, 1.2e-14, 3e-14, 1e-3]))
        t = np.clip(t0 + spacing * gen.permutation(d), lo, 1.0)
        y2 = np.where(gen.random(d) < 0.8, -1.0, 0.5)
        with np.errstate(divide="ignore"):
            y = np.where(t < 1.0, t / (1.0 - t), 1e300)
        if gen.random() < 0.3:  # an exact duplicate of another coordinate
            i, j = gen.choice(d, 2, replace=False)
            y[i], y2[i] = y[j], y2[j]
        # keep the basis optimal at lo: mu_lo = (1 - lo) y + lo y2 >= 0
        y = np.maximum(y, lo / (1.0 - lo) + 1e-300) if lo < 1.0 else y
        expected = _max_lambda_sequential(basis, y, y2, lo)
        got = max_lambda(basis, y, y2, lo)
        assert got == expected, (lo, t0, spacing)
