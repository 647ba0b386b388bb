"""The pivot kernels against the plain numpy versions they replaced.

`linalg.factorize`, `solve`/`solve_transpose`, `simplex.make_basis`,
`max_lambda` and `ratio_test` avoid numpy calls on length-d arrays: argmax
and argmin in place of max and min reductions, one index array for the
basis rows, Python floats for the crossing scan, no `asarray` on float64
arrays.  The reference copies below are the straightforward versions.  Every
result must match them to the bit and every failure must match in type and
message, on the calls a seeded solve makes (unit, lifted phase-2 and input
systems) and on hand-made edge cases.
"""

import math
import warnings

import numpy as np
import pytest

from shadowlp import linalg, simplex, solver
from shadowlp.errors import NegativeStep, NotOptimal, ShadowLpError, SingularError
from shadowlp.instance import dumps_instance, loads_instance
from shadowlp.linalg import SINGULAR_RTOL, BasisFactorization
from shadowlp.rng import RngStream
from shadowlp.simplex import TOL_DIR, Basis, RatioResult

from helpers import ball_instance, mixed_instance

_getrf, _getrs = linalg._getrf, linalg._getrs


# ---------------------------------------------------------------------------
# Reference kernels


def ref_factorize(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if scale == 0.0:
        raise SingularError("zero matrix")
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    pivots = np.abs(lu.diagonal())
    if pivots.min() < SINGULAR_RTOL * scale:
        raise SingularError(
            f"pivot {pivots.min():.3e} below {SINGULAR_RTOL:.0e} * {scale:.3e}"
        )
    return BasisFactorization(lu=lu, piv=piv, pivots=pivots)


def ref_getrs_checked(f, rhs, trans):
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != f.d:
        raise ValueError(f"right-hand side of shape {rhs.shape} for a {f.d}x{f.d} basis")
    x, info = _getrs(f.lu, f.piv, rhs, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def ref_make_basis(A, b, indices):
    idx = tuple(sorted(int(i) for i in indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in basis {idx}")
    f = ref_factorize(A[list(idx)])
    x = ref_getrs_checked(f, b[list(idx)], 0)
    return Basis(indices=idx, factorization=f, x=x)


def ref_multipliers(basis, y):
    return ref_getrs_checked(basis.factorization, y, 1)


def ref_max_lambda(basis, y, y2, lambda_lo):
    mu1 = ref_multipliers(basis, y2)
    mu_lo = ref_multipliers(basis, (1.0 - lambda_lo) * y + lambda_lo * y2)
    if mu_lo.min() < -1e-6:
        raise ValueError(
            f"basis {basis.indices} is not optimal at lambda={lambda_lo} "
            f"(multiplier {mu_lo.min():.3e})"
        )
    pos = (mu1 < 0.0).nonzero()[0]
    # a zero denominator gives +-inf or nan, without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = lambda_lo + (1.0 - lambda_lo) * mu_lo[pos] / (mu_lo[pos] - mu1[pos])
    lams = np.minimum(np.maximum(lams, lambda_lo), 1.0)
    best_lam = 1.0
    leaving = None
    for lam, p in zip(lams.tolist(), pos.tolist()):
        row = basis.indices[p]
        if lam < best_lam - 1e-15 or (abs(lam - best_lam) <= 1e-15 and (leaving is None or row < leaving)):
            best_lam = lam
            leaving = row
    if leaving is None or best_lam >= 1.0:
        return 1.0, None
    return best_lam, leaving


def ref_ratio_test(A, b, basis, leaving):
    pos = basis.indices.index(leaving)
    e = np.zeros(basis.d)
    e[pos] = 1.0
    w = ref_getrs_checked(basis.factorization, e, 0)
    rates = A @ w
    slack = b - A @ basis.x
    rates.put(basis.indices, 0.0)
    rows = (rates < -TOL_DIR).nonzero()[0]
    if rows.size == 0:
        return RatioResult(step=np.inf, entering=None, direction=w)
    steps = slack[rows] / (-rates[rows])
    best = int(steps.argmin())
    step = float(steps[best])
    if step < -1e-9:
        raise NegativeStep(
            f"step {step:.3e} for leaving row {leaving}; slack "
            f"{slack[rows[best]]:.3e} on row {int(rows[best])}"
        )
    return RatioResult(step=max(step, 0.0), entering=int(rows[best]), direction=w)


# ---------------------------------------------------------------------------
# Comparison by bits


def _key(value):
    """A value reduced to comparable bits: arrays by dtype, shape and bytes,
    floats by their IEEE bytes (so nan, -0.0 and the float type count)."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, np.float64(value).tobytes())
    if isinstance(value, BasisFactorization):
        return ("lu", _key(value.lu), _key(value.piv), _key(value.pivots))
    if isinstance(value, Basis):
        return ("basis", value.indices, _key(value.factorization), _key(value.x))
    if isinstance(value, RatioResult):
        return ("ratio", _key(value.step), value.entering, _key(value.direction))
    if isinstance(value, tuple):
        return tuple(_key(v) for v in value)
    return (type(value).__name__, value)


def _outcome(fn, *args):
    """(result key, None) or (None, exception), with the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = (_key(fn(*args)), None)
        except Exception as exc:  # compared below by type and message
            out = (None, exc)
    return out, [(w.category, str(w.message)) for w in caught]


def assert_same(got_fn, ref_fn, *args):
    (got, got_exc), got_warn = _outcome(got_fn, *args)
    (want, want_exc), want_warn = _outcome(ref_fn, *args)
    assert got_warn == want_warn
    if want_exc is None:
        assert got_exc is None, got_exc
        assert got == want
        return None
    assert got_exc is not None, f"expected {want_exc!r}"
    # a typed subclass of the reference's exception is allowed
    assert isinstance(got_exc, type(want_exc)), (got_exc, want_exc)
    assert str(got_exc) == str(want_exc)
    return got_exc


# ---------------------------------------------------------------------------
# Seeded solves: every kernel call they make, replayed through both versions


def _recorded_calls(d, n, family, seed):
    calls = {"make_basis": [], "max_lambda": [], "ratio_test": []}
    originals = {name: getattr(simplex, name) for name in calls}

    def recorder(name):
        def call(*args):
            calls[name].append(args)
            return originals[name](*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(simplex, name, recorder(name))
        mp.setattr(solver, "make_basis", recorder("make_basis"))
        for k in range(2):
            gen = RngStream(seed, k).generator()
            make = ball_instance if family == "ball" else mixed_instance
            inst = make(gen, d, n, 0.05).lp()
            if k == 1:  # a parsed file holds A as a column slice of one array
                inst = loads_instance(dumps_instance(inst))
            solver.solve(RngStream(seed, 100 + k), inst)
    return calls


@pytest.mark.parametrize("d,n,family", [(3, 30, "ball"), (3, 30, "mixed"), (10, 200, "ball"),
                                        (10, 200, "mixed"), (20, 400, "ball"), (20, 400, "mixed")])
def test_kernels_match_reference_on_seeded_solves(d, n, family):
    calls = _recorded_calls(d, n, family, seed=1000 + d)
    dims = {len(args[2]) for args in calls["make_basis"]}
    assert {d, d + 1} <= dims  # input/unit systems and the lifted phase-2 system
    gen = RngStream(77, d).generator()
    for A, b, indices in calls["make_basis"]:
        assert_same(simplex.make_basis, ref_make_basis, A, b, indices)
        m = A[sorted(indices)]
        assert_same(linalg.factorize, ref_factorize, m)
    for basis, y, y2, lam in calls["max_lambda"]:
        assert_same(simplex.max_lambda, ref_max_lambda, basis, y, y2, lam)
        f = basis.factorization
        for rhs in (y2, gen.standard_normal((basis.d, 3))):
            assert_same(linalg.solve, lambda f, r: ref_getrs_checked(f, r, 0), f, rhs)
            assert_same(linalg.solve_transpose, lambda f, r: ref_getrs_checked(f, r, 1), f, rhs)
        # other sweep starts: some of them leave the basis not optimal
        for lo in (0.0, 0.5, 1.0, float(gen.uniform())):
            assert_same(simplex.max_lambda, ref_max_lambda, basis, y, y2, lo)
    for A, b, basis, leaving in calls["ratio_test"]:
        assert_same(simplex.ratio_test, ref_ratio_test, A, b, basis, leaving)
        for other in basis.indices[:3]:
            assert_same(simplex.ratio_test, ref_ratio_test, A, b, basis, other)


# ---------------------------------------------------------------------------
# Edge cases and error paths


def test_factorize_matches_reference_on_edge_inputs():
    gen = RngStream(78, 0).generator()
    m = gen.standard_normal((5, 5))
    cases = [
        m, m.T, m[::-1], m.astype(np.float32), m.astype(">f8"), m.tolist(),
        np.arange(9).reshape(3, 3) + np.eye(3, dtype=int),
        np.zeros((3, 3)),                                    # zero matrix
        np.array([[1.0, 2.0], [2.0, 4.0]]),                  # pivot floor
        np.array([[1.0, 0.0], [0.0, 1e-13]]),                # pivot floor, tiny pivot
        np.diag([1.0, -0.0, 2.0]),                           # an exactly zero pivot
        np.array([[1.0, np.nan], [0.0, 1.0]]),               # non-finite entries
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-np.inf, np.nan]]),
        np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)),     # not square
        np.array([[7.0]]),
    ]
    for case in cases:
        assert_same(linalg.factorize, ref_factorize, case)


def test_factorize_empty_matrix_raises_value_error():
    # numpy's own error on the empty maximum; the message comes from argmax
    # now, not from the max reduction
    with pytest.raises(ValueError):
        ref_factorize(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        linalg.factorize(np.zeros((0, 0)))


def test_solves_match_reference_on_edge_right_hand_sides():
    gen = RngStream(79, 0).generator()
    f = linalg.factorize(gen.standard_normal((4, 4)))
    cases = [
        gen.standard_normal(4), gen.standard_normal((4, 2)), gen.standard_normal(8)[::2],
        np.arange(4), [1.0, 2.0, 3.0, 4.0], np.ones(4, dtype=">f8"), np.array([1.0, np.nan, 0.0, 2.0]),
        np.ones(5), np.ones((5, 2)), np.float64(1.0), np.ones((4, 1, 1)), np.ones(0),  # wrong shapes
    ]
    for rhs in cases:
        assert_same(linalg.solve, lambda f, r: ref_getrs_checked(f, r, 0), f, rhs)
        assert_same(linalg.solve_transpose, lambda f, r: ref_getrs_checked(f, r, 1), f, rhs)


def test_make_basis_matches_reference_on_edge_indices():
    gen = RngStream(80, 0).generator()
    A = gen.standard_normal((8, 3))
    b = gen.standard_normal(8)
    A_strided = np.hstack([A, b[:, None]])[:, :3]  # the layout loaded instance files have
    for indices in [(0, 1, 2), (5, 2, 7), {4, 1, 6}, [np.int64(3), np.int32(0), 7],
                    (i for i in (1, 2, 3)), (-1, 0, 1), (0, 0, 1), (0, 1), (), (0, 1, 9)]:
        indices = tuple(indices)
        for mat in (A, A_strided):
            assert_same(simplex.make_basis, ref_make_basis, mat, b, indices)
    singular = np.vstack([A[:2], A[:1]])
    assert_same(simplex.make_basis, ref_make_basis, singular, b[:3], (0, 1, 2))


@pytest.mark.parametrize("solved", [True, False])
def test_max_lambda_matches_reference_on_edge_multipliers(monkeypatch, solved):
    identity = simplex.make_basis(np.eye(3), np.zeros(3), (0, 1, 2))  # multipliers = objective
    if not solved:
        # a solve spreads a nan over every multiplier; taking the objective
        # itself as the multipliers keeps a nan beside finite values
        def as_is(basis, y):
            return np.array(y, dtype=float)

        monkeypatch.setattr(simplex, "multipliers", as_is)
        monkeypatch.setitem(globals(), "ref_multipliers", as_is)
    nan = np.nan
    cases = [
        ([1.0, 1.0, 1.0], [-1.0, 1.0, 2.0], 0.0),
        ([1.0, 1.0, 1.0], [-1.0, -1.0, 2.0], 0.0),         # a tie, broken toward the smaller row
        ([1.0, 2.0, 1.0], [-1.0, -3.0, -1.0], 0.25),
        ([-1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.0),          # not optimal at lambda_lo
        ([1.0, 1.0, 1.0], [-3.0, 1.0, 1.0], 0.9),          # not optimal at lambda_lo = 0.9
        ([-5e-7, 1.0, 1.0], [-5e-7, 1.0, 1.0], 0.0),       # zero denominator: -inf, clamped
        ([-5e-7, 1.0, 1.0], [-5e-7, 1.0, 1.0], 1.0),       # zero denominator: nan, skipped
        ([1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], 1.5),          # lambda_lo past 1
        ([1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], 0),            # an int lambda_lo
        ([1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], np.float64(0.25)),
        ([-1e-7, 1.0, 1.0], [-1.0, 1.0, 1.0], 0),          # clamped to an int lambda_lo
        ([-1e-7, 1.0, 1.0], [-1.0, 1.0, 1.0], np.float64(0.0)),
        ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.0),           # optimal to the end
        ([0.0, -0.0, 1.0], [-1.0, -1.0, 1.0], 0.0),        # crossings at lambda_lo
        # nan: the minimum of an array with a nan is nan, which passes the
        # optimality check wherever the nan sits (Python's min would return
        # -1.0 for the second case)
        ([nan, -1.0, 1.0], [-1.0, -1.0, 1.0], 0.0),
        ([-1.0, nan, 1.0], [-1.0, -1.0, 1.0], 0.0),
        ([-1.0, 1.0, 1.0], [1.0, nan, 1.0], 0.5),
        ([1.0, 1.0, 1.0], [nan, -1.0, 1.0], 0.0),
        ([1.0, 1.0, 1.0], [-1.0, 1.0, np.inf], 0.5),
        ([1.0, 1.0, 1.0], [-np.inf, -1.0, 1.0], 0.0),
    ]
    for y, y2, lo in cases:
        exc = assert_same(simplex.max_lambda, ref_max_lambda, identity, np.array(y), np.array(y2), lo)
        if exc is not None:
            assert isinstance(exc, NotOptimal) and isinstance(exc, ShadowLpError)


def test_ratio_test_matches_reference_on_edge_systems():
    # x1 <= 1, x2 <= 1, x1 + x2 <= 1, x1 >= 2: the vertex (1, 1) of rows 0
    # and 1 violates rows 2 and 3, so relaxing row 0 has a negative step
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0, -2.0])
    basis = simplex.make_basis(A, b, (0, 1))
    exc = assert_same(simplex.ratio_test, ref_ratio_test, A, b, basis, 0)
    assert isinstance(exc, NegativeStep)
    assert_same(simplex.ratio_test, ref_ratio_test, A, b, basis, 1)
    # no blocking row: an unbounded edge
    assert_same(simplex.ratio_test, ref_ratio_test, A[:2], b[:2], basis, 0)
    # tied steps go to the smallest row; a nan slack is the first minimum
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [-1.0, 0.0], [-1.0, 0.5]])
    for b in ([0.0, 0.0, 2.0, 2.0, 2.0], [0.0, 0.0, 3.0, np.nan, 2.0], [0.0, 0.0, 0.0, 1.0, -1e-12]):
        b = np.array(b)
        basis = simplex.make_basis(A, b, (0, 1))
        for leaving in (0, 1, 7):
            assert_same(simplex.ratio_test, ref_ratio_test, A, b, basis, leaving)
