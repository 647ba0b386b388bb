import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shadowlp import (
    LPInstance,
    NormViolation,
    RngStream,
    exp_ball_sample,
    gaussian_vector,
    random_rotation,
    smoothed_instance,
    uniform_sphere,
)
from shadowlp.rng import _squared_norms, unit_rows


def test_stream_reproducibility_bitwise():
    a = RngStream(42, 7).generator().standard_normal(100)
    b = RngStream(42, 7).generator().standard_normal(100)
    assert np.array_equal(a, b)
    c = RngStream(42, 8).generator().standard_normal(100)
    assert not np.array_equal(a, c)


def test_gaussian_vector_sigma_zero_exact():
    mean = np.array([1.0, -2.0, 0.5])
    out = gaussian_vector(RngStream(1, 0), mean, 0.0)
    assert np.array_equal(out, mean)


def test_gaussian_vector_clt_mean():
    gen = RngStream(2, 0).generator()
    draws = gaussian_vector(gen, np.zeros(10**6), 1.0)
    assert abs(draws.mean()) < 4.0 / math.sqrt(10**6)


def test_gaussian_norm_tail():
    # ||x|| > 4 sigma sqrt(d ln n) with n = 100 should be vanishingly rare
    gen = RngStream(3, 0).generator()
    d, sigma, n = 3, 0.1, 100
    cut = 4 * sigma * math.sqrt(d * math.log(n))
    draws = sigma * gen.standard_normal((20000, d))
    freq = (np.linalg.norm(draws, axis=1) > cut).mean()
    assert freq < 1e-4


def test_exp_ball_moments():
    # k'th moment of the norm is (k+d-1)!/(d-1)!
    for d in (2, 3, 5):
        samples = exp_ball_sample(RngStream(4, d), d, size=10**5)
        norms = np.linalg.norm(samples, axis=1)
        for k in (1, 2, 3):
            moment = norms**k
            expected = math.factorial(k + d - 1) / math.factorial(d - 1)
            stderr = moment.std(ddof=1) / math.sqrt(len(moment))
            assert abs(moment.mean() - expected) < 4 * stderr, (d, k)


def test_exp_ball_tail():
    # Pr[||X|| >= 2 e d ln t] <= t^{-d} at d=3, t=2
    d, t = 3, 2.0
    cut = 2 * math.e * d * math.log(t)
    norms = np.linalg.norm(exp_ball_sample(RngStream(5, 0), d, size=10**5), axis=1)
    assert (norms >= cut).mean() <= t ** (-d)


def test_uniform_sphere_d1_balance():
    draws = uniform_sphere(RngStream(6, 0), 1, size=10**4).ravel()
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    # chi-square with 1 dof at the 0.01 level: |n+ - n-|^2 / N < 6.63
    plus = (draws > 0).sum()
    chi2 = (2 * plus - len(draws)) ** 2 / len(draws)
    assert chi2 < 6.63


def test_uniform_sphere_norms_and_mean():
    pts = uniform_sphere(RngStream(7, 0), 4, size=10**6)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    assert np.linalg.norm(pts.mean(axis=0)) <= 4.0 / math.sqrt(10**6)


class _ScriptedDraws:
    """A generator stand-in whose standard_normal returns `rows`, one row
    per requested row, and raises past `limit` calls."""

    def __init__(self, rows, limit=3):
        self.rows, self.limit, self.calls = np.asarray(rows, dtype=float), limit, 0

    def standard_normal(self, shape):
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError("the zero rows were redrawn again and again")
        return self.rows[:shape[0]].copy()


@pytest.mark.parametrize("view", ["1-d", "2-d strided", "3-d strided"])
def test_unit_rows_redraws_zero_rows_in_place(view):
    # the redraw must land in g itself: where g's leading axes do not merge
    # (the 3-d view), a reshape copies, and a redraw written into the copy
    # is lost
    draws = [[3.0, 4.0, 12.0], [0.0, 5.0, 0.0], [1.0, 1.0, 1.0], [2.0, -1.0, 0.5],
             [0.0, 0.0, -7.0], [1e-3, 2e-3, 0.0]]
    if view == "1-d":
        g = np.zeros(3)
    elif view == "2-d strided":
        base = np.zeros((4, 6))
        base[1] = 2.0
        g = base[:, ::2]
    else:
        g = np.zeros((4, 3, 3))[::2]
    zero = (g == 0.0).all(axis=-1)
    expect = g.copy()
    expect[zero] = np.asarray(draws)[:int(zero.sum())]
    expect /= np.linalg.norm(expect, axis=-1, keepdims=True)
    gen = _ScriptedDraws(draws)
    assert unit_rows(gen, g) is g
    assert gen.calls == 1
    assert np.array_equal(g, expect)


def _leading_shapes(d):
    return st.sampled_from([(), (1,), (5,), (2, 3)]).map(lambda lead: lead + (d,))


_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0),  # comparable squares, whose sum order shows in the bits
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, -1e160, 1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), fortran=st.booleans())
def test_squared_norms_equal_add_reduce_bit_for_bit(data, d, fortran):
    # zeros, subnormals, squares that underflow and squares that overflow,
    # on 1-, 2- and 3-d arrays, with the last axis contiguous or strided
    x = data.draw(hnp.arrays(np.float64, _leading_shapes(d), elements=_ENTRIES))
    if fortran:
        x = np.asfortranarray(x)
    with np.errstate(over="ignore"):
        got = np.asarray(_squared_norms(x))
        want = np.asarray(np.add.reduce(x * x, axis=-1))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sphere_mass_bounds():
    # slab: Pr[|theta_1| <= alpha] <= alpha sqrt(d e)
    d, alpha = 5, 0.05
    pts = uniform_sphere(RngStream(8, 0), d, size=10**5)
    freq = (np.abs(pts[:, 0]) <= alpha).mean()
    assert freq <= alpha * math.sqrt(d * math.e)
    # tail: Pr[|theta_1| >= t/sqrt(d)] <= sqrt(d e) exp(-t^2/2)
    d = 4
    pts = uniform_sphere(RngStream(8, 1), d, size=10**5)
    for t in (3.0, 1.5):
        freq = (np.abs(pts[:, 0]) >= t / math.sqrt(d)).mean()
        assert freq <= math.sqrt(d * math.e) * math.exp(-t * t / 2.0), t


def test_random_rotation_orthogonal_and_special():
    for k in range(50):
        r = random_rotation(RngStream(9, k), 3)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_rotation_first_column_uniform():
    # R e_1 should behave like a uniform sphere point: reuse the slab bound
    gen = RngStream(10, 0).generator()
    cols = np.array([random_rotation(gen, 3) @ np.array([1.0, 0, 0]) for _ in range(20000)])
    alpha = 0.05
    freq = (np.abs(cols[:, 0]) <= alpha).mean()
    assert freq <= alpha * math.sqrt(3 * math.e)


def test_smoothed_instance_bookkeeping():
    gen = RngStream(11, 0).generator()
    abar = np.array([[0.5, 0.0], [0.0, -0.5], [0.3, 0.3]])
    bbar = np.array([0.5, 0.5, 0.1])
    c = np.array([1.0, 0.0])
    si = smoothed_instance(gen, abar, bbar, c, sigma=0.05)
    # a smoothed LP is an LP with sigma as a record about it; abar and bbar
    # are not kept
    assert isinstance(si, LPInstance) and (si.n, si.d, si.sigma) == (3, 2, 0.05)
    assert not hasattr(si, "abar") and not hasattr(si, "bbar")
    assert si.A.flags.c_contiguous
    replay = RngStream(11, 0).generator()
    assert np.array_equal(si.A, abar + 0.05 * replay.standard_normal(abar.shape))
    assert np.array_equal(si.b, bbar + 0.05 * replay.standard_normal(bbar.shape))
    plain = si.lp()
    assert type(plain) is LPInstance and not hasattr(plain, "sigma")
    assert plain.A is si.A and plain.b is si.b and plain.c is si.c


def test_smoothed_instance_norm_violation():
    gen = RngStream(12, 0).generator()
    abar = np.array([[1.0, 0.2]])  # combined row norm > 1
    with pytest.raises(NormViolation):
        smoothed_instance(gen, abar, np.array([0.5]), np.array([1.0, 0.0]), 0.1)
    with pytest.raises(ValueError):
        smoothed_instance(gen, np.array([[0.5, 0.0]]), np.array([0.5]), np.array([1.0, 0.0]), 0.0)


def test_smoothed_row_norm_event_frequency():
    # rows of A stay within 1 + 4 sigma sqrt(d log n) essentially always
    d, n, sigma = 3, 20, 0.05
    cut = 1.0 + 4 * sigma * math.sqrt(d * math.log(n))
    bad = 0
    trials = 2000
    for k in range(trials):
        gen = RngStream(13, k).generator()
        dirs = uniform_sphere(gen, d, n)
        si = smoothed_instance(gen, dirs / np.sqrt(2), np.full(n, 1 / np.sqrt(2)),
                               np.eye(d)[0], sigma)
        if (np.linalg.norm(si.A, axis=1) > cut).any():
            bad += 1
    # per-trial failure probability is below n^-d = 1.25e-4; 8 failures in
    # 2000 trials would be a > 5-sigma surprise
    assert bad <= 8


def test_smoothed_instances_bitwise_reproducible():
    def build(stream):
        gen = stream.generator()
        dirs = uniform_sphere(gen, 3, 10)
        return smoothed_instance(
            gen, dirs / np.sqrt(2), np.full(10, 1 / np.sqrt(2)), np.eye(3)[0], 0.05
        )

    a = build(RngStream(14, 3))
    b = build(RngStream(14, 3))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    c = build(RngStream(14, 4))
    assert not np.array_equal(a.A, c.A)
