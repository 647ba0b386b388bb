import math
import warnings

import numpy as np
import pytest

from shadowlp import LPInstance, RngStream
from shadowlp.analysis import (
    PathReport,
    annulus_integral_bound,
    boundary_integral,
    build_schedule,
    classify_path,
    compose_far_sets_inequality,
    compose_paths_inequality,
    exterior_angles,
    good_multiplier_threshold,
    multiplier_margin,
    multiplier_margins,
    relative_gap_threshold,
    relative_slack,
    run_schedule,
    segment_cone_trial,
    triple_mask,
    triples_inequality,
)
from shadowlp.errors import NonConvexInput, ShadowLpError, ZeroVertex
from shadowlp.experiments import scaling_instance
from shadowlp.oracle import lp_optimum_oracle, orthonormal_frame, shadow_polygon_oracle
from shadowlp.simplex import make_basis, multipliers, run_shadow_path
from shadowlp.solver import solve

from helpers import bounded_ball_instance, cube_instance


def test_threshold_formulas():
    assert abs(good_multiplier_threshold(5) - math.log(1 / 0.99) / 10) < 1e-15
    assert abs(good_multiplier_threshold(5) - 0.0010050) < 5e-7
    # sigma=0.1, d=4, n=100 -> about 2.53e-7
    assert abs(relative_gap_threshold(0.1, 4, 100) - 2.53e-7) < 0.01e-7


def test_margin_identity_cases():
    basis = make_basis(np.eye(2), np.zeros(2), (0, 1))
    margin, lam = multiplier_margin(basis, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert margin == 1.0
    margin, lam = multiplier_margin(basis, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(margin - 0.5) < 1e-15 and abs(lam - 0.5) < 1e-15


def test_margin_matches_grid():
    gen = RngStream(60, 0).generator()
    for _ in range(20):
        d = int(gen.integers(2, 6))
        M = gen.standard_normal((d, d))
        basis = make_basis(M, np.zeros(d), range(d))
        c, c2 = gen.standard_normal(d), gen.standard_normal(d)
        margin, _ = multiplier_margin(basis, c, c2)
        lams = np.linspace(0.0, 1.0, 100001)
        mu0 = np.linalg.solve(M.T, c)
        mu1 = np.linalg.solve(M.T, c2)
        grid = ((1 - lams)[:, None] * mu0 + lams[:, None] * mu1).min(axis=1).max()
        # the exact optimum can exceed the grid scan by at most resolution * slope
        assert grid - 1e-12 <= margin <= grid + 1e-5 * np.abs(mu1 - mu0).max() + 1e-12


def _margin_by_pairwise_scan(basis, c, c2):
    """multiplier_margin as a double loop over coordinate pairs followed by a
    strict-improvement scan over the candidates: the reference."""
    mu0 = multipliers(basis, c)
    mu1 = multipliers(basis, c2)
    candidates = [0.0, 1.0]
    d = len(mu0)
    for i in range(d):
        for j in range(i + 1, d):
            da = mu0[i] - mu0[j]
            db = mu1[i] - mu1[j]
            den = da - db
            if den != 0.0:
                lam = da / den
                if 0.0 < lam < 1.0:
                    candidates.append(float(lam))
    best = -np.inf
    witness = 0.0
    for lam in candidates:
        val = float(np.min((1.0 - lam) * mu0 + lam * mu1))
        if val > best:
            best = val
            witness = lam
    return best, witness


def _bits(x):
    return np.float64(x).tobytes()


def _assert_margin_matches_scan(basis, c, c2):
    got = multiplier_margin(basis, c, c2)
    want = _margin_by_pairwise_scan(basis, c, c2)
    assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1])), (got, want)
    return got


def test_multiplier_margin_matches_pairwise_scan():
    gen = RngStream(62, 0).generator()
    zero_den = at_end = 0
    for case in range(600):
        d = 1 + case % 20
        kind = case % 5
        if kind < 3:
            M = gen.standard_normal((d, d))
            c = gen.standard_normal(d)
            c2 = c.copy() if kind == 0 else gen.standard_normal(d)
        else:
            # identity basis, so mu = c exactly: coordinates on a half-integer
            # grid (signed zeros included) repeat, which makes den == 0 and
            # puts crossings exactly at lambda = 0 or 1
            M = np.eye(d)
            c = -gen.integers(-2, 3, d) / 2.0
            c2 = gen.integers(-2, 3, d) / 2.0 if kind == 3 else c[gen.permutation(d)]
            da = c[:, None] - c[None, :]
            den = da - (c2[:, None] - c2[None, :])
            upper = np.triu(np.ones((d, d), dtype=bool), 1)
            zero_den += int((upper & (den == 0.0)).sum())
            at_end += int((upper & (den != 0.0) & ((da == 0.0) | (da == den))).sum())
        basis = make_basis(M, np.zeros(d), range(d))
        _assert_margin_matches_scan(basis, c, c2)
    assert zero_den > 100 and at_end > 100

    # three candidates tie on the flat top min(1/4, lam, 1 - lam) = 1/4 over
    # [1/4, 3/4]; the witness is the first of them, lambda = 1/4
    basis = make_basis(np.eye(3), np.zeros(3), range(3))
    got = _assert_margin_matches_scan(basis, np.array([0.25, 0.0, 1.0]), np.array([0.25, 1.0, 0.0]))
    assert got == (0.25, 0.25)

    # the margin is a minimum over eight 0.0 and one -0.0 at lambda = 0; its
    # sign of zero is the one a 1-D np.min returns (a reduction over the
    # other axis returns the other sign)
    nine = make_basis(np.eye(9), np.zeros(9), range(9))
    c = np.append(np.zeros(8), -0.0)
    _assert_margin_matches_scan(nine, c, np.append(np.ones(8), -1.0))

    # 0 * inf makes the minimum at lambda = 0 NaN here; a NaN candidate is
    # never picked, and when every minimum is NaN the margin is -inf at 0
    one = make_basis(np.eye(1), np.zeros(1), range(1))
    with np.errstate(invalid="ignore"):
        got = _assert_margin_matches_scan(one, np.array([1.0]), np.array([np.inf]))
        assert got == (np.inf, 1.0)
        got = _assert_margin_matches_scan(basis, np.full(3, np.nan), np.ones(3))
        assert got == (-np.inf, 0.0)


def test_multiplier_margins_match_pairwise_scan_row_by_row():
    # one call on a stack of k bases gives, row by row, the bits of the
    # per-basis scan, and raises no warning whatever the multipliers hold
    gen = RngStream(66, 0).generator()
    zero_den = with_inf = all_nan = 0
    for d in (1, 2, 3, 9):
        for k in (1, 2, 5, 40):
            rows = []
            for r in range(k):
                kind = int(gen.integers(5)) if k > 1 else (d + r) % 5
                M = gen.standard_normal((d, d)) if kind == 0 else np.eye(d)
                if kind == 3:
                    c, c2 = np.full(d, np.nan), gen.standard_normal(d)
                elif kind == 4:
                    # the margin is at lambda = 0, a minimum over 0.0 and one
                    # -0.0, whose sign depends on the order of the reduction
                    # (at d = 9 a reduction across the other axis flips it)
                    c, c2 = np.zeros(d), np.ones(d)
                    c[-1], c2[-1] = -0.0, -1.0
                else:
                    # half-integer grid (signed zeros included): repeated
                    # coordinates make zero denominators
                    c = -gen.integers(-2, 3, d) / 2.0
                    c2 = gen.integers(-2, 3, d) / 2.0
                    if kind == 2:
                        c2[gen.integers(d)] = gen.choice([np.inf, -np.inf, np.nan])
                rows.append((make_basis(M, np.zeros(d), range(d)), c, c2))
            mu0 = np.array([multipliers(basis, c) for basis, c, _ in rows])
            mu1 = np.array([multipliers(basis, c2) for basis, _, c2 in rows])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                margins, lams = multiplier_margins(mu0, mu1)
            assert margins.shape == lams.shape == (k,)
            for r, (basis, c, c2) in enumerate(rows):
                with np.errstate(all="ignore"):
                    want = _margin_by_pairwise_scan(basis, c, c2)
                assert (_bits(margins[r]), _bits(lams[r])) == (_bits(want[0]), _bits(want[1])), (d, k, r)
            with np.errstate(invalid="ignore"):
                den = (mu0[:, :, None] - mu0[:, None, :]) - (mu1[:, :, None] - mu1[:, None, :])
            zero_den += int(np.triu(den == 0.0, 1).sum())
            every_nan = np.isnan(mu0).all(axis=1) | np.isnan(mu1).all(axis=1)
            some_inf = np.isinf(np.hstack([mu0, mu1])).any(axis=1)
            with_inf += int((some_inf & ~every_nan).sum())
            all_nan += int((every_nan & (margins == -np.inf) & (lams == 0.0)).sum())
    assert zero_den > 30 and with_inf > 10 and all_nan > 10


def test_relative_slack_cube_corner():
    inst = cube_instance()
    basis = make_basis(inst.A, inst.b, (0, 2, 4))  # corner (1,1,1)
    assert abs(relative_slack(inst, basis) - 2.0 / math.sqrt(3)) < 1e-12


def test_relative_slack_degenerate_row_gives_zero():
    # an extra row tight at the corner
    inst = cube_instance()
    A = np.vstack([inst.A, np.array([[1.0, 1.0, 1.0]]) / math.sqrt(3)])
    b = np.append(inst.b, math.sqrt(3))
    from shadowlp import LPInstance

    inst2 = LPInstance(A, b, inst.c)
    basis = make_basis(A, b, (0, 1, 2))  # corner (1,1,1); appended row is tight there
    assert abs(relative_slack(inst2, basis)) < 1e-12


def test_relative_slack_zero_vertex():
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    from shadowlp import LPInstance

    inst = LPInstance(A, b, np.ones(3))
    basis = make_basis(A, b, (0, 1, 2))  # vertex at the origin
    with pytest.raises(ZeroVertex):
        relative_slack(inst, basis)


def test_relative_slack_every_row_basic_is_inf():
    inst = LPInstance(np.eye(3), np.ones(3), np.ones(3))
    basis = make_basis(inst.A, inst.b, (0, 1, 2))
    assert relative_slack(inst, basis) == math.inf
    path, _ = run_shadow_path(inst.A, inst.b, np.array([1.0, 2.0, 3.0]),
                              np.array([3.0, 2.0, 1.0]), basis)
    rep = classify_path(path, inst)
    assert rep.rel_slacks.tolist() == [math.inf]
    assert rep.relative_gap.tolist() == [True]


def _seeded_path(gen, d=3, n=15, sigma=0.05):
    si, bases = bounded_ball_instance(gen, d, n, sigma)
    inst = si.lp()
    y = gen.standard_normal(d)
    opt = lp_optimum_oracle(inst, y, bases=bases)
    start = make_basis(inst.A, inst.b, opt.basis_indices)
    path, out = run_shadow_path(inst.A, inst.b, y, si.c, start)
    return si, inst, path


def test_classify_path_basics():
    gen = RngStream(61, 0).generator()
    si, inst, path = _seeded_path(gen)
    rep = classify_path(path, inst, g=relative_gap_threshold(si.sigma, 3, 15))
    assert len(rep) == len(path)
    # every path basis admits nonnegative multipliers somewhere on the segment
    assert rep.margins.min() >= -1e-12
    assert np.all(np.isnan(rep.rel_slacks) | (rep.rel_slacks >= -1e-9))


def _classify_path_per_basis(path, inst, m, g, rho):
    """classify_path with the pairwise-scan margin, a per-basis boolean mask
    for the slack and two norms per basis for the neighbour test: the
    reference."""
    c, c2 = path.y, path.y2
    frame = orthonormal_frame(c, c2)
    k = len(path.bases)
    margins = np.empty(k)
    witnesses = np.empty(k)
    slacks = np.full(k, np.nan)
    for i, basis in enumerate(path.bases):
        margins[i], witnesses[i] = _margin_by_pairwise_scan(basis, c, c2)
        x = basis.x
        norm = float(np.linalg.norm(x))
        if norm > 1e-12:
            slack = inst.b - inst.A @ x
            mask = np.ones(len(inst.b), dtype=bool)
            mask[list(basis.indices)] = False
            slacks[i] = float(slack[mask].min() / norm)
    proj = np.array([frame @ bs.x for bs in path.bases])
    norms = np.linalg.norm(proj, axis=1)
    good = margins >= m
    gap = np.where(np.isnan(slacks), False, slacks >= g)
    far = np.zeros(k, dtype=bool)
    for i in range(k):
        dists = []
        if i > 0:
            dists.append(np.linalg.norm(proj[i] - proj[i - 1]))
        if i < k - 1:
            dists.append(np.linalg.norm(proj[i] - proj[i + 1]))
        far[i] = all(dist >= rho * norms[i] for dist in dists)
    return PathReport(
        indices=path.index_sequence, margins=margins, witness_lambdas=witnesses,
        rel_slacks=slacks, proj_norms=norms,
        good_multiplier=good, relative_gap=gap, far_from_neighbors=far,
        triple=triple_mask(good & gap),
        m=float(m), g=float(g), rho=float(rho),
    )


@pytest.mark.parametrize("sigma", [0.01, 0.05, 0.2])
def test_classify_path_matches_per_basis_reference(sigma):
    d, n = 10, 500
    m = good_multiplier_threshold(d)
    g = relative_gap_threshold(sigma, d, n)
    for stream in range(2):
        gen = RngStream(63, stream).generator()
        si = scaling_instance(gen, d, n, sigma, "ball")
        _, _, path = solve(gen, si, climb=False)
        for rho in (0.5, 0.02):
            got = classify_path(path, si, g=g, rho=rho)
            want = _classify_path_per_basis(path, si, m, g, rho)
            assert got.indices == want.indices
            assert (got.m, got.g, got.rho) == (want.m, want.g, want.rho)
            for field in ("margins", "witness_lambdas", "rel_slacks", "proj_norms",
                          "good_multiplier", "relative_gap", "far_from_neighbors", "triple"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field
                assert a.tobytes() == b.tobytes(), field
            if rho < 0.5:  # the default rho leaves no basis far at this size
                assert 0 < got.far_count < len(got)


def test_triple_mask_patterns():
    all_in = np.ones(6, dtype=bool)
    assert triple_mask(all_in).sum() == 4  # interior members only
    alternating = np.array([True, False, True, False, True])
    assert triple_mask(alternating).sum() == 0


def test_triples_inequality_on_paths_and_random_subsets():
    gen = RngStream(62, 0).generator()
    for _ in range(5):
        si, inst, path = _seeded_path(gen)
        rep = classify_path(path, inst, g=relative_gap_threshold(si.sigma, 3, 15))
        lhs, rhs = triples_inequality(rep.good_multiplier & rep.relative_gap)
        assert lhs <= rhs
        for _ in range(20):
            mask = gen.uniform(size=len(rep)) < gen.uniform()
            lhs, rhs = triples_inequality(mask)
            assert lhs <= rhs


def test_boundary_integral_circle_limit():
    th = np.linspace(0, 2 * np.pi, 1001)[:-1]
    poly = np.column_stack([np.cos(th), np.sin(th)])
    val = boundary_integral(poly, 2.0, 0.5)
    assert abs(val - 2 * np.pi) < 0.01 * 2 * np.pi


def test_boundary_integral_inside_inner_radius_is_zero():
    sq = 0.1 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert boundary_integral(sq, 10.0, 1.0) == 0.0


def test_boundary_integral_respects_annulus_bound():
    gen = RngStream(63, 0).generator()
    for _ in range(10):
        si, inst, path = _seeded_path(gen)
        z = gen.standard_normal(3)
        try:
            poly = shadow_polygon_oracle(inst, si.c, z)
        except Exception:
            continue
        R = float(np.linalg.norm(poly.points, axis=1).max()) * 2 + 1e-9
        r = R / 16.0
        val = boundary_integral(poly.points, R, r)
        assert val <= annulus_integral_bound(R, r) + 1e-9


def test_boundary_integral_radial_edge():
    # an edge pointing straight at the origin exercises the radial branch;
    # the two-vertex polygon walks it out and back
    seg = np.array([[0.2, 0.0], [3.0, 0.0]])
    val = boundary_integral(seg, 2.0, 0.5)
    assert abs(val - 2 * (math.log(2.0) - math.log(0.5))) < 1e-12


def _edge_integral_by_quadrature(p, q, R, r):
    """The integral of 1/||x|| along [p, q] within r <= ||x|| <= R, by
    adaptive quadrature between the points where ||x|| crosses r or R (found
    by bracketing on a grid of the edge parameter)."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    v = q - p
    length = math.hypot(*v)

    def norm(t):
        return math.hypot(*(p + t * v))

    ts = np.linspace(0.0, 1.0, 4097)
    cuts = [0.0, 1.0]
    for radius in (r, R):
        f = [norm(t) - radius for t in ts]
        for i in np.flatnonzero(np.multiply(f[:-1], f[1:]) < 0.0):
            cuts.append(brentq(lambda t: norm(t) - radius, ts[i], ts[i + 1], xtol=1e-16))
    cuts.sort()
    return sum(
        quad(lambda t: length / norm(t), a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:]) if r <= norm((a + b) / 2.0) <= R
    )


@pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-9])
def test_boundary_integral_edge_passing_near_the_origin(delta):
    # the edge from (-2, 1 + delta) to (2, -1) passes within about delta/2
    # of the origin without going through it; the integral is about 6.750145
    # at every delta (the inner ball removes the part near the origin)
    pts = np.array([[2.0, -1.0], [3.0, 3.0], [-2.0, 1.0 + delta]])
    want = sum(_edge_integral_by_quadrature(pts[i], pts[(i + 1) % 3], 4.0, 0.5) for i in range(3))
    assert abs(boundary_integral(pts, 4.0, 0.5) - want) <= 1e-12 * want


def test_exterior_angles_square_and_hexagon():
    sq = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    angles = exterior_angles(sq)
    assert np.allclose(angles, math.pi / 2)
    th = 2 * np.pi * np.arange(6) / 6
    hexagon = np.column_stack([np.cos(th), np.sin(th)])
    assert np.allclose(exterior_angles(hexagon), math.pi / 3)
    assert abs(exterior_angles(hexagon).sum() - 2 * math.pi) < 1e-12


def test_exterior_angles_nonconvex_rejected():
    dart = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [1.0, 2.0]])
    with pytest.raises(NonConvexInput):
        exterior_angles(dart)


def test_cone_trial_point_segment_deep_inside():
    d = 3
    m = good_multiplier_threshold(d)
    deep = np.full(d, 50.0)
    res = segment_cone_trial(RngStream(64, 0), np.eye(d), deep, deep, m, 10000)
    assert res.p0 == 1.0 and res.pm == 1.0


def test_cone_trial_ratio_bound():
    d = 3
    m = good_multiplier_threshold(d)
    res = segment_cone_trial(
        RngStream(64, 1), np.eye(d), np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]), m, 10**5,
    )
    assert res.pm >= 0.99 * res.p0 - 3 * res.stderr_diff


def test_cone_trial_rejects_wide_columns():
    B = 3.0 * np.eye(3)
    with pytest.raises(ValueError):
        segment_cone_trial(RngStream(64, 2), B, np.zeros(3), np.ones(3), 0.001, 10)


def test_schedule_sizes():
    c = np.array([1.0, 0.0, 0.0])
    z = np.array([0.0, 2.0, 0.0])
    sched = build_schedule(c, z, n=10, d=3)
    # t = 2 e 3 ln 10, k = 5*3*ceil(log2(10 t)) = 135
    assert sched.k == 135
    assert len(sched.objectives) == 135 + 3
    sched0 = build_schedule(c, z, n=10, d=3, k=0)
    assert [o.tolist() for o in sched0.objectives] == [z.tolist(), c.tolist()]
    with pytest.raises(ValueError):
        build_schedule(2 * c, z, n=10, d=3)



@pytest.mark.parametrize("k, segment", [(0, 0), (1, 1)])
def test_run_schedule_rejects_an_unbounded_segment(k, segment):
    # x <= 1 from the vertex (1, 1, 1), optimal for z = (1, 1, 1): c = -e1 is
    # unbounded, and so is z + 2c, the end of segment 1 when k = 1
    A, b = np.eye(3), np.ones(3)
    sched = build_schedule(np.array([-1.0, 0.0, 0.0]), np.ones(3), n=3, d=3, k=k)
    with pytest.raises(ShadowLpError, match=f"segment {segment} "):
        run_schedule(A, b, sched, make_basis(A, b, (0, 1, 2)))

def test_schedule_compose_inequalities():
    gen = RngStream(65, 0).generator()
    for _ in range(5):
        si, inst, path = _seeded_path(gen)
        z = np.asarray(path.y)
        c = np.asarray(path.y2) / np.linalg.norm(path.y2)
        start = path.bases[0]
        sched = build_schedule(c, z, n=inst.n, d=inst.d, k=4)
        seg_paths = run_schedule(inst.A, inst.b, sched, start)
        full, out = run_shadow_path(inst.A, inst.b, z, c, start)
        lhs, rhs = compose_paths_inequality(seg_paths, full)
        assert lhs <= rhs
        # far-neighbor sets compose with slack 2 * (number of objectives)
        g = relative_gap_threshold(si.sigma, inst.d, inst.n)
        seg_reports = [
            classify_path(p, inst, g=g, rho=0.3) for p in seg_paths
        ]
        full_report = classify_path(full, inst, g=g, rho=0.3)
        lhs, rhs = compose_far_sets_inequality(seg_reports, full_report)
        assert lhs <= rhs
