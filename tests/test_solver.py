import math
import warnings

import numpy as np
import pytest

from shadowlp import LPInstance, RngStream, solver
from scipy.optimize import linprog

from shadowlp.errors import (
    CertificateInvalid,
    DimensionTooSmall,
    NoVertex,
    RerunRay,
    RestartLimitExceeded,
)
from shadowlp.experiments import scaling_instance
from shadowlp.oracle import enumerate_feasible_bases, lp_optimum_oracle
from shadowlp.simplex import Basis, make_basis, multipliers
from shadowlp.solver import (
    Infeasible,
    Optimal,
    SolveStats,
    Unbounded,
    build_unit_lp_prime,
    phase1_solve,
    phase2_solve,
    phase3_solve,
    regular_simplex_directions,
    solve,
    verify_outcome,
)

from helpers import (
    apex_instance,
    bounded_mixed_instance,
    cube_instance,
    empty_slab_instance,
    infeasible_instance,
    open_box_instance,
    orthant_instance,
    rank_deficient_instance,
    unbounded_in_c_instance,
)


def test_regular_simplex_directions():
    for d in (3, 4, 6):
        u = regular_simplex_directions(d)
        # cached per d, and read-only because every caller shares it
        assert u is regular_simplex_directions(d) and not u.flags.writeable
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
        assert np.abs(u.sum(axis=0)).max() < 1e-12
        assert np.abs(u[:, d - 1]).max() == 0.0
        gram = u @ u.T
        off = gram[~np.eye(d, dtype=bool)]
        assert np.allclose(off, -1.0 / (d - 1))


def test_build_unit_lp_prime_geometry():
    gen = RngStream(40, 0).generator()
    A = cube_instance().A
    A_art, objective, z = build_unit_lp_prime(gen, A, sigma=0.0)
    radius = 1.0 / (10.0 * math.sqrt(math.log(3)))
    assert abs(radius - 0.09541) < 5e-5
    assert np.array_equal(A_art[:6], A) and z.shape == (3,)
    # all unperturbed points R s_i sit on the plane {R e_3 . x = 3}, at the
    # simplex radius from 3 R e_3
    art = A_art[6:]
    assert abs(np.linalg.norm(objective) - 1.0) < 1e-12
    assert np.allclose(art @ objective, 3.0)
    assert np.allclose(np.linalg.norm(art - 3.0 * objective, axis=1), radius)


def test_unperturbed_artificial_start_is_valid():
    from shadowlp.solver import _artificial_start

    gen = RngStream(41, 0).generator()
    A = cube_instance().A
    for _ in range(20):
        A_art, objective, _ = build_unit_lp_prime(gen, A, sigma=0.0)
        start = _artificial_start(A, A_art, objective)
        assert start is not None
        mu = multipliers(start, objective)
        assert mu.min() >= -1e-9


def test_start_construction_success_rate():
    # d=5, sigma=0.01, rows of norm <= 2: at least 85% of trials produce a
    # feasible, objective-optimal artificial basis
    from shadowlp.rng import uniform_sphere
    from shadowlp.solver import _artificial_start

    gen = RngStream(42, 0).generator()
    d, n, sigma = 5, 20, 0.01
    ok = 0
    trials = 1000
    for _ in range(trials):
        A = 2.0 * uniform_sphere(gen, d, n) * gen.uniform(0.0, 1.0, (n, 1))
        A_art, objective, _ = build_unit_lp_prime(gen, A, sigma)
        if _artificial_start(A, A_art, objective) is not None:
            ok += 1
    assert ok / trials >= 0.85


def test_dimension_too_small():
    gen = RngStream(43, 0).generator()
    with pytest.raises(DimensionTooSmall):
        build_unit_lp_prime(gen, np.eye(2), 0.01)


def test_phase1_box_matches_unit_oracle():
    gen = RngStream(44, 0).generator()
    A = cube_instance().A
    basis, z = phase1_solve(gen, A, 0.01, SolveStats())
    oracle = lp_optimum_oracle(LPInstance(A, np.ones(6), z), z)
    assert isinstance(oracle, Optimal)
    assert np.allclose(basis.x, oracle.x, atol=1e-8)


def test_phase1_stops_at_the_restart_budget(monkeypatch):
    # this seed needs two attempts on the cube; phase 1 reads the budget
    # when it runs
    A = cube_instance().A
    stats = SolveStats()
    basis, z = phase1_solve(RngStream(60, 1), A, 0.01, stats)
    assert stats.restarts == 2
    monkeypatch.setattr(solver, "MAX_RESTARTS", 1)
    stats = SolveStats()
    with pytest.raises(RestartLimitExceeded, match="phase 1 failed 1 times"):
        phase1_solve(RngStream(60, 1), A, 0.01, stats)
    assert stats.restarts == 1


def test_phase1_handles_zero_row():
    gen = RngStream(45, 0).generator()
    A = np.vstack([cube_instance().A, np.zeros(3)])
    basis, z = phase1_solve(gen, A, 0.01, SolveStats())
    oracle = lp_optimum_oracle(LPInstance(A, np.ones(7), z), z)
    assert np.allclose(basis.x, oracle.x, atol=1e-8)


def test_phase2_all_ones_rhs_returns_unit_basis():
    gen = RngStream(46, 0).generator()
    inst = cube_instance(c=np.array([0.3, -1.0, 0.5]))
    stats = SolveStats()
    unit_basis, z = phase1_solve(gen, inst.A, 0.01, stats)
    res2 = phase2_solve(gen, inst, unit_basis, z, stats)
    assert isinstance(res2, Basis)
    assert res2.indices == unit_basis.indices
    assert stats.pivots_phase2 == 0


def test_phase2_infeasible_with_farkas():
    gen = RngStream(47, 0).generator()
    # b = -1: 0 is strictly infeasible; oracle confirms by enumeration
    A = cube_instance().A
    inst = LPInstance(A, -np.ones(6), np.array([1.0, 0.0, 0.0]))
    assert isinstance(lp_optimum_oracle(inst, inst.c), Infeasible)
    stats = SolveStats()
    unit_basis, z = phase1_solve(gen, A, 0.01, stats)
    out = phase2_solve(gen, inst, unit_basis, z, stats)
    assert isinstance(out, Infeasible)
    y = out.certificate
    assert y.min() >= 0.0
    assert np.abs(y @ inst.A).max() <= 1e-8 * np.abs(y).sum()
    assert y @ inst.b < -1e-10


def test_phase2_basis_is_z_optimal():
    gen = RngStream(48, 0).generator()
    done = 0
    while done < 30:
        si, bases = bounded_mixed_instance(gen, 3, 12, 0.05)
        inst = si.lp()
        oracle = lp_optimum_oracle(inst, inst.c, bases=bases)
        if not isinstance(oracle, Optimal):
            continue
        stats = SolveStats()
        res1 = phase1_solve(gen, inst.A, min(si.sigma, 0.02), stats)
        if isinstance(res1, Unbounded):
            continue
        unit_basis, z = res1
        res2 = phase2_solve(gen, inst, unit_basis, z, stats)
        assert isinstance(res2, Basis)
        z_oracle = lp_optimum_oracle(inst, z, bases=bases)
        assert isinstance(z_oracle, Optimal)
        assert abs(z @ res2.x - z @ z_oracle.x) <= 1e-7 * (1 + abs(z @ z_oracle.x))
        done += 1


def test_phase3_parallel_objective_zero_pivots():
    gen = RngStream(49, 0).generator()
    inst = cube_instance()
    stats = SolveStats()
    unit_basis, z = phase1_solve(gen, inst.A, 0.01, stats)
    res2 = phase2_solve(gen, inst, unit_basis, z, stats)
    parallel = LPInstance(inst.A, inst.b, 2.0 * z)
    outcome, path = phase3_solve(parallel, res2, z)
    assert isinstance(outcome, Optimal)
    assert path.pivots == 0


def test_solve_box():
    inst = cube_instance(c=np.array([1.0, 0.3, -0.2]))
    out, stats, path = solve(RngStream(51, 0), inst)
    assert isinstance(out, Optimal)
    assert np.allclose(out.x, [1.0, 1.0, -1.0])
    assert stats.pivots_total == stats.pivots_phase1 + stats.pivots_phase2 + stats.pivots_phase3


def test_solve_infeasible_sandwich():
    gen = RngStream(52, 0).generator()
    inst = infeasible_instance(gen, 3, 9)
    assert isinstance(lp_optimum_oracle(inst, inst.c), Infeasible)
    out, stats, path = solve(RngStream(52, 1), inst)
    assert isinstance(out, Infeasible)
    verify_outcome(inst, out)


def test_solve_infeasible_reports_phase2_pivots():
    # the lifted walk pivots before it proves the input system empty
    inst = infeasible_instance(RngStream(52, 0).generator(), 6, 40)
    out, stats, path = solve(RngStream(52, 1), inst)
    assert isinstance(out, Infeasible)
    assert stats.pivots_phase2 > 0
    assert stats.pivots_total == stats.pivots_phase1 + stats.pivots_phase2 + stats.pivots_phase3


def test_solve_unbounded_in_phase1_reports_phase1_pivots():
    # the first pass's phase 1 ends on a ray (after 3, 0, 4, 2, 20, 3, 4 and
    # 4 pivots in 1, 1, 1, 1, 5, 1, 1 and 1 attempts), which is no answer;
    # the rerun reaches phase 3, whose ray is, and the stats add both passes
    pivots, restarts = [], []
    for k in range(8):
        inst = unbounded_in_c_instance(RngStream(53 + k, 0).generator(), 4, 20)
        out, stats, path = solve(RngStream(53 + k, 1), inst)
        assert isinstance(out, Unbounded) and stats.retries == 1
        assert path is not None and stats.pivots_phase3 == path.pivots > 0
        assert (inst.A @ out.x - inst.b).max() <= 1e-8
        pivots.append(stats.pivots_phase1)
        restarts.append(stats.restarts)
    assert pivots == [18, 27, 16, 20, 35, 11, 14, 14]
    assert restarts == [3, 5, 2, 3, 7, 2, 2, 2]


def test_solve_retry_accounting():
    # the open-box solves whose first pass ends on a phase 1-2 ray and whose
    # rerun ends optimal: retries, and restarts and phase 1-2 pivots summed
    # over both passes, with phase 3 from the rerun
    seen = {}
    for s in range(40):
        out, stats, path = solve(RngStream(900 + s, 1), open_box_instance(s))
        if stats.retries:
            assert isinstance(out, Optimal)
            seen[s] = (stats.retries, stats.restarts, stats.pivots_phase1,
                       stats.pivots_phase2, stats.pivots_phase3)
    assert seen == {
        0: (1, 2, 4, 0, 0), 3: (1, 5, 12, 0, 0), 4: (1, 5, 10, 0, 0),
        5: (1, 2, 6, 0, 0), 7: (1, 5, 11, 0, 1), 9: (1, 2, 4, 0, 0),
        11: (1, 4, 8, 0, 1), 12: (1, 3, 7, 0, 0), 13: (1, 4, 8, 0, 0),
        14: (1, 2, 6, 0, 0), 15: (1, 5, 11, 0, 1), 17: (1, 3, 9, 0, 1),
        19: (1, 5, 10, 0, 0), 20: (1, 4, 8, 0, 0), 21: (1, 3, 7, 0, 1),
        24: (1, 6, 14, 0, 0), 25: (1, 4, 10, 0, 1), 26: (1, 5, 11, 0, 0),
        27: (1, 2, 5, 0, 0), 28: (1, 4, 8, 0, 1), 29: (1, 5, 11, 0, 0),
        33: (1, 6, 13, 0, 0), 34: (1, 3, 7, 0, 1), 35: (1, 3, 8, 0, 1),
        37: (1, 6, 12, 0, 1),
    }


# family: (instance of seed s, the solve's stream for seed s)
HIGHS_FAMILIES = {
    "empty": (empty_slab_instance, lambda s: RngStream(31, s)),
    "rank-deficient": (rank_deficient_instance, lambda s: RngStream(31, s)),
    "open-box": (open_box_instance, lambda s: RngStream(900 + s, 1)),
    "apex": (apex_instance, lambda s: RngStream(31, s)),
    "orthant": (orthant_instance, lambda s: RngStream(31, s)),
}


@pytest.mark.parametrize("family", HIGHS_FAMILIES)
def test_solve_agrees_with_highs_on_ray_families(family):
    # families where a Gaussian phase-1 objective often ends on a ray: empty
    # slabs, bounded LPs on unbounded regions (open box, apex) and unbounded
    # LPs.  Every solve matches HiGHS's class and objective, except that A
    # without full column rank has no vertex and raises NoVertex
    make, stream = HIGHS_FAMILIES[family]
    kinds = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    for s in range(40):
        inst = make(s)
        ref = linprog(-inst.c, A_ub=inst.A, b_ub=inst.b, bounds=[(None, None)] * inst.d,
                      method="highs")
        if family == "rank-deficient":
            with pytest.raises(NoVertex):
                solve(stream(s), inst)
            continue
        out, stats, path = solve(stream(s), inst)
        assert out.kind == kinds[ref.status], s
        if ref.status == 0:
            assert abs(inst.c @ out.x + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), s


@pytest.mark.parametrize("k", [1e-9, 1e-6, 1.0, 5.0, 7.0, 10.0, 1e6, 1e9])
def test_solve_agrees_with_highs_under_row_scaling(k):
    # d=6, n=200 ball instances with every (a_i, b_i) multiplied by k: the
    # same LP, so the same optimum as HiGHS finds for the unscaled one.
    # Without the power-of-two rescale, k = 1e-9 raised NotOptimal on 7 of
    # 10 and every k >= 7 raised RestartLimitExceeded on 10 of 10
    for s in range(10):
        si = scaling_instance(RngStream(4242, s).generator(), 6, 200, 0.05, "ball")
        ref = linprog(-si.c, A_ub=si.A, b_ub=si.b, bounds=[(None, None)] * 6,
                      method="highs")
        assert ref.status == 0
        scaled = LPInstance(k * si.A, k * si.b, si.c)
        out, stats, path = solve(RngStream(4242, 100 + s), scaled)
        assert isinstance(out, Optimal), s
        assert (si.A @ out.x - si.b).max() <= 1e-9, s
        assert abs(si.c @ out.x + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), s


def test_solve_ends_a_stalled_walk_at_an_optimal_basis():
    # c is a ball instance's row tightest at the optimum plus 1e-12 noise, so
    # the whole facet is optimal to within rounding: phase 3's lambda sticks
    # just below 1 at a basis already optimal for c.  Before the stall check
    # tested optimality, every d=6, n=200 seed raised NumericalStall there
    for s in range(4):
        si = scaling_instance(RngStream(500 + s, 0).generator(), 6, 200, 0.05, "ball")
        ref = linprog(-si.c, A_ub=si.A, b_ub=si.b, bounds=[(None, None)] * 6, method="highs")
        tight = int(np.argmax(si.A @ ref.x - si.b))
        c = si.A[tight] + 1e-12 * RngStream(600 + s, 0).generator().standard_normal(6)
        ref = linprog(-c, A_ub=si.A, b_ub=si.b, bounds=[(None, None)] * 6, method="highs")
        out, _, _ = solve(RngStream(s, 1), LPInstance(si.A, si.b, c))
        assert isinstance(out, Optimal), s
        assert abs(c @ out.x + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), s


@pytest.mark.parametrize("k", [1e200, 1e300, 1e-200, 1e-310])
def test_solve_cube_at_extreme_row_scales(k):
    # the squared row norms overflow to inf or underflow to 0 at these
    # scales; before _row_scaled took them from (A, b) / 2^k, such LPs were
    # never rescaled and every seed raised RestartLimitExceeded
    cube = cube_instance(c=np.array([1.0, 0.3, -0.2]))
    empty = LPInstance(cube.A, -cube.b, cube.c)
    for s in range(5):
        out, stats, path = solve(RngStream(58, s), LPInstance(k * cube.A, k * cube.b, cube.c))
        assert isinstance(out, Optimal) and np.array_equal(out.x, [1.0, 1.0, -1.0]), s
        out, stats, path = solve(RngStream(58, s), LPInstance(k * empty.A, k * empty.b, cube.c))
        assert isinstance(out, Infeasible), s
        verify_outcome(empty, out)


@pytest.mark.parametrize("k", [1e-300, 1e-30, 1e-12, 1e30, 1e150, 1e300])
def test_solve_is_unchanged_when_c_is_scaled(k):
    # c times k > 0 is the same LP: the same class and the same x bits as the
    # unscaled solve of each seed, with no numpy warning.  Without the
    # power-of-two rescale of c, k <= 1e-30 gave wrong vertices that passed
    # verification (5 of 10 cube seeds, every ball instance), k >= 1e30
    # raised NotOptimal or NumericalStall on every ball instance and k >= 1e200
    # warned of overflow
    cube = cube_instance(c=np.array([1.0, 0.3, -0.2]))
    lps = [(cube, RngStream(s, 0)) for s in range(10)]
    lps += [(scaling_instance(RngStream(4343, s).generator(), 6, 200, 0.05, "ball").lp(),
             RngStream(4343, 100 + s)) for s in range(10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (inst, stream) in enumerate(lps):
            want, _, _ = solve(stream, inst)
            got, _, _ = solve(stream, LPInstance(inst.A, inst.b, k * inst.c))
            assert isinstance(want, Optimal) and isinstance(got, Optimal), i
            assert got.x.tobytes() == want.x.tobytes(), i


@pytest.mark.parametrize("make, base", [(infeasible_instance, 52), (unbounded_in_c_instance, 53)])
def test_verify_outcome_accepts_row_scaled_certificates(make, base):
    # every (a_i, b_i) times 1e9: verify_outcome checks the power-of-two copy
    # that solve() solves.  With its absolute tolerances applied to the rows
    # as given, it rejected 5 of 5 Farkas certificates and 4 of 5 unbounded
    # points here
    kind = "infeasible" if make is infeasible_instance else "unbounded"
    for s in range(5):
        inst = make(RngStream(base + s, 0).generator(), 3, 12)
        scaled = LPInstance(1e9 * inst.A, 1e9 * inst.b, inst.c)
        out, stats, path = solve(RngStream(base + s, 1), scaled)
        assert out.kind == kind, s
        verify_outcome(scaled, out)
        verify_outcome(inst, out)
    # the scaled copy still rejects a wrong certificate
    cube = cube_instance()
    with pytest.raises(CertificateInvalid):
        verify_outcome(LPInstance(1e9 * cube.A, 1e9 * cube.b, cube.c),
                       Infeasible(certificate=np.ones(6)))


@pytest.mark.parametrize("n", [0, 2])
def test_solve_raises_no_vertex_below_d_rows(n):
    # n < d rows leave rank A < d; with n = 0 solve() used to raise a bare
    # numpy ValueError from the artificial start
    inst = LPInstance(np.eye(3)[:n], np.ones(n), np.ones(3))
    with pytest.raises(NoVertex, match=f"n = {n} < d = 3"):
        solve(RngStream(54, 1), inst)


def test_solve_unbounded_in_c():
    gen = RngStream(53, 0).generator()
    inst = unbounded_in_c_instance(gen, 3, 12)
    out, stats, path = solve(RngStream(53, 1), inst)
    assert isinstance(out, Unbounded)
    ray = out.ray / np.linalg.norm(out.ray)
    assert (inst.A @ ray).max() <= 1e-9
    assert inst.c @ ray > 0


def test_verify_outcome_rejects_bad_certificates():
    inst = cube_instance()
    with pytest.raises(CertificateInvalid):
        verify_outcome(inst, Optimal(basis_indices=(0, 2, 4), x=np.array([2.0, 0.0, 0.0])))
    with pytest.raises(CertificateInvalid, match="leaves recession cone"):
        verify_outcome(inst, Unbounded(ray=np.array([1.0, 0.0, 0.0]), x=np.zeros(3)))
    # a ray of the region's recession cone needs a feasible point to leave from
    wedge = LPInstance(np.array([[-1.0, 0.0, 0.0]]), np.array([1.0]), np.array([1.0, 0.0, 0.0]))
    ray = np.array([1.0, 0.0, 0.0])
    verify_outcome(wedge, Unbounded(ray=ray, x=np.zeros(3)))
    with pytest.raises(CertificateInvalid, match="without a feasible point"):
        verify_outcome(wedge, Unbounded(ray=ray))
    with pytest.raises(CertificateInvalid, match="point infeasible"):
        verify_outcome(wedge, Unbounded(ray=ray, x=np.array([-2.0, 0.0, 0.0])))
    with pytest.raises(CertificateInvalid):
        verify_outcome(inst, Infeasible(certificate=np.ones(6)))
    # a wrong vertex on a tiny c: the check scales c into range first, where
    # the absolute multiplier tolerance would accept any vertex
    tiny = cube_instance(c=1e-30 * np.array([1.0, 0.3, -0.2]))
    with pytest.raises(CertificateInvalid, match="optimality multiplier"):
        verify_outcome(tiny, Optimal(basis_indices=(0, 4, 5), x=np.array([1.0, -1.0, -1.0])))
    # a correct optimal certificate passes
    bases = enumerate_feasible_bases(inst)
    oracle = lp_optimum_oracle(inst, inst.c, bases=bases)
    verify_outcome(inst, oracle)


def test_solve_rejects_small_dimension():
    # up front, before the artificial-noise cap divides by log(d) = 0 at d = 1
    for d in (1, 2):
        inst = cube_instance(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionTooSmall, match=f"got {d}"):
                solve(RngStream(54, 0), inst)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_names_a_ray_from_the_rerun(seed):
    # the unit cube with row norms from 1e-12 to 1e12: HiGHS finds it
    # optimal, but phases 1-2 end on a ray even after the rerun with
    # z = A^T|g|, which is bounded in exact arithmetic
    inst = cube_instance(3, c=[1.0, 0.3, -0.2])
    inst = LPInstance(inst.A, np.array([1e-12, 1, 1, 1, 1, 1e12]), inst.c)
    ref = linprog(-inst.c, A_ub=inst.A, b_ub=inst.b, bounds=[(None, None)] * 3, method="highs")
    assert ref.status == 0
    with pytest.raises(RerunRay, match="numerical failure.*row norms .* span 9.095e-13 to 9.095e-01"):
        solve(RngStream(seed, 0), inst)


def test_interpolation_slice_matches_unit_region():
    # membership of unit-system-feasible points at t=0 in the lifted system,
    # and of lifted t=0 points in the unit system
    from shadowlp.solver import interpolation_matrix

    gen = RngStream(55, 0).generator()
    si, _ = bounded_mixed_instance(gen, 3, 14, 0.05)
    inst = si.lp()
    lifted = interpolation_matrix(inst.A, inst.b)
    checked = 0
    while checked < 100:
        x = gen.uniform(-2.0, 2.0, 3)
        unit_ok = np.all(inst.A @ x <= 1.0)
        lifted_ok = np.all(lifted @ np.append(x, 0.0) <= 1.0)
        assert unit_ok == lifted_ok
        checked += 1


def test_pivot_limit_exceeded(monkeypatch):
    from shadowlp import simplex
    from shadowlp.errors import PivotLimitExceeded
    from shadowlp.simplex import run_shadow_path as run

    gen = RngStream(56, 0).generator()
    si, bases = bounded_mixed_instance(gen, 3, 14, 0.05)
    inst = si.lp()
    y = gen.standard_normal(3)
    opt = lp_optimum_oracle(inst, y, bases=bases)
    start = make_basis(inst.A, inst.b, opt.basis_indices)
    ref, _ = run(inst.A, inst.b, y, inst.c, start)
    if ref.pivots < 2:
        pytest.skip("path too short to exercise the cap")
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", ref.pivots - 1)
    with pytest.raises(PivotLimitExceeded):
        run(inst.A, inst.b, y, inst.c, start)


def test_solve_accepts_smoothed_instance():
    gen = RngStream(57, 0).generator()
    si, bases = bounded_mixed_instance(gen, 3, 12, 0.05)
    oracle = lp_optimum_oracle(si.lp(), si.c, bases=bases)
    out, stats, path = solve(RngStream(57, 1), si)  # not just LPInstance
    assert out.kind == oracle.kind
