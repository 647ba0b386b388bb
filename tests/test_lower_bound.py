import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import LPInstance, RngStream
from shadowlp.errors import AuditFailed, NonpositiveRhs
from shadowlp import lower_bound
from shadowlp.lower_bound import (
    _CoverTable,
    _cover_grid,
    _max_cos,
    build_lb_instance,
    default_row_count,
    dense_set_with_retry,
    diameter_experiment,
    greedy_dense_set,
    sandwich_check,
)
from shadowlp.oracle import discover_vertex_graph
from shadowlp.rng import as_generator, uniform_sphere
from shadowlp.simplex import make_basis


def test_diameter_two_packing_on_circle():
    dense = greedy_dense_set(RngStream(70, 0), eta=2.0, d=2, audit_samples=5000)
    assert len(dense) <= 2


def test_eta_half_cardinality_bound():
    dense = greedy_dense_set(RngStream(70, 1), eta=0.5, d=3, audit_samples=20000)
    assert len(dense) <= (4.0 / 0.5) ** 3  # 512
    pts = dense.points
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    min_dist = math.sqrt(2.0 - 2.0 * dots.max())
    assert min_dist >= 0.5 - 1e-12


def test_audit_failure_on_tiny_streak():
    with pytest.raises(AuditFailed):
        greedy_dense_set(RngStream(70, 2), eta=0.05, d=3, audit_samples=60)


def _greedy_one_at_a_time(rng, eta, d, audit_samples, batch=4096, resume=None):
    """The per-candidate greedy loop that greedy_dense_set must reproduce.

    `resume` is a dict holding the kept points and the streak: the loop
    starts from them and leaves in them what the stream stopped with."""
    gen = as_generator(rng)
    state = {"kept": [], "streak": 0} if resume is None else resume
    kept = state["kept"]
    streak = state["streak"]
    cos_cut = 1.0 - eta * eta / 2.0
    while streak < audit_samples:
        cand = uniform_sphere(gen, d, size=batch)
        n_before = len(kept)
        if n_before:
            close = (cand @ np.array(kept).T).max(axis=1) > cos_cut
        else:
            close = np.zeros(batch, dtype=bool)
        for i in range(batch):
            ok = not close[i] and all(cand[i] @ p <= cos_cut for p in kept[n_before:])
            if ok:
                kept.append(cand[i])
                streak = 0
            else:
                streak += 1
                if streak >= audit_samples:
                    break
    state["streak"] = streak
    points = np.array(kept)
    remaining = audit_samples
    while remaining > 0:
        take = min(remaining, 16384)
        probes = uniform_sphere(gen, d, size=take)
        worst = float((probes @ points.T).max(axis=1).min())
        if worst < cos_cut:
            dist = math.sqrt(max(2.0 - 2.0 * worst, 0.0))
            raise AuditFailed(
                f"audit point at distance {dist:.4f} > eta={eta}; "
                "increase the rejection streak"
            )
        remaining -= take
    return points


def _retry_one_at_a_time(rng, eta, d, audit_samples):
    """dense_set_with_retry's reference: after a failed audit the kept points
    and the streak carry over, and the stream goes on to a 4x longer streak."""
    state = {"kept": [], "streak": 0}
    for attempt in range(3):
        try:
            return _greedy_one_at_a_time(rng, eta, d, audit_samples * 4 ** attempt,
                                         resume=state)
        except AuditFailed:
            pass
    return _greedy_one_at_a_time(rng, eta, d, audit_samples * 64, resume=state)


def _run_packing(fn, gen, eta, d, audit_samples):
    """The packing's points, or the AuditFailed message."""
    try:
        return fn(gen, eta, d, audit_samples=audit_samples)
    except AuditFailed as exc:
        return str(exc)


def _assert_same_packing(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got.points, ref)


def _check_against_one_at_a_time(seed, eta, d, audit_samples):
    ref_gen = RngStream(seed, 0).generator()
    ref = _run_packing(_greedy_one_at_a_time, ref_gen, eta, d, audit_samples)
    gen = RngStream(seed, 0).generator()
    _assert_same_packing(_run_packing(greedy_dense_set, gen, eta, d, audit_samples), ref)
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


# (seed, eta, d, audit_samples); streaks below the 4096 batch stop partway
# through a batch, and the first four of those drop points accepted after
# the stop.  The cover table is on in the d <= 3 cases except (4, 1.0, 3);
# with a streak of 4096 or more (the last two) it covers most of the sphere,
# and the audit that fails there fails in a partly covered chunk
@pytest.mark.parametrize("seed,eta,d,audit_samples", [
    (1, 0.1, 2, 60),
    (4, 1.0, 3, 1000),
    (8, 1.0, 4, 300),
    (8, 0.2, 3, 60),      # audit fails
    (2, 0.5, 2, 300),
    (4, 0.5, 3, 20000),
    (6, 0.8, 4, 20000),   # audit fails
    (2, 0.3, 2, 5000),
    (0, 0.25, 3, 4096),   # audit fails
])
def test_greedy_dense_set_matches_one_at_a_time(seed, eta, d, audit_samples):
    _check_against_one_at_a_time(seed, eta, d, audit_samples)


# the cover table forced on at d = 4 (the budget grid, which its rule leaves
# off), and a near-cut band that recomputes every uncovered inner product
# and every audit minimum in the whole batch's matmul shape
@pytest.mark.parametrize("seed,eta,d,audit_samples,grid,near_cut", [
    (5, 0.6, 4, 4096, 12, None),
    (1, 0.8, 4, 8000, 12, None),     # audit fails
    (2, 0.3, 2, 5000, None, 2.0),
    (0, 0.25, 3, 4096, None, 2.0),   # audit fails
])
def test_greedy_dense_set_matches_one_at_a_time_forced(monkeypatch, seed, eta, d,
                                                       audit_samples, grid, near_cut):
    if grid is not None:
        monkeypatch.setattr(lower_bound, "_cover_grid", lambda d, eta: grid)
    if near_cut is not None:
        monkeypatch.setattr(lower_bound, "_NEAR_CUT", near_cut)
    _check_against_one_at_a_time(seed, eta, d, audit_samples)


# inner products of the uncovered rows alone pushed up by 0.04, with a
# near-cut band of 0.05: only the recomputation in the whole batch's shape
# can restore a survivor that now sits just above the cut, so a batch with
# a value in the band must be decided, not skipped as keeping nothing
@pytest.mark.parametrize("seed,eta,d,audit_samples", [
    (4, 0.5, 3, 20000),
    (0, 0.25, 3, 4096),   # audit fails
])
def test_near_cut_values_are_recomputed_in_the_batch_shape(monkeypatch, seed, eta, d,
                                                           audit_samples):
    draw, max_cos = lower_bound._draw, lower_bound._max_cos
    uncovered = []

    def marked_draw(gen, d, size, table):
        g, rows, cand = draw(gen, d, size, table)
        uncovered[:] = [cand] if rows is not None else []
        return g, rows, cand

    def pushed_max_cos(points, probes):
        out = max_cos(points, probes)
        return out + 0.04 if uncovered and probes is uncovered[0] else out

    monkeypatch.setattr(lower_bound, "_NEAR_CUT", 0.05)
    monkeypatch.setattr(lower_bound, "_draw", marked_draw)
    monkeypatch.setattr(lower_bound, "_max_cos", pushed_max_cos)
    _check_against_one_at_a_time(seed, eta, d, audit_samples)


# packings whose first audit fails, and the streak whose audit passed:
# (0, 0.25, 3, 4096) passes the last of four, criterion 7's streams 0, 1
# and 4 (seed 7007, the default streak) pass their second
@pytest.mark.parametrize("seed,stream,audit_samples,final", [
    (0, 0, 4096, 64 * 4096),
    (7007, 0, 100_000, 400_000),
    (7007, 1, 100_000, 400_000),
    (7007, 4, 100_000, 400_000),
])
def test_dense_set_with_retry_resumes_like_one_at_a_time(seed, stream, audit_samples, final):
    ref_gen = RngStream(seed, stream).generator()
    ref = _retry_one_at_a_time(ref_gen, 0.25, 3, audit_samples)
    gen = RngStream(seed, stream).generator()
    dense = dense_set_with_retry(gen, 0.25, 3, audit_samples=audit_samples)
    assert np.array_equal(dense.points, ref)
    assert dense.audit_samples == final
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


# streaks below the 4096 batch, where a stream can stop in a batch's
# trailing run of rejections: the resumed stream must count its streak from
# the stop, as the one-at-a-time loop does, not from the batch's end
@pytest.mark.parametrize("seed,eta,audit_samples", [
    (1, 0.3, 1000),    # the stop ends a batch that keeps nothing
    (17, 0.4, 600),    # the stop follows an acceptance in the same batch
    (8, 0.3, 300),     # every attempt's audit fails
])
def test_dense_set_with_retry_resumes_from_the_stop(seed, eta, audit_samples):
    ref_gen = RngStream(seed, 0).generator()
    ref = _run_packing(_retry_one_at_a_time, ref_gen, eta, 3, audit_samples)
    gen = RngStream(seed, 0).generator()
    _assert_same_packing(_run_packing(dense_set_with_retry, gen, eta, 3, audit_samples), ref)
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


def test_cover_grid_rule():
    # r = sqrt(d-1)/G near eta/8 within 2^14 cells; off below G = 16
    # (every d >= 4) and for r > 3 eta / 4
    assert _cover_grid(3, 0.25) == 46       # criterion 7's packing
    assert _cover_grid(3, 0.1) == 52        # the budget's grid
    assert _cover_grid(2, 0.3) == 27
    assert _cover_grid(3, 0.036) == 0
    assert _cover_grid(3, 0.75) == 16 and _cover_grid(3, 0.76) == 0
    assert _cover_grid(4, 0.25) == _cover_grid(5, 1.0) == _cover_grid(10, 2.0) == 0


class _ShortRowsGenerator(np.random.Generator):
    """Philox normals with a zero row and a row whose squares underflow
    written into every other draw of 1000 rows or more."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        self.big_draws = 0
        self.redraws = 0

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        if out.ndim == 2 and len(out) >= 1000:
            self.big_draws += 1
            if self.big_draws % 2:
                out[7] = 0.0
                out[11] *= 1e-170
        else:
            self.redraws += 1
        return out


@pytest.mark.parametrize("seed,eta,d,audit_samples", [
    (3, 0.5, 3, 5000),
    (0, 0.25, 3, 4096),   # audit fails in a chunk with short rows
])
def test_greedy_dense_set_redraws_short_rows_like_uniform_sphere(seed, eta, d, audit_samples):
    ref_gen = _ShortRowsGenerator(seed)
    ref = _run_packing(_greedy_one_at_a_time, ref_gen, eta, d, audit_samples)
    gen = _ShortRowsGenerator(seed)
    _assert_same_packing(_run_packing(greedy_dense_set, gen, eta, d, audit_samples), ref)
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)
    assert gen.big_draws == ref_gen.big_draws >= 3
    assert gen.redraws == ref_gen.redraws == (gen.big_draws + 1) // 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), grid=st.integers(2, 40),
       slack=st.floats(0.01, 1.0), m=st.integers(1, 300))
def test_covered_cells_hold_only_probes_the_packing_rejects(seed, d, grid, slack, m):
    """Every probe the table places in a covered cell is within eta of a
    point, by the same inner-product test the packing applies; on any grid
    within the cell budget and any eta in (r, 2]."""
    while 2 * d * grid ** (d - 1) > 1 << 14:
        grid -= 1
    r = math.sqrt(d - 1) / grid
    eta = r + slack * (2.0 - r)
    table = _CoverTable(d, grid, eta)
    gen = RngStream(seed, 0).generator()
    points = uniform_sphere(gen, d, size=m)
    table.fold(points)
    # cube points on the grid lines and at cell centres: cell corners and
    # edges are the farthest points from a cell's centre
    n = 2000
    cube = -1.0 + gen.integers(0, 2 * table.grid + 1, (n, d)) / table.grid
    cube[np.arange(n), gen.integers(0, d, n)] = gen.choice([-1.0, 1.0], n)
    probes = np.vstack([gen.standard_normal((n, d)),
                        cube * gen.uniform(0.5, 2.0, (n, 1)), cube])
    covered = np.ones(len(probes), dtype=bool)
    covered[table.uncovered(probes)] = False
    unit = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    assert (_max_cos(points, unit[covered]) > 1.0 - eta * eta / 2.0).all()


# size and sha256 of the points of criterion 7's five packings (the first
# draws of each run); streams 0, 1 and 4 fail their first audit and are
# resumed once.  The bits come from Philox normals, IEEE sqrt and division,
# and from threshold decisions that a last-bit difference between BLAS
# kernels would not flip, so they should hold on any host.
@pytest.mark.parametrize("stream,size,digest", [
    (0, 140, "f3e8e0eb95ca2fa2d1f32cc36057ea89b3e573e0431d4853e602dac95be85227"),
    (1, 139, "dc70fbec8abda2672337ada96221b2e6c891802bdcc0a78c4ddc24f0083515c6"),
    (2, 140, "3f5a0487ddab62a5e109d35efb52b77074b0e9b5c5eb2de8c44afdcf0f4d285e"),
    (3, 136, "335e85b74fcf3325a53038a107aff429bfffef5750f9b15fde0d2844ddd5b190"),
    (4, 138, "c88b0d738e2c8c7e46017a2eb1859fb4f7a39707df0f96fdb12c7c534a4d9edd"),
])
def test_criterion_7_packings_are_pinned(stream, size, digest):
    dense = dense_set_with_retry(RngStream(7007, stream).generator(), 0.25, 3)
    assert len(dense) == size
    assert hashlib.sha256(dense.points.tobytes()).hexdigest() == digest


def test_dense_set_rejects_an_empty_streak():
    for fn in (greedy_dense_set, dense_set_with_retry):
        with pytest.raises(ValueError, match="audit_samples"):
            fn(RngStream(70, 3), 0.5, 3, audit_samples=0)


def test_build_lb_instance_unperturbed():
    gen = RngStream(71, 0).generator()
    dense = dense_set_with_retry(gen, eta=0.4, d=3, audit_samples=20000)
    inst = build_lb_instance(gen, dense, sigma=0.0)
    assert np.array_equal(inst.A, dense.points)
    assert np.array_equal(inst.b, np.ones(len(dense)))
    res = sandwich_check(inst, dense.eta)
    assert abs(res.inner_radius - 1.0) < 1e-12 and res.inner_ok


def test_build_lb_instance_row_count():
    assert default_row_count(0.25, 3) == 4096
    gen = RngStream(71, 1).generator()
    dense = dense_set_with_retry(gen, eta=0.25, d=3, audit_samples=20000)
    inst = build_lb_instance(gen, dense, sigma=0.25)
    assert inst.n == 4096
    assert np.allclose(np.linalg.norm(inst.abar, axis=1), 1.0)


def test_perturbation_norm_event():
    # measured perturbations stay within 4 sigma sqrt(d ln n) on typical seeds
    gen = RngStream(71, 2).generator()
    dense = dense_set_with_retry(gen, eta=0.4, d=3, audit_samples=20000)
    for k in range(5):
        inst = build_lb_instance(RngStream(72, k), dense, sigma=0.02, n=len(dense))
        cut = 4 * 0.02 * math.sqrt(3 * math.log(inst.n))
        assert np.linalg.norm(inst.A - inst.abar, axis=1).max() <= cut
        assert np.abs(inst.b - inst.bbar).max() <= cut


def test_sandwich_violation_constructed():
    gen = RngStream(73, 0).generator()
    dense = dense_set_with_retry(gen, eta=0.4, d=3, audit_samples=20000)
    inst = build_lb_instance(gen, dense, sigma=0.0)
    A = inst.A.copy()
    A[0] *= 3.0  # halfspace now at distance 1/3 from the origin
    bad = LPInstance(A, inst.b, inst.c)
    res = sandwich_check(bad, 0.1)
    assert not res.inner_ok
    # outer check fails on a deliberately distant fake vertex
    res2 = sandwich_check(inst, 0.1, vertices=np.array([[3.0, 0.0, 0.0]]))
    assert res2.outer_ok is False


def test_polar_facet_diameter_cases():
    # rows e_1, e_2, e_3 with b = 1: pairwise distances sqrt(2)
    inst = LPInstance(np.eye(3), np.ones(3), np.array([1.0, 0.0, 0.0]))
    basis = make_basis(inst.A, inst.b, (0, 1, 2))
    assert abs(lower_bound._facet_diameter(inst, [basis.indices]) - math.sqrt(2)) < 1e-12
    # near-parallel rows: diameter near 0
    A = np.array([[1.0, 0.0, 0.0], [0.9999, 0.0141, 0.0], [0.9999, 0.0, 0.0141]])
    inst2 = LPInstance(A, np.ones(3), np.array([1.0, 0.0, 0.0]))
    assert lower_bound._facet_diameter(inst2, [(0, 1, 2)]) < 0.05
    # nonpositive rhs is out of the polar's regime
    inst3 = LPInstance(np.eye(3), np.array([1.0, -1.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NonpositiveRhs):
        lower_bound._facet_diameter(inst3, [(0, 1, 2)])


def _facet_diameter_one_basis_at_a_time(inst, graph):
    """The largest polar facet diameter as a loop over bases and over each
    basis's points, the reference for the batched _max_facet_diameter."""
    gamma = 0.0
    for indices in graph.bases:
        indices = list(indices)
        rhs = inst.b[indices]
        if rhs.min() <= 0.0:
            raise NonpositiveRhs(f"basis row with b = {rhs.min():.3e}")
        pts = inst.A[indices] / rhs[:, None]
        diam = 0.0
        for i in range(len(pts)):
            d2 = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
            if len(d2):
                diam = max(diam, float(d2.max()))
        gamma = max(gamma, diam)
    return gamma


def _criterion_7_facet_calls(monkeypatch, stream):
    """The (description, graph, diameter) triples of criterion 7's run's
    _max_facet_diameter calls: the origin description, then the recentred
    one."""
    calls = []
    measure = lower_bound._max_facet_diameter

    def record(inst, graph):
        calls.append((inst, graph, measure(inst, graph)))
        return calls[-1][2]

    monkeypatch.setattr(lower_bound, "_max_facet_diameter", record)
    diameter_experiment(RngStream(7007, stream), d=3, sigma=0.25)
    return calls


@pytest.mark.parametrize("stream", range(5))
def test_max_facet_diameter_matches_one_basis_at_a_time(monkeypatch, stream):
    calls = _criterion_7_facet_calls(monkeypatch, stream)
    assert len(calls) == 2 and calls[0][1] is calls[1][1]
    origin, recentred = calls[0][0], calls[1][0]
    assert not np.array_equal(origin.b, recentred.b)
    for inst, graph, got in calls:
        assert got.hex() == _facet_diameter_one_basis_at_a_time(inst, graph).hex()


def test_max_facet_diameter_names_the_first_nonpositive_basis(monkeypatch):
    (inst, graph, _), _ = _criterion_7_facet_calls(monkeypatch, 0)
    # a row first met in the third basis, and a smaller b on a row first
    # met in a later one
    first = set().union(*graph.bases[:2])
    third = min(set(graph.bases[2]) - first)
    later = min(set().union(*graph.bases[3:]) - first - set(graph.bases[2]))
    b = inst.b.copy()
    b[third] = -0.5
    b[later] = -2.0
    bad = LPInstance(inst.A, b, inst.c)
    with pytest.raises(NonpositiveRhs) as ref:
        _facet_diameter_one_basis_at_a_time(bad, graph)
    with pytest.raises(NonpositiveRhs) as got:
        lower_bound._facet_diameter(bad, graph.bases)
    assert str(got.value) == str(ref.value) == "basis row with b = -5.000e-01"


def test_rel_diam_bound_formula():
    # R = 1.4, gamma = 0.5, d = 3 -> (d-1)(2/(R gamma) - 2) ~ 1.714
    val = (3 - 1) * (2.0 / (1.4 * 0.5) - 2.0)
    assert abs(val - 1.7142857142857144) < 1e-12


def test_diameter_experiment_small_sigma_chain():
    rec = diameter_experiment(
        RngStream(74, 0), d=3, sigma=0.02, eta=0.12, pad=False, audit_samples=30000
    )
    assert rec.outcome == "optimal"
    assert rec.event_holds  # measured perturbations stay below 1/8
    assert rec.sandwich_inner_ok and rec.sandwich_outer_ok
    assert rec.facet_bound_applicable and rec.facet_bound_ok
    assert rec.bound_holds
    assert rec.path_bound > 0
    assert rec.bfs_hops >= rec.path_bound


def test_diameter_experiment_c_sign_symmetry():
    # BFS distance between max and min is symmetric under negating c
    gen = RngStream(75, 0).generator()
    dense = dense_set_with_retry(gen, eta=0.3, d=3, audit_samples=20000)
    inst = build_lb_instance(gen, dense, sigma=0.01, n=len(dense))
    from shadowlp.oracle import bfs_distance
    from shadowlp.solver import solve

    out, _, _ = solve(gen, inst)
    graph = discover_vertex_graph(inst.A, inst.b, out.basis_indices)
    vals = graph.points @ inst.c
    a, b = int(np.argmax(vals)), int(np.argmin(vals))
    assert bfs_distance(graph, a, b) == bfs_distance(graph, b, a)
