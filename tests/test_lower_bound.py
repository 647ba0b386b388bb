import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import LPInstance, RngStream
from shadowlp.errors import NonpositiveRhs, UncoveredCell
from shadowlp.experiments import LOWERBOUND_SCHEMA, lowerbound_run, parse_config
from shadowlp import experiments, lower_bound
from shadowlp.lower_bound import (
    _max_cos,
    build_lb_instance,
    default_row_count,
    dense_set_with_retry,
    diameter_experiment,
    greedy_dense_set,
    sandwich_check,
)
from shadowlp.oracle import discover_vertex_graph
from shadowlp.rng import uniform_sphere
from shadowlp.simplex import make_basis


def test_diameter_two_packing_on_circle():
    assert len(greedy_dense_set(eta=2.0, d=2)) <= 2
    assert len(dense_set_with_retry(eta=2.0, d=2)) <= 2


def test_eta_half_cardinality_bound():
    dense = dense_set_with_retry(eta=0.5, d=3)
    assert len(dense) <= (4.0 / 0.5) ** 3  # 512
    pts = dense.points
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    min_dist = math.sqrt(2.0 - 2.0 * dots.max())
    assert min_dist >= 0.5 - 1e-12


@pytest.mark.parametrize("probes", [512, 513, 1300])
def test_max_cos_chunks_match_one_matmul(probes):
    # 512 is the one-chunk path, 513 and 1300 end on a partial chunk; BLAS
    # may round a chunk's products differently from the whole matmul's, so
    # the chunks are held to the per-probe maximum within a few ulps
    pts = uniform_sphere(RngStream(76, 0), 3, size=40)
    cand = uniform_sphere(RngStream(76, 1), 3, size=probes)
    ref = np.array([max(float(p @ c) for p in pts) for c in cand])
    np.testing.assert_allclose(_max_cos(pts, cand), ref, rtol=0.0, atol=1e-15)


def test_max_cos_of_an_empty_packing_is_minus_infinity():
    cand = uniform_sphere(RngStream(76, 2), 4, size=700)
    assert np.array_equal(_max_cos(np.empty((0, 4)), cand), np.full(700, -np.inf))


def _keep_one_at_a_time(cand, best, cos_cut):
    """Positions of the rows a one-candidate-at-a-time greedy keeps: a row
    whose best inner product with the packing is at most cos_cut, and whose
    inner product with every row kept before it is too."""
    kept = []
    for i in range(len(cand)):
        if best[i] <= cos_cut and all(cand[i] @ cand[j] <= cos_cut for j in kept):
            kept.append(i)
    return np.array(kept, dtype=np.intp)


# (seed, rows, d, eta): a block of one row, a full 512-row block, and a block
# where most rows are dropped
@pytest.mark.parametrize("seed,m,d,eta", [
    (1, 1, 3, 0.5),
    (2, 512, 3, 0.2),
    (3, 300, 4, 1.2),
])
def test_greedy_block_matches_one_at_a_time(seed, m, d, eta):
    cand = uniform_sphere(RngStream(seed, 0), d, size=m)
    cos_cut = 1.0 - eta * eta / 2.0
    keep = lower_bound._greedy_block(cand, cos_cut)
    ref = _keep_one_at_a_time(cand, np.full(m, -np.inf), cos_cut)
    assert np.array_equal(np.flatnonzero(keep), ref)


# (seed, candidates, packing size, d, eta): survivors spanning one, two and
# four 512-row blocks, with and without a packing kept before the batch
@pytest.mark.parametrize("seed,m,packed,d,eta", [
    (4, 400, 0, 3, 0.3),
    (5, 1200, 0, 3, 0.1),
    (6, 4096, 60, 3, 0.15),
])
def test_accept_matches_one_at_a_time(seed, m, packed, d, eta):
    cos_cut = 1.0 - eta * eta / 2.0
    pts = uniform_sphere(RngStream(seed, 1), d, size=packed)
    pts = pts[_keep_one_at_a_time(pts, np.full(packed, -np.inf), cos_cut)]
    cand = uniform_sphere(RngStream(seed, 0), d, size=m)
    best = _max_cos(pts, cand)
    got = lower_bound._accept(cand, best, cos_cut)
    assert np.array_equal(got, _keep_one_at_a_time(cand, best, cos_cut))


# (d, k): children per parent k^(d-1) from 3 to 27
@pytest.mark.parametrize("d,k", [(2, 3), (3, 2), (3, 5), (4, 3)])
def test_split_children_tile_their_parent_in_order(d, k):
    # two parents on different faces, off the face centres
    cube = np.zeros((2, d))
    cube[0, 0], cube[1, d - 1] = 1.0, -1.0
    cube[0, 1:] = 0.25
    cube[1, :-1] = -0.5
    axis = np.array([0, d - 1])
    half = 0.125 / k
    per = k ** (d - 1)
    child, ax = lower_bound._split(cube, axis, half, k, 0, 2 * per)
    expected = []
    for p in range(2):
        others = [(axis[p] + 1 + t) % d for t in range(d - 1)]
        for steps in itertools.product(range(k), repeat=d - 1):
            c = cube[p].copy()
            for col, s in zip(others, steps):
                c[col] += (2.0 * s + 1.0 - k) * half
            expected.append(c)
    assert np.array_equal(child, np.array(expected))
    assert np.array_equal(ax, np.repeat(axis, per))
    # each child stays on its parent's face, inside the parent's square of
    # half side k * half
    parent = np.repeat(cube, per, axis=0)
    on_face = np.arange(d) == ax[:, None]
    assert np.array_equal(child[on_face], parent[on_face])
    assert (np.abs(child - parent)[~on_face] + half <= k * half + 1e-15).all()
    # any split of the range into chunks gives the same cells
    parts = [lower_bound._split(cube, axis, half, k, lo, min(lo + 5, 2 * per))[0]
             for lo in range(0, 2 * per, 5)]
    assert np.array_equal(np.concatenate(parts), child)


def _fill_one_at_a_time(eta, d):
    """The fill greedy_dense_set must reproduce, one cell at a time.

    Each level lists every open cell's children, parent by parent, in
    itertools.product order over the face's other axes.  In that order a
    child's centre is kept when it lies at least eta from every point kept
    before it.  After each run of _CELLS children, the children of the run
    that no point kept so far covers are the next level's open cells.  The
    centres are scaled to unit length by the fill's own array expression, so
    that only the keep and cover decisions are checked here."""
    cos_cut = 1.0 - eta * eta / 2.0
    kept = np.empty((0, d))

    def best(u):
        return (kept @ u).max(initial=-np.inf)

    cells = [(sign * np.eye(d)[f], f) for f in range(d) for sign in (1.0, -1.0)]
    half, k = 1.0, math.ceil(2.0 * math.sqrt(d - 1) / eta)
    while cells:
        half /= k
        r = half * math.sqrt(d - 1)
        cover_cut = 1.0 - (eta - r - lower_bound._MARGIN) ** 2 / 2.0 + 1e-12
        children = []
        for centre, f in cells:
            others = [(f + 1 + t) % d for t in range(d - 1)]
            for steps in itertools.product(range(k), repeat=d - 1):
                c = centre.copy()
                for col, s in zip(others, steps):
                    c[col] += (2.0 * s + 1.0 - k) * half
                children.append((c, f))
        cells = []
        for lo in range(0, len(children), lower_bound._CELLS):
            run = children[lo:lo + lower_bound._CELLS]
            cube = np.array([c for c, _ in run])
            units = cube / np.linalg.norm(cube, axis=1, keepdims=True)
            for u in units:
                if best(u) <= cos_cut:
                    kept = np.vstack((kept, u))
            cells += [cell for cell, u in zip(run, units) if best(u) <= cover_cut]
        k = 2
    return kept


# (eta, d): packings of 9 to 227 points, refined over two to eight levels
@pytest.mark.parametrize("eta,d", [
    (0.1, 2),
    (1.0, 3),
    (1.0, 4),
    (0.2, 3),
    (0.5, 2),
    (0.5, 3),
    (0.8, 4),
    (0.3, 2),
    (0.25, 3),
])
def test_greedy_dense_set_matches_one_at_a_time(eta, d):
    assert np.array_equal(greedy_dense_set(eta, d), _fill_one_at_a_time(eta, d))


# with 50 cells a run, every first level spans two or more runs; a cell that
# its own run leaves open is split even when a later run keeps a point that
# covers it
@pytest.mark.parametrize("eta,d", [(0.1, 2), (0.25, 3), (0.8, 4)])
def test_greedy_dense_set_runs_match_one_at_a_time(eta, d, monkeypatch):
    monkeypatch.setattr(lower_bound, "_CELLS", 50)
    assert 2 * d * math.ceil(2.0 * math.sqrt(d - 1) / eta) ** (d - 1) > 50
    assert np.array_equal(greedy_dense_set(eta, d), _fill_one_at_a_time(eta, d))


def _cell_corners(cube, axis, half):
    """The corners of each cube-map cell (centre on the cube surface, face
    axis, half side), scaled to unit length."""
    d = cube.shape[1]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d - 1)))
    corners = np.repeat(cube, len(signs), axis=0)
    free = np.repeat(np.arange(d) != axis[:, None], len(signs), axis=0)
    corners[free] += half * np.tile(signs, (len(cube), 1)).ravel()
    return corners / np.linalg.norm(corners, axis=1, keepdims=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), scale=st.floats(0.0, 1.0))
def test_certified_packing_is_separated_and_dense(seed, d, scale):
    """The packing the fill builds from no points is eta-separated, random
    probes lie within eta of it, and so does every corner of every cell the
    refinement found covered; the finest cells are all covered."""
    eta = {2: 0.05, 3: 0.2, 4: 0.5}[d]
    eta += scale * (1.9 - eta)
    levels = []
    split = lower_bound._split

    def recorded(cube, axis, half, k, lo, hi):
        cells = split(cube, axis, half, k, lo, hi)
        levels.append((*cells, half))
        return cells

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lower_bound, "_split", recorded)
        dense = dense_set_with_retry(eta, d)
    pts = dense.points
    cos_cut = 1.0 - eta * eta / 2.0
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    assert dots.max() <= cos_cut + 1e-12
    probes = uniform_sphere(RngStream(seed, 1), d, size=20_000)
    assert (_max_cos(pts, probes) > cos_cut).all()
    finest = min(half for _, _, half in levels)
    for cube, axis, half in levels:
        r = half * math.sqrt(d - 1)
        unit = cube / np.linalg.norm(cube, axis=1, keepdims=True)
        covered = _max_cos(pts, unit) > 1.0 - (eta - r - 1e-9) ** 2 / 2.0 + 1e-12
        assert covered.all() or half > finest
        corners = _cell_corners(cube[covered], axis[covered], half)
        assert (_max_cos(pts, corners) > cos_cut).all()


def test_refinement_cap_names_eta_and_an_open_cell(monkeypatch):
    # criterion 7's packing needs cells of r = 0.0295 and finer; with
    # splits stopped at r = 0.05 an open cell of r = 0.0589 remains
    monkeypatch.setattr(lower_bound, "_MIN_R", 0.05)
    with pytest.raises(UncoveredCell, match=r"^eta=0\.25: the cell centred at "
                       r"\(-?[0-9.]+, -?[0-9.]+, -?[0-9.]+\) with half-diagonal 0\.0589 "
                       r"is still open, and covering it needs splitting it below "
                       r"r = 0\.05$"):
        dense_set_with_retry(0.25, 3)


def test_open_cell_cap_names_eta_and_an_open_cell(monkeypatch):
    monkeypatch.setattr(lower_bound, "_MAX_OPEN", 100)
    with pytest.raises(UncoveredCell, match=r"with half-diagonal 0\.118 is still open, "
                       r"and covering it needs more than 100 cells open at that size$"):
        dense_set_with_retry(0.25, 3)


@pytest.mark.parametrize("d", [3, 4])
def test_eta_two_keeps_the_antipode_or_leaves_it_open(d):
    # the first kept centre's antipode is a centre exactly eta = 2 away; the
    # greedy test keeps it when their inner product rounds to -1 or below,
    # and otherwise the cells around it stay open until the open-cell cap
    try:
        pts = dense_set_with_retry(2.0, d).points
    except UncoveredCell as exc:
        assert re.match(r"eta=2\.0: .* more than 1048576 cells open", str(exc))
    else:
        assert len(pts) == 2 and np.array_equal(pts[1], -pts[0])


# size and sha256 of the points of criterion 7's packing.  The bits come
# from IEEE sqrt and division, the cell centres' cube coordinates, and from
# threshold decisions that a last-bit difference between BLAS kernels would
# not flip, so they should hold on any host.
def test_criterion_7_packing_is_pinned():
    dense = dense_set_with_retry(0.25, 3)
    assert len(dense) == 148
    assert (hashlib.sha256(dense.points.tobytes()).hexdigest()
            == "d6cb4424e759ae21878b2a53b63df3eeaac19766e31345fd210b975311dab051")


def test_criterion_7_runs_share_one_packing():
    # the packing uses no random numbers: every call returns the same bits,
    # and criterion 7's five runs measure one dense set
    first, again = dense_set_with_retry(0.25, 3), dense_set_with_retry(0.25, 3)
    assert first.points.tobytes() == again.points.tobytes()
    rows, _ = lowerbound_run(parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.25\nruns = 5\nseed = 7007\n",
        LOWERBOUND_SCHEMA,
    ))
    assert [r["n_dense"] for r in rows] == [len(first)] * 5


def _count_packings(monkeypatch):
    """Wrap dense_set_with_retry in every module that binds it, as
    bench/tracer.py does; returns the list its calls append to."""
    calls = []
    build = lower_bound.dense_set_with_retry

    def counted(eta, d):
        calls.append((eta, d))
        return build(eta, d)

    for module in (lower_bound, experiments):
        if getattr(module, "dense_set_with_retry", None) is build:
            monkeypatch.setattr(module, "dense_set_with_retry", counted)
    return calls


def test_lowerbound_study_builds_one_packing(monkeypatch):
    calls = _count_packings(monkeypatch)
    rows, summary = lowerbound_run(parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.02\neta = 0.4\nruns = 3\npad = false\n",
        LOWERBOUND_SCHEMA,
    ))
    assert calls == [(0.4, 3)]
    assert summary["runs_ok"] == 3


def test_lowerbound_study_records_uncovered_cell_rows(monkeypatch):
    # a packing that raises gives its run an error row, and the next run
    # builds it again
    monkeypatch.setattr(lower_bound, "_MAX_OPEN", 100)
    calls = _count_packings(monkeypatch)
    rows, summary = lowerbound_run(parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.25\nruns = 2\n", LOWERBOUND_SCHEMA,
    ))
    assert calls == [(0.25, 3)] * 2
    for row in rows:
        assert (row["outcome"], row["d"], row["eta"], row["n_rows"]) == ("error", 3, 0.25, "")
        assert row["error"].startswith("UncoveredCell: eta=0.25: the cell centred at (")
    assert summary["runs_ok"] == 0 and summary["bound_holds_all"] is False


def test_shared_packing_is_read_only():
    points = dense_set_with_retry(0.5, 3).points
    with pytest.raises(ValueError, match="read-only"):
        points[0, 0] = 0.0


@pytest.mark.parametrize("eta,d", [(0.0, 3), (-0.1, 3), (2.5, 3), (0.5, 1)])
def test_dense_set_rejects_eta_or_d_out_of_range(eta, d):
    with pytest.raises(ValueError, match="eta must be in|d must be"):
        dense_set_with_retry(eta, d)


@pytest.mark.parametrize("eta,d,message", [
    (0.0, 3, r"eta must be in \(0, 2\]"),
    (-0.1, 3, r"eta must be in \(0, 2\]"),
    (2.5, 3, r"eta must be in \(0, 2\]"),
    (0.5, 1, "d must be >= 2"),
])
def test_greedy_dense_set_rejects_eta_or_d_out_of_range(eta, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        greedy_dense_set(eta, d)


def test_dense_set_with_retry_builds_one_packing(monkeypatch):
    # one call, so bench/tracer.py's lower_bound.dense_set.attempts stays 1
    calls = []

    def counted(eta, d):
        calls.append((eta, d))
        return pts

    pts = greedy_dense_set(0.5, 3)
    monkeypatch.setattr(lower_bound, "greedy_dense_set", counted)
    dense = dense_set_with_retry(0.5, 3)
    assert calls == [(0.5, 3)]
    assert dense.points is pts and dense.eta == 0.5


def test_diameter_experiment_c_is_the_streams_first_draw(monkeypatch):
    # the packing draws nothing, so c is the first draw of the run's stream
    seen = []

    class Stop(Exception):
        pass

    def stop(gen, dense, sigma, c=None, n=None):
        seen.append(c)
        raise Stop

    monkeypatch.setattr(lower_bound, "build_lb_instance", stop)
    with pytest.raises(Stop):
        diameter_experiment(RngStream(7007, 3), dense_set_with_retry(0.25, 3), 0.25)
    assert np.array_equal(seen[0], uniform_sphere(RngStream(7007, 3), 3))


def test_build_lb_instance_unperturbed():
    gen = RngStream(71, 0).generator()
    dense = dense_set_with_retry(eta=0.4, d=3)
    inst = build_lb_instance(gen, dense, sigma=0.0)
    assert np.array_equal(inst.A, dense.points)
    assert np.array_equal(inst.b, np.ones(len(dense)))
    res = sandwich_check(inst, dense.eta)
    assert abs(res.inner_radius - 1.0) < 1e-12 and res.inner_ok


def test_build_lb_instance_row_count():
    assert default_row_count(0.25, 3) == 4096
    gen = RngStream(71, 1).generator()
    dense = dense_set_with_retry(eta=0.25, d=3)
    inst = build_lb_instance(gen, dense, sigma=0.25)
    assert inst.n == 4096
    assert np.allclose(np.linalg.norm(inst.abar, axis=1), 1.0)


def test_perturbation_norm_event():
    # measured perturbations stay within 4 sigma sqrt(d ln n) on typical seeds
    gen = RngStream(71, 2).generator()
    dense = dense_set_with_retry(eta=0.4, d=3)
    for k in range(5):
        inst = build_lb_instance(RngStream(72, k), dense, sigma=0.02, n=len(dense))
        cut = 4 * 0.02 * math.sqrt(3 * math.log(inst.n))
        assert np.linalg.norm(inst.A - inst.abar, axis=1).max() <= cut
        assert np.abs(inst.b - inst.bbar).max() <= cut


def test_sandwich_violation_constructed():
    gen = RngStream(73, 0).generator()
    dense = dense_set_with_retry(eta=0.4, d=3)
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
    diameter_experiment(RngStream(7007, stream), dense_set_with_retry(0.25, 3), 0.25)
    return calls


# runs of criterion 7's config whose inner radius is positive, so that both
# descriptions are measured (stream 4 has a b_i <= 0)
@pytest.mark.parametrize("stream", [0, 1, 2, 3, 5])
def test_max_facet_diameter_matches_one_basis_at_a_time(monkeypatch, stream):
    calls = _criterion_7_facet_calls(monkeypatch, stream)
    assert len(calls) == 2 and calls[0][1] is calls[1][1]
    origin, recentred = calls[0][0], calls[1][0]
    assert not np.array_equal(origin.b, recentred.b)
    for inst, graph, got in calls:
        assert got.hex() == _facet_diameter_one_basis_at_a_time(inst, graph).hex()


def test_max_facet_diameter_names_the_first_nonpositive_basis(monkeypatch):
    (inst, graph, _), _ = _criterion_7_facet_calls(monkeypatch, 1)
    # a row first met in the third basis, and a smaller b on a row first
    # met in a later one (stream 0's third basis meets no new row)
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
    dense = dense_set_with_retry(0.12, 3)
    rec = diameter_experiment(RngStream(74, 0), dense, sigma=0.02, n=len(dense))
    # d and eta are the packing's
    assert (rec.d, rec.eta, rec.n_rows, rec.n_dense) == (3, 0.12, len(dense), len(dense))
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
    dense = dense_set_with_retry(eta=0.3, d=3)
    inst = build_lb_instance(gen, dense, sigma=0.01, n=len(dense))
    from shadowlp.oracle import bfs_distance
    from shadowlp.solver import solve

    out, _, _ = solve(gen, inst)
    graph = discover_vertex_graph(inst.A, inst.b, out.basis_indices)
    vals = graph.points @ inst.c
    a, b = int(np.argmax(vals)), int(np.argmin(vals))
    assert bfs_distance(graph, a, b) == bfs_distance(graph, b, a)
