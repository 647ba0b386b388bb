import collections
import copy
import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowlp import LPInstance, RngStream
from shadowlp.errors import NonpositiveRhs, UncoveredCell
from shadowlp.experiments import LOWERBOUND_SCHEMA, lowerbound_run, parse_config
from shadowlp import experiments, lower_bound, solver
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
from shadowlp.simplex import TOL_OPT, make_basis
from shadowlp.solver import phase3_solve, solve, verify_outcome


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
def test_max_cos_chunks_match_one_matmul(probes, monkeypatch):
    # 512 probes a matmul: 512 is the one-chunk path, 513 and 1300 end on a
    # partial chunk; BLAS may round a chunk's products differently from the
    # whole matmul's, so the chunks are held to the per-probe maximum within
    # a few ulps
    monkeypatch.setattr(lower_bound, "_PAIRS", 40 * 512)
    pts = uniform_sphere(RngStream(76, 0), 3, size=40)
    cand = uniform_sphere(RngStream(76, 1), 3, size=probes)
    ref = np.array([max(float(p @ c) for p in pts) for c in cand])
    np.testing.assert_allclose(_max_cos(pts, cand, -1.0), ref, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rows", [0, 4000])
def test_max_cos_of_an_empty_packing_is_minus_infinity(rows, monkeypatch):
    monkeypatch.setattr(lower_bound, "_ROWS", rows)
    cand = uniform_sphere(RngStream(76, 2), 4, size=700)
    assert np.array_equal(_max_cos(np.empty((0, 4)), cand, 0.5), np.full(700, -np.inf))


# (seed, rows, probes, d, eta): rows within eta of 60-90% of the probes,
# and eta = 2, where every row reaches every probe
@pytest.mark.parametrize("seed,m,probes,d,eta", [
    (77, 300, 5000, 2, 0.01),
    (78, 60, 3000, 3, 0.25),
    (79, 200, 4000, 4, 0.3),
    (80, 100, 2000, 5, 0.6),
    (81, 50, 700, 3, 2.0),
])
@pytest.mark.parametrize("cube_cost", [0, 10_000, 10**9])
def test_near_max_cos_matches_every_row_above_the_cut(seed, m, probes, d, eta, cube_cost,
                                                      monkeypatch):
    # where a probe's largest inner product exceeds the cut, the row that
    # attains it is one that can reach the probe, so the restricted value
    # is that maximum; elsewhere it may be any value at most the cut.  A
    # cube cost of 0 gives the finest cubes the estimate allows, 10^9 few
    monkeypatch.setattr(lower_bound, "_CUBE", cube_cost)
    pts = uniform_sphere(RngStream(seed, 0), d, size=m)
    cand = uniform_sphere(RngStream(seed, 1), d, size=probes)
    cut = 1.0 - eta * eta / 2.0
    ref = (pts @ cand.T).max(axis=0)
    got = lower_bound._near_max_cos(pts, cand, cut)
    above = ref > cut
    assert 0 < above.sum() and (eta == 2.0 or not above.all())
    np.testing.assert_allclose(got[above], ref[above], rtol=0.0, atol=1e-15)
    assert (got[~above] <= cut).all()


@pytest.mark.parametrize("d,eta", [(2, 0.01), (3, 0.25), (4, 0.3)])
def test_near_max_cos_leaves_rows_out(d, eta, monkeypatch):
    # the finest cubes the estimate allows hold a few probes each, and most
    # rows are too far from a cube to meet its probes
    cubes = []
    sort = lower_bound._cubes

    def recorded(probes, rows, chord):
        out = sort(probes, rows, chord)
        cubes.append(out)
        return out

    monkeypatch.setattr(lower_bound, "_CUBE", 0)
    monkeypatch.setattr(lower_bound, "_cubes", recorded)
    pts = uniform_sphere(RngStream(82, 0), d, size=400)
    cand = uniform_sphere(RngStream(82, 1), d, size=3000)
    cut = 1.0 - eta * eta / 2.0
    lower_bound._near_max_cos(pts, cand, cut)
    order, start, centre, radius = cubes[0]
    assert np.array_equal(np.sort(order), np.arange(3000)) and start[0] == 0
    assert len(start) >= 30
    # every probe lies in its cube
    cube = np.repeat(np.arange(len(start)), np.diff(start, append=3000))
    assert (np.linalg.norm(cand[order] - centre[cube], axis=1) <= radius + 1e-12).all()
    reach = radius + eta + lower_bound._REACH_MARGIN
    met = np.linalg.norm(centre[:, None] - pts[None], axis=2) <= reach
    assert met.mean() < 0.5


def _keep_one_at_a_time(cand, best, cos_cut):
    """Positions of the rows a one-candidate-at-a-time greedy keeps: a row
    whose best inner product with the packing is at most cos_cut, and whose
    inner product with every row kept before it is too."""
    kept = []
    for i in range(len(cand)):
        if best[i] <= cos_cut and all(cand[i] @ cand[j] <= cos_cut for j in kept):
            kept.append(i)
    return np.array(kept, dtype=np.intp)


# (seed, rows, d, eta): a block of one row, a 512-row block, and a block
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


# (seed, candidates, packing size, d, eta): survivors in one, four and
# eight 384-row blocks, with and without a packing kept before the batch
@pytest.mark.parametrize("seed,m,packed,d,eta", [
    (4, 300, 0, 3, 0.3),
    (5, 1200, 0, 3, 0.1),
    (6, 4096, 60, 3, 0.15),
])
def test_accept_matches_one_at_a_time(seed, m, packed, d, eta):
    cos_cut = 1.0 - eta * eta / 2.0
    pts = uniform_sphere(RngStream(seed, 1), d, size=packed)
    pts = pts[_keep_one_at_a_time(pts, np.full(packed, -np.inf), cos_cut)]
    cand = uniform_sphere(RngStream(seed, 0), d, size=m)
    best = _max_cos(pts, cand, cos_cut)
    got = lower_bound._accept(cand, best, cos_cut)
    assert np.array_equal(got, _keep_one_at_a_time(cand, best, cos_cut))


def test_greedy_block_and_accept_take_no_candidates():
    none = np.empty((0, 3))
    assert lower_bound._greedy_block(none, 0.5).shape == (0,)
    assert lower_bound._accept(none, np.empty(0), 0.5).shape == (0,)
    # candidates that the packing already rules out leave no survivors
    cand = uniform_sphere(RngStream(7, 0), 3, size=5)
    assert lower_bound._accept(cand, np.ones(5), 0.5).shape == (0,)


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
    before it.  After each batch of _CELLS children, the children of the
    batch that no point kept so far covers are the next level's open cells.
    The centres are scaled to unit length by the fill's own array
    expression, so that only the keep and cover decisions are checked
    here."""
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
            batch = children[lo:lo + lower_bound._CELLS]
            cube = np.array([c for c, _ in batch])
            units = cube / np.linalg.norm(cube, axis=1, keepdims=True)
            for u in units:
                if best(u) <= cos_cut:
                    kept = np.vstack((kept, u))
            cells += [cell for cell, u in zip(batch, units) if best(u) <= cover_cut]
        k = 2
    return kept


# (eta, d): packings of 9 to 227 points, refined over two to eight levels
_FILLS = [
    (0.1, 2),
    (1.0, 3),
    (1.0, 4),
    (0.2, 3),
    (0.5, 2),
    (0.5, 3),
    (0.8, 4),
    (0.3, 2),
    (0.25, 3),
]


@pytest.mark.parametrize("eta,d", _FILLS)
def test_greedy_dense_set_matches_one_at_a_time(eta, d):
    assert np.array_equal(greedy_dense_set(eta, d), _fill_one_at_a_time(eta, d))


# every product of the fill, from the packing's first point on, compares
# each cube of probes only with the points that can reach it, in the finest
# cubes the estimate allows (cube cost 0) and in the fill's own; (0.4, 4)
# adds a 230-point packing over eight levels
@pytest.mark.parametrize("eta,d", _FILLS + [(0.4, 4)])
@pytest.mark.parametrize("cube_cost", [0, 10_000])
def test_restricted_fill_matches_one_at_a_time(eta, d, cube_cost, monkeypatch):
    monkeypatch.setattr(lower_bound, "_ROWS", 0)
    monkeypatch.setattr(lower_bound, "_CUBE", cube_cost)
    assert np.array_equal(greedy_dense_set(eta, d), _fill_one_at_a_time(eta, d))


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
    assert (_max_cos(pts, probes, cos_cut) > cos_cut).all()
    finest = min(half for _, _, half in levels)
    for cube, axis, half in levels:
        r = half * math.sqrt(d - 1)
        unit = cube / np.linalg.norm(cube, axis=1, keepdims=True)
        covered = _max_cos(pts, unit, cos_cut) > 1.0 - (eta - r - 1e-9) ** 2 / 2.0 + 1e-12
        assert covered.all() or half > finest
        corners = _cell_corners(cube[covered], axis[covered], half)
        assert (_max_cos(pts, corners, cos_cut) > cos_cut).all()


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


@pytest.mark.parametrize("rows", [None, 0])
@pytest.mark.parametrize("d", [3, 4])
def test_eta_two_keeps_the_antipode_or_leaves_it_open(d, rows, monkeypatch):
    # the first kept centre's antipode is a centre exactly eta = 2 away; the
    # greedy test keeps it when their inner product rounds to -1 or below,
    # and otherwise the cells around it stay open until the open-cell cap.
    # At eta = 2 every row can reach every probe, also where the fill
    # compares cubes of probes only with the rows near them (rows = 0)
    if rows is not None:
        monkeypatch.setattr(lower_bound, "_ROWS", rows)
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


# the same for two d = 4 packings; from its 513th point on, the 557-point
# packing's products compare each cube of cells only with the points near it
@pytest.mark.parametrize("eta,size,digest", [
    (0.5, 115, "eff3f26b4e9c6785d20a8fea2d31a099ac8f8d7a24fcc59de297578b06980a28"),
    (0.3, 557, "deed50730702cde0d80ceea513f06d4081e276bcc6f568d322474c3702b0c97f"),
])
def test_d4_packings_are_pinned(eta, size, digest):
    points = greedy_dense_set(eta, 4)
    assert len(points) == size
    assert hashlib.sha256(points.tobytes()).hexdigest() == digest


# sha256 of build_lb_instance's A and b and of the repr of every
# DiameterRecord field, for criterion 7's runs and a padded sigma = 0.05 run
# (n = 512,000) whose solve grows its rows once.  They were recorded while
# the row norms were np.linalg.norm and the instance was np.vstack and
# rows + sigma * noise; the column sums and the in-place build keep the bits.
@pytest.mark.parametrize("sigma,stream,a_digest,b_digest,record_digest", [
    (0.25, 0, "061271575bc5e04235e60f1ca112c31f33853497e5f01f3a5c3ba42fae808509",
     "c70d4cdd99069c58414f32b5e99b91912e4b8c49aff26f49747be12870e5bc62",
     "57f9f2f7aff463c898ade0a427b09fc5e8433b6d6a5231b80d016e326626b728"),
    (0.25, 1, "b8ec9bc506fb9ceaf5435773e34cb7dc7dcc0f765eb37510ca63a62b56617a47",
     "9b26612542c1f211fedb83af1dcca5b652b80498ea0bb8b1707220f75228c1f7",
     "e556957b3d0ef42da21d4339129b40e4853c4c370caeb54ff4631464c2921091"),
    (0.25, 2, "25839cb0eedaef0b56a266e00860231ef013197c76d64bcdb807e772d773e52b",
     "7697faac1193eee18657f3408c025c8e5615993be1dbb9a01d3efa900f745b81",
     "b0a061bb60040b0238b3e1dbc52c84c54fc3f129714ebe479ef2efa7c97bd579"),
    (0.25, 3, "c85d54da8068b1e191cc4ce0d3d3e69e59e13b1174e60859946e416f647805ee",
     "a01a98eb72002ca331ac404795bd19738b4657f4a9576bc3116440566053eb72",
     "6abf1c41dc4db55540dd23ddbfe9a3874a77c7f2c31fb6dd158107527a6db389"),
    (0.25, 4, "85cbdb748b8a5ecd144ff8e7ac5f6799f8ca473ce000b3c3cf7cc3cf8f997987",
     "0f1f1d8af9a9377152f38a13ab024ce8c90b95f7eb6b8e73b59249b4fa8060d8",
     "db9bdac9f5cb4442bb6cc3bbeef2d4af770282eab3424d00797c62f81f5074d4"),
    (0.05, 2, "7ccf0a532a736541f1337f0a3a0b6fbb4cbfd7f1cbc64dc836c8f95576e7b38d",
     "92a4a9008aa8f8c309e9db71d7df2d702bbff7f9643ed6e7f2086e81152c7bc9",
     "871998cb017bb18e38d39243205f7308e73d5510dffd78781009caebefdd90de"),
], ids=[f"criterion7-stream{k}" for k in range(5)] + ["padded-sigma0.05-stream2"])
def test_lower_bound_runs_are_pinned(monkeypatch, sigma, stream, a_digest, b_digest,
                                     record_digest):
    built = []
    build = lower_bound.build_lb_instance

    def record(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lower_bound, "build_lb_instance", record)
    rec = diameter_experiment(RngStream(7007, stream), dense_set_with_retry(sigma, 3), sigma)
    ((inst, _),) = built
    cells = "\n".join(f"{f.name}={getattr(rec, f.name)!r}" for f in dataclasses.fields(rec))
    assert rec.outcome == "optimal"
    assert hashlib.sha256(inst.A.tobytes()).hexdigest() == a_digest
    assert hashlib.sha256(inst.b.tobytes()).hexdigest() == b_digest
    assert hashlib.sha256(cells.encode()).hexdigest() == record_digest


def test_padded_run_holds_one_n_by_d_array():
    # a padded sigma = 0.05 run (n = 512,000) keeps A, b and the row
    # distances, and besides them never holds half an n-vector more (2 MiB):
    # A is perturbed in place and the perturbation measured as it is, and
    # the row norms, the distances' 160th smallest and the slacks of the
    # rows that cut an optimum are taken _BLOCK rows at a time
    dense = dense_set_with_retry(0.05, 3)
    n = default_row_count(0.05, 3)
    tracemalloc.start()
    try:
        rec = diameter_experiment(RngStream(7007, 2), dense, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.outcome == "optimal" and rec.n_rows == n
    assert peak < 8 * (n * 3 + n + n + n // 2)


@pytest.mark.parametrize("n", [1, 160, 161, 65536, 65537 + 100, 3 * 65536 + 160, 3 * 65536 + 161])
def test_kth_smallest_matches_partition(n):
    # the k-th smallest from each block's k + 1 smallest, with a last block
    # of at most k + 1 rows taken whole, and ties among the values
    x = np.round(RngStream(5, n).generator().standard_normal(n), 2)
    k = min(159, n - 1)
    got = lower_bound._kth_smallest(x, k)
    assert np.float64(got).tobytes() == np.partition(x, k)[k].tobytes()


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
    # a packing that raises gives every run an error row, from one build:
    # the packing depends on (eta, d) alone, so a second build raises again
    monkeypatch.setattr(lower_bound, "_MAX_OPEN", 100)
    calls = _count_packings(monkeypatch)
    rows, summary = lowerbound_run(parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.25\nruns = 2\n", LOWERBOUND_SCHEMA,
    ))
    assert calls == [(0.25, 3)]
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
    inst, moved = build_lb_instance(gen, dense, sigma=0.0)
    assert np.array_equal(inst.A, dense.points)
    assert np.array_equal(inst.b, np.ones(len(dense)))
    assert moved == 0.0
    res = sandwich_check(inst, dense.eta)
    assert abs(res.inner_radius - 1.0) < 1e-12 and res.inner_ok


def test_build_lb_instance_row_count():
    assert default_row_count(0.25, 3) == 4096
    gen = RngStream(71, 1).generator()
    dense = dense_set_with_retry(eta=0.25, d=3)
    inst, _ = build_lb_instance(gen, dense, sigma=0.25)
    assert inst.n == 4096
    # the padding rows are unit sphere points: at sigma = 0 they are A's
    # rows past the packing
    pad, moved = build_lb_instance(gen, dense, sigma=0.0, n=4096)
    assert np.array_equal(pad.A[:len(dense)], dense.points) and moved == 0.0
    assert np.allclose(np.linalg.norm(pad.A, axis=1), 1.0)


def test_perturbation_norm_event():
    # measured perturbations stay within 4 sigma sqrt(d ln n) on typical seeds
    gen = RngStream(71, 2).generator()
    dense = dense_set_with_retry(eta=0.4, d=3)
    for k in range(5):
        inst, moved = build_lb_instance(RngStream(72, k), dense, sigma=0.02, n=len(dense))
        cut = 4 * 0.02 * math.sqrt(3 * math.log(inst.n))
        assert 0.0 < moved <= cut
        # the largest of the row changes, measured from the unperturbed rows
        ref = max(np.linalg.norm(inst.A - dense.points, axis=1).max(),
                  np.abs(inst.b - 1.0).max())
        assert moved == ref


def test_sandwich_violation_constructed():
    gen = RngStream(73, 0).generator()
    dense = dense_set_with_retry(eta=0.4, d=3)
    inst, _ = build_lb_instance(gen, dense, sigma=0.0)
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
    basis = make_basis(np.eye(3), np.ones(3), (0, 1, 2))
    assert abs(lower_bound._facet_diameter(np.eye(3), np.ones(3), [basis.indices])
               - math.sqrt(2)) < 1e-12
    # near-parallel rows: diameter near 0
    A = np.array([[1.0, 0.0, 0.0], [0.9999, 0.0141, 0.0], [0.9999, 0.0, 0.0141]])
    assert lower_bound._facet_diameter(A, np.ones(3), [(0, 1, 2)]) < 0.05
    # nonpositive rhs is out of the polar's regime
    with pytest.raises(NonpositiveRhs):
        lower_bound._facet_diameter(np.eye(3), np.array([1.0, -1.0, 1.0]), [(0, 1, 2)])


def _facet_diameter_one_basis_at_a_time(A, b, graph):
    """The largest polar facet diameter as a loop over bases and over each
    basis's points, the reference for the batched _max_facet_diameter."""
    gamma = 0.0
    for indices in graph.bases:
        indices = list(indices)
        rhs = b[indices]
        if rhs.min() <= 0.0:
            raise NonpositiveRhs(f"basis row with b = {rhs.min():.3e}")
        pts = A[indices] / rhs[:, None]
        diam = 0.0
        for i in range(len(pts)):
            d2 = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
            if len(d2):
                diam = max(diam, float(d2.max()))
        gamma = max(gamma, diam)
    return gamma


def _criterion_7_facet_calls(monkeypatch, stream):
    """The (A, b, graph, diameter) tuples of criterion 7's run's
    _max_facet_diameter calls: the origin description, then the recentred
    one."""
    calls = []
    measure = lower_bound._max_facet_diameter

    def record(A, b, graph):
        calls.append((A, b, graph, measure(A, b, graph)))
        return calls[-1][3]

    monkeypatch.setattr(lower_bound, "_max_facet_diameter", record)
    diameter_experiment(RngStream(7007, stream), dense_set_with_retry(0.25, 3), 0.25)
    return calls


# runs of criterion 7's config whose inner radius is positive, so that both
# descriptions are measured (stream 4 has a b_i <= 0)
@pytest.mark.parametrize("stream", [0, 1, 2, 3, 5])
def test_max_facet_diameter_matches_one_basis_at_a_time(monkeypatch, stream):
    calls = _criterion_7_facet_calls(monkeypatch, stream)
    assert len(calls) == 2 and calls[0][2] is calls[1][2] and calls[0][0] is calls[1][0]
    assert not np.array_equal(calls[0][1], calls[1][1])  # the recentred b
    for A, b, graph, got in calls:
        assert got.hex() == _facet_diameter_one_basis_at_a_time(A, b, graph).hex()


def test_max_facet_diameter_names_the_first_nonpositive_basis(monkeypatch):
    (A, b, graph, _), _ = _criterion_7_facet_calls(monkeypatch, 1)
    # a row first met in the third basis, and a smaller b on a row first
    # met in a later one (stream 0's third basis meets no new row)
    first = set().union(*graph.bases[:2])
    third = min(set(graph.bases[2]) - first)
    later = min(set().union(*graph.bases[3:]) - first - set(graph.bases[2]))
    b = b.copy()
    b[third] = -0.5
    b[later] = -2.0
    with pytest.raises(NonpositiveRhs) as ref:
        _facet_diameter_one_basis_at_a_time(A, b, graph)
    with pytest.raises(NonpositiveRhs) as got:
        lower_bound._facet_diameter(A, b, graph.bases)
    assert str(got.value) == str(ref.value) == "basis row with b = -5.000e-01"


def _same_graph(graph, ref):
    return (graph.bases == ref.bases and graph.adjacency == ref.adjacency
            and graph.points.tobytes() == ref.points.tobytes())


def _counted_walks(monkeypatch):
    """Wrap lower_bound's discover_vertex_graph; returns the list of the row
    counts of its walks, tries that stop included."""
    walks = []
    walk = lower_bound.discover_vertex_graph

    def counted(A, *args, **radius):
        walks.append(len(A))
        return walk(A, *args, **radius)

    monkeypatch.setattr(lower_bound, "discover_vertex_graph", counted)
    return walks


def _pruned_discoveries(monkeypatch, dense, sigma, seed, streams, n=None):
    """(discovered graph, full walk, row count) of each optimal run's
    discovery in diameter_experiment, and the row counts of the walks it
    made."""
    seen = []
    pruned, walk = lower_bound._discover, lower_bound.discover_vertex_graph

    def record(A, b, start, *args):
        graph = pruned(A, b, start, *args)
        seen.append((graph, walk(A, b, start), len(b)))
        return graph

    monkeypatch.setattr(lower_bound, "_discover", record)
    walks = _counted_walks(monkeypatch)
    for stream in streams:
        diameter_experiment(RngStream(seed, stream), dense, sigma, n=n)
    return seen, walks


@pytest.mark.parametrize("d,sigma,eta,seed,streams,n,optimal", [
    (3, 0.25, 0.25, 7007, range(5), None, 5),   # criterion 7
    (4, 0.25, 0.25, 7007, [0], 65536, 1),
    (3, 0.05, 0.05, 7007, [2], None, 1),       # padded, n = 512,000
], ids=["criterion-7", "d4-n65536", "d3-sigma0.05-padded"])
def test_pruned_discovery_matches_the_full_walk(monkeypatch, d, sigma, eta, seed, streams,
                                                n, optimal):
    seen, walks = _pruned_discoveries(monkeypatch, dense_set_with_retry(eta, d), sigma,
                                      seed, streams, n)
    assert len(seen) == optimal
    for graph, full, _ in seen:
        assert _same_graph(graph, full)
    # one try each, on fewer than half the rows
    assert len(walks) == optimal
    assert all(2 * rows < total for rows, (_, _, total) in zip(walks, seen))


def test_pruned_discovery_walks_every_row_of_a_lattice(monkeypatch):
    # at sigma = 0 every row is at distance 1, below the first radius
    seen, walks = _pruned_discoveries(monkeypatch, dense_set_with_retry(0.25, 3), 0.0, 0,
                                      range(2))
    assert len(seen) == 2
    for graph, full, _ in seen:
        assert _same_graph(graph, full)
    assert walks == [148, 148]


def test_pruned_discovery_grows_its_radius(monkeypatch):
    # a first radius at the optimum's norm and growth by 0.1%: some runs need
    # several tries, and each still gives the full walk's graph
    monkeypatch.setattr(lower_bound, "_FLOOR", 1)
    monkeypatch.setattr(lower_bound, "_GROW", 1.001)
    seen, walks = _pruned_discoveries(monkeypatch, dense_set_with_retry(0.25, 3), 0.25,
                                      7007, range(5))
    assert len(seen) == 5
    for graph, full, _ in seen:
        assert _same_graph(graph, full)
    assert len(walks) > 5 and max(walks) < 2048


def test_pruned_discovery_falls_back_to_every_row(monkeypatch):
    # the box -10 <= x_j <= 1 and 30 redundant rows at distances 50 to 79,
    # from the vertex (1, 1, 1)
    d = 3
    gen = RngStream(77, 0).generator()
    A = np.vstack([np.eye(d), -np.eye(d), uniform_sphere(gen, d, size=30)])
    b = np.concatenate([np.ones(d), np.full(d, 10.0), 50.0 + np.arange(30)])
    norms = np.linalg.norm(A, axis=1)
    start, x = (0, 1, 2), np.ones(d)
    full = discover_vertex_graph(A, b, start)
    walks = _counted_walks(monkeypatch)

    def walked(k, dist):
        walks.clear()
        floor = float(np.sort(dist)[k - 1])
        got = lower_bound._discover(A, b, start, x, norms.min(), dist, floor)
        assert _same_graph(got, full)
        return walks

    # the 7th-smallest distance takes the first radius to 50: S is the box,
    # in one try
    assert walked(7, b / norms) == [6]
    # a first radius at 1.02 sqrt(3) keeps only the rows x_j <= 1, whose
    # region has unbounded edges
    assert walked(1, b / norms) == [3, 36]
    # a start row outside S: every row at once
    dist = b / norms
    dist[0] = 100.0
    assert walked(1, dist) == [36]


@dataclasses.dataclass
class _Try:
    by: str                # "climb" or "solve"
    A: np.ndarray          # the rows tried
    part: object = None    # the LP tried
    outcome: object = None
    # each climb's (b, rows) in order, rows None where it found no vertex:
    # the climb on the LP when its b > 0, then those of phase 1 on Ax <= 1
    climbs: list = dataclasses.field(default_factory=list)


def _counted_tries(monkeypatch):
    """Wrap solve, which lower_bound calls for the LP on each row set it
    tries and on every row, and the climbs inside it.  A try is "climb"
    when solve answered from the climb and its phase-3 walk (restarts 0),
    and "solve" when the three phases ran.  Returns the list of every try,
    the solve on every row included, in order; a try that raised has no
    outcome."""
    tries, counting = [], [False]
    climb, full = solver._climb, lower_bound.solve

    def climbed(A, b, c):
        tight = climb(A, b, c)
        if counting[0]:  # not a reference solve made outside lower_bound
            tries[-1].climbs.append((b, tight))
        return tight

    def solved(gen, inst):
        tries.append(_Try("solve", inst.A, inst))
        counting[0] = True
        try:
            out = full(gen, inst)
        finally:
            counting[0] = False
        if out[1].restarts == 0:
            tries[-1].by = "climb"
        tries[-1].outcome = out[0]
        return out

    monkeypatch.setattr(solver, "_climb", climbed)
    monkeypatch.setattr(lower_bound, "solve", solved)
    return tries


_Run = collections.namedtuple("_Run", "inst out ref tries entry after full")


def _state(gen):
    """gen's bit generator state, comparable with == (it holds arrays)."""
    return repr(gen.bit_generator.state)


def _restricted_solves(monkeypatch, dense, sigma, seed, streams, n=None):
    """Each run's LP in diameter_experiment: its instance, _solve's outcome,
    the three phases' on every row, the tries made, a copy of the generator
    on entry to _solve, and the generator's state after _solve and after
    solve on every row from that copy."""
    seen = []
    restricted = lower_bound._solve
    tries = _counted_tries(monkeypatch)

    def record(gen, inst, *args):
        entry, first = copy.deepcopy(gen), len(tries)
        got = restricted(gen, inst, *args)
        verify_outcome(inst, got)
        ref = solve(copy.deepcopy(entry), inst, climb=False)[0]
        twin = copy.deepcopy(entry)
        solve(twin, inst)
        seen.append(_Run(inst, got, ref, tries[first:], entry, _state(gen), _state(twin)))
        return got

    monkeypatch.setattr(lower_bound, "_solve", record)
    for stream in streams:
        diameter_experiment(RngStream(seed, stream), dense, sigma, n=n)
    return seen


def _same_outcome(out, ref):
    if out.kind != ref.kind:
        return False
    return out.kind != "optimal" or (out.basis_indices == ref.basis_indices
                                     and out.x.tobytes() == ref.x.tobytes())


@pytest.mark.parametrize("d,sigma,eta,streams,n,kinds", [
    (3, 0.25, 0.25, range(5), None, ["optimal"] * 5),   # criterion 7
    (4, 0.25, 0.25, range(6), 65536, ["optimal", "infeasible", "infeasible", "optimal",
                                      "infeasible", "optimal"]),
    (3, 0.05, 0.05, [2], None, ["optimal"]),           # padded, n = 512,000
    (3, 0.02, 0.02, range(2), 22554, ["optimal"] * 2),  # unpadded: the packing
], ids=["criterion-7", "d4-n65536", "d3-sigma0.05-padded", "d3-sigma0.02-unpadded"])
def test_restricted_solve_matches_the_full_solve(monkeypatch, d, sigma, eta, streams, n,
                                                 kinds):
    seen = _restricted_solves(monkeypatch, dense_set_with_retry(eta, d), sigma, 7007,
                              streams, n)
    assert [run.ref.kind for run in seen] == kinds
    for run in seen:
        assert _same_outcome(run.out, run.ref)
        # answered on fewer than half the rows
        assert 2 * len(run.tries[-1].A) < run.inst.n


def test_restricted_solve_of_a_lattice_solves_every_row(monkeypatch):
    # at sigma = 0 every row is at distance 1, so no row is nearer than the
    # 160th and every one is a candidate: one solve on every row, that of
    # solve itself draw for draw; every b_i is 1, so it climbs, and ends on
    # the three phases' basis and x
    seen = _restricted_solves(monkeypatch, dense_set_with_retry(0.25, 3), 0.0, 0, range(2))
    assert len(seen) == 2
    for run in seen:
        assert [(t.by, len(t.A)) for t in run.tries] == [("climb", 148)]
        assert _same_outcome(run.out, run.ref) and run.after == run.full


@pytest.mark.parametrize("case,solves", [
    ("negative-radius", [("solve", 159), ("solve", 4096)]),
    ("tied-objective", [("solve", 159), ("solve", 4096)])])
def test_restricted_solve_falls_back_to_every_row(monkeypatch, case, solves):
    gen = RngStream(7007, 0).generator()
    inst, _ = build_lb_instance(gen, dense_set_with_retry(0.25, 3), 0.25,
                                c=uniform_sphere(gen, 3))
    if case == "negative-radius":
        # criterion 7's polytope moved by (2, 0, 0): about a quarter of its
        # rows have b_i < 0, and the 159 rows of most negative distance leave
        # the LP unbounded, so every row is solved
        inst = dataclasses.replace(inst, b=inst.b + inst.A @ np.array([2.0, 0.0, 0.0]))
    norms = np.linalg.norm(inst.A, axis=1)
    dist = inst.b / norms
    floor = float(np.sort(dist)[159])
    if case == "tied-objective":
        # c along the nearest row's normal: the climb's first step makes that
        # row tight and leaves c in its span, so it finds no vertex and the
        # three phases solve the 159 rows, phase 1 climbing on Ax <= 1 to a
        # vertex; no row set makes the optimum on every row, with two zero
        # multipliers, the only one
        t = int(np.argmin(dist))
        inst = dataclasses.replace(inst, c=inst.A[t] / norms[t])
    made = _counted_tries(monkeypatch)
    twin = copy.deepcopy(gen)
    out = lower_bound._solve(gen, inst, dist, floor)
    ref = solve(twin, inst)[0]
    assert [(t.by, len(t.A)) for t in made] == solves
    if case == "tied-objective":
        assert made[0].part.b.min() > 0.0
        assert [(b is made[0].part.b, rows) for b, rows in made[0].climbs] == [
            (True, None), (False, [85, 140, 21])]
        assert (made[0].climbs[1][0] == 1.0).all()
    # the solve on every row starts where the first try did
    assert _same_outcome(out, ref) and out.kind == "optimal"
    assert gen.random() == twin.random()


def test_restricted_solve_grows_its_rows(monkeypatch):
    # a first try on the 9 nearest rows: in some runs another row cuts its
    # optimum, and each grown try adds exactly the rows that cut the last one
    monkeypatch.setattr(lower_bound, "_FLOOR", 10)
    seen = _restricted_solves(monkeypatch, dense_set_with_retry(0.25, 3), 0.25, 7007,
                              range(5))
    assert len(seen) == 5
    grown = 0
    for run in seen:
        assert _same_outcome(run.out, run.ref)
        if len(run.tries[-1].A) == run.inst.n:  # after the tries, a solve on every row
            assert run.after == run.full
        where = {row.tobytes(): i for i, row in enumerate(run.inst.A)}
        picked = [np.array([where[row.tobytes()] for row in t.A]) for t in run.tries]
        assert len(picked[0]) == 9
        for rows, tried, after in zip(picked, run.tries, picked[1:]):
            if len(after) == run.inst.n:
                break
            out = tried.outcome
            slack = run.inst.b - run.inst.A @ out.x
            slack[rows[list(out.basis_indices)]] = np.inf
            cut = np.flatnonzero(slack <= 2.0 * lower_bound._DEGENERATE_SLACK)
            assert np.array_equal(after, np.union1d(rows, cut)) and len(after) > len(rows)
            grown += 1
    assert grown
    assert any(len(run.tries[-1].A) == run.inst.n for run in seen)


@pytest.mark.parametrize("d,sigma,eta,streams,n,by", [
    # criterion 7: one of stream 4's 159 nearest rows has b = -0.056
    (3, 0.25, 0.25, range(5), None, [["climb"]] * 4 + [["solve"]]),
    (3, 0.05, 0.05, [2], None, [["climb", "climb"]]),   # padded, n = 512,000
    (4, 0.25, 0.25, [0, 3, 5], 65536, [["solve"], ["solve"], ["climb"]]),
], ids=["criterion-7", "d3-sigma0.05-padded", "d4-n65536-optimal"])
def test_climb_answers_as_solve_on_its_rows(monkeypatch, d, sigma, eta, streams, n, by):
    # a try whose rows all have b_i > 0 climbs, and its walk ends on the
    # basis and x that the three phases find on those rows; a run answered
    # by climbs alone draws nothing.  A try with a row of b_i <= 0, whose
    # region the origin is outside, takes the three phases
    seen = _restricted_solves(monkeypatch, dense_set_with_retry(eta, d), sigma, 7007,
                              streams, n)
    assert [[t.by for t in run.tries] for run in seen] == by
    for run in seen:
        assert _same_outcome(run.out, run.ref)
        for t in run.tries:
            assert (t.part.b.min() > 0.0) == (t.by == "climb")
            if t.by == "climb":
                ref = solve(copy.deepcopy(run.entry), t.part, climb=False)[0]
                assert _same_outcome(t.outcome, ref)
        if all(t.by == "climb" for t in run.tries):
            assert run.after == _state(run.entry)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 5), extra=st.integers(0, 40),
       sigma=st.floats(0.0, 0.3))
def test_climb_starts_phase_3_at_a_feasible_vertex(seed, d, extra, sigma):
    # near-ball rows with b > 0, boxed by |x_j| <= 2 so that every climb
    # direction is blocked
    gen = RngStream(seed, 0).generator()
    m = 3 * d + extra
    A = np.vstack([uniform_sphere(gen, d, size=m) + sigma * gen.standard_normal((m, d)),
                   np.eye(d), -np.eye(d)])
    b = np.concatenate([1.0 + sigma * gen.standard_normal(m), np.full(2 * d, 2.0)])
    assume(b.min() > 0.0)
    inst = LPInstance(A, b, uniform_sphere(gen, d))
    tight = solver._climb(A, b, inst.c)
    assert tight is not None and len(set(tight)) == d
    start = make_basis(A, b, tight)
    assert (A @ start.x - b).max() <= 1e-9
    out = phase3_solve(A, b, inst.c, start, A[list(start.indices)].sum(axis=0))[0]
    assert out.kind == "optimal"
    slack = b - A @ out.x
    slack[list(out.basis_indices)] = np.inf
    mu = np.linalg.solve(A[list(out.basis_indices)].T, inst.c)
    if slack.min() > 2.0 * lower_bound._DEGENERATE_SLACK and mu.min() > TOL_OPT:
        assert _same_outcome(out, solve(RngStream(seed, 1), inst, climb=False)[0])


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
    inst, _ = build_lb_instance(gen, dense, sigma=0.01, n=len(dense))
    from shadowlp.oracle import bfs_distance
    from shadowlp.solver import solve

    out, _, _ = solve(gen, inst)
    graph = discover_vertex_graph(inst.A, inst.b, out.basis_indices)
    vals = graph.points @ inst.c
    a, b = int(np.argmax(vals)), int(np.argmin(vals))
    assert bfs_distance(graph, a, b) == bfs_distance(graph, b, a)
