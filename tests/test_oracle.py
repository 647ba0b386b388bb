import numpy as np
import pytest

from shadowlp import LPInstance, RngStream, lower_bound, oracle
from shadowlp.errors import DegenerateShadow, TooLarge, Unreachable
from shadowlp.experiments import LOWERBOUND_SCHEMA, lowerbound_run, parse_config
from shadowlp.oracle import (
    bfs_distance,
    convex_hull_2d,
    discover_vertex_graph,
    enumerate_feasible_bases,
    hull_arc,
    lp_optimum_oracle,
    make_basis,
    region_bounded,
    shadow_polygon_oracle,
)
from shadowlp.simplex import Finished, run_shadow_path
from shadowlp.solver import Infeasible, Optimal, Unbounded

from helpers import (
    ball_instance,
    bounded_ball_instance,
    build_vertex_graph,
    cube_instance,
    infeasible_instance,
    reference_discovery,
    unbounded_in_c_instance,
)


def test_cube_has_eight_bases():
    assert len(enumerate_feasible_bases(cube_instance())) == 8


def test_simplex_has_four_bases():
    # x >= 0 plus 1^T x <= 1 in d=3
    A = np.vstack([-np.eye(3), np.ones((1, 3))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    inst = LPInstance(A, b, np.array([1.0, 0.0, 0.0]))
    assert len(enumerate_feasible_bases(inst)) == 4


def test_enumeration_guard(monkeypatch):
    gen = RngStream(30, 0).generator()
    si = ball_instance(gen, 3, 20, 0.05)
    monkeypatch.setattr(oracle, "ENUM_GUARD", 10)
    with pytest.raises(TooLarge):
        enumerate_feasible_bases(si.lp())


def test_enumeration_count_matches_graph_reachability():
    gen = RngStream(31, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 10, 0.05)
    graph = build_vertex_graph(bases)
    # bounded polytope: 1-skeleton connected, so BFS reach equals the count
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in graph.adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert len(seen) == len(bases)


def test_lp_oracle_box_corner():
    inst = cube_instance(c=np.array([1.0, 1.0, 1.0]))
    out = lp_optimum_oracle(inst, inst.c)
    assert isinstance(out, Optimal)
    assert np.allclose(out.x, [1.0, 1.0, 1.0])


def test_lp_oracle_unbounded_wedge():
    gen = RngStream(32, 0).generator()
    inst = unbounded_in_c_instance(gen, 3, 12)
    out = lp_optimum_oracle(inst, inst.c)
    assert isinstance(out, Unbounded)
    ray = out.ray / np.linalg.norm(out.ray)
    assert (inst.A @ ray).max() <= 1e-9
    assert inst.c @ ray > 0
    assert not region_bounded(inst)


def test_lp_oracle_infeasible():
    gen = RngStream(33, 0).generator()
    inst = infeasible_instance(gen, 3, 8)
    out = lp_optimum_oracle(inst, inst.c)
    assert isinstance(out, Infeasible)


def test_convex_hull_basic():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    hull = convex_hull_2d(pts)
    assert len(hull) == 4 and 4 not in hull
    # collinear points are dropped
    pts2 = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert len(convex_hull_2d(pts2)) == 3


def test_square_shadow_polygon():
    # d=2 square: projection onto span(e1, e2) is the identity
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    inst = LPInstance(A, np.ones(4), np.array([1.0, 0.0]))
    poly = shadow_polygon_oracle(inst, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert len(poly.points) == 4


def test_cube_axis_projection_is_degenerate():
    inst = cube_instance()
    with pytest.raises(DegenerateShadow):
        shadow_polygon_oracle(inst, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def test_single_point_feasible_set():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.zeros(4)
    inst = LPInstance(A, b, np.array([1.0, 0.0]))
    poly = shadow_polygon_oracle(inst, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert len(poly.points) == 1


def test_seeded_polygon_angle_sum():
    from shadowlp.analysis import exterior_angles

    gen = RngStream(34, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
    z = gen.standard_normal(3)
    poly = shadow_polygon_oracle(si.lp(), si.c, z, bases=bases)
    assert abs(exterior_angles(poly.points).sum() - 2 * np.pi) < 1e-6


def test_engine_path_equals_hull_arc():
    gen = RngStream(35, 0).generator()
    for _ in range(20):
        si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
        inst = si.lp()
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, y, bases=bases)
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        path, out = run_shadow_path(inst.A, inst.b, y, si.c, start)
        assert isinstance(out, Finished)
        poly = shadow_polygon_oracle(inst, si.c, y, bases=bases)
        assert hull_arc(poly, y, si.c) == path.index_sequence


def test_wedge_polygon_unbounded_raises():
    # 2-d wedge open upward: its shadow is no polygon
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    inst = LPInstance(A, np.ones(3), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="unbounded"):
        shadow_polygon_oracle(inst, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_vertex_graph_degrees_and_bfs():
    inst = cube_instance()
    bases = enumerate_feasible_bases(inst)
    graph = build_vertex_graph(bases)
    assert all(len(adj) == 3 for adj in graph.adjacency)
    corner = graph.bases.index(
        bases[int(np.argmax([b.x.sum() for b in bases]))].indices
    )
    opposite = graph.bases.index(
        bases[int(np.argmin([b.x.sum() for b in bases]))].indices
    )
    assert bfs_distance(graph, corner, opposite) == 3
    neighbor = next(iter(graph.adjacency[corner]))
    assert bfs_distance(graph, corner, neighbor) == 1
    assert bfs_distance(graph, corner, corner) == 0


def test_bfs_unreachable():
    inst = cube_instance()
    graph = build_vertex_graph(enumerate_feasible_bases(inst))
    graph.adjacency[0] = set()
    for adj in graph.adjacency:
        adj.discard(0)
    with pytest.raises(Unreachable):
        bfs_distance(graph, 0, 5)


def test_discovery_matches_enumeration():
    gen = RngStream(36, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 12, 0.05)
    inst = si.lp()
    graph_enum = build_vertex_graph(bases)
    graph_disc = discover_vertex_graph(inst.A, inst.b, bases[0].indices)
    assert sorted(graph_disc.bases) == sorted(graph_enum.bases)
    assert graph_disc.edge_count == graph_enum.edge_count


def test_discovery_stops_at_the_vertex_guard(monkeypatch):
    # the cube has 8 vertices; discovery reads the guard when it runs
    monkeypatch.setattr(oracle, "VERTEX_GUARD", 4)
    inst = cube_instance()
    start = enumerate_feasible_bases(inst)[0].indices
    with pytest.raises(TooLarge, match="vertex guard 4 exceeded"):
        discover_vertex_graph(inst.A, inst.b, start)


def test_discovery_within_a_radius_stops_where_the_walk_leaves_it():
    # every vertex of the cube has norm sqrt(3)
    inst = cube_instance()
    start = enumerate_feasible_bases(inst)[0].indices
    inside = discover_vertex_graph(inst.A, inst.b, start, radius=1.8)
    whole = discover_vertex_graph(inst.A, inst.b, start)
    assert inside.bases == whole.bases and inside.adjacency == whole.adjacency
    assert inside.points.tobytes() == whole.points.tobytes()
    with pytest.raises(oracle._LeftBall) as left:
        discover_vertex_graph(inst.A, inst.b, start, radius=1.7)
    assert left.value.norm == np.sqrt(3.0)
    # without the row -x_1 <= 1 every vertex has an unbounded edge
    with pytest.raises(oracle._LeftBall) as left:
        discover_vertex_graph(np.delete(inst.A, 3, axis=0), np.ones(5), (0, 1, 2), radius=10.0)
    assert left.value.norm == np.inf


def _study_discoveries(monkeypatch, config):
    """(A, b, start, graph) of every discover_vertex_graph call a lowerbound
    study makes that returns, in run order; every run must end optimal."""
    calls = []
    discover = oracle.discover_vertex_graph

    def record(A, b, start, **radius):
        calls.append((A, b, start, discover(A, b, start, **radius)))
        return calls[-1][3]

    monkeypatch.setattr(lower_bound, "discover_vertex_graph", record)
    rows, _ = lowerbound_run(parse_config("experiment = lowerbound\n" + config,
                                          LOWERBOUND_SCHEMA))
    assert len(calls) == len(rows) and all(r["outcome"] == "optimal" for r in rows)
    return calls


CRITERION_7 = "d = 3\nsigma = 0.25\nruns = 5\nseed = 7007\n"


# the sigma = 0 studies lay the rows on the packing itself, and their
# polytopes have degenerate vertices: there, skipping the walk back along an
# edge would lose bases (810/804/804/806 of 818 at d=3, eta=0.15)
@pytest.mark.parametrize("config", [
    CRITERION_7,
    "d = 3\nsigma = 0\neta = 0.15\nruns = 4\n",
    "d = 4\nsigma = 0\neta = 0.5\nruns = 2\n",
    "d = 3\nsigma = 0.02\neta = 0.12\nruns = 2\npad = false\n",
], ids=["criterion-7", "d3-sigma0-eta0.15", "d4-sigma0-eta0.5", "d3-sigma0.02-unpadded"])
def test_discovery_finds_the_graph_of_every_test_from_both_ends(monkeypatch, config):
    for A, b, start, graph in _study_discoveries(monkeypatch, config):
        ref = reference_discovery(A, b, start)
        assert graph.bases == ref.bases
        assert graph.adjacency == ref.adjacency
        assert graph.points.tobytes() == ref.points.tobytes()


def test_discovery_tests_each_edge_once_on_one_slack_per_vertex(monkeypatch):
    tests = []
    ratio = oracle.ratio_test

    def counted(*args):
        tests.append(args)
        return ratio(*args)

    monkeypatch.setattr(oracle, "ratio_test", counted)
    calls = _study_discoveries(monkeypatch, CRITERION_7)
    edges = []
    for A, b, _, graph in calls:
        mine = [args for args in tests if args[0] is A]
        edges.append(len(mine))
        assert len(mine) == graph.edge_count
        # every test gets its vertex's slack b - A x, one array per vertex
        slacks = {}
        for _, _, basis, _, slack in mine:
            assert slacks.setdefault(basis.indices, slack) is slack
        for indices, slack in slacks.items():
            x = graph.points[graph.bases.index(indices)]
            assert slack.tobytes() == (b - A.dot(x)).tobytes()
    # all d tests at every vertex made 48/102/108/114/72
    assert edges == [24, 51, 54, 57, 36]


def test_seeded_graph_degree_is_dimension():
    gen = RngStream(37, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 14, 0.05)
    graph = build_vertex_graph(bases)
    assert all(len(adj) == 3 for adj in graph.adjacency)


def test_hull_arc_reversal():
    gen = RngStream(38, 0).generator()
    si, bases = bounded_ball_instance(gen, 3, 15, 0.05)
    y = gen.standard_normal(3)
    poly = shadow_polygon_oracle(si.lp(), si.c, y, bases=bases)
    fwd = hull_arc(poly, y, si.c)
    assert hull_arc(poly, si.c, y) == fwd[::-1]
