import math

import numpy as np
import pytest

from shadowlp import LPInstance, RngStream
from shadowlp.errors import AuditFailed, NonpositiveRhs
from shadowlp.lower_bound import (
    build_lb_instance,
    default_row_count,
    dense_set_with_retry,
    diameter_experiment,
    greedy_dense_set,
    polar_facet_diameter,
    sandwich_check,
)
from shadowlp.oracle import discover_vertex_graph
from shadowlp.rng import as_generator, uniform_sphere
from shadowlp.simplex import make_basis


def test_diameter_two_packing_on_circle():
    dense = greedy_dense_set(RngStream(70, 0), eta=2.0, d=2, audit_samples=5000)
    assert len(dense) <= 2
    assert dense.audited


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


def _greedy_one_at_a_time(rng, eta, d, audit_samples, batch=4096):
    """The per-candidate greedy loop that greedy_dense_set must reproduce."""
    gen = as_generator(rng)
    kept = []
    streak = 0
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


# (seed, eta, d, audit_samples); streaks below the 4096 batch stop partway
# through a batch, and the first four of those drop points accepted after
# the stop
@pytest.mark.parametrize("seed,eta,d,audit_samples", [
    (1, 0.1, 2, 60),
    (4, 1.0, 3, 1000),
    (8, 1.0, 4, 300),
    (8, 0.2, 3, 60),      # audit fails
    (2, 0.5, 2, 300),
    (4, 0.5, 3, 20000),
    (6, 0.8, 4, 20000),   # audit fails
])
def test_greedy_dense_set_matches_one_at_a_time(seed, eta, d, audit_samples):
    def run(fn):
        try:
            return fn(RngStream(seed, 0), eta, d, audit_samples=audit_samples)
        except AuditFailed as exc:
            return str(exc)

    ref = run(_greedy_one_at_a_time)
    got = run(greedy_dense_set)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got.points, ref)


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
        assert np.linalg.norm(inst.a_draws, axis=1).max() <= cut
        assert np.abs(inst.b_draws).max() <= cut


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
    assert abs(polar_facet_diameter(inst, basis) - math.sqrt(2)) < 1e-12
    # near-parallel rows: diameter near 0
    A = np.array([[1.0, 0.0, 0.0], [0.9999, 0.0141, 0.0], [0.9999, 0.0, 0.0141]])
    inst2 = LPInstance(A, np.ones(3), np.array([1.0, 0.0, 0.0]))
    assert polar_facet_diameter(inst2, (0, 1, 2)) < 0.05
    # nonpositive rhs is out of the polar's regime
    inst3 = LPInstance(np.eye(3), np.array([1.0, -1.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NonpositiveRhs):
        polar_facet_diameter(inst3, (0, 1, 2))


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
