"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  All tolerances are fixed here, not tuned at runtime.
"""

import math
import subprocess
import sys
import time

import numpy as np

from shadowlp import RngStream, exp_ball_sample, solve, uniform_sphere
from shadowlp.analysis import (
    annulus_integral_bound,
    boundary_integral,
    build_schedule,
    classify_path,
    compose_far_sets_inequality,
    compose_paths_inequality,
    exterior_angles,
    good_multiplier_threshold,
    relative_gap_threshold,
    run_schedule,
    segment_cone_trial,
    triples_inequality,
)
from shadowlp.experiments import (
    LOWERBOUND_SCHEMA,
    SCALING_SCHEMA,
    lowerbound_run,
    parse_config,
    shadow_scaling_run,
)
from shadowlp.instance import dump_instance
from shadowlp.oracle import (
    enumerate_feasible_bases,
    hull_arc,
    lp_optimum_oracle,
    region_bounded,
    shadow_polygon_oracle,
)
from shadowlp.simplex import Finished, make_basis, run_shadow_path
from shadowlp.solver import Optimal, SolveStats, phase1_solve

from helpers import ball_instance, cube_instance, mixed_instance


def _bounded_mixed(seed_base, t, d, n, sigma):
    sub = 0
    while True:
        gen = RngStream(seed_base, 100 * t + sub).generator()
        si = mixed_instance(gen, d, n, sigma)
        bases = enumerate_feasible_bases(si.lp())
        if region_bounded(si.lp(), bases):
            return gen, si, bases
        sub += 1


def test_criterion_1_oracle_equivalence():
    """Classification and optimal values match the enumeration oracle."""
    started = time.time()
    sigmas = [0.01, 0.05, 0.1]
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for t in range(200):
        d = 3 + (t % 2)
        sigma = sigmas[t % 3]
        n = 10 + (t % 21)
        gen, si, bases = _bounded_mixed(1001, t, d, n, sigma)
        oracle = lp_optimum_oracle(si.lp(), si.c, bases=bases)
        out, stats, path = solve(gen, si, climb=False)
        assert out.kind == oracle.kind, (t, out.kind, oracle.kind)
        counts[out.kind] += 1
        if isinstance(out, Optimal):
            rel = abs(si.c @ out.x - si.c @ oracle.x) / max(1.0, abs(si.c @ oracle.x))
            assert rel <= 1e-7, (t, rel)
    elapsed = time.time() - started
    assert elapsed <= 120.0
    print(
        f"criterion 1: PASS: 200/200 classifications match the oracle "
        f"({counts}), optimal values within 1e-7, {elapsed:.1f}s"
    )


def test_criterion_2_shadow_path_equivalence():
    """Engine basis sequences equal the oracle hull arcs exactly."""
    started = time.time()
    checked = 0
    t = 0
    while checked < 100:
        sub = 0
        while True:
            gen = RngStream(2002, 100 * t + sub).generator()
            si = ball_instance(gen, 3, 15, 0.05)
            bases = enumerate_feasible_bases(si.lp())
            if bases and region_bounded(si.lp(), bases):
                break
            sub += 1
        t += 1
        y = gen.standard_normal(3)
        opt = lp_optimum_oracle(si.lp(), y, bases=bases)
        if not isinstance(opt, Optimal):
            continue
        start = make_basis(si.A, si.b, opt.basis_indices)
        path, out = run_shadow_path(si.A, si.b, y, si.c, start)
        assert isinstance(out, Finished)
        poly = shadow_polygon_oracle(si.lp(), si.c, y, bases=bases)
        assert hull_arc(poly, y, si.c) == path.index_sequence, t
        checked += 1
    elapsed = time.time() - started
    assert elapsed <= 60.0
    print(
        f"criterion 2: PASS: 100/100 paths equal the oracle hull arc exactly, "
        f"{elapsed:.1f}s"
    )


def test_criterion_3_distribution_facts():
    """Moments and tails of the samplers match their closed forms."""
    # norm moments of the e^{-||x||} distribution: (k+d-1)!/(d-1)!
    details = []
    for d in (2, 3, 5):
        norms = np.linalg.norm(exp_ball_sample(RngStream(3003, d), d, size=10**6), axis=1)
        for k in (1, 2, 3):
            sample = norms**k
            expected = math.factorial(k + d - 1) / math.factorial(d - 1)
            stderr = sample.std(ddof=1) / math.sqrt(len(sample))
            dev = abs(sample.mean() - expected)
            assert dev <= 3 * stderr, (d, k, dev, stderr)
            details.append(f"d={d},k={k}: |dev|={dev:.4f}<=3se={3*stderr:.4f}")
    # exponential tail: Pr[||X|| >= 2 e d ln t] <= t^-d at d=3, t=2
    norms = np.linalg.norm(exp_ball_sample(RngStream(3003, 10), 3, size=10**6), axis=1)
    tail = (norms >= 2 * math.e * 3 * math.log(2.0)).mean()
    assert tail <= 2.0 ** (-3)
    # sphere slab mass: Pr[|theta_1| <= alpha] <= alpha sqrt(d e) at d=5
    pts = uniform_sphere(RngStream(3003, 11), 5, size=10**6)
    slab = (np.abs(pts[:, 0]) <= 0.05).mean()
    assert slab <= 0.05 * math.sqrt(5 * math.e)
    # sphere tail: Pr[|theta_1| >= t/sqrt(d)] <= sqrt(d e) exp(-t^2/2) at d=4
    pts = uniform_sphere(RngStream(3003, 12), 4, size=10**6)
    for t in (3.0, 1.5):
        freq = (np.abs(pts[:, 0]) >= t / 2.0).mean()
        assert freq <= math.sqrt(4 * math.e) * math.exp(-t * t / 2), t
    print(
        "criterion 3: PASS: exp-ball moments within 3 standard errors at 1e6 "
        f"samples ({'; '.join(details[:2])}, ...), exponential tail {tail:.2e} <= 0.125, "
        f"sphere slab {slab:.4f} <= 0.184, sphere tails hold"
    )


def test_criterion_4_segment_cone_margin():
    """Random segments hit basis cones with margin at nearly the rate they
    hit them at all: pm >= 0.99 p0 - 3 stderr on 20 seeded configurations."""
    started = time.time()
    d = 4
    m = good_multiplier_threshold(d)
    margins = []
    for k in range(20):
        gen = RngStream(4004, k).generator()
        B = gen.standard_normal((d, d))
        B = B / np.maximum(np.linalg.norm(B, axis=0) / 2.0, 1.0)[None, :]
        c = gen.standard_normal(d)
        c2 = gen.standard_normal(d)
        res = segment_cone_trial(gen, B, c, c2, m, 10**5)
        assert res.pm >= 0.99 * res.p0 - 3 * res.stderr_diff, (k, res)
        margins.append(res.pm - (0.99 * res.p0 - 3 * res.stderr_diff))
    elapsed = time.time() - started
    assert elapsed <= 180.0
    print(
        f"criterion 4: PASS: 20/20 configs satisfy pm >= 0.99 p0 - 3se at 1e5 "
        f"trials (min margin {min(margins):.5f}), {elapsed:.1f}s"
    )


def test_criterion_5_deterministic_inequalities():
    """Counting and geometric inequalities hold on every recorded object."""
    rng_master = RngStream(5005, 0).generator()
    paths_checked = 0
    polys_checked = 0
    schedule_checked = 0
    for t in range(12):
        sub = 0
        while True:
            gen = RngStream(5005, 1000 + 100 * t + sub).generator()
            si = ball_instance(gen, 3, 15, 0.05)
            bases = enumerate_feasible_bases(si.lp())
            if bases and region_bounded(si.lp(), bases):
                break
            sub += 1
        inst = si.lp()
        z = gen.standard_normal(3)
        opt = lp_optimum_oracle(inst, z, bases=bases)
        if not isinstance(opt, Optimal):
            continue
        start = make_basis(inst.A, inst.b, opt.basis_indices)
        full, out = run_shadow_path(inst.A, inst.b, z, si.c, start)
        assert isinstance(out, Finished)

        g = relative_gap_threshold(si.sigma, 3, 15)
        report = classify_path(full, inst, g=g)
        # triples inequality for the classified set and for random subsets
        for mask in [
            report.good_multiplier & report.relative_gap,
            report.good_multiplier,
            report.relative_gap,
        ] + [rng_master.uniform(size=len(report)) < rng_master.uniform() for _ in range(10)]:
            lhs, rhs = triples_inequality(np.asarray(mask, bool))
            assert lhs <= rhs
        # path-membership margin certificate
        assert report.margins.min() >= -1e-12
        paths_checked += 1

        # schedule decompositions: path and far-set composition slack
        k = 4 if t % 2 == 0 else 6
        sched = build_schedule(si.c / np.linalg.norm(si.c), z, n=15, d=3, k=k)
        seg_paths = run_schedule(inst.A, inst.b, sched, start)
        full2, _ = run_shadow_path(
            inst.A, inst.b, sched.objectives[0], sched.objectives[-1], start
        )
        lhs, rhs = compose_paths_inequality(seg_paths, full2)
        assert lhs <= rhs
        seg_reports = [classify_path(p, inst, g=g, rho=0.4) for p in seg_paths]
        full_report = classify_path(full2, inst, g=g, rho=0.4)
        lhs, rhs = compose_far_sets_inequality(seg_reports, full_report)
        assert lhs <= rhs
        schedule_checked += 1

        # polygon inequalities: annulus-clipped boundary integral and angles
        poly = shadow_polygon_oracle(inst, si.c, z, bases=bases)
        angles = exterior_angles(poly.points)
        assert abs(angles.sum() - 2 * math.pi) < 1e-6
        scale = float(np.linalg.norm(poly.points, axis=1).max())
        for big, small in ((2 * scale, scale / 8), (4 * scale, scale / 4)):
            val = boundary_integral(poly.points, big, small)
            assert val <= annulus_integral_bound(big, small) + 1e-9
        polys_checked += 1
    assert paths_checked >= 8 and polys_checked >= 8 and schedule_checked >= 8
    print(
        f"criterion 5: PASS: zero violations over {paths_checked} paths, "
        f"{schedule_checked} schedules, {polys_checked} polygons "
        "(triples, path/far-set composition, annulus integral, angle sum)"
    )


def test_criterion_6_smoothed_scaling_trend():
    """Mean pivot counts decay with the noise level."""
    started = time.time()
    cfg = parse_config(
        "experiment = shadow_scaling\n"
        "d = 4\n"
        "n = 50\n"
        "sigma_grid = 0.01, 0.02, 0.05, 0.1, 0.2, 0.5\n"
        "trials = 200\n"
        "seed = 2024\n"
        "family = product\n",
        SCALING_SCHEMA,
    )
    rows, summary = shadow_scaling_run(cfg)
    assert all(not r["error"] for r in rows)
    means = [p["mean_pivots"] for p in summary["per_sigma"]]
    assert summary["nonincreasing"], means
    slope = summary["loglog_slope"]
    assert -1.5 <= slope <= 0.0, slope
    elapsed = time.time() - started
    print(
        f"criterion 6: PASS: mean pivots {['%.1f' % m for m in means]} "
        f"non-increasing over the sigma grid, log-log slope {slope:.3f} in [-1.5, 0], "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_lower_bound_chain():
    """Near-ball diameter chain holds on every run at the stated scale."""
    started = time.time()
    cfg = parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.25\nruns = 5\nseed = 7007\n",
        LOWERBOUND_SCHEMA,
    )
    rows, summary = lowerbound_run(cfg)
    assert all(r["outcome"] == "optimal" for r in rows)
    assert all(r["n_rows"] == 4096 for r in rows)
    for r in rows:
        assert r["bound_holds"] is True
        if r["event_holds"]:
            assert r["sandwich_inner_ok"] and r["sandwich_outer_ok"]
        if r["facet_bound_applicable"]:
            assert r["facet_bound_ok"]
    # the sigma=0.25 scale sits outside the perturbation regime (the measured
    # eta exceeds 1/8, making the sandwich clauses vacuous), so the
    # non-vacuous branch is exercised at a small sigma as well
    small = lowerbound_run(
        parse_config(
            "experiment = lowerbound\nd = 3\nsigma = 0.02\neta = 0.12\nruns = 1\n"
            "pad = false\nseed = 7008\n",
            LOWERBOUND_SCHEMA,
        )
    )[0][0]
    assert small["outcome"] == "optimal"
    assert small["event_holds"] and small["sandwich_inner_ok"] and small["sandwich_outer_ok"]
    assert small["facet_bound_applicable"] and small["facet_bound_ok"]
    assert small["bound_holds"] and small["path_bound"] > 0
    elapsed = time.time() - started
    assert elapsed <= 600.0
    print(
        "criterion 7: PASS: 5/5 runs at d=3, sigma=0.25, n=4096 satisfy the "
        f"measured diameter chain (max BFS distance {summary['max_bfs_hops']}); "
        f"non-vacuous sandwich/facet/diameter chain verified at sigma=0.02 "
        f"(bound {small['path_bound']:.2f} <= {small['bfs_hops']} hops), {elapsed:.1f}s"
    )


def test_criterion_8_phase1_restart_economics():
    """Geometric mean of phase-1 attempt counts stays at most 10."""
    started = time.time()
    attempts = []
    for t in range(500):
        gen = RngStream(8008, t).generator()
        si = ball_instance(gen, 4, 30, 0.05)
        stats = SolveStats()
        phase1_solve(gen, si.A, 0.05, stats)
        attempts.append(stats.restarts)
    geo = math.exp(np.mean(np.log(attempts)))
    assert geo <= 10.0, geo
    elapsed = time.time() - started
    print(
        f"criterion 8: PASS: geometric mean restart count {geo:.2f} <= 10 "
        f"over 500 trials (max {max(attempts)}), {elapsed:.1f}s"
    )


def test_criterion_9_reproducibility(tmp_path):
    """Fixed seeds reproduce byte-identical outputs."""
    box = tmp_path / "box.txt"
    dump_instance(cube_instance(c=np.array([1.0, 0.3, -0.2])), box)

    def run(args, out):
        return subprocess.run(
            [sys.executable, "-m", "shadowlp.cli", *args, *out],
            capture_output=True, text=True,
        )

    first = run(["solve", str(box), "--seed", "9"], [])
    second = run(["solve", str(box), "--seed", "9"], [])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = 0.05, 0.2\n"
        "trials = 3\nseed = 9\n"
    )
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        res = run(["experiment", str(cfg)], ["--out", str(outdir)])
        assert res.returncode == 0, res.stderr
        outs.append(
            (outdir / "shadow_scaling.csv").read_bytes()
            + (outdir / "shadow_scaling_summary.json").read_bytes()
            + (outdir / "shadow_scaling.svg").read_bytes()
        )
    assert outs[0] == outs[1]

    cone_cfg = tmp_path / "cone.cfg"
    cone_cfg.write_text("experiment = cone\nd = 3\nconfigs = 2\ntrials = 20000\nseed = 9\n")
    cone_outs = []
    for name in ("c1", "c2"):
        outdir = tmp_path / name
        res = run(["montecarlo-cone", str(cone_cfg)], ["--out", str(outdir)])
        assert res.returncode == 0, res.stderr
        cone_outs.append((outdir / "cone.csv").read_bytes())
    assert cone_outs[0] == cone_outs[1]

    lb_cfg = tmp_path / "lb.cfg"
    lb_cfg.write_text(
        "experiment = lowerbound\nd = 3\nsigma = 0.02\neta = 0.2\nruns = 1\n"
        "pad = false\nseed = 9\n"
    )
    lb_outs = []
    for name in ("l1", "l2"):
        outdir = tmp_path / name
        res = run(["lowerbound", str(lb_cfg)], ["--out", str(outdir)])
        assert res.returncode == 0, res.stderr
        lb_outs.append((outdir / "lowerbound.csv").read_bytes())
    assert lb_outs[0] == lb_outs[1]
    print(
        "criterion 9: PASS: solve, experiment, montecarlo-cone and lowerbound "
        "outputs are byte-identical across repeated seeded runs"
    )
