#!/usr/bin/env python3
"""Separation measurements along one shadow path.

For each visited basis: the best multiplier margin over the objective
segment, the relative slack of nonbasic rows, projected norms, and the
derived memberships (good multipliers, relative gap, far-from-neighbors,
triples).  Ends with the doubling-schedule decomposition and its counting
inequalities.
"""

import numpy as np

from shadowlp import RngStream, smoothed_instance
from shadowlp.analysis import (
    build_schedule,
    classify_path,
    compose_far_sets_inequality,
    compose_paths_inequality,
    relative_gap_threshold,
    run_schedule,
    triples_inequality,
)
from shadowlp.oracle import enumerate_feasible_bases, lp_optimum_oracle
from shadowlp.rng import uniform_sphere
from shadowlp.simplex import make_basis, run_shadow_path

gen = RngStream(31).generator()
d, n, sigma = 3, 15, 0.05
dirs = uniform_sphere(gen, d, n)
si = smoothed_instance(
    gen, dirs / np.sqrt(2), np.full(n, 1 / np.sqrt(2)), uniform_sphere(gen, d), sigma
)
inst = si.lp()
bases = enumerate_feasible_bases(inst)

z = gen.standard_normal(d)
start = make_basis(inst.A, inst.b, lp_optimum_oracle(inst, z, bases=bases).basis_indices)
path, _ = run_shadow_path(inst.A, inst.b, z, si.c, start)

g = relative_gap_threshold(sigma, d, n)
rep = classify_path(path, inst, g=g, rho=0.4)
print(f"thresholds: m = {rep.m:.6f}, g = {g:.3e}, rho = 0.4")
print(f"{'rows':<14}{'margin':>10}{'slack':>12}{'|proj|':>9}  M  G  far  triple")
for i in range(len(rep)):
    print(
        f"{str(rep.indices[i]):<14}{rep.margins[i]:>10.5f}{rep.rel_slacks[i]:>12.3e}"
        f"{rep.proj_norms[i]:>9.4f}"
        f"  {int(rep.good_multiplier[i])}  {int(rep.relative_gap[i])}"
        f"    {int(rep.far_from_neighbors[i])}      {int(rep.triple[i])}"
    )
lhs, rhs = triples_inequality(rep.good_multiplier & rep.relative_gap)
print(f"\ntriples inequality 3|S| <= 2k + |T^S| + 2|V|:  {lhs} <= {rhs}")

c_unit = si.c / np.linalg.norm(si.c)
sched = build_schedule(c_unit, z, n=n, d=d, k=5)
segments = run_schedule(inst.A, inst.b, sched, start)
full, _ = run_shadow_path(inst.A, inst.b, sched.objectives[0], sched.objectives[-1], start)
lhs, rhs = compose_paths_inequality(segments, full)
print(f"\ndoubling schedule with k={sched.k}: {len(segments)} segments of lengths "
      f"{[len(p) for p in segments]}")
print(f"composition inequality: sum {lhs} <= full {len(full)} + slack -> {rhs}")
seg_reports = [classify_path(p, inst, g=g, rho=0.4) for p in segments]
full_report = classify_path(full, inst, g=g, rho=0.4)
lhs, rhs = compose_far_sets_inequality(seg_reports, full_report)
print(f"far-set composition: sum {lhs} <= {rhs}")
