#!/usr/bin/env python3
"""Walk through the three-phase solver on three tiny instances.

Shows the phase structure (random-objective unit solve, interpolation lift,
final sweep to the input objective), the per-phase pivot counts, and the
certificate attached to each outcome kind.  Each instance is solved with
climb=False, the paper's three phases, phase 1 from artificial rows.  The
default solve's answer follows: where every b_i > 0, from a climb out of
the origin and phase 3 alone; otherwise, or where that climb finds no
vertex, from the three phases with phase 1 climbing on A x <= 1.
"""

import numpy as np

from shadowlp import LPInstance, RngStream, solve
from shadowlp.instance import dumps_instance
from shadowlp.solver import Infeasible, Optimal, Unbounded


def report(name, inst, seed=0):
    print(f"\n=== {name} (n={inst.n}, d={inst.d}) ===")
    outcome, stats, _ = solve(RngStream(seed), inst, climb=False)
    print(f"outcome: {outcome.kind}")
    print(
        f"pivots: phase1={stats.pivots_phase1} phase2={stats.pivots_phase2} "
        f"phase3={stats.pivots_phase3} (restarts={stats.restarts})"
    )
    if isinstance(outcome, Optimal):
        print(f"optimal vertex {np.round(outcome.x, 6)} from rows {outcome.basis_indices}")
        print(f"objective value {inst.c @ outcome.x:.6f}")
    elif isinstance(outcome, Infeasible):
        y = outcome.certificate
        print(f"Farkas certificate: y >= 0, |y^T A|_inf = {np.abs(y @ inst.A).max():.2e}, "
              f"y^T b = {y @ inst.b:.4f} < 0")
    elif isinstance(outcome, Unbounded):
        ray = outcome.ray / np.linalg.norm(outcome.ray)
        print(f"recession ray {np.round(ray, 4)}, c.ray = {inst.c @ ray:.4f}, "
              f"from the feasible vertex {np.round(outcome.x, 4) + 0.0}")
    climbed, stats, _ = solve(RngStream(seed), inst)
    how = "climbed from the origin" if stats.restarts == 0 else "three phases"
    print(
        f"default solve: {climbed.kind} ({how}; pivots phase1={stats.pivots_phase1} "
        f"phase2={stats.pivots_phase2} phase3={stats.pivots_phase3}, restarts={stats.restarts})"
    )


# a box: |x_i| <= 1
box = LPInstance(
    A=np.vstack([np.eye(3), -np.eye(3)]),
    b=np.ones(6),
    c=np.array([1.0, 0.4, -0.2]),
)
print("instance file format for the box:")
print(dumps_instance(box))
report("box", box)

# an infeasible sandwich: x_1 <= -1 and x_1 >= 1 among padding rows
gen = RngStream(1).generator()
pad = gen.standard_normal((6, 3))
pad /= np.linalg.norm(pad, axis=1, keepdims=True)
sandwich = LPInstance(
    A=np.vstack([np.eye(3)[:1], -np.eye(3)[:1], pad]),
    b=np.array([-1.0, -1.0, *np.full(6, 1.2)]),
    c=np.array([0.0, 1.0, 0.0]),
)
report("infeasible sandwich", sandwich)

# a wedge opening along c: all rows tilt away from c
c = np.array([0.0, 0.0, 1.0])
rows = []
for k in range(10):
    t = 2 * np.pi * k / 10
    v = np.array([np.cos(t), np.sin(t), 0.0])
    row = 0.9 * v - 0.45 * c
    rows.append(row / np.linalg.norm(row))
wedge = LPInstance(A=np.array(rows), b=np.ones(10), c=c)
report("unbounded wedge", wedge)
