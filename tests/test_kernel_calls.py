"""Pin how many times a seeded solve calls each pivot kernel.

The benchmark's tracer and the kernel tests observe a solve through these
module-level functions: `simplex.make_basis`, `max_lambda`, `multipliers`
and `ratio_test`, and `linalg.factorize`, `solve` and `solve_transpose`.
A faster pivot loop that computed one of them inline would leave those
observers blind to it; here it changes a count.  The counts were recorded
on the engine before per-pivot costs were trimmed, and a trim must keep
them.
"""

import pytest

import shadowlp
from shadowlp import experiments, linalg, simplex, solver
from shadowlp.rng import RngStream

from helpers import mixed_instance

KERNELS = [(simplex, "make_basis"), (simplex, "max_lambda"), (simplex, "multipliers"),
           (simplex, "ratio_test"), (linalg, "factorize"), (linalg, "solve"),
           (linalg, "solve_transpose")]

# (family, outcome kind, pivots by phase, calls per kernel in KERNELS order)
PINNED = [
    ("ball", "optimal", (76, 5, 34), (121, 120, 245, 116, 122, 238, 246)),
    ("mixed", "infeasible", (35, 42, 0), (80, 79, 161, 77, 80, 158, 161)),
]


def _instance(family):
    gen = RngStream(2028, 0).generator()
    if family == "ball":
        return experiments.scaling_instance(gen, 10, 500, 0.05, "ball"), gen
    return mixed_instance(gen, 10, 500, 0.05), gen


def _count_calls(monkeypatch):
    """Wrap every kernel wherever a package module binds it; return the counts."""
    counts = {name: 0 for _, name in KERNELS}
    modules = [getattr(shadowlp, m) for m in ("linalg", "instance", "rng", "simplex", "solver",
                                              "oracle", "analysis", "lower_bound", "experiments")]
    for module, name in KERNELS:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)

        for ns in modules:
            if getattr(ns, name, None) is original:
                monkeypatch.setattr(ns, name, counted)
    return counts


@pytest.mark.parametrize("family, kind, pivots, calls", PINNED)
def test_seeded_solve_calls_every_kernel_as_pinned(monkeypatch, family, kind, pivots, calls):
    si, gen = _instance(family)
    counts = _count_calls(monkeypatch)
    outcome, stats, _ = solver.solve(gen, si, climb=False)
    assert outcome.kind == kind
    assert (stats.pivots_phase1, stats.pivots_phase2, stats.pivots_phase3) == pivots
    assert tuple(counts[name] for _, name in KERNELS) == calls
