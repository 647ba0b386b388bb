"""Span tracing installed from outside the package.

`Tracer.install()` replaces the public functions of each shadowlp module
with timing wrappers in every module namespace that holds them, because
several modules import names directly (`solver` takes `max_lambda`,
`ratio_test` and `make_basis` from `simplex`; `lower_bound` takes `solve`,
`discover_vertex_graph` and `dense_set_with_retry`).  `linalg` functions are
looked up through the module, so one replacement there covers all callers.
`Tracer.remove()` restores the originals, so an untraced op runs the
package exactly as shipped.

Spans are kept in memory as (name, start_ns, end_ns, parent) and written
once, when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  The attribute is wrapped wherever it is
# bound among the shadowlp modules.
TRACED = [
    ("linalg", "factorize", "linalg.factorize"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "solve_transpose", "linalg.solve_transpose"),
    ("simplex", "make_basis", "simplex.make_basis"),
    ("simplex", "multipliers", "simplex.multipliers"),
    ("simplex", "max_lambda", "simplex.max_lambda"),
    ("simplex", "ratio_test", "simplex.ratio_test"),
    ("simplex", "run_shadow_path", "simplex.run_shadow_path"),
    ("solver", "solve", "solver.solve"),
    ("solver", "phase1_solve", "solver.phase1"),
    ("solver", "phase2_solve", "solver.phase2"),
    ("solver", "phase3_solve", "solver.phase3"),
    ("solver", "verify_outcome", "solver.verify"),
    ("solver", "build_unit_lp_prime", "solver.build_unit_lp_prime"),
    ("analysis", "classify_path", "analysis.classify_path"),
    ("analysis", "multiplier_margin", "analysis.multiplier_margin"),
    ("analysis", "relative_slack", "analysis.relative_slack"),
    ("experiments", "scaling_instance", "rng.instance"),
    ("instance", "loads_instance", "instance.loads"),
    ("lower_bound", "diameter_experiment", "lower_bound.diameter_experiment"),
    ("lower_bound", "dense_set_with_retry", "lower_bound.dense_set"),
    ("lower_bound", "greedy_dense_set", "lower_bound.greedy_dense_set"),
    ("lower_bound", "build_lb_instance", "lower_bound.build_instance"),
    ("lower_bound", "sandwich_check", "lower_bound.sandwich_check"),
    ("lower_bound", "_max_facet_diameter", "lower_bound.facet_diameter"),
    ("oracle", "discover_vertex_graph", "oracle.discover_vertex_graph"),
    ("oracle", "bfs_distance", "oracle.bfs"),
]

MODULES = ["linalg", "instance", "rng", "simplex", "solver", "oracle",
           "analysis", "lower_bound", "experiments"]

PHASES = {"solver.phase1": "phase1", "solver.phase2": "phase2",
          "solver.phase3": "phase3"}


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self, package):
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.names: list[str] = []
        self.spans: list = []        # (name_id, start_ns, end_ns, parent_index)
        self.stack: list[int] = []   # indices of the open spans
        self.counts: Counter = Counter()
        self.phase = "none"
        self.bases: list[tuple[int, ...]] = []  # make_basis indices, in call order
        self.pivot_checks: Counter = Counter()
        self._solve: dict | None = None
        self._patches = self._plan()

    # -- span recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used by the benchmark for its op root."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, phase=None, after=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            if phase is not None:
                outer, tracer.phase = tracer.phase, phase
                mark = tracer.counts["pivots." + phase]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
                if phase is not None:
                    tracer.phase = outer
            if phase is not None:
                tracer._phase_done(phase, tracer.counts["pivots." + phase] - mark, result)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at span boundaries --------------------------------------

    def _linalg(self, name):
        def after(args, result):
            self.counts[name + ".calls"] += 1
            if self.phase != "none":
                self.counts["linalg.calls_in_phases"] += 1
        return after

    def _max_lambda(self, args, result):
        if result[1] is not None:
            self.counts["pivots." + self.phase] += 1

    def _make_basis(self, args, result):
        self.bases.append(result.indices)

    def _phase_done(self, phase, leaving, result):
        """Credit this phase call's pivots to the enclosing solve; `leaving`
        counts its max_lambda calls that returned a leaving row."""
        if self._solve is None:
            return
        outcome = result[0] if phase == "phase3" else result
        kind = getattr(outcome, "kind", None)
        if leaving and (kind == "unbounded" or (phase == "phase2" and kind is None)):
            # a walk that ends on an unbounded edge, or in phase 2 on the edge
            # crossing t = 1, evaluated a leaving row for that edge without
            # pivoting
            leaving -= 1
        self._solve[phase] += leaving

    def _solve_wrapper(self, fn):
        inner = self._wrap("solver.solve", fn)

        def solve(*args, **kwargs):
            outer, self._solve = self._solve, Counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                seen, self._solve = self._solve, outer
            stats = result[1]
            self.counts["solver.retries"] += stats.retries
            reported = {"phase1": stats.pivots_phase1, "phase2": stats.pivots_phase2,
                        "phase3": stats.pivots_phase3}
            self.pivot_checks["solves"] += 1
            if any(seen[p] != reported[p] for p in reported):
                self.pivot_checks["mismatched_solves"] += 1
            for p in reported:
                if seen[p] != reported[p]:
                    self.pivot_checks[f"{p}.mismatches"] += 1
                    self.pivot_checks[f"{p}.pivots_unreported"] += seen[p] - reported[p]
            return result

        solve.__wrapped__ = fn
        return solve

    def _plan(self):
        """(namespace, attribute, original, wrapper) for every binding."""
        special = {
            "simplex.max_lambda": dict(after=self._max_lambda),
            "simplex.make_basis": dict(after=self._make_basis),
            "analysis.classify_path": dict(after=lambda a, r: self.counts.update(
                {"analysis.classify_path.bases": len(a[0].bases)})),
            "lower_bound.dense_set": dict(after=lambda a, r: self.counts.update(
                {"lower_bound.dense_set.points": len(r)})),
            "oracle.discover_vertex_graph": dict(after=lambda a, r: self.counts.update(
                {"oracle.vertices": len(r)})),
        }
        for name in ("linalg.factorize", "linalg.solve", "linalg.solve_transpose"):
            special[name] = dict(after=self._linalg(name))
        patches = []
        for module, attr, name in TRACED:
            original = getattr(self.modules[module], attr)
            if name == "solver.solve":
                wrapper = self._solve_wrapper(original)
            else:
                wrapper = self._wrap(name, original, phase=PHASES.get(name),
                                     **special.get(name, {}))
            bound = [ns for ns in self.modules.values()
                     if getattr(ns, attr, None) is original]
            if not bound:
                raise RuntimeError(f"{module}.{attr} is bound nowhere")
            patches.extend((ns, attr, original, wrapper) for ns in bound)
        return patches

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        rec = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 3]

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns."""
        name, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_ns, minlength=k)
        return {n: {"calls": int(calls[i]), "ns": float(incl[i]), "self_ns": float(excl[i])}
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name.astype(np.int32),
                            start_ns=start, end_ns=end, parent=parent.astype(np.int32))
