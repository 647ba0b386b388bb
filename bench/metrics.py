"""Metric definitions.  bench/README.md explains each one and the layer and
workload it belongs to; the names here are the names in BENCHMARK.json."""

from __future__ import annotations

import hashlib
import json
import statistics

import numpy as np

import hostspeed
from workloads import csv_digest

LAYERS = ["linalg", "simplex", "solver", "analysis", "rng", "instance",
          "lower_bound", "oracle"]


def end_to_end(loop, setup_ns, setup_cal_ns, peak_rss_mb):
    """Metrics a user sees, from the untraced ops: {name: (value, unit)}.

    Times are scaled to the reference host speed (see hostspeed.py): each
    op by the mean of the calibrations just before and after it, each set-up
    shard by the median of ten calibrations around it.
    """
    cal = np.array(loop.cal_ns, dtype=float)
    ms = hostspeed.scale(np.array(loop.untraced_ns, dtype=float), (cal[:-1] + cal[1:]) / 2)
    setup_s = [hostspeed.scale(ns, c) / 1e3 for ns, c in zip(setup_ns, setup_cal_ns)]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(ms) / (ms.sum() / 1e3), "1/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def raw(loop, setup_ns):
    """The same timings as measured, before scaling; printed for reference."""
    ms = np.array(loop.untraced_ns, dtype=float) / 1e6
    return {
        "raw.setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "raw.ops_per_s": (len(ms) / (ms.sum() / 1e3), "1/s"),
        "raw.op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "raw.op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "raw.calibration_ms_p50": (float(np.median(loop.cal_ns)) / 1e6, "ms"),
    }


def sample_counts(loop, trace):
    """What each printed value rests on; metrics not listed rest on the ops."""
    ops = len(loop.traced_ns) if trace else len(loop.untraced_ns)
    return {"ops": ops, "setup_s": "3 shards", "raw.setup_s": "3 shards",
            "peak_rss_mb": "1 process", "raw.calibration_ms_p50": len(loop.cal_ns),
            "trace.overhead_frac": f"{ops} traced + {len(loop.untraced_ns)} untraced ops"}


def per_layer(tracer, loop):
    """Per-op layer metrics from the traced ops: {name: (value, unit)}."""
    ops = len(loop.traced_ns)
    totals = tracer.span_totals()
    counts = tracer.counts

    def ms(name):       # inclusive time per op
        return totals.get(name, {}).get("ns", 0.0) / 1e6 / ops

    def self_ms(name):
        return totals.get(name, {}).get("self_ns", 0.0) / 1e6 / ops

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self_ms(layer):
        return sum(self_ms(n) for n in totals if n.split(".", 1)[0] == layer)

    pivots = {p: counts["pivots." + p] for p in ("phase1", "phase2", "phase3")}
    total_pivots = sum(pivots.values())
    phase_ns = sum(totals.get(f"solver.{p}", {}).get("ns", 0.0) for p in pivots)
    traced_ms = np.array(loop.traced_ns, dtype=float) / 1e6
    untraced_ms = np.array(loop.untraced_ns, dtype=float) / 1e6
    attributed = sum(layer_self_ms(layer) for layer in LAYERS)

    out = {}
    for name in ("linalg.factorize", "linalg.solve", "linalg.solve_transpose"):
        out[name + ".calls"] = (counts[name + ".calls"] / ops, "count/op")
    out["linalg.calls_per_pivot"] = (ratio(counts["linalg.calls_in_phases"], total_pivots), "ratio")
    for p, n in pivots.items():
        out[f"simplex.pivots.{p}"] = (n / ops, "count/op")
    for name in ("max_lambda", "ratio_test", "make_basis"):
        out[f"simplex.{name}.self_ms"] = (self_ms("simplex." + name), "ms")
    out["simplex.us_per_pivot"] = (ratio(phase_ns / 1e3, total_pivots), "us")
    for p in ("phase1", "phase2", "phase3", "verify"):
        out[f"solver.{p}.ms"] = (ms("solver." + p), "ms")
    attempts = calls("solver.build_unit_lp_prime")
    out["solver.phase1.attempts"] = (attempts / ops, "count/op")
    out["solver.phase1.accept_ratio"] = (ratio(calls("solver.phase1"), attempts), "ratio")
    out["solver.retries"] = (counts["solver.retries"] / ops, "count/op")
    out["analysis.classify_path.ms"] = (ms("analysis.classify_path"), "ms")
    out["analysis.classify_path.bases"] = (counts["analysis.classify_path.bases"] / ops, "count/op")
    out["rng.instance.ms"] = (ms("rng.instance"), "ms")
    out["instance.loads.ms"] = (ms("instance.loads"), "ms")
    out["lower_bound.dense_set.ms"] = (ms("lower_bound.dense_set"), "ms")
    out["lower_bound.dense_set.attempts"] = (
        ratio(calls("lower_bound.greedy_dense_set"), calls("lower_bound.dense_set")), "count")
    out["lower_bound.dense_set.points"] = (counts["lower_bound.dense_set.points"] / ops, "count/op")
    out["lower_bound.facet_diameter.ms"] = (ms("lower_bound.facet_diameter"), "ms")
    out["oracle.discover_vertex_graph.ms"] = (ms("oracle.discover_vertex_graph"), "ms")
    out["oracle.vertices"] = (counts["oracle.vertices"] / ops, "count/op")
    out["oracle.bfs.ms"] = (ms("oracle.bfs"), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_self_ms(layer), "ms")
    out["trace.op_ms"] = (float(traced_ms.mean()), "ms")
    out["trace.untraced_op_ms"] = (float(untraced_ms.mean()), "ms")
    out["trace.overhead_frac"] = (traced_ms.sum() / untraced_ms.sum() - 1.0, "frac")
    out["trace.self_sum_frac"] = (attributed / untraced_ms.mean(), "frac")
    out["check.pivot_mismatches"] = (tracer.pivot_checks["mismatched_solves"], "count")
    out["check.solves"] = (tracer.pivot_checks["solves"], "count")
    return out


def fingerprint(wl, loop, outside_pivots):
    """Behaviour fingerprint of the first pass: identical for identical code
    and seed, whatever the timing."""
    results = loop.first_pass
    stats = [sum(r.pivots[i] for r in results) for i in range(3)]
    out = {
        "ops": len(results),
        "classes": {k: sum(r.kind == k for r in results) for k in sorted({r.kind for r in results})},
        "stats_pivots_by_phase": stats,
        "csv_sha256": csv_digest(wl.columns, [r.row for r in results]),
    }
    if outside_pivots is not None:
        out["outside_pivots_by_phase"] = [outside_pivots[p] for p in ("phase1", "phase2", "phase3")]
        out["basis_sha256"] = hashlib.sha256(
            json.dumps(loop.first_pass_bases).encode()).hexdigest()
    return out
