"""shadowlp benchmark: one workload, one closed-loop client, one op in flight.

    python3 bench/run.py --workload scaling --seed 0 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src).  The
last line of standard output is the result as JSON; the lines before it
print every metric with its unit and sample count, the environment, the
behaviour fingerprint and the output-check failures.  A JSON report (and,
with --trace 1, the recorded spans) goes to .bench_out/.

--trace 0 measures the end-to-end metrics with the package untouched.
--trace 1 runs every op twice, once untraced and once with span wrappers
installed (alternating which goes first), and reports per-layer metrics
from the traced copies; the ratio of the two gives the trace overhead.
See bench/README.md for what each metric means and which layer should
move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ["scaling", "solve_optimal", "solve_infeasible", "lowerbound"]

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Loop:
    """Closed-loop op runner: times each op, checks its output, and keeps
    what the fingerprint needs from the first pass."""

    def __init__(self, tracer, calibrate):
        self.tracer = tracer
        self.calibrate = calibrate
        self.untraced_ns: list[int] = []
        self.traced_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.first_pass: list = []
        self.first_pass_bases: list = []
        self.in_first_pass = True
        # untraced runs only: one calibration before the first op and one
        # after every op, so op i sits between calibrations i and i + 1
        self.cal_ns: list[int] = []

    def _call(self, fn, traced):
        if not traced:
            t0 = time.perf_counter_ns()
            out = fn()
            return out, time.perf_counter_ns() - t0
        tracer = self.tracer
        tracer.install()
        try:
            t0 = time.perf_counter_ns()
            out = tracer.run("op", fn)
            return out, time.perf_counter_ns() - t0
        finally:
            tracer.remove()

    def __call__(self, fn, check):
        """Run one op; returns what fn returned (the scaling study needs it)."""
        if self.tracer is None:
            runs = (False,)
            if not self.cal_ns:
                self.cal_ns.append(self.calibrate())
        else:
            # the same op untraced and traced, alternating which runs first
            runs = (False, True) if len(self.traced_ns) % 2 == 0 else (True, False)
        for traced in runs:
            out, ns = self._call(fn, traced)
            (self.traced_ns if traced else self.untraced_ns).append(ns)
            result = check(out)
            self.attempted += 1
            if result.problem is not None:
                self.failures.append(f"{result.kind}: {result.problem}")
            if self.in_first_pass and traced == (self.tracer is not None):
                self.first_pass.append(result)
                if traced:
                    self.first_pass_bases.append(tuple(self.tracer.bases))
            if traced:
                self.tracer.bases.clear()
        if self.tracer is None:
            self.cal_ns.append(self.calibrate())
        return out


def environment(np, scipy, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_text = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "nproc": affinity or os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "shadowlp" / "__init__.py").is_file():
        print("error: the shadowlp package is missing (expected src/shadowlp)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy
    import shadowlp

    import hostspeed
    import metrics
    import workloads
    from tracer import Tracer

    env = environment(np, scipy, args.seed)
    wl = workloads.make(args.workload, args.seed)

    setup_ns, setup_cal_ns, setup_failures = [], [], []
    for shard in range(workloads.SHARDS):
        cal = [hostspeed.calibrate() for _ in range(5)]
        t0 = time.perf_counter_ns()
        warm = wl.setup(shard)
        setup_ns.append(time.perf_counter_ns() - t0)
        cal += [hostspeed.calibrate() for _ in range(5)]
        setup_cal_ns.append(statistics.median(cal))
        if warm.problem is not None:
            setup_failures.append(f"warm-up {warm.kind}: {warm.problem}")

    tracer = Tracer(shadowlp) if args.trace else None
    cpu0, t0 = time.process_time(), time.perf_counter()
    loop = Loop(tracer, hostspeed.calibrate)
    fingerprint_counts = None
    passes = 0
    # whole passes only, so every run weighs each corpus entry equally
    while passes == 0 or time.perf_counter() - t0 < args.seconds:
        wl.run_pass(loop)
        passes += 1
        if loop.in_first_pass:
            loop.in_first_pass = False
            if tracer is not None:
                fingerprint_counts = {p: tracer.counts["pivots." + p]
                                      for p in ("phase1", "phase2", "phase3")}
    wall = time.perf_counter() - t0
    cpu_frac = (time.process_time() - cpu0) / wall

    fingerprint = metrics.fingerprint(wl, loop, fingerprint_counts)
    if args.trace:
        values = metrics.per_layer(tracer, loop)
    else:
        values = metrics.end_to_end(loop, setup_ns, setup_cal_ns, peak_rss_mb())
    samples = metrics.sample_counts(loop, args.trace)

    failed = len(loop.failures)
    attempted = loop.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes} x {wl.size} ops  window {wall:.2f} s  cpu/wall {cpu_frac:.3f}")
    print("env " + json.dumps(env, sort_keys=True))
    shown = values if args.trace else {**values, **metrics.raw(loop, setup_ns)}
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit:9s} n={samples.get(name, samples['ops'])}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):14.6g} {'frac':9s} "
          f"n={attempted}  (failed {failed} of {attempted} ops)")
    if tracer is not None:
        print("pivot cross-check " + json.dumps(dict(sorted(tracer.pivot_checks.items()))))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for line in (setup_failures + loop.failures)[:20]:
        print("FAILED " + line)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "window_s": wall, "cpu_frac": cpu_frac, "passes": passes, "env": env,
        "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k, samples["ops"])}
                    for k, (v, u) in values.items()},
        "attempted": attempted, "failed": failed, "fingerprint": fingerprint,
        "failures": setup_failures + loop.failures,
        "pivot_checks": dict(tracer.pivot_checks) if tracer is not None else None,
        "setup_ns": setup_ns, "setup_calibration_ns": setup_cal_ns,
        "op_ns": loop.untraced_ns, "calibration_ns": loop.cal_ns,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.save(out_dir / f"{stem}-spans.npz")

    print(json.dumps({
        "correct": not setup_failures and not loop.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
