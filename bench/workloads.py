"""The benchmark's workloads: corpus set-up, one op, and the output check.

Every workload builds its corpus in SHARDS slices; the benchmark times
each slice's set-up (instance generation, serialization, the HiGHS
reference solve and a warm-up op) and reports the median.  A pass runs
every corpus entry once, in the same order, so two runs of one seed
execute the same ops.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.optimize import linprog

from shadowlp import experiments, instance, solver
from shadowlp.errors import ShadowLpError
from shadowlp.rng import RngStream, smoothed_instance, uniform_sphere

SHARDS = 3
OBJ_RTOL = 1e-7


def highs_reference(lp) -> tuple[str, float | None]:
    """Classification and optimal value of max c^T x, A x <= b from HiGHS."""
    res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.d,
                  method="highs")
    if res.status == 0:
        return "optimal", -float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"HiGHS could not classify the instance: {res.message}")


def compare(kind: str, value: float | None, ref: tuple[str, float | None]) -> str | None:
    """None when (kind, value) agrees with the reference, else the disagreement."""
    ref_kind, ref_value = ref
    if kind != ref_kind:
        return f"classified {kind}, HiGHS says {ref_kind}"
    if ref_value is not None and abs(value - ref_value) > OBJ_RTOL * max(1.0, abs(ref_value)):
        return f"objective {value!r}, HiGHS {ref_value!r}"
    return None


def mixed_instance(gen, d, n, sigma, b_low=-0.12, b_high=0.75):
    """The test suite's `mixed` family: random halfspaces with mixed offsets.
    At d=20, n=2000 the instances come out infeasible."""
    bbar = gen.uniform(b_low, b_high, n)
    dirs = uniform_sphere(gen, d, n)
    radii = np.sqrt(1.0 - bbar**2) * gen.uniform(0.5, 1.0, n)
    abar = dirs * radii[:, None]
    c = uniform_sphere(gen, d)
    return smoothed_instance(gen, abar, bbar, c, sigma)


def csv_digest(columns, rows) -> str:
    return hashlib.sha256(experiments.rows_to_csv(columns, rows).encode()).hexdigest()


class Result:
    """What one op returned, as the output check and the fingerprint see it."""

    __slots__ = ("kind", "problem", "row", "pivots")

    def __init__(self, kind, problem=None, row=None, pivots=(0, 0, 0)):
        self.kind = kind          # outcome class, or "error"
        self.problem = problem    # None when the output is correct
        self.row = row            # CSV row for the fingerprint
        self.pivots = pivots      # SolveStats pivots by phase, where reported


class Scaling:
    """experiments.shadow_scaling_run, ball family; an op is one trial."""

    name = "scaling"
    D, N, GRID, TRIALS = 10, 500, (0.01, 0.05, 0.2), 60
    columns = experiments.SCALING_COLUMNS

    def __init__(self, seed: int):
        self.seed = seed
        self.refs: dict[tuple[int, int], tuple] = {}
        self.size = len(self.GRID) * self.TRIALS

    def config(self, grid, trials, stream_base=0):
        text = (f"experiment = shadow_scaling\nd = {self.D}\nn = {self.N}\n"
                f"sigma_grid = {', '.join(map(repr, grid))}\ntrials = {trials}\n"
                f"family = ball\nseed = {self.seed}\nstream_base = {stream_base}\n"
                "svg = false\n")
        return experiments.parse_config(text, experiments.SCALING_SCHEMA)

    def setup(self, shard: int) -> Result:
        per = self.TRIALS // SHARDS
        trials = range(shard * per, (shard + 1) * per)
        for si, sigma in enumerate(self.GRID):
            for t in trials:
                gen = RngStream(self.seed, si * self.TRIALS + t).generator()
                si_inst = experiments.scaling_instance(gen, self.D, self.N, sigma, "ball")
                self.refs[(si, t)] = highs_reference(si_inst.lp())
        # warm-up: the shard's first trial through the same entry point
        rows, _ = experiments.shadow_scaling_run(
            self.config(self.GRID[:1], 1, stream_base=trials[0]), jobs=1)
        return self.check(dict(rows[0], trial=trials[0]))

    def check(self, row) -> Result:
        if row["error"]:
            return Result("error", row["error"], row)
        value = row["objective_value"]
        problem = compare(row["outcome"], value if value != "" else None,
                          self.refs[(row["sigma_index"], row["trial"])])
        return Result(row["outcome"], problem, row,
                      (row["pivots_phase1"], row["pivots_phase2"], row["pivots_phase3"]))

    def run_pass(self, op) -> None:
        """One shadow_scaling_run over the whole corpus; `op(fn, check)` times
        and checks each trial."""
        original = experiments.run_scaling_trial
        experiments.run_scaling_trial = lambda params: op(lambda: original(params), self.check)
        try:
            experiments.shadow_scaling_run(self.config(self.GRID, self.TRIALS), jobs=1)
        finally:
            experiments.run_scaling_trial = original


SOLVE_COLUMNS = ["entry", "outcome", "restarts", "pivots_phase1", "pivots_phase2",
                 "pivots_phase3", "pivots_total", "objective_value"]


class Solve:
    """The CLI's solve path in process: parse the instance text, then solve.

    The corpus crosses INSTANCES instance files with STREAMS solver streams,
    so the set-up cost (serialization and the HiGHS solve) is paid per file
    while the op cost is averaged over both kinds of randomness.
    """

    D, N, SIGMA, INSTANCES, STREAMS = 20, 2000, 0.05, 18, 6
    columns = SOLVE_COLUMNS

    def __init__(self, seed: int, family: str):
        self.seed = seed
        self.family = family
        self.name = "solve_optimal" if family == "ball" else "solve_infeasible"
        self.texts: dict[int, str] = {}
        self.refs: dict[int, tuple] = {}
        self.size = self.INSTANCES * self.STREAMS

    def setup(self, shard: int) -> Result:
        per = self.INSTANCES // SHARDS
        files = range(shard * per, (shard + 1) * per)
        for i in files:
            # instances and the solver draw from separate streams of the seed
            gen = RngStream(self.seed, i).generator()
            if self.family == "ball":
                si = experiments.scaling_instance(gen, self.D, self.N, self.SIGMA, "ball")
            else:
                si = mixed_instance(gen, self.D, self.N, self.SIGMA)
            self.texts[i] = instance.dumps_instance(si.lp())
            self.refs[i] = highs_reference(si.lp())
        return self.check(self.op(files[0])())

    def op(self, entry: int):
        """The timed callable for a corpus entry: file entry % INSTANCES,
        solved with stream INSTANCES + entry (files use streams below that)."""
        i, stream = entry % self.INSTANCES, self.INSTANCES + entry
        text = self.texts[i]

        def run():
            inst = instance.loads_instance(text)
            try:
                outcome, stats, _ = solver.solve(RngStream(self.seed, stream), inst)
            except ShadowLpError as exc:
                return entry, inst, f"{type(exc).__name__}: {exc}", None
            return entry, inst, outcome, stats

        return run

    def check(self, returned) -> Result:
        entry, inst, outcome, stats = returned
        row = dict.fromkeys(SOLVE_COLUMNS, "")
        row["entry"] = entry
        if stats is None:
            row["outcome"] = "error"
            return Result("error", outcome, row)
        value = float(inst.c @ outcome.x) if outcome.kind == "optimal" else None
        pivots = (stats.pivots_phase1, stats.pivots_phase2, stats.pivots_phase3)
        row.update(outcome=outcome.kind, restarts=stats.restarts,
                   pivots_phase1=pivots[0], pivots_phase2=pivots[1],
                   pivots_phase3=pivots[2], pivots_total=sum(pivots),
                   objective_value="" if value is None else value)
        ref = self.refs[entry % self.INSTANCES]
        return Result(outcome.kind, compare(outcome.kind, value, ref), row, pivots)

    def run_pass(self, op) -> None:
        for entry in range(self.size):
            op(self.op(entry), self.check)


class LowerBound:
    """experiments.lowerbound_run at acceptance criterion 7's configuration;
    an op is one diameter run.

    The corpus is criterion 7's five runs (seed 7007, streams 0-4) and the
    benchmark seed only rotates their order.  Each run's cost is set by how
    many greedy packings fail their audit (1, 2 or 3 packings: about 0.35,
    1 or 3 s), so a corpus drawn from the seed would change the work in a
    window by tens of percent from seed to seed.
    """

    name = "lowerbound"
    CONFIG = "experiment = lowerbound\nd = 3\nsigma = 0.25\nruns = 1\nseed = 7007\n"
    STREAMS = 5
    WARM_UP_STREAM = 2  # a run whose first packing passes its audit
    columns = experiments.LOWERBOUND_COLUMNS

    def __init__(self, seed: int):
        self.order = [(seed + j) % self.STREAMS for j in range(self.STREAMS)]
        self.size = self.STREAMS

    def setup(self, shard: int) -> Result:
        # every shard warms up on the same run, whatever the seed, so
        # setup_s does not depend on how many packings a run retries
        return self.check(self.op(self.WARM_UP_STREAM)())

    def op(self, stream: int):
        cfg = experiments.parse_config(self.CONFIG + f"stream_base = {stream}\n",
                                       experiments.LOWERBOUND_SCHEMA)
        return lambda: experiments.lowerbound_run(cfg)[0][0]

    def check(self, row) -> Result:
        if row["outcome"] != "optimal":
            return Result(row["outcome"] or "error", row["error"] or "not optimal", row)
        if row["bound_holds"] is not True:
            return Result("optimal", "diameter bound does not hold", row)
        return Result("optimal", None, row)

    def run_pass(self, op) -> None:
        for stream in self.order:
            op(self.op(stream), self.check)


def make(name: str, seed: int):
    if name == "scaling":
        return Scaling(seed)
    if name == "solve_optimal":
        return Solve(seed, "ball")
    if name == "solve_infeasible":
        return Solve(seed, "mixed")
    if name == "lowerbound":
        return LowerBound(seed)
    raise KeyError(name)
