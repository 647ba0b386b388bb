import io
import json
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize import linprog

from shadowlp import cli, experiments
from shadowlp.errors import ConfigError
from shadowlp.experiments import (
    CONE_SCHEMA,
    LOWERBOUND_COLUMNS,
    SCALING_SCHEMA,
    cone_run,
    lowerbound_run,
    LOWERBOUND_SCHEMA,
    parse_config,
    polygon_product_rows,
    rows_to_csv,
    shadow_scaling_run,
    SCALING_COLUMNS,
)
from shadowlp.instance import dump_instance

from helpers import cube_instance, infeasible_instance, open_box_instance, unbounded_in_c_instance
from shadowlp.rng import RngStream


TINY_SCALING = """
experiment = shadow_scaling
d = 3
n = 12
sigma_grid = 0.05, 0.2
trials = 3
seed = 11
"""


def test_parse_config_behaviour():
    cfg = parse_config(TINY_SCALING, SCALING_SCHEMA)
    assert cfg["d"] == 3 and cfg["sigma_grid"] == [0.05, 0.2]
    assert cfg["family"] == "product"  # default
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("experiment = shadow_scaling\nbogus = 1\n", SCALING_SCHEMA)
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("experiment = shadow_scaling\n", SCALING_SCHEMA)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(TINY_SCALING + "d = 4\n", SCALING_SCHEMA)
    # invariants are enforced when the study starts
    with pytest.raises(ConfigError, match="strictly increasing"):
        shadow_scaling_run(
            parse_config(TINY_SCALING.replace("0.05, 0.2", "0.2, 0.05"), SCALING_SCHEMA)
        )
    with pytest.raises(ConfigError, match="family"):
        shadow_scaling_run(
            parse_config(
                "experiment=shadow_scaling\nd=3\nn=12\ntrials=1\nsigma_grid=0.1\nfamily=weird\n",
                SCALING_SCHEMA,
            )
        )


def test_study_columns_are_pinned():
    # the CSV layouts; the cone rows and LOWERBOUND_COLUMNS follow the field
    # order of ConeTrial and DiameterRecord, so reordering a field fails here
    assert SCALING_COLUMNS == [
        "schema_version", "experiment", "trial", "sigma_index", "sigma", "seed",
        "stream", "d", "n", "family", "outcome", "error", "restarts",
        "pivots_phase1", "pivots_phase2", "pivots_phase3", "pivots_total",
        "objective_value", "m_threshold", "g_threshold", "rho",
        "good_multiplier_frac", "relative_gap_frac", "triple_count", "far_count",
        "min_proj_norm", "max_proj_norm",
    ]
    cone_rows, _ = cone_run(parse_config("experiment = cone\nd = 3\nconfigs = 1\ntrials = 2\n",
                                         CONE_SCHEMA))
    assert list(cone_rows[0]) == [
        "schema_version", "experiment", "config_id", "seed", "stream", "d",
        "trials", "m", "p0", "pm", "stderr_diff", "satisfied",
    ]
    assert LOWERBOUND_COLUMNS == [
        "schema_version", "experiment", "run", "seed", "stream", "d", "sigma",
        "eta", "n_rows", "n_dense", "outcome", "error", "vertices", "edges",
        "bfs_hops", "path_bound", "bound_holds", "gamma", "radius", "eta_event",
        "event_holds", "sandwich_inner_ok", "sandwich_outer_ok", "eta_star",
        "gamma_origin", "facet_bound_applicable", "facet_bound_ok",
    ]


def test_polygon_product_rows_shape():
    rows = polygon_product_rows(4, 50)
    assert rows.shape == (50, 4)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    rows5 = polygon_product_rows(5, 21)
    assert rows5.shape == (21, 5)


def test_scaling_run_rows_and_summary():
    cfg = parse_config(TINY_SCALING, SCALING_SCHEMA)
    rows, summary = shadow_scaling_run(cfg)
    assert len(rows) == 6
    assert all(r["outcome"] == "optimal" for r in rows)
    assert summary["per_sigma"][0]["trials_ok"] == 3
    assert np.isfinite(summary["loglog_slope"])
    csv_text = rows_to_csv(SCALING_COLUMNS, rows)
    assert csv_text.splitlines()[0].startswith("schema_version,experiment")
    assert len(csv_text.splitlines()) == 7


def test_scaling_run_deterministic_and_parallel():
    cfg = parse_config(TINY_SCALING, SCALING_SCHEMA)
    rows1, _ = shadow_scaling_run(cfg, jobs=1)
    rows2, _ = shadow_scaling_run(cfg, jobs=2)
    assert rows_to_csv(SCALING_COLUMNS, rows1) == rows_to_csv(SCALING_COLUMNS, rows2)


def test_scaling_pool_has_no_more_workers_than_trials(monkeypatch):
    sizes = []
    chunks = []

    class RecordingPool:
        """Runs the map in this process and records the requested size, the
        chunk size and the number of trials each worker would get, with the
        chunks dealt out in turn as `Pool.map` hands them to idle workers."""

        def __init__(self, processes):
            self.processes = processes
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            loads = [0] * self.processes
            for start in range(0, len(items), chunksize):
                loads[start // chunksize % self.processes] += len(items[start:start + chunksize])
            chunks.append((chunksize, loads))
            return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "multiprocessing", SimpleNamespace(Pool=RecordingPool))
    shadow_scaling_run(parse_config(TINY_SCALING, SCALING_SCHEMA), jobs=16)  # 6 trials
    shadow_scaling_run(parse_config(TINY_SCALING, SCALING_SCHEMA), jobs=2)
    shadow_scaling_run(parse_config(TINY_SCALING, SCALING_SCHEMA), jobs=4)  # 3 chunks of 2
    one = TINY_SCALING.replace("0.05, 0.2", "0.05").replace("trials = 3", "trials = 1")
    shadow_scaling_run(parse_config(one, SCALING_SCHEMA), jobs=4)  # runs in this process
    assert sizes == [6, 2, 3]
    # every worker gets an equal share of the 6 trials
    assert chunks == [(1, [1] * 6), (3, [3, 3]), (2, [2, 2, 2])]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, jobs):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(TINY_SCALING)
    res = _run_cli(["experiment", str(cfgfile), "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert res.stderr == f"error: jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "o").exists()


def test_single_trial_summary_degenerates_gracefully():
    cfg = parse_config(TINY_SCALING.replace("trials = 3", "trials = 1"), SCALING_SCHEMA)
    rows, summary = shadow_scaling_run(cfg)
    assert len(rows) == 2
    assert all(np.isfinite(p["mean_pivots"]) for p in summary["per_sigma"])


def test_cone_run_small():
    cfg = parse_config("experiment = cone\nd = 3\nconfigs = 4\ntrials = 20000\nseed = 2\n", CONE_SCHEMA)
    rows, summary = cone_run(cfg)
    assert len(rows) == 4
    assert summary["all_satisfied"]


def test_lowerbound_run_small():
    cfg = parse_config(
        "experiment = lowerbound\nd = 3\nsigma = 0.02\neta = 0.15\nruns = 1\n"
        "pad = false\naudit_samples = 20000\nseed = 8\n",
        LOWERBOUND_SCHEMA,
    )
    rows, summary = lowerbound_run(cfg)
    assert rows[0]["outcome"] == "optimal"
    assert rows[0]["bound_holds"] is True
    assert summary["bound_holds_all"]


def _run_cli(args, env_extra=None):
    """Run `shadowlp.cli.main(args)` in this process with `env_extra` added
    to the environment, and return its exit code and what it wrote to
    stdout and stderr, as `subprocess.run` would for `python -m
    shadowlp.cli`.  An exception other than SystemExit escapes and fails
    the test."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        for name, value in (env_extra or {}).items():
            mp.setenv(name, value)
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def test_cli_solve_exit_codes(tmp_path):
    box = tmp_path / "box.txt"
    dump_instance(cube_instance(c=np.array([1.0, 0.3, -0.2])), box)
    res = _run_cli(["solve", str(box), "--seed", "3"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["outcome"] == "optimal"
    assert doc["pivots"]["total"] == sum(
        doc["pivots"][k] for k in ("phase1", "phase2", "phase3")
    )

    gen = RngStream(80, 0).generator()
    infeas = tmp_path / "infeasible.txt"
    dump_instance(infeasible_instance(gen, 3, 9), infeas)
    res = _run_cli(["solve", str(infeas), "--seed", "3"])
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert "certificate" in doc
    assert doc["pivots"]["phase2"] > 0  # the lifted walk pivots before its Farkas stop

    unb = tmp_path / "unbounded.txt"
    dump_instance(unbounded_in_c_instance(gen, 3, 12), unb)
    res = _run_cli(["solve", str(unb), "--seed", "3"])
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    assert "ray" in doc and "x" in doc and "improves_objective" not in doc
    assert doc["pivots"]["phase3"] > 0  # the ray leaves a phase-3 vertex

    # a bounded LP on an unbounded region whose first pass ends on a ray
    # that does not improve c: the rerun finds HiGHS's optimum
    inst = open_box_instance(0)
    open_box = tmp_path / "open_box.txt"
    dump_instance(inst, open_box)
    res = _run_cli(["solve", str(open_box), "--seed", "900", "--stream", "1"])
    assert res.returncode == 0
    ref = linprog(-inst.c, A_ub=inst.A, b_ub=inst.b, bounds=[(None, None)] * 3,
                  method="highs")
    assert abs(json.loads(res.stdout)["objective_value"] + ref.fun) <= 1e-9

    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n1 2\n")
    res = _run_cli(["solve", str(bad)])
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error" in res.stderr


def test_cli_experiment_outputs_and_env_dir(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(TINY_SCALING)
    outdir = tmp_path / "results"
    res = _run_cli(
        ["experiment", str(cfgfile)], env_extra={"SHADOWLP_OUT": str(outdir)}
    )
    assert res.returncode == 0, res.stderr
    assert (outdir / "shadow_scaling.csv").exists()
    assert (outdir / "shadow_scaling_summary.json").exists()
    assert (outdir / "shadow_scaling.svg").exists()
    summary = json.loads((outdir / "shadow_scaling_summary.json").read_text())
    assert summary["experiment"] == "shadow_scaling"


def test_cli_summary_is_strict_json(tmp_path):
    # one sigma leaves the log-log fit undefined; the summary says null
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(TINY_SCALING.replace("0.05, 0.2", "0.05"))
    res = _run_cli(["experiment", str(cfgfile), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "shadow_scaling_summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["loglog_slope"] is None and summary["loglog_intercept"] is None
    assert summary["per_sigma"][0]["trials_ok"] == 3


def test_cli_unknown_config_key_fails(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(TINY_SCALING + "typo_key = 1\n")
    res = _run_cli(["experiment", str(cfgfile), "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert "unknown key" in res.stderr


def test_cli_rejects_config_for_other_experiment(tmp_path):
    cfgfile = tmp_path / "cone.cfg"
    cfgfile.write_text("experiment = cone\nd = 3\nconfigs = 1\ntrials = 100\n")
    res = _run_cli(["lowerbound", str(cfgfile), "--out", str(tmp_path / "o")])
    assert res.returncode == 1


@pytest.mark.parametrize("command, text, message", [
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 0\n", "eta must be in (0, 2]"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 0.25\neta = 3\n",
     "eta must be in (0, 2]"),
    ("experiment", "experiment = shadow_scaling\nd = 4\nn = 5\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = product\n", "product family needs d >= 2 and n >= 6"),
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 1\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\n", "n must be at least 2"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 0.25\naudit_samples = 0\n",
     "audit_samples must be positive"),
    # the restart budget and pivot limit are constants, not config keys
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\nmax_restarts = 0\n", "unknown key 'max_restarts'"),
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\npivot_limit = 0\n", "unknown key 'pivot_limit'"),
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = nan\n"
     "trials = 1\nfamily = ball\n", "sigma_grid: must be finite"),
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = 0.1, inf\n"
     "trials = 1\nfamily = ball\n", "sigma_grid: must be finite"),
    ("experiment", "experiment = shadow_scaling\nd = 3\nn = 12\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\nrho = nan\n", "rho: must be finite"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = nan\neta = 0.25\n",
     "sigma: must be finite"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = inf\n", "sigma: must be finite"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 0.25\nn = -5\n", "n >= 0"),
    ("montecarlo-cone", "experiment = cone\nd = 3\nconfigs = 1\ntrials = 1\n",
     "trials at least 2"),
    # every trial of these would end in DimensionTooSmall or NoVertex
    ("lowerbound", "experiment = lowerbound\nd = 2\nsigma = 0.25\nruns = 1\n"
     "audit_samples = 2000\n", "need d >= 3"),
    ("experiment", "experiment = shadow_scaling\nd = 2\nn = 12\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\n", "need d >= 3 and n >= d, got d = 2, n = 12"),
    ("experiment", "experiment = shadow_scaling\nd = 4\nn = 3\nsigma_grid = 0.1\n"
     "trials = 1\nfamily = ball\n", "need d >= 3 and n >= d, got d = 4, n = 3"),
    # row counts past the bound: floor((4/sigma)^d) is 6.4e28 at sigma = 1e-9
    # and past the largest float at sigma = 1e-300
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 1e-9\neta = 0.4\n",
     "63999999999999974462124457984 rows exceed the row bound 10000000"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 1e-300\neta = 0.4\n",
     "inf rows exceed the row bound 10000000"),
    ("lowerbound", "experiment = lowerbound\nd = 3\nsigma = 0.25\neta = 0.4\nruns = 1\n"
     "audit_samples = 2000\nn = 100000000000000000000\n",
     "100000000000000000000 rows exceed the row bound 10000000"),
])
def test_cli_rejects_configs_the_study_cannot_run(tmp_path, command, text, message):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text(text)
    res = _run_cli([command, str(cfgfile), "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and message in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_study_rejects_config_that_is_not_utf8(tmp_path):
    cfgfile = tmp_path / "cone.cfg"
    cfgfile.write_bytes(b"experiment = cone\nd = 3\n# \xff\xfe\n")
    res = _run_cli(["montecarlo-cone", str(cfgfile), "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and "utf-8" in res.stderr
    assert not (tmp_path / "o").exists()


def test_cli_study_rejects_out_that_names_a_file(tmp_path):
    cfgfile = tmp_path / "cone.cfg"
    cfgfile.write_text("experiment = cone\nd = 3\nconfigs = 1\ntrials = 100\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    res = _run_cli(["montecarlo-cone", str(cfgfile), "--out", str(taken)])
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and str(taken) in res.stderr
    assert res.stdout == ""
    assert taken.read_text() == "not a directory\n"


def test_cli_lowerbound_rows_below_packing_size_is_an_error_row(tmp_path):
    cfgfile = tmp_path / "lb.cfg"
    cfgfile.write_text("experiment = lowerbound\nd = 3\nsigma = 0.25\nn = 5\nruns = 1\n"
                       "audit_samples = 20000\n")
    res = _run_cli(["lowerbound", str(cfgfile), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, row = (tmp_path / "lowerbound.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["outcome"] == "error"
    assert cells["error"].startswith("TooFewRows: n=5 smaller than the dense set")


def test_wall_time_column_is_optional_and_isolated():
    cfg = parse_config(TINY_SCALING + "record_wall_time = true\n", SCALING_SCHEMA)
    rows, _ = shadow_scaling_run(cfg)
    assert all("wall_time_s" in r for r in rows)
    cols = SCALING_COLUMNS + ["wall_time_s"]
    text = rows_to_csv(cols, rows)
    assert text.splitlines()[0].endswith(",wall_time_s")
    # every non-timing column matches the timing-free run byte for byte
    plain_rows, _ = shadow_scaling_run(parse_config(TINY_SCALING, SCALING_SCHEMA))
    stripped = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert rows_to_csv(SCALING_COLUMNS, stripped) == rows_to_csv(SCALING_COLUMNS, plain_rows)
