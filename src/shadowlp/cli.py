"""Command-line front end.

Subcommands: `solve` (single instance file -> result JSON on stdout),
`experiment` (sigma-grid pivot scaling), `lowerbound` (near-ball diameter
chain), and `montecarlo-cone` (segment-vs-cone frequency study).  Exit
codes for solve: 0 optimal, 2 infeasible, 3 unbounded, 1 any error.
Output directory resolution: --out flag, else $SHADOWLP_OUT, else cwd.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ShadowLpError
from .experiments import (
    CONE_SCHEMA,
    LOWERBOUND_SCHEMA,
    SCALING_SCHEMA,
    cone_run,
    lowerbound_run,
    parse_config,
    rows_to_csv,
    shadow_scaling_run,
    summary_to_json,
    write_loglog_svg,
)
from .instance import InstanceParseError, load_instance
from .rng import RngStream
from .solver import Infeasible, Optimal, solve


def _out_dir(args) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        path = Path(os.environ.get("SHADOWLP_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve(args) -> int:
    try:
        inst = load_instance(args.file)
    except (OSError, InstanceParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        outcome, stats, _ = solve(RngStream(args.seed, args.stream), inst)
    except ShadowLpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    doc = {
        "outcome": outcome.kind,
        "seed": args.seed,
        "stream": args.stream,
        "restarts": stats.restarts,
        "pivots": {
            "phase1": stats.pivots_phase1,
            "phase2": stats.pivots_phase2,
            "phase3": stats.pivots_phase3,
            "total": stats.pivots_total,
        },
    }
    if isinstance(outcome, Optimal):
        doc["x"] = [float(v) for v in outcome.x]
        doc["basis"] = list(outcome.basis_indices)
        doc["objective_value"] = float(inst.c @ outcome.x)
        code = 0
    elif isinstance(outcome, Infeasible):
        doc["certificate"] = [float(v) for v in outcome.certificate]
        code = 2
    else:
        doc["ray"] = [float(v) for v in outcome.ray]
        doc["x"] = [float(v) for v in outcome.x]
        code = 3
    print(json.dumps(doc, indent=2, sort_keys=True))
    return code


# subcommand: (help, config schema, experiment name, runner(cfg, args))
STUDIES = {
    "experiment": ("run the sigma-grid pivot scaling study", SCALING_SCHEMA, "shadow_scaling",
                   lambda cfg, args: shadow_scaling_run(cfg, jobs=args.jobs)),
    "lowerbound": ("run the near-ball diameter chain", LOWERBOUND_SCHEMA, "lowerbound",
                   lambda cfg, args: lowerbound_run(cfg)),
    "montecarlo-cone": ("segment-vs-cone frequency study", CONE_SCHEMA, "cone",
                        lambda cfg, args: cone_run(cfg)),
}


def _run_study(args) -> int:
    _, schema, expected, runner = STUDIES[args.command]
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), schema)
        if cfg["experiment"] != expected:
            raise ShadowLpError(
                f"config is for experiment {cfg['experiment']!r}, expected {expected!r}"
            )
        rows, summary = runner(cfg, args)
        out = _out_dir(args)
        # every study validates a positive number of trials, configs or
        # runs, so there is a first row to take the columns from
        (out / f"{expected}.csv").write_text(rows_to_csv(list(rows[0]), rows), encoding="utf-8")
        (out / f"{expected}_summary.json").write_text(summary_to_json(summary), encoding="utf-8")
        if cfg.get("svg"):  # a scaling-study key
            finite = [
                (p["sigma"], p["mean_pivots"])
                for p in summary["per_sigma"]
                if np.isfinite(p["mean_pivots"])
            ]
            if finite:
                write_loglog_svg(
                    out / "shadow_scaling.svg",
                    [f[0] for f in finite],
                    [f[1] for f in finite],
                    summary["loglog_slope"],
                    summary["loglog_intercept"],
                    f"mean pivots vs sigma (d={cfg['d']}, n={cfg['n']})",
                )
    except (OSError, UnicodeDecodeError, ShadowLpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out / (expected + '.csv')}")
    print(f"wrote {out / (expected + '_summary.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlp",
        description="Shadow-vertex LP solver and its experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file, JSON to stdout")
    p_solve.add_argument("file")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--stream", type=int, default=0)
    p_solve.set_defaults(func=cmd_solve)

    for command, (help_text, *_) in STUDIES.items():
        p_study = sub.add_parser(command, help=help_text)
        p_study.add_argument("config")
        if command == "experiment":
            p_study.add_argument("--jobs", type=int, default=1)
        p_study.add_argument("--out", default=None)
        p_study.set_defaults(func=_run_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
