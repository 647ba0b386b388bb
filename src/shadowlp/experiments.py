"""Experiment drivers behind the CLI: instance families, per-trial records,
CSV/JSON/SVG writers, and the three canned studies (pivot-count scaling over
a sigma grid, the segment-vs-cone Monte Carlo, and the near-ball diameter
chain).

A study's CSV columns are a few header cells and then its record's cells,
copied by name: `SolveStats` and `PathReport` for scaling, `ConeTrial` for
cone, `DiameterRecord` for lowerbound.  Rows are dicts in column order.

Records are deterministic: every trial owns stream `stream_base + index`,
rows are emitted in trial order regardless of worker count, and wall-clock
timing lives in an optional column that is off by default so identical
configs diff byte-for-byte.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import asdict, fields
from typing import Any

import numpy as np

from .analysis import (
    PathReport,
    classify_path,
    good_multiplier_threshold,
    relative_gap_threshold,
    segment_cone_trial,
)
from .errors import ConfigError, ShadowLpError
from .lower_bound import (DiameterRecord, default_row_count, dense_set_with_retry,
                          diameter_experiment)
from .rng import RngStream, gaussian_vector, smoothed_instance, uniform_sphere
from .solver import Optimal, SolveStats, solve

SCHEMA_VERSION = 1

_REQUIRED = object()


# ---------------------------------------------------------------------------
# Config files: flat key=value, unknown keys rejected


def _coerce(key: str, raw: str, kind):
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is list:
            value = [float(part) for part in raw.split(",") if part.strip()]
        else:
            value = kind(raw.strip())
        if kind in (float, list) and not np.isfinite(value).all():
            raise ValueError(f"must be finite, got {raw.strip()!r}")
        return value
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def parse_config(text: str, schema: dict[str, tuple]) -> dict[str, Any]:
    """Parse `key = value` lines against a {key: (type, default)} schema.

    Unknown keys are errors; missing keys without defaults are errors.
    Blank lines and '#' comments are ignored.
    """
    values: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw, schema[key][0])
    for key, (kind, default) in schema.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    return values


SCALING_SCHEMA = {
    "experiment": (str, "shadow_scaling"),
    "d": (int, _REQUIRED),
    "n": (int, _REQUIRED),
    "sigma_grid": (list, _REQUIRED),
    "trials": (int, _REQUIRED),
    "seed": (int, 0),
    "stream_base": (int, 0),
    "family": (str, "product"),
    "rho": (float, 0.5),
    "record_wall_time": (bool, False),
    "svg": (bool, True),
}

CONE_SCHEMA = {
    "experiment": (str, "cone"),
    "d": (int, _REQUIRED),
    "configs": (int, 20),
    "trials": (int, 100_000),
    "seed": (int, 0),
    "stream_base": (int, 0),
}

LOWERBOUND_SCHEMA = {
    "experiment": (str, "lowerbound"),
    "d": (int, _REQUIRED),
    "sigma": (float, _REQUIRED),
    "runs": (int, 5),
    "seed": (int, 0),
    "stream_base": (int, 0),
    "eta": (float, 0.0),        # 0 means: use sigma
    "n": (int, 0),              # 0 means: floor((4/sigma)^d) when pad, else packing size
    "pad": (bool, True),
}
# the most rows a lowerbound study builds; criterion 7 builds 4096
LOWERBOUND_MAX_ROWS = 10**7


def validate_scaling_config(cfg: dict[str, Any]) -> None:
    if cfg["experiment"] != "shadow_scaling":
        raise ConfigError(f"experiment must be shadow_scaling, got {cfg['experiment']!r}")
    for key in ("d", "trials"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["n"] < 2:
        raise ConfigError("n must be at least 2; the relative-gap threshold divides by log n")
    d = cfg["d"]
    if d < 3 or cfg["n"] < d:
        raise ConfigError(f"need d >= 3 and n >= d, got d = {d}, n = {cfg['n']}: the "
                          "solver's artificial start needs d >= 3, and n < d rows have no vertex")
    grid = cfg["sigma_grid"]
    if not grid or any(s <= 0 for s in grid):
        raise ConfigError("sigma_grid must contain positive values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sigma_grid must be strictly increasing")
    if cfg["family"] not in ("product", "ball"):
        raise ConfigError(f"unknown family {cfg['family']!r}")
    need = 3 * (d // 2) + 2 * (d % 2)  # a triangle per coordinate pair, a slab for odd d
    if cfg["family"] == "product" and cfg["n"] < need:
        raise ConfigError(f"the product family needs d >= 2 and n >= {need} at d = {d}")


# ---------------------------------------------------------------------------
# Instance families


def polygon_product_rows(d: int, n: int) -> np.ndarray:
    """Unit rows of a product of regular polygons across coordinate pairs.

    The unperturbed polytope is a product of polygons, whose shadows stay
    vertex-rich as the noise shrinks; an odd leftover coordinate receives a
    +-e_d slab.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    pairs = d // 2
    leftover = d % 2
    budget = n - 2 * leftover
    if budget < 3 * pairs:
        raise ValueError(f"n={n} too small for {pairs} polygons")
    per = budget // pairs
    extra = budget - per * pairs
    rows = []
    for p in range(pairs):
        m = per + (1 if p < extra else 0)
        # fixed angular offset so no row aligns with a coordinate axis
        angles = 2.0 * math.pi * (np.arange(m) + 0.35) / m
        for t in angles:
            r = np.zeros(d)
            r[2 * p] = math.cos(t)
            r[2 * p + 1] = math.sin(t)
            rows.append(r)
    if leftover:
        for sign in (1.0, -1.0):
            r = np.zeros(d)
            r[d - 1] = sign
            rows.append(r)
    return np.array(rows)


def scaling_instance(gen, d: int, n: int, sigma: float, family: str):
    """One smoothed instance of the scaling family; rows scaled so the
    combined (abar, bbar) rows have norm exactly 1."""
    if family == "product":
        dirs = polygon_product_rows(d, n)
    else:
        dirs = uniform_sphere(gen, d, n)
    abar = dirs / math.sqrt(2.0)
    bbar = np.full(n, 1.0 / math.sqrt(2.0))
    c = uniform_sphere(gen, d)
    return smoothed_instance(gen, abar, bbar, c, sigma)


# ---------------------------------------------------------------------------
# Scaling study


SCALING_COLUMNS = [
    "schema_version", "experiment", "trial", "sigma_index", "sigma", "seed",
    "stream", "d", "n", "family", "outcome", "error", "restarts",
    "pivots_phase1", "pivots_phase2", "pivots_phase3", "pivots_total",
    "objective_value", "m_threshold", "g_threshold", "rho",
    "good_multiplier_frac", "relative_gap_frac", "triple_count", "far_count",
    "min_proj_norm", "max_proj_norm",
]

LOWERBOUND_COLUMNS = [
    "schema_version", "experiment", "run", "seed", "stream",
    *(f.name for f in fields(DiameterRecord)),
]
# the scaling columns named after a SolveStats counter or a PathReport property
_STATS_CELLS = [c for c in SCALING_COLUMNS if hasattr(SolveStats, c)]
_REPORT_CELLS = [c for c in SCALING_COLUMNS if hasattr(PathReport, c)]


def _error_cells(exc: ShadowLpError) -> dict[str, str]:
    return {"outcome": "error", "error": f"{type(exc).__name__}: {exc}"}


def _summary(name: str, cfg: dict[str, Any], **results) -> dict[str, Any]:
    return {
        "experiment": name,
        "schema_version": SCHEMA_VERSION,
        "config": {k: cfg[k] for k in sorted(cfg)},
        **results,
    }


def run_scaling_trial(params: tuple) -> dict[str, Any]:
    """One seeded trial; top-level so worker pools can pickle it."""
    trial, sigma_index, sigma, seed, stream, d, n, family, rho, record_wall = params
    import time

    row = dict.fromkeys(SCALING_COLUMNS, "")
    row.update(
        schema_version=SCHEMA_VERSION, experiment="shadow_scaling", trial=trial,
        sigma_index=sigma_index, sigma=sigma, seed=seed, stream=stream, d=d, n=n,
        family=family, m_threshold=good_multiplier_threshold(d),
        g_threshold=relative_gap_threshold(sigma, d, n), rho=rho,
    )
    row.update(dict.fromkeys(_STATS_CELLS, 0))
    started = time.perf_counter()
    try:
        gen = RngStream(seed, stream).generator()
        si = scaling_instance(gen, d, n, sigma, family)
        outcome, stats, path = solve(gen, si)
        row["outcome"] = outcome.kind
        row.update((name, getattr(stats, name)) for name in _STATS_CELLS)
        if isinstance(outcome, Optimal):
            row["objective_value"] = float(si.c @ outcome.x)
        if path is not None:
            rep = classify_path(path, si, g=row["g_threshold"], rho=rho)
            row.update((name, getattr(rep, name)) for name in _REPORT_CELLS)
    except ShadowLpError as exc:
        row.update(_error_cells(exc))
    if record_wall:
        row["wall_time_s"] = time.perf_counter() - started
    return row


def shadow_scaling_run(cfg: dict[str, Any], jobs: int = 1):
    """Run the sigma-grid study on at most `jobs` worker processes, one per
    chunk of ceil(trials / min(jobs, trials)) trials; returns (rows, summary)."""
    validate_scaling_config(cfg)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    grid = cfg["sigma_grid"]
    params = []
    index = 0
    for sigma_index, sigma in enumerate(grid):
        for trial in range(cfg["trials"]):
            params.append((
                trial, sigma_index, sigma, cfg["seed"],
                cfg["stream_base"] + index, cfg["d"], cfg["n"], cfg["family"],
                cfg["rho"], cfg["record_wall_time"],
            ))
            index += 1
    workers = min(jobs, len(params))
    if workers > 1:
        # about one chunk per worker: a larger chunk leaves a worker idle, and
        # so would a worker past the last chunk
        chunk = math.ceil(len(params) / workers)
        with multiprocessing.Pool(math.ceil(len(params) / chunk)) as pool:
            rows = pool.map(run_scaling_trial, params, chunksize=chunk)
    else:
        rows = [run_scaling_trial(p) for p in params]

    per_sigma = []
    means = []
    for sigma_index, sigma in enumerate(grid):
        chunk = [r for r in rows if r["sigma_index"] == sigma_index and not r["error"]]
        totals = np.array([r["pivots_total"] for r in chunk], dtype=float)
        mean = float(totals.mean()) if len(totals) else float("nan")
        means.append(mean)
        per_sigma.append({
            "sigma": sigma,
            "trials_ok": len(chunk),
            "mean_pivots": mean,
            "median_pivots": float(np.median(totals)) if len(totals) else float("nan"),
            "mean_phase1": float(np.mean([r["pivots_phase1"] for r in chunk])) if chunk else float("nan"),
            "mean_phase2": float(np.mean([r["pivots_phase2"] for r in chunk])) if chunk else float("nan"),
            "mean_phase3": float(np.mean([r["pivots_phase3"] for r in chunk])) if chunk else float("nan"),
        })
    slope, intercept = (float("nan"), float("nan"))
    if len(grid) >= 2 and all(math.isfinite(m) and m > 0 for m in means):
        coef = np.polyfit(np.log(np.array(grid)), np.log(np.array(means)), 1)
        slope, intercept = float(coef[0]), float(coef[1])
    summary = _summary(
        "shadow_scaling", cfg,
        per_sigma=per_sigma,
        loglog_slope=slope,
        loglog_intercept=intercept,
        nonincreasing=all(
            means[i + 1] <= means[i] for i in range(len(means) - 1)
        ) if all(math.isfinite(m) for m in means) else False,
    )
    return rows, summary


# ---------------------------------------------------------------------------
# Segment-vs-cone Monte Carlo study


def cone_run(cfg: dict[str, Any]):
    d = cfg["d"]
    if d <= 0 or cfg["configs"] <= 0 or cfg["trials"] < 2:
        raise ConfigError("d and configs must be positive, and trials at least 2 "
                          "(the standard error needs two draws)")
    m = good_multiplier_threshold(d)
    rows = []
    for k in range(cfg["configs"]):
        stream = cfg["stream_base"] + k
        gen = RngStream(cfg["seed"], stream).generator()
        B = gen.standard_normal((d, d))
        col_norms = np.linalg.norm(B, axis=0)
        B = B / np.maximum(col_norms / 2.0, 1.0)[None, :]  # clip columns to norm 2
        c = gaussian_vector(gen, np.zeros(d), 1.0)
        c2 = gaussian_vector(gen, np.zeros(d), 1.0)
        res = segment_cone_trial(gen, B, c, c2, m, cfg["trials"])
        rows.append({
            "schema_version": SCHEMA_VERSION, "experiment": "cone",
            "config_id": k, "seed": cfg["seed"], "stream": stream, "d": d,
            **asdict(res), "satisfied": res.satisfied,
        })
    summary = _summary(
        "cone", cfg,
        all_satisfied=all(r["satisfied"] for r in rows),
        min_margin=min(
            r["pm"] - (0.99 * r["p0"] - 3.0 * r["stderr_diff"]) for r in rows
        ),
    )
    return rows, summary


# ---------------------------------------------------------------------------
# Lower-bound study


def lowerbound_run(cfg: dict[str, Any]):
    """Run the diameter study on one shared packing; returns (rows, summary)."""
    if cfg["d"] < 3 or cfg["sigma"] < 0 or cfg["runs"] <= 0 or cfg["n"] < 0:
        raise ConfigError("need d >= 3, sigma >= 0, runs > 0, n >= 0")
    n = cfg["n"]
    if n == 0 and cfg["pad"] and cfg["sigma"] > 0:  # floor((4/sigma)^d)
        try:
            n = default_row_count(cfg["sigma"], cfg["d"])
        except OverflowError:  # the power is past the largest float
            n = math.inf
    if n > LOWERBOUND_MAX_ROWS:
        raise ConfigError(f"{n} rows exceed the row bound {LOWERBOUND_MAX_ROWS} "
                          "(n = 0 with pad takes floor((4/sigma)^d))")
    eta = cfg["eta"] if cfg["eta"] > 0 else cfg["sigma"]
    if not 0.0 < eta <= 2.0:
        raise ConfigError(f"eta must be in (0, 2], got {eta} (eta = 0 takes sigma)")
    dense = None
    rows = []
    for k in range(cfg["runs"]):
        stream = cfg["stream_base"] + k
        row = {
            "schema_version": SCHEMA_VERSION, "experiment": "lowerbound",
            "run": k, "seed": cfg["seed"], "stream": stream,
        }
        try:
            if dense is None:
                dense = dense_set_with_retry(eta, cfg["d"])
            rec = diameter_experiment(RngStream(cfg["seed"], stream), dense,
                                      cfg["sigma"], n=n or len(dense))
            row.update(asdict(rec))
        except ShadowLpError as exc:
            row.update(dict.fromkeys(LOWERBOUND_COLUMNS[len(row):], ""),
                       d=cfg["d"], sigma=cfg["sigma"], eta=eta, **_error_cells(exc))
        rows.append(row)
    ok_rows = [r for r in rows if r["outcome"] == "optimal"]
    summary = _summary(
        "lowerbound", cfg,
        runs_ok=len(ok_rows),
        bound_holds_all=all(r["bound_holds"] for r in ok_rows) if ok_rows else False,
        max_bfs_hops=max((r["bfs_hops"] for r in ok_rows), default=None),
    )
    return rows, summary


# ---------------------------------------------------------------------------
# Output writers


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def rows_to_csv(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    schema = set(columns)
    for row in rows:
        if row.keys() != schema:
            raise ValueError(f"row columns differ from the schema: {sorted(row.keys() ^ schema)}")
        lines.append(",".join(_fmt(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    """Strict JSON: an undefined value (a NaN slope, say) is written as null."""
    # floats survive the round trip bit for bit; NaN and inf come back as None
    plain = json.loads(json.dumps(summary), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_loglog_svg(path, xs, ys, slope: float, intercept: float, title: str) -> None:
    """Minimal log-log scatter with the fitted power law; no plotting deps."""
    w, h, pad = 640, 440, 60
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x0, x1 = x0 - 0.08 * (x1 - x0 + 1e-9), x1 + 0.08 * (x1 - x0 + 1e-9)
    y0, y1 = y0 - 0.15 * (y1 - y0 + 1e-9), y1 + 0.15 * (y1 - y0 + 1e-9)

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)

    def sy(v):
        return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>',
        f'<text x="{w/2:.1f}" y="{h-16}" text-anchor="middle" font-size="12">log10 sigma</text>',
        f'<text x="18" y="{h/2:.1f}" font-size="12" transform="rotate(-90 18 {h/2:.1f})" text-anchor="middle">log10 mean pivots</text>',
    ]
    if math.isfinite(slope):
        fx0, fx1 = min(lx), max(lx)
        ln10 = math.log(10.0)
        fy0 = (slope * fx0 * ln10 + intercept) / ln10
        fy1 = (slope * fx1 * ln10 + intercept) / ln10
        parts.append(
            f'<line x1="{sx(fx0):.2f}" y1="{sy(fy0):.2f}" x2="{sx(fx1):.2f}" '
            f'y2="{sy(fy1):.2f}" stroke="steelblue" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{w-pad}" y="{pad}" text-anchor="end" font-size="12">slope {slope:.3f}</text>'
        )
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{sx(vx):.2f}" cy="{sy(vy):.2f}" r="4" fill="crimson"/>')
    for vx, label in zip(lx, xs):
        parts.append(
            f'<text x="{sx(vx):.2f}" y="{h-pad+16}" text-anchor="middle" font-size="10">{label:g}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
