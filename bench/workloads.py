"""Seeded benchmark inputs, written through the program's public file formats.

Each workload is a directory holding a long-format ``date,region,variable,value``
CSV and a run config (``config.json``); the program sees only these files, and
the same seed always gives the same bytes.

Sampler iterations and the lasso grid are scaled down from the sizes a desk
run would use, so that three timed pipelines fit in one benchmark run on a
2-core machine; the panel shapes, weight providers and stage lists are the
ones each workload is meant to stress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMON_REGION = "__COMMON__"
STAGES = ("ingest", "estimate", "irf", "forecast", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("sample", "the bundled 10-column x 250-month sample, equal weights, fixed "
                 "seed: the sampler and the lasso CV dominate, the bands at width 10 are cheap"),
        Workload("wide", "31 columns x 250 months with rolling-share weights: "
                 "the Kronecker-form IRF bands dominate, lasso never runs"),
    )
}


def _month_label(index: int) -> str:
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _ar1(rng: np.random.Generator, n: int, rho: float, scale: float) -> np.ndarray:
    out = np.empty(n)
    out[0] = rng.normal(0.0, scale / np.sqrt(1 - rho * rho))
    shocks = rng.normal(0.0, scale, n - 1)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + shocks[t - 1]
    return out


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _sample(run_dir: Path) -> Path:
    """The bundled sample as ``python -m tvpgvar.sample DIR`` writes it, its
    sampler seed included, so every benchmark seed gives the same inputs;
    only the sampler iterations (500) and the lasso grid (5 folds x 50
    penalties) are scaled."""
    from tvpgvar.sample import write_sample_config

    config_path = write_sample_config(run_dir)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["tvp"]["iters"] = 50
    config["forecast"].update(cv_folds=2, grid_size=25)
    _write_json(config, config_path)
    return config_path


def _wide(run_dir: Path, seed: int) -> Path:
    """10 regions x (CPI, HUR monthly; GDP at the first month of each
    quarter) plus OIL over 2000-01..2020-12: a shared cycle plus per-series
    persistence and noise. HUR levels stay positive, so its rolling shares
    are valid weights."""
    rng = np.random.default_rng(seed)
    regions = [f"R{i:02d}" for i in range(10)]
    start, n_months = 2000 * 12, 252
    cycle = _ar1(rng, n_months, 0.92, 0.25)
    oil = 5.0 + 1.6 * cycle + _ar1(rng, n_months, 0.9, 0.35)
    lines = ["date,region,variable,value"]
    for region in regions:
        load = rng.uniform(0.4, 0.9)
        paths = {
            "CPI": rng.uniform(0.5, 3.0) + 0.45 * load * cycle + 0.08 * (oil - 5.0)
            + _ar1(rng, n_months, 0.8, 0.18),
            "HUR": rng.uniform(4.0, 9.0) - 0.9 * load * cycle + _ar1(rng, n_months, 0.9, 0.16),
            "GDP": rng.uniform(1.0, 2.5) + 1.1 * load * cycle + _ar1(rng, n_months, 0.7, 0.4),
        }
        for variable, step in (("CPI", 1), ("HUR", 1), ("GDP", 3)):
            for t in range(0, n_months, step):
                lines.append(f"{_month_label(start + t)},{region},{variable},"
                             f"{float(paths[variable][t])!r}")
    for t in range(n_months):
        lines.append(f"{_month_label(start + t)},{COMMON_REGION},OIL,{float(oil[t])!r}")
    (run_dir / "panel_input.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = {
        "schema_version": 1,
        "data": {"path": "panel_input.csv", "imputation": "linear-interpolate"},
        "panel": {"regions": regions, "variables": ["CPI", "HUR", "GDP"],
                  "activities": ["OIL"]},
        "weights": {"provider": "rolling-share", "variable": "HUR", "window": 24},
        "tvp": {"iters": 20, "seed": seed},
        # one date: the bands at width 31 cost about a second per shock
        "irf": {"horizon": 6, "level": 0.95, "dates": ["2015-06"],
                "shocks": [["OIL"], ["R00.GDP"], ["OIL", "R00.GDP"]]},
        # every stage runs, so every end-to-end metric exists; no lasso
        "forecast": {"horizon": 6, "methods": ["constant", "var1"], "lag_window": 6},
        "output": {"dir": "out"},
    }
    config_path = run_dir / "config.json"
    _write_json(config, config_path)
    return config_path


def write_inputs(name: str, seed: int, run_dir: Path) -> Path:
    """Write the inputs of workload ``name`` for ``seed`` into ``run_dir``;
    returns the config path."""
    run_dir.mkdir(parents=True, exist_ok=True)
    return _sample(run_dir) if name == "sample" else _wide(run_dir, seed)
