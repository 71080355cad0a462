"""Deterministic sample data: 3 regions x 3 variables + 1 activity.

Monthly price and unemployment indicators plus quarterly output for three
stylized regions over 2000-01..2020-12 (252 months, 84 quarters), with a
common oil-price series. Values are synthetic but econ-shaped: a shared
cyclical factor plus per-series persistence and noise, all derived from one
fixed seed so the file regenerates byte-identically.

Run ``python -m tvpgvar.sample RUNDIR`` to drop a fresh copy of the CSV and
a ready-to-use run config into RUNDIR.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .ingest import COMMON_REGION, month_label
from .serialize import write_csv, write_json

SAMPLE_SEED = 20000131
N_MONTHS = 252
START_MONTH = 2000 * 12  # 2000-01
REGIONS = ("USA", "EUR", "JPN")
MONTHLY_VARIABLES = ("CPI", "HUR")
QUARTERLY_VARIABLE = "GDP"
ACTIVITY = "OIL"

IRF_DATES = ("2020-07", "2011-04", "2007-12")


def _ar1(rng: np.random.Generator, n: int, rho: float, scale: float) -> np.ndarray:
    out = np.empty(n)
    out[0] = rng.normal(0.0, scale / np.sqrt(1 - rho * rho))
    shocks = rng.normal(0.0, scale, n - 1)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + shocks[t - 1]
    return out


def generate_series() -> dict[tuple[str, str], np.ndarray]:
    """Monthly latent paths for every (region, variable) plus the activity."""
    rng = np.random.default_rng(SAMPLE_SEED)
    cycle = _ar1(rng, N_MONTHS, 0.92, 0.25)
    oil = 5.0 + 1.6 * cycle + _ar1(rng, N_MONTHS, 0.9, 0.35)

    series: dict[tuple[str, str], np.ndarray] = {}
    bases = {"USA": (2.2, 5.5, 2.4), "EUR": (1.8, 8.0, 1.6), "JPN": (0.6, 4.2, 1.0)}
    for region in REGIONS:
        cpi_base, hur_base, gdp_base = bases[region]
        load = rng.uniform(0.4, 0.9)
        series[(region, "CPI")] = (cpi_base + 0.45 * load * cycle
                                   + 0.08 * (oil - 5.0) + _ar1(rng, N_MONTHS, 0.8, 0.18))
        series[(region, "HUR")] = (hur_base - 0.9 * load * cycle
                                   + _ar1(rng, N_MONTHS, 0.9, 0.16))
        series[(region, QUARTERLY_VARIABLE)] = (gdp_base + 1.1 * load * cycle
                                                + _ar1(rng, N_MONTHS, 0.7, 0.4))
    series[(COMMON_REGION, ACTIVITY)] = oil
    return series


def write_sample_csv(path: str | Path) -> Path:
    """Write the long-format fixture CSV; quarterly output keeps only the
    first month of each quarter."""
    path = Path(path)
    series = generate_series()
    keys = [(region, variable) for region in REGIONS
            for variable in MONTHLY_VARIABLES + (QUARTERLY_VARIABLE,)]
    keys.append((COMMON_REGION, ACTIVITY))
    rows = ((month_label(START_MONTH + t), region, variable, series[(region, variable)][t])
            for region, variable in keys
            for t in range(0, N_MONTHS, 3 if variable == QUARTERLY_VARIABLE else 1))
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, ["date", "region", "variable", "value"], rows)
    return path


def sample_config_dict(data_path: str | Path, out_dir: str = "out",
                       iters: int = 500, seed: int = 7) -> dict:
    return {
        "schema_version": 1,
        "data": {"path": str(data_path), "imputation": "linear-interpolate"},
        "panel": {
            "regions": list(REGIONS),
            "variables": list(MONTHLY_VARIABLES + (QUARTERLY_VARIABLE,)),
            "activities": [ACTIVITY],
        },
        "weights": {"provider": "equal"},
        "tvp": {"iters": iters, "seed": seed},
        "irf": {
            "horizon": 6,
            "level": 0.95,
            "dates": list(IRF_DATES),
            "shocks": [[ACTIVITY], ["USA.GDP"], [ACTIVITY, "USA.GDP"]],
        },
        "forecast": {
            "horizon": 6,
            "methods": ["constant", "var1", "lasso"],
            "lag_window": 6,
            "cv_folds": 5,
        },
        "output": {"dir": out_dir},
    }


def write_sample_config(run_dir: str | Path, data_path: str | Path | None = None,
                        **overrides) -> Path:
    """Write config.json (and the CSV if no data path is given) into run_dir."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if data_path is None:
        data_path = run_dir / "sample_panel.csv"
        write_sample_csv(data_path)
    config = sample_config_dict(Path(data_path).resolve(), **overrides)
    config_path = run_dir / "config.json"
    write_json(config, config_path)
    return config_path


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    run_dir = Path(argv[0]) if argv else Path("run")
    config_path = write_sample_config(run_dir)
    print(f"sample inputs written; next: tvpgvar ingest --config {config_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
