"""Output checks for one pipeline run: every problem found is attributed to
the stage that produced the artifact, so each failed check fails one stage
operation.

The checks hold for any correct program, not for today's numbers: artifacts
parse with the package's ``read_*`` loaders, every value is finite, bands
contain their point, a combined shock is the sum of its single shocks, the
MSE report has an ``ALL`` row per method, and two runs with the same seed
leave byte-identical output directories.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

TRACEBACK = "Traceback (most recent call last)"

# artifact file name -> stage that writes it
_PRODUCERS = {
    "validation.json": "ingest",
    "panel.csv": "ingest",
    "coefficients.json": "estimate",
    "trajectories.csv": "estimate",
    "trajectories_meta.json": "estimate",
    "trajectories_train.csv": "forecast",
    "mse_report.csv": "forecast",
    "forecast_params.csv": "forecast",
    "forecast_variables.csv": "forecast",
}


def producer(file_name: str) -> str:
    if file_name.startswith("irf_"):
        return "irf"
    return _PRODUCERS.get(file_name, "report")


def process_problems(returncode: int, output: str) -> list[str]:
    """A stage fails when it exits non-zero or prints a Python traceback."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if TRACEBACK in output:
        problems.append("printed a Python traceback")
    return problems


def _finite(name: str, *arrays) -> list[str]:
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, float))):
            return [f"{name}: non-finite value"]
    return []


def _json_finite(name: str, obj) -> list[str]:
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            return [f"{name}: non-finite value"]
    return []


def _csv_floats(path: Path, columns: list[str]) -> np.ndarray:
    from tvpgvar.serialize import read_csv_rows

    header, rows = read_csv_rows(path)
    idx = [header.index(c) for c in columns]
    return np.array([[float(row[i]) for i in idx] for row in rows], float)


def irf_stems(config: dict) -> list[tuple[str, list[str]]]:
    """(file stem, shock targets) for every IRF the config asks for."""
    return [(f"irf_{date}__{'+'.join(targets)}", targets)
            for date in config["irf"]["dates"] for targets in config["irf"]["shocks"]]


def _check_ingest(out: Path, config: dict) -> list[str]:
    from tvpgvar.ingest import read_panel_csv
    from tvpgvar.serialize import read_json

    report = read_json(out / "validation.json")
    panel = read_panel_csv(out / "panel.csv")
    problems = _finite("panel.csv", panel.values)
    if report.get("ok") is not True:
        problems.append("validation.json: panel not ok")
    return problems


def _check_estimate(out: Path, config: dict) -> list[str]:
    from tvpgvar.gvar import read_coefficients_json
    from tvpgvar.serialize import read_json
    from tvpgvar.tvp import read_trajectories

    fit = read_coefficients_json(out / "coefficients.json")
    problems = _json_finite("coefficients.json", read_json(out / "coefficients.json"))
    paths = read_trajectories(out / "trajectories.csv")
    problems += _finite("trajectories.csv", *[v for _, v in paths.values()])
    meta = read_json(out / "trajectories_meta.json")
    problems += _json_finite("trajectories_meta.json", meta)
    if meta.get("errors"):
        problems.append(f"trajectories_meta.json: failed columns {sorted(meta['errors'])}")
    if set(paths) != set(fit.columns):
        problems.append("trajectories.csv: columns differ from coefficients.json")
    return problems


def _check_irf(out: Path, config: dict) -> list[str]:
    from tvpgvar.irf import read_irf_csv, read_irf_json

    problems = []
    points = {}
    for stem, targets in irf_stems(config):
        result, columns = read_irf_json(out / f"{stem}.json")
        table = read_irf_csv(out / f"{stem}.csv")
        problems += _finite(f"{stem}.json", result.point, result.half_width)
        if np.any(result.lower > result.point) or np.any(result.point > result.upper):
            problems.append(f"{stem}.json: band does not contain the point response")
        for name in columns:
            pt, lo, hi = table[name].T
            problems += _finite(f"{stem}.csv", pt, lo, hi)
            if np.any(lo > pt) or np.any(pt > hi):
                problems.append(f"{stem}.csv: band does not contain the point response")
        points[stem] = result.point
    for stem, targets in irf_stems(config):
        singles = [stem.split("__")[0] + f"__{t}" for t in targets]
        if len(targets) > 1 and all(s in points for s in singles):
            total = sum(points[s] for s in singles)
            scale = max(1.0, float(np.max(np.abs(total))))
            if np.max(np.abs(points[stem] - total)) > 1e-9 * scale:
                problems.append(f"{stem}: combined shock differs from the sum of its singles")
    return problems


def _check_forecast(out: Path, config: dict) -> list[str]:
    from tvpgvar.forecast import read_mse_report, read_variable_paths
    from tvpgvar.tvp import read_trajectories

    problems = []
    report = read_mse_report(out / "mse_report.csv")
    for method in config["forecast"]["methods"]:
        if "ALL" not in report.get(method, {}):
            problems.append(f"mse_report.csv: no ALL row for {method}")
    problems += _finite("mse_report.csv", [v for row in report.values() for v in row.values()])
    variables = read_variable_paths(out / "forecast_variables.csv")
    problems += _finite("forecast_variables.csv",
                        [p for a, p in variables.values()],
                        [a for a, p in variables.values() if a is not None])
    problems += _finite("forecast_params.csv",
                        _csv_floats(out / "forecast_params.csv", ["b", "f1"]))
    train = read_trajectories(out / "trajectories_train.csv")
    problems += _finite("trajectories_train.csv", *[v for _, v in train.values()])
    return problems


def _check_report(out: Path, config: dict, stdout: str) -> list[str]:
    problems = []
    if "selected model:" not in stdout:
        problems.append("report: no selected model")
    match = re.search(r"irf artifacts: (\d+)", stdout)
    if match is None or int(match.group(1)) != len(irf_stems(config)):
        problems.append("report: wrong IRF artifact count")
    return problems


_CHECKS = {"ingest": _check_ingest, "estimate": _check_estimate,
           "irf": _check_irf, "forecast": _check_forecast}


def check_stage(stage: str, out: Path, config_path: Path, stdout: str = "") -> list[str]:
    """Problems with the artifacts ``stage`` left in ``out``."""
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    try:
        if stage == "report":
            return _check_report(out, config, stdout)
        return _CHECKS[stage](out, config)
    except Exception as exc:  # an unreadable artifact is a failed check, not a crash
        return [f"{stage} artifacts do not load: {type(exc).__name__}: {exc}"]


def compare_dirs(a: Path, b: Path) -> dict[str, list[str]]:
    """Stage -> files that differ (or exist on one side only) between two
    output directories."""
    def names(d: Path) -> set[str]:
        return {p.name for p in d.iterdir() if p.is_file()} if d.is_dir() else set()

    names_a, names_b = names(a), names(b)
    diffs: dict[str, list[str]] = {}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b \
                or (a / name).read_bytes() != (b / name).read_bytes():
            diffs.setdefault(producer(name), []).append(name)
    return diffs
