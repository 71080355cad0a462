"""Batch command line: ingest -> estimate -> irf -> forecast -> report.

Stages compose through on-disk artifacts in the configured output directory,
so each can be rerun independently; with a fixed seed every command is a
pure function of (config, input files) and reruns are byte-identical.
Each command imports only the modules it runs, so ``report`` and ``ingest``
start without the estimation code, and both without numpy.
``irf`` re-fits the structural blocks from ``panel.csv`` under its own weights,
so it needs only ``ingest`` to have run.
A command that succeeds ends with one ``<stage>: <seconds> s`` line of wall
time on stderr; timings never enter the output directory.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .config import RunConfig, load_config, read_mse_report, select_model
from .errors import NumericalError, ValidationError
from .serialize import write_json

if TYPE_CHECKING:
    from . import gvar, ingest

PANEL_FILE = "panel.csv"
VALIDATION_FILE = "validation.json"
COEFFICIENTS_FILE = "coefficients.json"
TRAJECTORY_FILE = "trajectories.csv"
TRAJECTORY_META_FILE = "trajectories_meta.json"
TRAIN_TRAJECTORY_FILE = "trajectories_train.csv"
TRAIN_TRAJECTORY_META_FILE = "trajectories_train_meta.json"
MSE_REPORT_FILE = "mse_report.csv"
FORECAST_PARAMS_FILE = "forecast_params.csv"
FORECAST_VARIABLES_FILE = "forecast_variables.csv"
STACKING_FILE = "stacking.json"  # not irf_*: report counts those per requested IRF


def _build_weights(config: RunConfig, panel: ingest.TimeSeriesPanel) -> gvar.WeightSequence:
    from . import gvar

    k, _, l = panel.dims
    t_len = len(panel.time_index)
    if config.weights.provider == "equal":
        return gvar.WeightSequence.equal(t_len, k, l)
    if config.weights.provider == "rolling-share":
        return gvar.WeightSequence.rolling_share(
            panel, config.weights.variable, config.weights.window)
    return gvar.WeightSequence.from_csv(
        config.weights.path, panel.time_index, panel.regions, panel.activities)


def _artifact(config: RunConfig, name: str, stage: str) -> Path:
    path = config.out_dir / name
    if not path.exists():
        raise ValidationError(f"{path}: not found (run '{stage}' first)")
    return path


def cmd_ingest(config: RunConfig) -> None:
    from . import ingest

    series = ingest.load_panel(config.data_path)
    panel = ingest.align_frequencies(
        series, method=config.imputation,
        regions=config.regions, variables=config.variables,
        activities=config.activities, transform=config.transform)
    report = ingest.validate_panel(panel)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_json(report.as_dict(), config.out_dir / VALIDATION_FILE)
    if not report.ok:
        raise ValidationError(
            f"panel validation failed, see {config.out_dir / VALIDATION_FILE}: "
            + "; ".join(report.issues[:5]))
    ingest.write_panel_csv(panel, config.out_dir / PANEL_FILE)
    print(f"panel: {len(panel.time_index)} months x {panel.width} columns "
          f"-> {config.out_dir / PANEL_FILE}")


def cmd_estimate(config: RunConfig) -> None:
    from . import gvar, ingest, tvp

    panel = ingest.read_panel_csv(_artifact(config, PANEL_FILE, "ingest"))
    weights = _build_weights(config, panel)
    fit = gvar.estimate_structural(panel, weights)
    gvar.write_coefficients_json(fit, panel, config.out_dir / COEFFICIENTS_FILE)
    result = tvp.estimate_all(panel, config.tvp)
    tvp.write_trajectories(result, panel, config.tvp,
                           config.out_dir / TRAJECTORY_FILE,
                           config.out_dir / TRAJECTORY_META_FILE)
    print(f"coefficients -> {config.out_dir / COEFFICIENTS_FILE}")
    print(f"trajectories -> {config.out_dir / TRAJECTORY_FILE}")
    if not result.ok:
        raise NumericalError(f"estimation failed for columns: {', '.join(result.errors)}")


def cmd_irf(config: RunConfig) -> None:
    # before the numpy import and the fit: a config without requests fails at once
    if not config.irf.dates:
        raise ValidationError("config lists no IRF dates")
    if not config.irf.shocks:
        raise ValidationError("config lists no IRF shocks")
    from . import ingest

    panel = ingest.read_panel_csv(_artifact(config, PANEL_FILE, "ingest"))
    # the dates and shock names need only the panel's header and months:
    # check them before the numpy import and the fit too
    requests = [(date, panel.date_index(date)) for date in config.irf.dates]
    if any(t == 0 for _, t in requests):
        raise ValidationError(
            f"IRF date {panel.time_index[0]} is the first panel month and has no "
            f"lagged month; the first usable month is {panel.time_index[1]}")
    shock_targets = [tuple(panel.column_index(name) for name in targets)
                     for targets in config.irf.shocks]
    from . import gvar, irf

    weights = _build_weights(config, panel)
    # re-fit rather than read coefficients.json: that file records no weights,
    # so a fit made under other weights would meet this run's links
    fit = gvar.estimate_structural(panel, weights)
    sample_size = len(panel.time_index) - 1
    names = panel.column_names()

    periods = []
    for label, t in requests:
        periods.append({"label": label, "period": t, "status": "ok", "reason": None})
        try:
            system = gvar.stack_system(fit, weights, t)
        except NumericalError as exc:
            # ill-conditioned stacking at this period: skip it, keep going
            print(f"warning: skipping {label}: {exc}", file=sys.stderr)
            periods[-1].update(status="skipped", reason=str(exc))
            continue
        inputs = irf.estimate_asymptotic_inputs(panel, system)
        shocks = [irf.ShockSpec(targets=targets, horizon=config.irf.horizon,
                                at_time=label, level=config.irf.level)
                  for targets in shock_targets]
        results = irf.asymptotic_bands(system, shocks, sample_size, inputs)
        for targets, result in zip(config.irf.shocks, results):
            stem = f"irf_{label}__{'+'.join(targets)}"
            irf.write_irf_json(result, names, config.out_dir / f"{stem}.json")
            irf.write_irf_csv(result, names, config.out_dir / f"{stem}.csv")
            print(f"irf {label} shock {'+'.join(targets)} "
                  f"stable={result.stable} -> {stem}.json")
    write_json({"periods": periods}, config.out_dir / STACKING_FILE)
    if all(p["status"] == "skipped" for p in periods):
        raise NumericalError(
            f"all requested periods were skipped: {[p['label'] for p in periods]}")


def cmd_forecast(config: RunConfig) -> None:
    from . import forecast as fc
    from . import ingest, tvp

    panel = ingest.read_panel_csv(_artifact(config, PANEL_FILE, "ingest"))
    h = next(iter(config.methods.values())).horizon
    t_len = len(panel.time_index)
    needs = {method: fc.min_training_months(fconf, panel.width)
             for method, fconf in config.methods.items()}
    method = max(needs, key=needs.get)
    if t_len - h < needs[method]:
        raise ValidationError(
            f"insufficient data: {t_len} months minus {h} held out leaves "
            f"{t_len - h} training months, and {method} needs at least {needs[method]}")
    # read the external path files first: a bad one fails before the sampler runs
    external = {method: tvp.read_trajectories(fconf.external_path)
                for method, fconf in config.methods.items() if fconf.kind == "external"}
    train = panel.slice_rows(0, t_len - h)
    actuals = panel.values[t_len - h:]

    tvp_result = tvp.estimate_all(train, config.tvp)
    tvp.write_trajectories(tvp_result, train, config.tvp,
                           config.out_dir / TRAIN_TRAJECTORY_FILE,
                           config.out_dir / TRAIN_TRAJECTORY_META_FILE)
    if not tvp_result.ok:
        raise NumericalError(
            f"trajectory estimation failed for columns: {', '.join(tvp_result.errors)}")

    results = {}
    for method, fconf in config.methods.items():
        results[method] = fc.two_stage_forecast(train, tvp_result, fconf, actuals=actuals,
                                                paths=external.get(method))
        failed: dict[str, list[str]] = {}
        for name, reason in results[method].errors.items():
            failed.setdefault(reason, []).append(name)
        for reason, columns in failed.items():
            print(f"warning: {method} failed for {', '.join(columns)}: {reason}",
                  file=sys.stderr)
    fc.write_param_paths(results, config.out_dir / FORECAST_PARAMS_FILE)
    fc.write_variable_paths(results, config.out_dir / FORECAST_VARIABLES_FILE,
                            actuals=actuals)
    fc.write_mse_report(results, config.out_dir / MSE_REPORT_FILE)
    aggregates = {method: r.pooled_mse for method, r in results.items()
                  if r.pooled_mse is not None}
    if not aggregates:
        raise NumericalError("no forecaster produced a scoreable path")
    best = select_model(aggregates)
    print(f"mse report -> {config.out_dir / MSE_REPORT_FILE}")
    print(f"selected model: {best}")


def cmd_report(config: RunConfig) -> None:
    table = read_mse_report(_artifact(config, MSE_REPORT_FILE, "forecast"))
    print("method,aggregate_mse")
    aggregates = {}
    for method, per_series in table.items():
        if "ALL" in per_series:
            aggregates[method] = per_series["ALL"]
            print(f"{method},{per_series['ALL']:.6g}")
    if aggregates:
        print(f"selected model: {select_model(aggregates)}")
    irf_files = sorted(p.name for p in config.out_dir.glob("irf_*.json"))
    print(f"irf artifacts: {len(irf_files)}")
    for name in irf_files:
        print(f"  {name}")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        config.tvp = config.tvp.replace(seed=args.seed)
    if args.out is not None:
        config.out_dir = Path(args.out).resolve()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvpgvar",
        description="Multi-country time-varying VAR: estimation, impulse "
                    "responses with error bands, and two-stage forecasting.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run config JSON")
    common.add_argument("--seed", type=int, default=None, help="override tvp.seed")
    common.add_argument("--out", default=None, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="align raw series into the monthly panel")
    sub.add_parser("estimate", parents=[common], help="structural blocks + coefficient paths")
    sub.add_parser("irf", parents=[common], help="impulse responses with error bands")
    sub.add_parser("forecast", parents=[common], help="two-stage forecasts and MSE report")
    sub.add_parser("report", parents=[common], help="summarize artifacts in the output dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        config = _apply_overrides(load_config(args.config), args)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "ingest":
            cmd_ingest(config)
        elif args.command == "estimate":
            cmd_estimate(config)
        elif args.command == "irf":
            cmd_irf(config)
        elif args.command == "forecast":
            cmd_forecast(config)
        elif args.command == "report":
            cmd_report(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
