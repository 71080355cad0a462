"""Batch command line: ingest -> estimate -> irf -> forecast -> report.

Stages compose through on-disk artifacts in the configured output directory,
so each can be rerun independently; with a fixed seed every command is a
pure function of (config, input files) and reruns are byte-identical.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import forecast as fc
from . import gvar, ingest, irf, tvp
from .config import RunConfig, load_config
from .errors import NumericalError, ValidationError
from .serialize import write_json

PANEL_FILE = "panel.csv"
VALIDATION_FILE = "validation.json"
COEFFICIENTS_FILE = "coefficients.json"
TRAJECTORY_FILE = "trajectories.csv"
TRAJECTORY_META_FILE = "trajectories_meta.json"
TRAIN_TRAJECTORY_FILE = "trajectories_train.csv"
MSE_REPORT_FILE = "mse_report.csv"
FORECAST_PARAMS_FILE = "forecast_params.csv"
FORECAST_VARIABLES_FILE = "forecast_variables.csv"


def _build_weights(config: RunConfig, panel: ingest.TimeSeriesPanel) -> gvar.WeightSequence:
    k, _, l = panel.dims
    t_len = len(panel.time_index)
    if config.time_invariant or config.weights.provider == "equal":
        return gvar.WeightSequence.equal(t_len, k, l)
    if config.weights.provider == "rolling-share":
        return gvar.WeightSequence.rolling_share(
            panel, config.weights.variable, config.weights.window)
    return gvar.WeightSequence.from_csv(
        config.weights.path, panel.time_index, panel.regions, panel.activities)


def _load_panel_artifact(config: RunConfig) -> ingest.TimeSeriesPanel:
    path = config.out_dir / PANEL_FILE
    if not path.exists():
        raise ValidationError(f"panel artifact not found: {path} (run 'ingest' first)")
    return ingest.read_panel_csv(path)


def cmd_ingest(config: RunConfig) -> None:
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
    panel = _load_panel_artifact(config)
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
        names = panel.column_names()
        failed = ", ".join(names[i] for i in sorted(result.errors))
        raise NumericalError(f"estimation failed for columns: {failed}")


def cmd_irf(config: RunConfig) -> None:
    panel = _load_panel_artifact(config)
    fit = gvar.read_coefficients_json(config.out_dir / COEFFICIENTS_FILE)
    if fit.columns != tuple(panel.column_names()):
        raise ValidationError("coefficient file does not match panel columns")
    weights = _build_weights(config, panel)
    sample_size = len(panel.time_index) - 1
    names = panel.column_names()

    if config.time_invariant:
        requests = [(irf.TIME_INVARIANT, 0)]
    else:
        if not config.irf.dates:
            raise ValidationError("config lists no IRF dates (or use --time-invariant)")
        requests = [(date, panel.date_index(date)) for date in config.irf.dates]
    if not config.irf.shocks:
        raise ValidationError("config lists no IRF shocks")

    skipped = []
    for label, t in requests:
        try:
            system = gvar.stack_system(fit, weights, t)
        except NumericalError as exc:
            # ill-conditioned stacking at this period: skip it, keep going
            print(f"warning: skipping {label}: {exc}", file=sys.stderr)
            skipped.append(label)
            continue
        inputs = irf.estimate_asymptotic_inputs(panel, system)
        for targets in config.irf.shocks:
            indices = tuple(panel.column_index(name) for name in targets)
            shock = irf.ShockSpec(targets=indices, horizon=config.irf.horizon,
                                  at_time=label,
                                  level=config.irf.level)
            result = irf.asymptotic_bands(system, shock, sample_size, inputs)
            stem = f"irf_{label}__{'+'.join(targets)}"
            irf.write_irf_json(result, names, config.out_dir / f"{stem}.json")
            irf.write_irf_csv(result, names, config.out_dir / f"{stem}.csv")
            print(f"irf {label} shock {'+'.join(targets)} "
                  f"stable={result.stable} -> {stem}.json")
    if skipped and len(skipped) == len(requests):
        raise NumericalError(f"all requested periods were skipped: {skipped}")


def _forecaster_config(config: RunConfig, method: str) -> fc.ForecasterConfig:
    settings = config.forecast
    if method in config.forecast.external:
        return fc.ForecasterConfig(kind="external", horizon=settings.horizon,
                                   external_path=config.forecast.external[method])
    return fc.ForecasterConfig(
        kind=method, horizon=settings.horizon, lag_window=settings.lag_window,
        cv_folds=settings.cv_folds, grid_size=settings.grid_size,
        grid_floor=settings.grid_floor)


def cmd_forecast(config: RunConfig) -> None:
    panel = _load_panel_artifact(config)
    h = config.forecast.horizon
    t_len = len(panel.time_index)
    width = panel.width
    min_train = max(2 * width + 2, config.forecast.lag_window + config.forecast.cv_folds + 2)
    if t_len - h < min_train:
        raise ValidationError(
            f"insufficient data: {t_len} months minus {h} held out leaves "
            f"fewer than {min_train} training months")
    train = panel.slice_rows(0, t_len - h)
    actuals = panel.values[t_len - h:]

    tvp_result = tvp.estimate_all(train, config.tvp)
    tvp.write_trajectories(tvp_result, train, config.tvp,
                           config.out_dir / TRAIN_TRAJECTORY_FILE)
    if not tvp_result.ok:
        names = train.column_names()
        failed = ", ".join(names[i] for i in sorted(tvp_result.errors))
        raise NumericalError(f"trajectory estimation failed for columns: {failed}")

    results = []
    for method in config.forecast.methods:
        fconf = _forecaster_config(config, method)
        result = fc.two_stage_forecast(train, tvp_result, fconf, actuals=actuals)
        result.model_kind = method
        results.append(result)
    fc.write_param_paths(results, config.out_dir / FORECAST_PARAMS_FILE)
    fc.write_variable_paths(results, config.out_dir / FORECAST_VARIABLES_FILE,
                            actuals=actuals)
    fc.write_mse_report(results, config.out_dir / MSE_REPORT_FILE)
    aggregates = {r.model_kind: r.pooled_mse for r in results if r.pooled_mse is not None}
    if not aggregates:
        raise NumericalError("no forecaster produced a scoreable path")
    best = fc.select_model(aggregates)
    print(f"mse report -> {config.out_dir / MSE_REPORT_FILE}")
    print(f"selected model: {best}")


def cmd_report(config: RunConfig) -> None:
    report_path = config.out_dir / MSE_REPORT_FILE
    if not report_path.exists():
        raise ValidationError(f"no MSE report at {report_path} (run 'forecast' first)")
    table = fc.read_mse_report(report_path)
    print("method,aggregate_mse")
    aggregates = {}
    for method, per_series in table.items():
        if "ALL" in per_series:
            aggregates[method] = per_series["ALL"]
            print(f"{method},{per_series['ALL']:.6g}")
    if aggregates:
        print(f"selected model: {fc.select_model(aggregates)}")
    irf_files = sorted(p.name for p in config.out_dir.glob("irf_*.json"))
    print(f"irf artifacts: {len(irf_files)}")
    for name in irf_files:
        print(f"  {name}")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        config.tvp = dataclasses.replace(config.tvp, seed=args.seed)
    if args.out is not None:
        config.out_dir = Path(args.out).resolve()
    if args.time_invariant:
        config.time_invariant = True
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
    common.add_argument("--time-invariant", action="store_true",
                        help="force constant equal weights (fixed-parameter mode)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="align raw series into the monthly panel")
    sub.add_parser("estimate", parents=[common], help="structural blocks + coefficient paths")
    sub.add_parser("irf", parents=[common], help="impulse responses with error bands")
    sub.add_parser("forecast", parents=[common], help="two-stage forecasts and MSE report")
    sub.add_parser("report", parents=[common], help="summarize artifacts in the output dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
