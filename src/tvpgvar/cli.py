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
Exit codes: 0 success, 1 validation error or out of memory (an array past
numpy's 2**63-byte limit included), 2 numerical failure or a usage error.
argparse ends a usage error (a missing ``--config``, ``--seed x``) with exit 2
and a stderr that starts with a ``usage:`` line; a failed stage ends its
stderr, after any ``warning:`` lines, with one line that starts ``error:``
or ``numerical failure:``. That line tells the cases apart.
A stage process flushes its output and then ends without interpreter
teardown; ``main()`` called in-process is unaffected. So ``atexit`` handlers
registered before the CLI's own (by ``sitecustomize``, say) do not run, but a
wrapper that prints after the run, such as ``python -m cProfile``, still does.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .config import POOLED_ROW, RunConfig, load_config, read_mse_report, select_model
from .errors import NumericalError, ValidationError
from .serialize import write_json

if TYPE_CHECKING:
    from . import gvar, ingest, tvp

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


def _fail_sampler_columns(result: tvp.PanelTVPResult, what: str) -> None:
    """Print one ``warning:`` line per failed sampler column, with its reason,
    and end the stage if any column failed."""
    for column, reason in result.errors.items():
        print(f"warning: {column}: {reason}", file=sys.stderr)
    if result.errors:
        raise NumericalError(f"{what} failed for columns: {', '.join(result.errors)}")


def cmd_ingest(config: RunConfig) -> None:
    from . import ingest

    series = ingest.load_panel(config.data_path)
    panel = ingest.align_frequencies(
        series, method=config.imputation,
        regions=config.regions, variables=config.variables,
        activities=config.activities, transform=config.transform)
    ingest.write_panel_csv(panel, config.out_dir / PANEL_FILE)
    # every built panel is valid, so ok and issues are constant; bench/check.py reads ok
    write_json({"ok": True, "width": panel.width, "n_rows": len(panel.time_index),
                "issues": []}, config.out_dir / VALIDATION_FILE)
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
    _fail_sampler_columns(result, "estimation")


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
    moment_inv = irf.estimate_asymptotic_inputs(panel)
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
        results = irf.asymptotic_bands(system, shock_targets, sample_size, moment_inv,
                                       horizon=config.irf.horizon, level=config.irf.level,
                                       at_time=label)
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
    _fail_sampler_columns(tvp_result, "trajectory estimation")

    results = {}
    for method, fconf in config.methods.items():
        results[method] = fc.two_stage_forecast(train, tvp_result, fconf,
                                                paths=external.get(method))
        failed: dict[str, list[str]] = {}
        for name, reason in results[method].errors.items():
            failed.setdefault(reason, []).append(name)
        for reason, columns in failed.items():
            print(f"warning: {method} failed for {', '.join(columns)}: {reason}",
                  file=sys.stderr)
    scores = {method: fc.mse_per_series(result, actuals) for method, result in results.items()}
    pooled = fc.pooled_mse(scores, train)
    fc.write_param_paths(results, config.out_dir / FORECAST_PARAMS_FILE)
    fc.write_variable_paths(results, config.out_dir / FORECAST_VARIABLES_FILE,
                            actuals=actuals)
    fc.write_mse_report(scores, pooled, config.out_dir / MSE_REPORT_FILE)
    if not pooled:
        scoring = [method for method, per_series in scores.items() if per_series]
        raise NumericalError(
            f"the forecasters {', '.join(scoring)} share no scored series" if scoring
            else "no forecaster produced a scoreable path")
    best = select_model(pooled)
    print(f"mse report -> {config.out_dir / MSE_REPORT_FILE}")
    print(f"selected model: {best}")


def cmd_report(config: RunConfig) -> None:
    table = read_mse_report(_artifact(config, MSE_REPORT_FILE, "forecast"))
    print("method,aggregate_mse")
    aggregates = {}
    for method, per_series in table.items():
        if POOLED_ROW in per_series:
            aggregates[method] = per_series[POOLED_ROW]
            print(f"{method},{aggregates[method]:.6g}")
    if aggregates:
        print(f"selected model: {select_model(aggregates)}")
    irf_files = sorted(p.name for p in config.out_dir.glob("irf_*.json"))
    print(f"irf artifacts: {len(irf_files)}")
    for name in irf_files:
        print(f"  {name}")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        config = config.replace(tvp=config.tvp.replace(seed=args.seed))
    if args.out is not None:
        config = config.replace(out_dir=Path(args.out).resolve())
    return config


COMMANDS = {
    "ingest": (cmd_ingest, "align raw series into the monthly panel"),
    "estimate": (cmd_estimate, "structural blocks + coefficient paths"),
    "irf": (cmd_irf, "impulse responses with error bands"),
    "forecast": (cmd_forecast, "two-stage forecasts and MSE report"),
    "report": (cmd_report, "summarize artifacts in the output dir"),
}


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
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        config = _apply_overrides(load_config(args.config), args)
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValidationError(
                f"{config.out_dir}: cannot create output directory ({reason})") from None
        COMMANDS[args.command][0](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return 0


def entrypoint() -> None:
    # An idle OpenBLAS worker (numpy's pool, and SciPy's behind _flapack)
    # busy-waits about 2**28 cycles before it sleeps, at start-up and after
    # every threaded call, and takes that CPU from the main thread when the
    # other core is busy. 4 is the floor: idle workers sleep at once. It must
    # be set before a stage imports numpy, and not in main(), which callers
    # run in-process; a user's own value wins.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    code = main()
    # Tearing the modules down would cost a numpy stage about 30 ms after its
    # artifacts are written. Exit from an atexit handler, not here, so that a
    # wrapper such as ``python -m cProfile`` prints first. A usage error or an
    # uncaught exception leaves main() before this and exits as usual.
    atexit.register(_exit_without_teardown, code)
    sys.exit(code)


def _exit_without_teardown(code: int) -> None:
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream: the normal exit reports it
        return
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
