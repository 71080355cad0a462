"""Two-stage out-of-sample forecasting and model scoring.

Stage one extrapolates each column's (intercept, slope) trajectory with a
pluggable forecaster — freeze-the-last-value baseline, a joint VAR(1) on the
stacked parameter series, an l1-penalized lag regression tuned by
forward-chaining cross-validation, or externally supplied paths. Stage two
feeds the predicted coefficients back through the scalar recursion
``x_{t+1} = b_{t+1} + f_{t+1} x_t`` and scores against held-out actuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import TimeSeriesPanel, month_index, month_label
from .serialize import read_csv_rows, write_csv
from .tvp import PanelTVPResult, read_trajectories

METHOD_ORDER = ("constant", "var1", "lasso")


# ---------------------------------------------------------------------------
# lasso by cyclic coordinate descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LassoFit:
    """Coordinate-descent solution on internally standardized features."""

    coef: np.ndarray       # original-scale coefficients
    intercept: float
    n_sweeps: int
    converged: bool
    objectives: np.ndarray  # standardized-scale objective after each sweep


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _standardize(x: np.ndarray, y: np.ndarray):
    """Centre and scale the design, centre the target, and find the ceiling.

    Returns ``(xs, mean, safe_scale, live, ybar, yc, lam_max)`` with
    ``lam_max = max_j |xs_j' yc| / n``. Zero-variance columns stay exactly
    zero in ``xs``, so they never set the ceiling. ``lasso_fit`` and
    ``lasso_lambda_max`` share this one computation, so the penalty ceiling
    and the zero-solution check agree to the last bit.
    """
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    live = scale > 0
    safe_scale = np.where(live, scale, 1.0)
    xs = (x - mean) / safe_scale
    ybar = float(y.mean())
    yc = y - ybar
    lam_max = float(np.max(np.abs(xs.T @ yc / y.size), initial=0.0))
    return xs, mean, safe_scale, live, ybar, yc, lam_max


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float, tol: float = 1e-7,
              max_iter: int = 100_000, warm_start: np.ndarray | None = None) -> LassoFit:
    """Minimize (1/2n)||y - X beta||^2 + lam ||beta||_1 by coordinate descent.

    Features are standardized internally (zero mean, unit variance) and the
    intercept is unpenalized; zero-variance columns keep coefficient zero.
    When ``lam`` is at or above the penalty ceiling (``max_j |x_j'y|/n`` on
    the standardized scale) the all-zero vector satisfies the optimality
    conditions and is returned exactly, with no sweeps, whatever the warm
    start. Otherwise convergence is declared when no standardized
    coefficient moves more than ``tol`` in a full sweep; non-convergence is
    reported on the result.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValidationError(f"bad design shape {x.shape} for {y.size} targets")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("lasso inputs must be finite")
    if lam < 0:
        raise ValidationError("penalty must be non-negative")
    n, n_feat = x.shape

    xs, mean, safe_scale, live, ybar, yc, lam_max = _standardize(x, y)
    if lam >= lam_max:
        return LassoFit(coef=np.zeros(n_feat), intercept=ybar, n_sweeps=0,
                        converged=True, objectives=np.array([]))

    beta = np.zeros(n_feat) if warm_start is None else np.asarray(warm_start, float).copy()
    beta[~live] = 0.0
    col_ss = np.einsum("ij,ij->j", xs, xs) / n  # ~1 for live columns
    resid = yc - xs @ beta
    live_idx = np.flatnonzero(live)

    objectives = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in live_idx:
            old = beta[j]
            if old != 0.0:
                resid += xs[:, j] * old
            z = float(xs[:, j] @ resid) / n
            new = _soft_threshold(z, lam) / col_ss[j]
            if new != 0.0:
                resid -= xs[:, j] * new
            beta[j] = new
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
        objectives.append(0.5 * float(resid @ resid) / n + lam * float(np.sum(np.abs(beta))))
        if max_delta < tol:
            converged = True
            break

    coef = np.where(live, beta / safe_scale, 0.0)
    intercept = ybar - float(coef @ mean)
    return LassoFit(coef=coef, intercept=intercept, n_sweeps=sweeps,
                    converged=converged, objectives=np.array(objectives))


def lasso_lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty with an all-zero solution, on the standardized scale."""
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    return _standardize(x, y)[-1]


# ---------------------------------------------------------------------------
# forecasters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForecasterConfig:
    """Stage-one settings; ``lambda_grid`` defaults to a geometric path."""

    kind: str = "constant"  # constant | var1 | lasso | external
    horizon: int = 6
    lag_window: int = 6
    lambda_grid: np.ndarray | None = None
    cv_folds: int = 5
    grid_size: int = 50
    grid_floor: float = 1e-4
    external_path: str | Path | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError("forecast horizon must be >= 1")
        if self.lag_window < 1:
            raise ValidationError("lag window must be >= 1")
        if self.cv_folds < 2:
            raise ValidationError("cross-validation needs >= 2 folds")
        if self.lambda_grid is not None:
            grid = np.asarray(self.lambda_grid, float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValidationError("lambda grid must be a non-empty vector")
            if np.any(grid <= 0) or np.any(np.diff(grid) >= 0):
                raise ValidationError("lambda grid must be strictly descending and positive")
            object.__setattr__(self, "lambda_grid", grid)
        if self.kind == "external" and self.external_path is None:
            raise ValidationError("external forecaster needs a predicted-path CSV")


def forecast_constant(traj_theta: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the final in-sample parameter vector for every step."""
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    theta = np.asarray(traj_theta, float)
    return np.tile(theta[-1], (horizon, 1))


def forecast_var1(series: np.ndarray, horizon: int) -> np.ndarray:
    """OLS VAR(1) on the stacked series, iterated ``horizon`` steps ahead."""
    series = np.asarray(series, float)
    if series.ndim != 2:
        raise ValidationError("stacked series must be 2-D")
    t_len, dim = series.shape
    if t_len < 2 * dim:
        raise ValidationError(f"need at least {2 * dim} periods to fit a {dim}-dim VAR(1)")
    design = np.column_stack([np.ones(t_len - 1), series[:-1]])
    coef, _, rank, _ = np.linalg.lstsq(design, series[1:], rcond=None)
    if rank < design.shape[1]:
        raise NumericalError("rank-deficient design in parameter VAR(1)")
    intercept, slope = coef[0], coef[1:].T
    out = np.empty((horizon, dim))
    state = series[-1]
    for s in range(horizon):
        state = intercept + slope @ state
        out[s] = state
    return out


def _lag_design(series: np.ndarray, lag_window: int) -> tuple[np.ndarray, np.ndarray]:
    n = series.size - lag_window
    design = np.empty((n, lag_window))
    for j in range(lag_window):
        design[:, j] = series[lag_window - 1 - j:series.size - 1 - j]
    return design, series[lag_window:]


def _default_grid(x: np.ndarray, y: np.ndarray, config: ForecasterConfig) -> np.ndarray:
    lam_max = lasso_lambda_max(x, y)
    if lam_max <= 0:
        return np.array([0.0])
    return np.geomspace(lam_max, lam_max * config.grid_floor, config.grid_size)


def select_lasso_lambda(series: np.ndarray, config: ForecasterConfig) -> float:
    """Forward-chaining cross-validation over the penalty grid.

    Rows are split into ``cv_folds + 1`` consecutive blocks; fold f trains on
    everything before block f+1 and validates on it, so the future is never
    in the training set. Ties resolve to the largest penalty.
    """
    x, y = _lag_design(series, config.lag_window)
    n = y.size
    if n <= config.cv_folds:
        raise ValidationError(
            f"series too short: {series.size} periods for lag window "
            f"{config.lag_window} and {config.cv_folds} folds")
    grid = config.lambda_grid if config.lambda_grid is not None else _default_grid(x, y, config)
    bounds = [round(n * (i + 1) / (config.cv_folds + 1)) for i in range(config.cv_folds + 1)]
    scores = np.zeros(grid.size)
    for f in range(config.cv_folds):
        split, stop = bounds[f], bounds[f + 1]
        x_tr, y_tr = x[:split], y[:split]
        x_va, y_va = x[split:stop], y[split:stop]
        if y_va.size == 0 or y_tr.size == 0:
            continue
        warm = None
        for g, lam in enumerate(grid):
            fit = lasso_fit(x_tr, y_tr, lam, warm_start=warm)
            warm = _standardized_warm(fit, x_tr)
            pred = fit.intercept + x_va @ fit.coef
            scores[g] += float(np.mean((y_va - pred) ** 2))
    return float(grid[int(np.argmin(scores))])


def _standardized_warm(fit: LassoFit, x: np.ndarray) -> np.ndarray:
    scale = x.std(axis=0)
    return fit.coef * np.where(scale > 0, scale, 1.0)


def forecast_lasso(series: np.ndarray, config: ForecasterConfig) -> np.ndarray:
    """Tune, refit, and forecast one scalar series recursively."""
    series = np.asarray(series, float).reshape(-1)
    if series.size <= config.lag_window + config.cv_folds:
        raise ValidationError(
            f"series too short ({series.size}) for lag window {config.lag_window} "
            f"and {config.cv_folds} folds")
    lam = select_lasso_lambda(series, config)
    x, y = _lag_design(series, config.lag_window)
    fit = lasso_fit(x, y, lam)
    window = list(series[-config.lag_window:])
    out = np.empty(config.horizon)
    for s in range(config.horizon):
        features = np.array(window[::-1][:config.lag_window])
        value = fit.intercept + float(fit.coef @ features)
        out[s] = value
        window.append(value)
        window.pop(0)
    return out


# ---------------------------------------------------------------------------
# two-stage forecast
# ---------------------------------------------------------------------------

@dataclass
class ForecastResult:
    """Predicted parameter and variable paths plus optional per-series MSE."""

    model_kind: str
    columns: tuple[str, ...]
    future_dates: tuple[str, ...]
    param_paths: np.ndarray      # (h, width, 2)
    variable_paths: np.ndarray   # (h, width)
    mse_per_series: dict[str, float] | None
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def pooled_mse(self) -> float | None:
        if not self.mse_per_series:
            return None
        return float(np.mean(list(self.mse_per_series.values())))


def _future_dates(panel: TimeSeriesPanel, horizon: int) -> tuple[str, ...]:
    last = month_index(panel.time_index[-1])
    return tuple(month_label(last + s) for s in range(1, horizon + 1))


def two_stage_forecast(panel: TimeSeriesPanel, tvp_result: PanelTVPResult,
                       config: ForecasterConfig,
                       actuals: np.ndarray | None = None) -> ForecastResult:
    """Forecast parameters per column, then roll the scalar recursion forward.

    ``panel`` is the training window whose final row seeds the recursion;
    ``actuals``, when given, is the (horizon, width) held-out block to score
    against. Stage-one failures abort only the affected column.
    """
    names = panel.column_names()
    width = panel.width
    h = config.horizon
    if len(tvp_result.trajectories) != width:
        raise ValidationError("trajectory count does not match panel width")
    param = np.full((h, width, 2), np.nan)
    errors: dict[str, str] = {}

    if config.kind == "var1":
        stacked = []
        usable = []
        for i, traj in enumerate(tvp_result.trajectories):
            if traj is None:
                errors[names[i]] = tvp_result.errors.get(i, "missing trajectory")
            else:
                stacked.append(traj.theta)
                usable.append(i)
        if usable:
            joint = np.hstack(stacked)
            try:
                pred = forecast_var1(joint, h)
                for pos, i in enumerate(usable):
                    param[:, i, :] = pred[:, 2 * pos:2 * pos + 2]
            except (NumericalError, ValidationError) as exc:
                for i in usable:
                    errors[names[i]] = str(exc)
    elif config.kind == "external":
        paths = read_trajectories(config.external_path)
        expected = list(_future_dates(panel, h))
        for i, name in enumerate(names):
            if name not in paths:
                errors[name] = "external path file has no rows for this column"
                continue
            dates, values = paths[name]
            if dates != expected or values.shape != (h, 2):
                errors[name] = f"external path dates/shape mismatch (expected {expected})"
                continue
            param[:, i, :] = values
    else:
        for i, traj in enumerate(tvp_result.trajectories):
            if traj is None:
                errors[names[i]] = tvp_result.errors.get(i, "missing trajectory")
                continue
            try:
                if config.kind == "constant":
                    param[:, i, :] = forecast_constant(traj.theta, h)
                elif config.kind == "lasso":
                    param[:, i, 0] = forecast_lasso(traj.theta[:, 0], config)
                    param[:, i, 1] = forecast_lasso(traj.theta[:, 1], config)
                else:
                    raise ValidationError(f"unknown forecaster kind {config.kind!r}")
            except (NumericalError, ValidationError) as exc:
                errors[names[i]] = str(exc)
                param[:, i, :] = np.nan

    variables = np.full((h, width), np.nan)
    last = panel.values[-1]
    for i in range(width):
        if names[i] in errors:
            continue
        state = last[i]
        for s in range(h):
            state = param[s, i, 0] + param[s, i, 1] * state
            variables[s, i] = state

    mse_per_series = None
    if actuals is not None:
        actuals = np.asarray(actuals, float)
        if actuals.shape != (h, width):
            raise ValidationError(f"actuals shape {actuals.shape} != ({h}, {width})")
        mse_per_series = {}
        for i, name in enumerate(names):
            if name in errors:
                continue
            mse_per_series[name] = mse(actuals[:, i], variables[:, i])

    return ForecastResult(
        model_kind=config.kind, columns=tuple(names),
        future_dates=_future_dates(panel, h),
        param_paths=param, variable_paths=variables,
        mse_per_series=mse_per_series, errors=errors)


def mse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean of squared differences."""
    actual = np.asarray(actual, float).reshape(-1)
    predicted = np.asarray(predicted, float).reshape(-1)
    if actual.size != predicted.size:
        raise ValidationError(f"length mismatch: {actual.size} vs {predicted.size}")
    if actual.size == 0:
        raise ValidationError("need at least one observation")
    return float(np.mean((actual - predicted) ** 2))


def select_model(results: Mapping[str, float]) -> str:
    """Pick minimal MSE; ties resolve by fixed method order, then name."""
    if not results:
        raise ValidationError("no model scores to select from")
    for name, value in results.items():
        if not np.isfinite(value):
            raise ValidationError(f"non-finite MSE for {name}")

    def rank(item: tuple[str, float]):
        name, value = item
        order = METHOD_ORDER.index(name) if name in METHOD_ORDER else len(METHOD_ORDER)
        return (value, order, name)

    return min(results.items(), key=rank)[0]


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_mse_report(results: Sequence[ForecastResult], path: str | Path) -> None:
    """Per-series rows plus one ``ALL`` aggregate row per method."""
    rows = []
    for result in results:
        if result.mse_per_series is None:
            continue
        for name in result.columns:
            if name in result.mse_per_series:
                rows.append([result.model_kind, name, result.mse_per_series[name]])
        pooled = result.pooled_mse
        if pooled is not None:
            rows.append([result.model_kind, "ALL", pooled])
    write_csv(path, ["method", "series", "mse"], rows)


def read_mse_report(path: str | Path) -> dict[str, dict[str, float]]:
    header, rows = read_csv_rows(path)
    if header != ["method", "series", "mse"]:
        raise ValidationError(f"{path}: expected header method,series,mse")
    out: dict[str, dict[str, float]] = {}
    for method, series, value in rows:
        out.setdefault(method, {})[series] = float(value)
    return out


def write_param_paths(results: Sequence[ForecastResult], path: str | Path) -> None:
    rows = []
    for result in results:
        for i, name in enumerate(result.columns):
            if name in result.errors:
                continue
            for s, date in enumerate(result.future_dates):
                rows.append([result.model_kind, date, name,
                             result.param_paths[s, i, 0], result.param_paths[s, i, 1]])
    write_csv(path, ["method", "date", "column", "b", "f1"], rows)


def write_variable_paths(results: Sequence[ForecastResult], path: str | Path,
                         actuals: np.ndarray | None = None) -> None:
    rows = []
    for result in results:
        for i, name in enumerate(result.columns):
            if name in result.errors:
                continue
            for s, date in enumerate(result.future_dates):
                actual_cell = "" if actuals is None else actuals[s, i]
                rows.append([result.model_kind, date, name, actual_cell,
                             result.variable_paths[s, i]])
    write_csv(path, ["method", "date", "column", "actual", "predicted"], rows)


def read_variable_paths(path: str | Path) -> dict[tuple[str, str, str], tuple[float | None, float]]:
    header, rows = read_csv_rows(path)
    if header != ["method", "date", "column", "actual", "predicted"]:
        raise ValidationError(f"{path}: unexpected header")
    out = {}
    for method, date, column, actual, predicted in rows:
        out[(method, date, column)] = (float(actual) if actual else None, float(predicted))
    return out
