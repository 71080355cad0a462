"""Two-stage out-of-sample forecasting and model scoring.

Stage one extrapolates each column's (intercept, slope) path in the sampler's
stack (``tvp.PanelTVPResult``, which must hold no failed column) with a
pluggable forecaster — freeze-the-last-value baseline, a joint VAR(1) on the
stacked parameter series, an l1-penalized lag regression tuned by
forward-chaining cross-validation, or externally supplied paths. The three
in-process forecasters share one call shape: ``(series, config)`` maps a
(T, d) array of parameter series to (horizon, d) predictions and
{series: reason} for the series that failed alone. Stage two
feeds the predicted coefficients back through the scalar recursion
``x_{t+1} = b_{t+1} + f_{t+1} x_t``; ``mse_per_series`` then scores a method
against held-out actuals, and ``pooled_mse`` averages each series' MSE over
its column's training-window variance, so no series weighs by its units.

The lasso has one solver, ``_lasso_path``. It takes a batch of standardized
problems in Gram form (``G = Xs'Xs/n``, ``c = Xs'yc/n``) and follows each
one's exact, piecewise-linear solution path (homotopy) from its penalty
ceiling down a grid of penalties, all problems in one batched step per piece.
A lasso forecast builds its inputs once (``_lasso_inputs``): the lag designs,
the standardized full-sample problems and the penalty grids of the (series,
time) transpose of its input. The cross-validation puts every (series, fold)
problem into one batch, follows the paths down the grid and returns each
series' grid position; the fit follows each full-sample path straight to its
chosen penalty. The cross-validation scores one grid penalty at a time: beside
the fold problems and their solutions it holds one (series, rows) block of
validation residuals, not a (grid, series, rows) cube per fold.
``lasso_fit`` is the one-problem call of the same solver.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import POOLED_ROW, ForecasterConfig, Record, read_mse_report  # noqa: F401 (re-export)
from .errors import NumericalError, ValidationError, check_array_size
from .ingest import TimeSeriesPanel, month_index, month_label
from .ols import least_squares
from .serialize import parse_float, read_table, write_csv
from .tvp import PanelTVPResult, column_scales


# ---------------------------------------------------------------------------
# lasso: the exact piecewise-linear path, batched over problems
# ---------------------------------------------------------------------------

# A column joins only while its correlation gains on the penalty faster than
# round-off could fake: an exact copy of an active column gains at rate 0.
_RATE_TOL = 1e-9
_SIDES = np.array([1.0, -1.0])
_NEW_SIGN = np.array([1.0, -1.0, 0.0])  # by event kind: join +, join -, cross


class LassoFit(Record):
    """Lasso solution on internally standardized features, its ``coef`` on
    the original scale."""

    def __init__(self, coef: np.ndarray, intercept: float):
        self._set(coef=coef, intercept=intercept)


class _Gram(NamedTuple):
    """One standardized lasso problem in Gram form, or a stack of them with a
    leading batch axis on every field (see ``_stack``)."""

    mean: np.ndarray     # (p,) column means
    scale: np.ndarray    # (p,) column sds, 1.0 for constant columns
    live: np.ndarray     # (p,) columns whose values are not all equal
    ybar: float
    gram: np.ndarray     # (p, p) xs'xs / n
    corr: np.ndarray     # (p,) xs'yc / n
    lam_max: float       # max_j |corr_j|, the penalty ceiling


def _standardize(x: np.ndarray, y: np.ndarray) -> _Gram:
    """Centre and scale the design, centre the target, and find the ceiling.

    A column is live when its values are not all equal. A constant column is
    dead even where rounding makes its computed sd non-zero (a constant 4.2):
    it stays exactly zero in the standardized design, so it never sets the
    ceiling and its rows of ``gram`` and ``corr`` are zero. The ceiling is the
    largest ``|corr_j|`` of this one computation, so the path's zero solution
    and the penalty grid agree to the last bit.
    """
    mean = x.mean(axis=0)
    live = np.any(x != x[:1], axis=0)
    safe_scale = np.where(live, x.std(axis=0), 1.0)
    xs = np.where(live, (x - mean) / safe_scale, 0.0)
    ybar = float(y.mean())
    corr = xs.T @ (y - ybar) / y.size
    lam_max = float(np.max(np.abs(corr), initial=0.0))
    return _Gram(mean, safe_scale, live, ybar, xs.T @ xs / y.size, corr, lam_max)


def _stack(problems: Sequence[_Gram]) -> _Gram:
    """Problems of one width as a batch: every field gains a leading axis."""
    return _Gram(*(np.array(values) for values in zip(*problems)))


def _original_scale(problems: _Gram, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and intercepts on the original scale of standardized
    solutions ``beta`` (..., p), broadcast against the problems' fields."""
    coef = np.where(problems.live, beta / problems.scale, 0.0)
    return coef, problems.ybar - np.sum(coef * problems.mean, axis=-1)


def _lasso_path(problems: _Gram, lams: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Solve B standardized lasso problems at their (B, grid) descending
    penalties by following each one's exact solution path; returns the
    standardized solutions (grid, B, p) and {problem: reason} of stalled paths.

    The lasso solution is piecewise linear in the penalty (Osborne, Presnell &
    Turlach 2000; Efron et al. 2004). On an active set A with signs s it is
    ``b_A(lam) = e - lam d`` with ``G_AA d = s_A`` and ``G_AA e = c_A``, and
    the gradient ``c - G b`` is ``u + lam a`` with ``a = G d``,
    ``u = c - G e``. Every problem starts at its ceiling with the column of
    largest ``|c_j|`` active. Each step makes one masked solve for all
    problems, records every grid penalty the current piece reaches, and
    applies the piece's end, the largest penalty at which an event happens:

    - a join, where an inactive live column's ``|u_j + lam a_j|`` reaches
      ``lam`` while gaining on it at a rate (``1 - a_j``, or ``1 + a_j`` for a
      negative gradient) above ``_RATE_TOL``; it enters with the sign of its
      gradient;
    - a cross, where an active coefficient that shrinks as the penalty falls
      reaches zero; it leaves the active set and is exactly zero from there on.

    A column that has just left is losing on the penalty, and one that has
    just entered is growing, so neither event repeats at once. An event already
    due is taken at the current penalty. A grid penalty at or above the
    ceiling gets exact zeros. No (active set, signs) pair holds on two pieces
    of one path, so more than ``3**p`` events between two grid penalties mean
    the path has stalled: the problem stops there, its later solutions zero.
    """
    n_prob, width = problems.corr.shape
    n_grid = lams.shape[1]
    betas = np.zeros((n_grid,) + problems.corr.shape)
    cap = 3 ** width
    cols = np.arange(width)
    first = np.argmax(np.abs(problems.corr), axis=1)
    signs = np.where(cols == first[:, None], np.sign(problems.corr), 0.0)
    lam = problems.lam_max.copy()
    nxt = np.sum(lams >= lam[:, None], axis=1)  # next grid position below the ceiling
    events = np.zeros(n_prob, dtype=int)
    failed: dict[int, str] = {}
    run = np.flatnonzero(nxt < n_grid)
    while run.size:
        gram, corr, s = problems.gram[run], problems.corr[run], signs[run]
        active = s != 0.0
        system = np.where(active[:, :, None] & active[:, None, :], gram, 0.0)
        system[:, cols, cols] += ~active  # identity rows pin the others at zero
        rhs = np.where(active[:, :, None], np.stack([s, corr], axis=2), 0.0)
        de = np.linalg.solve(system, rhs)
        d, e = de[..., 0], de[..., 1]
        ga = np.einsum("bij,bjk->bik", gram, de)
        a, u = ga[..., 0], corr - ga[..., 1]
        # candidate event penalties (R, p, 3): join on either side, cross
        rate = 1.0 - _SIDES * a[..., None]
        free = (problems.live[run] & ~active)[..., None] & (rate > _RATE_TOL)
        cand = np.full(rate.shape[:2] + (3,), -np.inf)
        np.divide(_SIDES * u[..., None], rate, out=cand[..., :2], where=free)
        np.divide(e, d, out=cand[..., 2], where=s * d < 0.0)
        flat = cand.reshape(run.size, -1)
        pick = np.argmax(flat, axis=1)
        lam_ev = np.minimum(flat[np.arange(run.size), pick], lam[run])
        # record every grid penalty on the current piece, down to its end
        targets = lams[run]
        r, k = np.nonzero((np.arange(n_grid) >= nxt[run, None]) & (targets >= lam_ev[:, None]))
        betas[k, run[r]] = e[r] - targets[r, k, None] * d[r]
        reached = np.bincount(r, minlength=run.size)
        nxt[run] += reached
        events[run[reached > 0]] = 0
        # the rest take their event: join (kinds 0, 1) or cross (kind 2)
        go = nxt[run] < n_grid
        b, j, kind = run[go], pick[go] // 3, pick[go] % 3
        signs[b, j] = _NEW_SIGN[kind]
        lam[b] = lam_ev[go]
        events[b] += 1
        stalled = events[b] > cap
        for row in b[stalled].tolist():
            failed[row] = f"lasso path took more than {cap} events between two grid penalties"
        run = b[~stalled]
    return betas, failed


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float) -> LassoFit:
    """Minimize (1/2n)||y - X beta||^2 + lam ||beta||_1 exactly.

    Features are standardized internally (zero mean, unit variance) and the
    intercept is unpenalized; constant columns keep coefficient zero. When
    ``lam`` is at or above the penalty ceiling (``max_j |x_j'y|/n`` on the
    standardized scale) the all-zero vector satisfies the optimality
    conditions and is returned exactly, with intercept ``y.mean()``. This is
    the one-problem call of the path solver that cross-validation uses.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValidationError(f"bad design shape {x.shape} for {y.size} targets")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("lasso inputs must be finite")
    if lam < 0:
        raise ValidationError("penalty must be non-negative")
    problem = _standardize(x, y)
    betas, failed = _lasso_path(_stack([problem]), np.array([[float(lam)]]))
    if failed:
        raise NumericalError(failed[0])
    coef, intercept = _original_scale(problem, betas[0, 0])
    return LassoFit(coef=coef, intercept=float(intercept))


# ---------------------------------------------------------------------------
# forecasters
# ---------------------------------------------------------------------------

def min_training_months(config: ForecasterConfig, width: int) -> int:
    """Fewest training months a forecaster needs for ``width`` columns.

    A parameter path has one row per training month but the first (the
    initial lag). The joint VAR(1) fits 2·width path series and needs twice
    that many rows; the lasso needs more rows than its lag window plus folds;
    the others need the sampler's three months.
    """
    if config.kind == "var1":
        return 2 * (2 * width) + 1
    if config.kind == "lasso":
        return config.lag_window + config.cv_folds + 2
    return 3


def forecast_constant(series: np.ndarray, config: ForecasterConfig) -> tuple[np.ndarray, dict]:
    """Repeat the final row of the (T, d) series for every step of the horizon."""
    return np.repeat(np.asarray(series, float)[-1:], config.horizon, axis=0), {}


def forecast_var1(series: np.ndarray, config: ForecasterConfig) -> tuple[np.ndarray, dict]:
    """OLS VAR(1) on the (T, d) series, iterated ``config.horizon`` steps ahead.

    The fit is ``ols.least_squares``, so scaling one series scales its
    forecast and nothing else. A rank-deficient design fails the method.
    """
    series = np.asarray(series, float)
    if series.ndim != 2:
        raise ValidationError("stacked series must be 2-D")
    t_len, dim = series.shape
    if t_len < 2 * dim:
        raise ValidationError(f"need at least {2 * dim} periods to fit a {dim}-dim VAR(1)")
    design = np.column_stack([np.ones(t_len - 1), series[:-1]])
    coef, _, rank = least_squares(design, series[1:])
    if rank < design.shape[1]:
        raise NumericalError("rank-deficient design in parameter VAR(1)")
    intercept, slope = coef[0], coef[1:].T
    out = np.empty((config.horizon, dim))
    state = series[-1]
    for s in range(config.horizon):
        state = intercept + slope @ state
        out[s] = state
    return out, {}


def _lag_design(series: np.ndarray, lag_window: int) -> tuple[np.ndarray, np.ndarray]:
    """Lags ``(y_{t-1}, ..., y_{t-L})`` against ``y_t`` along the last axis,
    so a stack of series (S, T) gives designs (S, T - L, L)."""
    n = series.shape[-1] - lag_window
    design = np.empty(series.shape[:-1] + (n, lag_window))
    for j in range(lag_window):
        design[..., j] = series[..., lag_window - 1 - j:series.shape[-1] - 1 - j]
    return design, series[..., lag_window:]


def _lasso_inputs(series: np.ndarray, config: ForecasterConfig
                  ) -> tuple[np.ndarray, np.ndarray, _Gram, np.ndarray]:
    """Everything the CV and the fit share for a stack (S, T) of series.

    Returns the lag designs (S, n, L) and targets (S, n), the full-sample
    problems stacked as one ``_Gram`` and the (S, grid_size) descending
    penalty grids: a geometric path from each ceiling down to ``grid_floor``
    of it, or zeros when the ceiling is zero.
    """
    series = np.asarray(series, float)
    if series.ndim != 2:
        raise ValidationError(f"lasso series must be a (series, time) stack, got {series.shape}")
    if series.shape[1] <= config.lag_window + config.cv_folds:
        raise ValidationError(
            f"series too short ({series.shape[1]}) for lag window {config.lag_window} "
            f"and {config.cv_folds} folds")
    if not np.all(np.isfinite(series)):
        raise ValidationError("lasso inputs must be finite")
    x, y = _lag_design(series, config.lag_window)
    problems = _stack([_standardize(x[s], y[s]) for s in range(series.shape[0])])
    live = problems.lam_max > 0
    ceiling = np.where(live, problems.lam_max, 1.0)
    check_array_size((len(ceiling), config.grid_size))
    grids = np.geomspace(ceiling, ceiling * config.grid_floor, config.grid_size, axis=-1)
    return x, y, problems, np.where(live[:, None], grids, 0.0)


def select_lasso_lambda(x: np.ndarray, y: np.ndarray, grids: np.ndarray,
                        cv_folds: int) -> tuple[np.ndarray, dict[int, str]]:
    """Forward-chaining cross-validation over the penalty grids.

    ``x`` (S, n, L), ``y`` (S, n) and ``grids`` (S, grid) are the lag designs,
    targets and penalty grids of ``_lasso_inputs``; returns each series' grid
    position and {series: reason} of stalled fold paths. Rows are split into
    ``cv_folds + 1`` consecutive blocks; fold f trains on everything before
    block f+1 and validates on it, so the future is never in the training
    set. Every (series, fold) problem is standardized once and all of them
    follow their exact paths down the grid in one ``_lasso_path`` batch.
    Each fold's validation residuals are scored one penalty at a time.
    Ties resolve to the largest penalty.
    """
    n_series, n = y.shape
    bounds = [round(n * (i + 1) / (cv_folds + 1)) for i in range(cv_folds + 1)]
    folds = [(bounds[f], bounds[f + 1]) for f in range(cv_folds)
             if 0 < bounds[f] < bounds[f + 1]]
    scores = np.zeros(grids.shape)
    stalled: dict[int, str] = {}
    if folds:
        problems = _stack([_standardize(x[s, :split], y[s, :split])
                           for split, _ in folds for s in range(n_series)])
        betas, stalled = _lasso_path(problems, np.tile(grids, (len(folds), 1)))  # fold-major
        coef, intercept = _original_scale(problems, betas)  # (grid, fold x series, ...)
        for f, (split, stop) in enumerate(folds):
            part = slice(f * n_series, (f + 1) * n_series)
            for g in range(grids.shape[1]):
                resid = np.einsum("smj,sj->sm", x[:, split:stop], coef[g, part])
                resid += intercept[g, part, None]
                resid -= y[:, split:stop]
                scores[:, g] += np.mean(np.square(resid, out=resid), axis=1)
    return np.argmin(scores, axis=1), {row % n_series: why for row, why in stalled.items()}


def forecast_lasso(series: np.ndarray, config: ForecasterConfig) -> tuple[np.ndarray, dict]:
    """Tune, fit, and forecast each column of the (T, d) series recursively.

    The penalties of all columns are chosen in one batch; returns
    (horizon, d) and {column: reason} of the columns with a stalled path. The
    fit follows each full-sample path straight to its column's chosen penalty.
    """
    rows = np.ascontiguousarray(np.asarray(series, float).T)  # (d, T)
    x, y, problems, grids = _lasso_inputs(rows, config)
    picks, failed = select_lasso_lambda(x, y, grids, config.cv_folds)
    betas, stalled = _lasso_path(problems, grids[np.arange(grids.shape[0]), picks][:, None])
    coef, intercept = _original_scale(problems, betas[0])
    out = np.empty((config.horizon, rows.shape[0]))
    for s in range(rows.shape[0]):
        window = list(rows[s, -config.lag_window:])
        for step in range(config.horizon):
            value = intercept[s] + float(coef[s] @ np.array(window[::-1]))
            out[step, s] = value
            window = window[1:] + [value]
    return out, {**stalled, **failed}


_FORECASTERS = {"constant": forecast_constant, "var1": forecast_var1, "lasso": forecast_lasso}


# ---------------------------------------------------------------------------
# two-stage forecast
# ---------------------------------------------------------------------------

class ForecastResult(Record):
    """Predicted parameter paths (h, width, 2) and variable paths (h, width),
    and the failed columns' reasons by name."""

    def __init__(self, columns: tuple[str, ...], future_dates: tuple[str, ...],
                 param_paths: np.ndarray, variable_paths: np.ndarray, errors: dict[str, str]):
        self._set(columns=columns, future_dates=future_dates, param_paths=param_paths,
                  variable_paths=variable_paths, errors=errors)


def _future_dates(panel: TimeSeriesPanel, horizon: int) -> tuple[str, ...]:
    last = month_index(panel.time_index[-1])
    return tuple(month_label(last + s) for s in range(1, horizon + 1))


def two_stage_forecast(panel: TimeSeriesPanel, tvp_result: PanelTVPResult,
                       config: ForecasterConfig,
                       paths: Mapping[str, tuple[list[str], np.ndarray]] | None = None
                       ) -> ForecastResult:
    """Forecast parameters per column, then roll the scalar recursion forward.

    ``panel`` is the training window whose final row seeds the recursion, and
    ``tvp_result`` a complete sampler result: a failed sampler column is
    refused by name. An external forecaster takes ``paths``, its
    ``external_path`` file as ``read_trajectories`` returns it. A stage-one
    failure of either of a column's series or a missing external path aborts
    only the affected columns. ``mse_per_series`` scores the result.
    """
    names = panel.column_names()
    width = panel.width
    h = config.horizon
    if len(tvp_result.sigma2) != width:
        raise ValidationError("trajectory count does not match panel width")
    if tvp_result.errors:
        raise ValidationError(f"sampler failed for columns: {', '.join(tvp_result.errors)}")
    param = np.full((h, width, 2), np.nan)
    errors = {}

    if config.kind == "external":
        if paths is None:
            raise ValidationError("external forecaster needs its paths read from external_path")
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
        # (T, 2n): the forecasters see the series b_0, f_0, b_1, ...
        series = tvp_result.theta.transpose(1, 0, 2).reshape(-1, 2 * width)
        try:
            pred, failed = _FORECASTERS[config.kind](series, config)
        except (NumericalError, ValidationError) as exc:
            errors = dict.fromkeys(names, str(exc))
        else:
            param[:] = pred.reshape(h, width, 2)
            for s, reason in sorted(failed.items()):
                i = s // 2
                param[:, i] = np.nan
                errors.setdefault(names[i], f"{('b', 'f1')[s % 2]} series of {names[i]}: {reason}")

    # a failed column keeps NaN parameters, so its path stays NaN
    variables = np.empty((h, width))
    state = panel.values[-1]
    for s in range(h):
        state = param[s, :, 0] + param[s, :, 1] * state
        variables[s] = state

    return ForecastResult(
        columns=tuple(names), future_dates=_future_dates(panel, h),
        param_paths=param, variable_paths=variables, errors=errors)


# ---------------------------------------------------------------------------
# scores and artifacts
# ---------------------------------------------------------------------------

def mse_per_series(result: ForecastResult, actuals: np.ndarray) -> dict[str, float]:
    """{column: MSE} of one method's variable paths against the (horizon,
    width) held-out ``actuals``, over the columns that did not fail. Each is
    the mean of one 1-D column, which numpy sums pairwise; an axis-0 mean
    over the block would not, and would move the report's last bits."""
    actuals = np.asarray(actuals, float)
    if actuals.shape != result.variable_paths.shape:
        raise ValidationError(f"actuals shape {actuals.shape} != {result.variable_paths.shape}")
    return {name: float(np.mean((actuals[:, i] - result.variable_paths[:, i]) ** 2))
            for i, name in enumerate(result.columns) if name not in result.errors}


def pooled_mse(scores: Mapping[str, Mapping[str, float]],
               train: TimeSeriesPanel) -> dict[str, float]:
    """Each scoring method's mean of MSE / scale^2 over the series that every
    scoring method scored, so that the methods compare on the same series.
    ``scores`` maps each method to its ``mse_per_series``; a series' scale is
    its ``column_scales`` entry over the training window ``train``.

    A method that scored no series is left out. The result is empty when no
    method scored or the scoring methods share no series.
    """
    scales = dict(zip(train.column_names(), column_scales(train.values.T).tolist()))
    scoring = {method: {name: value / scales[name] ** 2 for name, value in per_series.items()}
               for method, per_series in scores.items() if per_series}
    shared = set.intersection(*map(set, scoring.values())) if scoring else set()
    if not shared:
        return {}
    return {method: float(np.mean([value for name, value in scaled.items() if name in shared]))
            for method, scaled in scoring.items()}


def write_mse_report(scores: Mapping[str, Mapping[str, float]], pooled: Mapping[str, float],
                     path: str | Path) -> None:
    """Each method's ``mse_per_series`` rows, then its ``POOLED_ROW`` row when
    ``pooled`` (from ``pooled_mse``) holds the method."""
    def rows():
        for method, per_series in scores.items():
            yield from ((method, name, value) for name, value in per_series.items())
            if method in pooled:
                yield method, POOLED_ROW, pooled[method]
    write_csv(path, ["method", "series", "mse"], rows())


def _path_cells(results: Mapping[str, ForecastResult]):
    """``(method, result, i, name, s, date)``: methods x good columns x future dates."""
    for method, result in results.items():
        for i, name in enumerate(result.columns):
            if name in result.errors:
                continue
            for s, date in enumerate(result.future_dates):
                yield method, result, i, name, s, date


def write_param_paths(results: Mapping[str, ForecastResult], path: str | Path) -> None:
    rows = ((method, date, name, *result.param_paths[s, i])
            for method, result, i, name, s, date in _path_cells(results))
    write_csv(path, ["method", "date", "column", "b", "f1"], rows)


def write_variable_paths(results: Mapping[str, ForecastResult], path: str | Path,
                         actuals: np.ndarray) -> None:
    rows = ((method, date, name, actuals[s, i], result.variable_paths[s, i])
            for method, result, i, name, s, date in _path_cells(results))
    write_csv(path, ["method", "date", "column", "actual", "predicted"], rows)


def read_variable_paths(path: str | Path) -> dict[tuple[str, str, str], tuple[float | None, float]]:
    out = {}
    for where, (method, date, column, actual, predicted) in read_table(
            path, ["method", "date", "column", "actual", "predicted"]):
        out[(method, date, column)] = (parse_float(actual, where) if actual else None,
                                       parse_float(predicted, where))
    return out
