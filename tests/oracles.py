"""Slow reference implementations that the package's fast paths are tested against.

``lasso_cd`` is the residual-form scalar coordinate descent (one Python-level
update per coefficient, the residual kept up to date) and ``select_lambda_cd``
the forward-chaining cross-validation built on it, each warm start taken from
the previous penalty's fit. Both are written from the definitions, share no
code with ``tvpgvar.forecast`` and reproduce what the package computed before
it moved to the batched Gram-form solver.
"""

from __future__ import annotations

import numpy as np


def standardize(x, y):
    """``(xs, mean, safe_scale, live, ybar, yc, lam_max)``: centred, unit-variance
    features (zero-variance columns stay zero), the centred target and the
    penalty ceiling ``max_j |xs_j' yc| / n``."""
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    live = scale > 0
    safe_scale = np.where(live, scale, 1.0)
    xs = (x - mean) / safe_scale
    ybar = float(y.mean())
    yc = y - ybar
    lam_max = float(np.max(np.abs(xs.T @ yc / y.size), initial=0.0))
    return xs, mean, safe_scale, live, ybar, yc, lam_max


def lasso_cd(x, y, lam, tol=1e-7, max_iter=100_000, warm_start=None):
    """Minimize (1/2n)||y - X beta||^2 + lam ||beta||_1 on standardized features.

    Returns ``(coef, intercept, n_sweeps, converged, objectives)`` with the
    coefficients on the original scale; ``lam`` at or above the ceiling gives
    exact zeros with no sweeps.
    """
    xs, mean, safe_scale, live, ybar, yc, lam_max = standardize(x, y)
    n, n_feat = xs.shape
    if lam >= lam_max:
        return np.zeros(n_feat), ybar, 0, True, np.array([])

    beta = np.zeros(n_feat) if warm_start is None else np.asarray(warm_start, float).copy()
    beta[~live] = 0.0
    col_ss = np.einsum("ij,ij->j", xs, xs) / n
    resid = yc - xs @ beta
    objectives = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in np.flatnonzero(live):
            old = beta[j]
            if old != 0.0:
                resid += xs[:, j] * old
            z = float(xs[:, j] @ resid) / n
            shrunk = z - lam if z > lam else (z + lam if z < -lam else 0.0)
            new = shrunk / col_ss[j]
            if new != 0.0:
                resid -= xs[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        objectives.append(0.5 * float(resid @ resid) / n + lam * float(np.sum(np.abs(beta))))
        if max_delta < tol:
            converged = True
            break
    coef = np.where(live, beta / safe_scale, 0.0)
    return coef, ybar - float(coef @ mean), sweeps, converged, np.array(objectives)


def lasso_objective(x, y, lam, coef, intercept):
    """The standardized-scale objective of an original-scale solution."""
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    scale = x.std(axis=0)
    beta = coef * np.where(scale > 0, scale, 1.0)
    resid = y - intercept - x @ coef
    return 0.5 * float(resid @ resid) / y.size + lam * float(np.sum(np.abs(beta)))


def lag_design(series, lag_window):
    """Rows ``(y_{t-1}, ..., y_{t-L})`` against targets ``y_t``."""
    series = np.asarray(series, float)
    design = np.column_stack([series[lag_window - 1 - j:series.size - 1 - j]
                              for j in range(lag_window)])
    return design, series[lag_window:]


def select_lambda_cd(series, lag_window, cv_folds, grid_size, grid_floor, tol=1e-7):
    """Forward-chaining CV of ``lasso_cd`` over the default geometric grid,
    fold by fold and penalty by penalty; ties go to the largest penalty."""
    x, y = lag_design(series, lag_window)
    n = y.size
    lam_max = standardize(x, y)[-1]
    grid = (np.array([0.0]) if lam_max <= 0
            else np.geomspace(lam_max, lam_max * grid_floor, grid_size))
    bounds = [round(n * (i + 1) / (cv_folds + 1)) for i in range(cv_folds + 1)]
    scores = np.zeros(grid.size)
    for f in range(cv_folds):
        split, stop = bounds[f], bounds[f + 1]
        x_tr, y_tr, x_va, y_va = x[:split], y[:split], x[split:stop], y[split:stop]
        if y_va.size == 0 or y_tr.size == 0:
            continue
        safe_scale = standardize(x_tr, y_tr)[2]
        warm = None
        for g, lam in enumerate(grid):
            coef, intercept, *_ = lasso_cd(x_tr, y_tr, lam, tol=tol, warm_start=warm)
            warm = coef * safe_scale
            pred = intercept + x_va @ coef
            scores[g] += float(np.mean((y_va - pred) ** 2))
    return float(grid[int(np.argmin(scores))])
