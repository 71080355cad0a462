"""Slow reference implementations that the package's fast paths are tested against.

``lasso_cd`` is the residual-form scalar coordinate descent (one Python-level
update per coefficient, the residual kept up to date) and ``select_lambda_cd``
the forward-chaining cross-validation built on it, each warm start taken from
the previous penalty's fit. Both are written from the definitions, share no
code with ``tvpgvar.forecast`` and reproduce what the package computed before
it moved to batched solvers; the package now follows the exact lasso path, so
``lasso_cd`` is the only coordinate descent left.

``select_lasso_lambda_cube`` is the package's cross-validation as it scored
before it held one penalty at a time: each fold's validation residuals for
every grid penalty at once, as one (grid, series, rows) cube. It shares the
package's path solver, so it pins the scoring and its summation order only.

``dense_asymptotic_inputs`` and ``dense_asymptotic_bands`` are the
Kronecker-form delta-method bands: the full w^2 x w^2 input covariances
``S_alpha = M^-1 kron Sigma`` and ``S_sigma = 2 D+ (Sigma kron Sigma) D+'``
pushed through ``derivative_Gn`` and ``derivative_H``. They are what the
package computed before it moved to the closed form, together with the
``vec``/``vech``/duplication-matrix kit they need.

``oirf_point`` is the point response ``B_s G0^-1 chol(Sigma_u) u`` from its
definition, ``B_s = F1^s`` by matrix powers and ``u`` the sum of the shocked
unit vectors, sharing no code with the package's accumulation.

``fit_equation_loop`` is the TVP sampler one column at a time: per
iteration a banded path draw through SciPy's public LAPACK wrappers, the
data-based prior ``A0^-1 = diag{diag(pinv(X'X))}``, three generic solves for
the coefficient draw and a scalar variance draw. It is what the package ran
before the iteration was batched over the panel's columns, and it draws from
the column's generator in the same order: path normals, 4 normals, a gamma.

``expand_to_monthly_np`` puts one raw series on a range of months with numpy,
as ``ingest`` did before it moved to the standard library: ``np.interp``
between quarterly anchors, or the anchor at
``np.searchsorted(anchors, months, side="right") - 1`` for repeat-last.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtri

from tvpgvar.forecast import _lasso_path, _original_scale, _stack, _standardize
from tvpgvar.gvar import ma_coefficients, spectral_radius
from tvpgvar.ingest import month_index
from tvpgvar.irf import IRFResult, cholesky_lower, derivative_Gn, derivative_H
from tvpgvar.tvp import C0_RATE, C0_SHAPE, P0_SCALE, RIDGE_JITTER, TVPTrajectory


def standardize(x, y):
    """``(xs, mean, safe_scale, live, ybar, yc, lam_max)``: centred, unit-variance
    features (a column whose values are all equal is dead and stays zero), the
    centred target and the penalty ceiling ``max_j |xs_j' yc| / n``."""
    x = np.asarray(x, float)
    y = np.asarray(y, float).reshape(-1)
    mean = x.mean(axis=0)
    live = np.array([np.unique(column).size > 1 for column in x.T], dtype=bool)
    safe_scale = np.where(live, x.std(axis=0), 1.0)
    xs = (x - mean) / safe_scale
    xs[:, ~live] = 0.0
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


def select_lasso_lambda_cube(x, y, grids, cv_folds):
    """``select_lasso_lambda``'s picks and stalled rows, each fold scored as one
    residual cube over the whole grid."""
    n_series, n = y.shape
    bounds = [round(n * (i + 1) / (cv_folds + 1)) for i in range(cv_folds + 1)]
    folds = [(bounds[f], bounds[f + 1]) for f in range(cv_folds)
             if 0 < bounds[f] < bounds[f + 1]]
    scores, stalled = np.zeros(grids.shape), {}
    if folds:
        problems = _stack([_standardize(x[s, :split], y[s, :split])
                           for split, _ in folds for s in range(n_series)])
        betas, stalled = _lasso_path(problems, np.tile(grids, (len(folds), 1)))
        coef, intercept = _original_scale(problems, betas)
        for f, (split, stop) in enumerate(folds):
            part = slice(f * n_series, (f + 1) * n_series)
            resid = np.einsum("smj,gsj->gsm", x[:, split:stop], coef[:, part])
            resid = resid + intercept[:, part, None] - y[:, split:stop]
            scores += np.mean(np.square(resid), axis=2).T
    return np.argmin(scores, axis=1), {row % n_series: why for row, why in stalled.items()}


def vec(a):
    """Column-stacking operator."""
    return np.asarray(a).reshape(-1, order="F")


def vech(a):
    """Column-stacking of the on-and-below-diagonal elements."""
    a = np.asarray(a)
    return np.concatenate([a[j:, j] for j in range(a.shape[0])])


def duplication_matrix(m):
    """D_m with D_m vech(S) = vec(S) for symmetric S."""
    out = np.zeros((m * m, m * (m + 1) // 2))
    for r, (i, j) in enumerate((i, j) for j in range(m) for i in range(j, m)):
        out[j * m + i, r] = 1.0
        out[i * m + j, r] = 1.0
    return out


def dense_asymptotic_inputs(panel, system):
    """``(S_alpha, S_sigma)``: the covariances of ``vec(dF1)`` and ``vech(dSigma)``."""
    t_len, width = panel.values.shape
    lagged = np.column_stack([np.ones(t_len - 1), panel.values[:-1]])
    moment_inv = np.linalg.inv(lagged.T @ lagged / (t_len - 1))
    sigma_eps = system.sigma_eps
    sigma_alpha = np.kron(moment_inv[1:, 1:], sigma_eps)
    dup_pinv = np.linalg.pinv(duplication_matrix(width))
    sigma_sigma = 2.0 * dup_pinv @ np.kron(sigma_eps, sigma_eps) @ dup_pinv.T
    return sigma_alpha, sigma_sigma


def oirf_point(system, shock):
    """``B_s G0^-1 chol(Sigma_u) u`` for s = 0..n, one row per horizon."""
    u = np.zeros(system.width)
    u[list(shock.targets)] = 1.0
    impact = np.linalg.solve(system.g0, np.linalg.cholesky(system.sigma_u) @ u)
    return np.array([np.linalg.matrix_power(system.f1, s) @ impact
                     for s in range(shock.horizon + 1)])


def dense_asymptotic_bands(system, shock, sample_size, sigma_alpha, sigma_sigma):
    """Half-widths from ``C_s S_alpha C_s' + Cbar_s S_sigma Cbar_s'`` with
    ``C_0 = 0``, ``C_s = (P' kron I) G_s`` and ``Cbar_s = (I kron B_s) H``,
    ``P = chol(Sigma_eps)``; multi-target shocks sum the shocked columns."""
    width = system.width
    chol_eps = cholesky_lower(system.sigma_eps)
    mas = ma_coefficients(system.f1, shock.horizon)
    h_mat = derivative_H(chol_eps)
    z = ndtri(0.5 + shock.level / 2.0)
    eye = np.eye(width)
    selector = np.zeros((width, width * width))
    for j in shock.targets:
        selector[np.arange(width), j * width + np.arange(width)] += 1.0
    point = oirf_point(system, shock)
    half = np.empty_like(point)
    for s in range(shock.horizon + 1):
        cbar = np.kron(eye, mas[s]) @ h_mat
        cov = cbar @ sigma_sigma @ cbar.T
        if s > 0:
            c_s = np.kron(chol_eps.T, eye) @ derivative_Gn(system.f1, mas, s)
            cov += c_s @ sigma_alpha @ c_s.T
        var = np.clip(np.diag(selector @ cov @ selector.T), 0.0, None)
        half[s] = z * np.sqrt(var) / np.sqrt(sample_size)
    return IRFResult(point=point, half_width=half,
                     radius=spectral_radius(system.f1),
                     g0_condition=float(np.linalg.cond(system.g0)),
                     at_time=shock.at_time, targets=shock.targets,
                     level=shock.level, sample_size=sample_size)


def _path_draw_loop(y, theta0, sqrt_omega, sigma2, rng):
    """Banded-precision draw of one column's standardized path, (T-1, 2)."""
    n = y.size - 1
    ylag = y[:-1]
    h = np.column_stack([np.full(n, sqrt_omega[0]), sqrt_omega[1] * ylag])
    ystar = y[1:] - (theta0[0] + theta0[1] * ylag)
    band = np.zeros((2 * n, 3))
    band[2:, 0] = -1.0
    band[1::2, 1] = h[:, 0] * h[:, 1] / sigma2
    band[:, 2] = (h * h).reshape(-1) / sigma2 + 2.0
    band[-2:, 2] -= 1.0
    band[:2, 2] += 1.0 / (1.0 + P0_SCALE) - 1.0
    chol, info = lapack.dpbtrf(band.T.copy())
    assert info == 0, f"dpbtrf info {info}"
    w, _ = lapack.dtbtrs(chol, (h * (ystar / sigma2)[:, None]).reshape(-1, 1), trans="T")
    draw, _ = lapack.dtbtrs(chol, w + rng.standard_normal((2 * n, 1)))
    return draw.reshape(n, 2)


def fit_equation_loop(y, iters, seed):
    """The final draw of ``iters`` sampler iterations on one column, seeded by
    ``default_rng(seed)``."""
    y = np.asarray(y, float)
    rng = np.random.default_rng(seed)
    theta0, sqrt_omega, sigma2 = np.zeros(2), np.ones(2), 0.1
    for _ in range(iters):
        tilde = _path_draw_loop(y, theta0, sqrt_omega, sigma2, rng)
        target = y[1:]
        design = np.column_stack([np.ones(y.size - 1), y[:-1], tilde[:, 0], y[:-1] * tilde[:, 1]])
        xtx = design.T @ design
        prec = xtx / sigma2 + np.diag(np.clip(np.diag(np.linalg.pinv(xtx)), 0.0, None))
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            chol = np.linalg.cholesky(prec + RIDGE_JITTER * np.eye(4))
        mean = np.linalg.solve(chol.T, np.linalg.solve(chol, design.T @ target / sigma2))
        draw = mean + np.linalg.solve(chol.T, rng.standard_normal(4))
        theta0, sqrt_omega = draw[:2], draw[2:]
        resid = target - design @ draw
        rate = C0_RATE + 0.5 * float(resid @ resid)
        sigma2 = 1.0 / rng.gamma(shape=C0_SHAPE + target.size / 2.0, scale=1.0 / rate)
    return TVPTrajectory(theta0=theta0, sqrt_omega=sqrt_omega,
                         theta=theta0[None, :] + sqrt_omega[None, :] * tilde, sigma2=sigma2)


def expand_to_monthly_np(series, months, method):
    """``series`` (a ``RawSeries``) on ``months``, which lie within its first
    and last anchor, as a float array."""
    anchors = np.array([month_index(d) for d in series.dates])
    values = np.asarray(series.values, float)
    months = np.asarray(months)
    if series.frequency == "monthly":
        start = int(months[0] - anchors[0])
        return values[start:start + len(months)]
    if method == "linear-interpolate":
        return np.interp(months, anchors, values)
    return values[np.searchsorted(anchors, months, side="right") - 1]
