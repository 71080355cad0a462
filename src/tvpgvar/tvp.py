"""Per-equation time-varying intercept and slope estimation.

Each panel column i follows a scalar AR(1)-type equation whose intercept and
slope drift as independent random walks. The non-centred parametrization
(Fruhwirth-Schnatter & Wagner 2010) splits the coefficient path into a
constant part and a standardized path,

    theta_t = theta_0 + sqrt(Omega) * theta_tilde_t,

so the state shocks are standard normal and the square-root innovation
scales become plain regression coefficients. Estimation iterates: a joint
draw of the standardized path, a normal posterior draw for
(theta_0, sqrt_omega), and an inverse-gamma style draw for the observation
noise. The draws of the final iteration are reported.

The priors are fixed: theta_tilde_0 ~ N(0, P0_SCALE * I) with P0_SCALE = 1e-15;
(theta_0, sqrt_omega) ~ N(0, A0) with the data-based A0 = diag{1 / diag((X'X)^-1)}
of the current step-3 regression, recomputed each iteration (the diagonal is
read from the inverse Cholesky factor of X'X, or from its pseudo-inverse when
X'X is numerically singular, a test that no choice of units moves); and the
observation precision ~ Gamma(C0_SHAPE, C0_RATE) = Gamma(0.01, 0.01), all in
the column's sd units: each column runs divided by its ``column_scales``
entry and its draws are mapped back, so a change of units scales the results
but a shift of location still moves them. The only settings are the
iteration count and the seed (``TVPConfig``).

The path draw uses the banded posterior precision of the whole path (Chan &
Jeliazkov 2009): the random-walk prior plus one scalar observation per period
make it block tridiagonal, so one banded Cholesky factorization and two
banded triangular solves give an exact joint draw. The Kalman forward pass
and the backward (Carter-Kohn) draw are its references on plain arrays, in
2x2 matrix form; no stage runs them, and ``bench/spans.py`` wraps them.
The banded routines (LAPACK ``dpbtrf``/``dtbtrs``) come from SciPy's compiled
``_flapack`` extension, loaded by file path without importing ``scipy``.

One iteration runs once for all the columns of a panel. It first draws its
random numbers in one loop over the live columns: column i draws from its
own ``default_rng([seed, i])`` 2(T-1) path normals, 4 coefficient normals
and a standard gamma, in that order, so its result does not depend on the
others. The path bands are then built as (columns, ...) arrays and
factorized column by column; the coefficient draw (X'X, Cholesky factors,
triangular solves) and the variance draw run on (columns, ...) stacks. No
draw is rescued: a column whose draw fails (a non-finite X'X, a coefficient
posterior precision with no Cholesky factor, as all-zero lagged values give,
non-finite residuals) leaves the stack with that reason and the iteration;
the others go on. ``PanelTVPResult`` holds the stack's final draws, a failed
column as a row of NaN in each array; ``fit_equation`` is the one-column case.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import Record, TVPConfig
from .errors import NumericalError, ValidationError
from .ingest import TimeSeriesPanel
from .serialize import parse_float, read_table, write_csv, write_json

# X'X counts as singular when a squared Cholesky pivot over its own diagonal
# entry (1 - R^2 of that design column on the ones before it) is below this
SINGULAR_PIVOT = 1e-8
P0_SCALE = 1e-15  # prior covariance of the first standardized state, times I
C0_SHAPE = C0_RATE = 0.01  # Gamma prior of the observation precision


def kalman_forward(y: np.ndarray, theta0: np.ndarray, sqrt_omega: np.ndarray,
                   sigma2: float, m0: Sequence[float] = (0.0, 0.0),
                   p0: np.ndarray = P0_SCALE * np.eye(2),
                   state_noise: float = 1.0,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward Kalman pass for the standardized state path.

    Observation t (t = 1..T-1) is ``y_t - [1, y_{t-1}] @ theta0`` with loading
    ``H_t = [sqrt_omega_1, sqrt_omega_2 * y_{t-1}]``, observation variance
    ``sigma2``, and state innovation covariance ``state_noise * I`` (1 for the
    non-centred random walk; 0 degenerates to recursive least squares). The
    initial state is N(m0, p0), by default the sampler's fixed prior.

    Returns ``(m, p, innovations, innovation_var, gains)``, one row per step
    t=1..T-1: (n, 2), (n, 2, 2), (n,), (n,) and (n, 2). A reference for
    ``sample_theta_tilde_banded`` that no stage runs; it stays because
    ``bench/spans.py`` wraps it.
    """
    y = np.asarray(y, float).reshape(-1)
    if y.size < 2:
        raise ValidationError("need at least 2 observations to filter")
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    m = np.asarray(m0, float).reshape(2)
    p = np.asarray(p0, float).reshape(2, 2)
    p = (p + p.T) / 2.0
    q = state_noise * np.eye(2)
    n = y.size - 1
    means, covs, gains = np.empty((n, 2)), np.empty((n, 2, 2)), np.empty((n, 2))
    innovations, innovation_var = np.empty(n), np.empty(n)

    for t in range(1, y.size):
        x = np.array([1.0, y[t - 1]])
        h = sqrt_omega * x
        p = p + q
        v = y[t] - x @ theta0 - h @ m
        s = h @ p @ h + sigma2
        if s <= 0.0:
            raise NumericalError(f"non-positive innovation variance at step {t}")
        k = p @ h / s
        m = m + k * v
        p = p - s * np.outer(k, k)
        means[t - 1], covs[t - 1], gains[t - 1] = m, p, k
        innovations[t - 1], innovation_var[t - 1] = v, s
    return means, covs, innovations, innovation_var, gains


def sample_theta_tilde_smoothed(m: np.ndarray, p: np.ndarray, normals: np.ndarray,
                                state_noise: float = 1.0) -> np.ndarray:
    """Joint draw of the standardized path by backward sampling from ``normals``
    (n, 2), given ``kalman_forward``'s filtered means ``m`` and covariances ``p``.

    Draws theta_tilde_{T-1} from its filtered distribution, then walks
    backward through the conditionals of the random-walk state equation
    (Carter-Kohn). Unlike independent filtered draws this respects the serial
    dependence of the path, which keeps the scale coefficients identified.

    A reference for ``sample_theta_tilde_banded`` that no stage runs; it stays
    because ``bench/spans.py`` wraps it.
    """
    if state_noise <= 0:
        raise ValidationError("joint state draw needs positive state noise")
    n = m.shape[0]
    z = np.reshape(normals, (n, 2))
    q = state_noise * np.eye(2)

    def chol_draw(mean, cov, z):
        # pivots clipped at zero: at the fixed prior the first covariances are nearly singular
        l00 = np.sqrt(max(cov[0, 0], 0.0))
        l10 = cov[0, 1] / l00 if l00 > 0 else 0.0
        l11 = np.sqrt(max(cov[1, 1] - l10 * l10, 0.0))
        return mean + np.array([[l00, 0.0], [l10, l11]]) @ z

    draws = np.empty((n, 2))
    draws[-1] = chol_draw(m[-1], p[-1], z[-1])
    for t in range(n - 2, -1, -1):
        gain = np.linalg.solve(p[t] + q, p[t]).T  # P_t (P_t + qI)^-1
        mean = m[t] + gain @ (draws[t + 1] - m[t])
        draws[t] = chol_draw(mean, p[t] - gain @ p[t], z[t])
    return draws


@functools.cache
def _flapack():
    """SciPy's compiled LAPACK wrappers, the module behind ``scipy.linalg.lapack``.

    ``import scipy.linalg`` adds about 0.23 s and 28 MB to the start of every
    process that draws a path, mostly for modules the draw never calls; the
    extension loaded alone exposes the same Fortran routines. It is left out
    of ``sys.modules``, so a later ``import scipy.linalg`` loads its own copy.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("SciPy is not installed; tvpgvar needs scipy>=1.10 for its "
                          "compiled LAPACK extension")
    folder = Path(spec.origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no compiled LAPACK extension _flapack.* in {folder}; "
                          "tvpgvar needs scipy>=1.10")
    loader = importlib.machinery.ExtensionFileLoader("_flapack", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location("_flapack", path, loader=loader))
    loader.exec_module(module)
    # CPython files a single-phase extension module under its name on creation
    if sys.modules.get("_flapack") is module:
        del sys.modules["_flapack"]
    return module


def sample_theta_tilde_banded(y: np.ndarray, theta0: np.ndarray, sqrt_omega: np.ndarray,
                              sigma2: np.ndarray, normals: np.ndarray,
                              ) -> tuple[np.ndarray, dict[int, str]]:
    """Joint draws of the standardized paths of a stack of columns from their
    banded posterior precisions.

    ``y`` is (columns, T), ``theta0`` and ``sqrt_omega`` are (columns, 2),
    ``sigma2`` is (columns,) and column c's draw adds the normals
    ``z = normals[c]`` (2(T-1),). Same model as ``kalman_forward`` with unit
    state noise and the fixed prior N(0, P0_SCALE * I). The states are
    interleaved, index 2(t-1)+k holding ``theta_tilde[t, k]``, so the
    precision ``K`` has upper bandwidth 2: diagonal blocks
    ``(1 / (1 + P0_SCALE) + 1) I`` (first), ``2I`` (middle) and ``I`` (last;
    a one-step path has just ``I / (1 + P0_SCALE)``), each plus
    ``h_t h_t' / sigma2``, and off-diagonal blocks ``-I``. With ``K = LL'``
    the draw ``L^-T (L^-1 b + z)`` has mean ``K^-1 b`` and covariance
    ``K^-1``, where ``b = h_t y*_t / sigma2``.

    The bands and right-hand sides are built for the whole stack, in place,
    so the only full-size arrays are the band and the right-hand sides; the
    factorization and the two solves run column by column, and each column's
    draw overwrites its right-hand side. The band is kept in LAPACK's lower
    storage, where ``dpbtrf`` updates unit-stride vectors: it gives the same
    factor as the upper storage, whose strided updates took 58 against 21 us
    for a 498-row band (2-core host, OpenBLAS). Returns the draws
    (columns, T-1, 2) and {column: reason} for the columns whose precision
    is not positive definite (their rows are zero).
    """
    y = np.asarray(y, float)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValidationError("need at least 2 observations to draw a path")
    if np.any(sigma2 <= 0):
        raise ValidationError("sigma2 must be positive")
    width, n = y.shape[0], y.shape[1] - 1
    ylag = y[:, :-1]
    s2 = sigma2[:, None]
    h0 = sqrt_omega[:, :1]  # h_t = [h0, h1_t]
    # rhs[c, 2(t-1)+k] becomes h_tk y*_t / sigma2; until then the odd rows
    # hold h1_t and the even rows y*_t / sigma2
    rhs = np.empty((width, 2 * n, 1))
    h1, scaled = rhs[:, 1::2, 0], rhs[:, 0::2, 0]
    np.multiply(sqrt_omega[:, 1:], ylag, out=h1)
    np.multiply(theta0[:, 1:], ylag, out=scaled)
    np.add(theta0[:, :1], scaled, out=scaled)
    np.subtract(y[:, 1:], scaled, out=scaled)
    np.divide(scaled, s2, out=scaled)

    # row j = 2(t-1)+k of band[c] holds K[j, j], K[j+1, j], K[j+2, j] (its
    # transpose is LAPACK's lower band storage, already in Fortran order);
    # rows[c, t-1, k] is row 2(t-1)+k
    band = np.zeros((width, 2 * n, 3))
    rows = band.reshape(width, n, 2, 3)
    rows[:, :, 0, 0] = h0 * h0 / s2 + 2.0
    for entry, factor in ((rows[:, :, 1, 0], h1), (rows[:, :, 0, 1], h0)):
        np.multiply(factor, h1, out=entry)
        np.divide(entry, s2, out=entry)
    rows[:, :, 1, 0] += 2.0
    rows[:, :-1, :, 2] = -1.0
    band[:, -2:, 0] -= 1.0
    band[:, :2, 0] += 1.0 / (1.0 + P0_SCALE) - 1.0
    np.multiply(h1, scaled, out=h1)
    np.multiply(h0, scaled, out=scaled)

    lapack = _flapack()
    failed = {}
    for c in range(width):
        chol, info = lapack.dpbtrf(band[c].T, lower=1, overwrite_ab=1)
        if info != 0:
            failed[c] = f"state precision not positive definite (dpbtrf info {info})"
            rhs[c] = 0.0
            continue
        w, _ = lapack.dtbtrs(chol, rhs[c], uplo="L", overwrite_b=1)
        w += normals[c, :, None]
        rhs[c], _ = lapack.dtbtrs(chol, w, uplo="L", trans="T", overwrite_b=1)
    return rhs.reshape(width, n, 2), failed


def _step3_design(y: np.ndarray, theta_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regression targets (columns, n) and designs (columns, n, 4) for the
    constant and scale coefficients."""
    ylag = y[:, :-1]
    design = np.empty(theta_tilde.shape[:2] + (4,))
    design[..., 0] = 1.0
    design[..., 1] = ylag
    design[..., 2] = theta_tilde[..., 0]
    design[..., 3] = ylag * theta_tilde[..., 1]
    return y[:, 1:], design


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lower Cholesky factors of a stack of matrices, and the positions that
    have none, being non-finite or not positive definite (their factor is
    the identity)."""
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        a = np.where(bad[:, None, None], np.eye(a.shape[-1]), a)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        chol = np.empty_like(a)
        for c, matrix in enumerate(a):
            try:
                chol[c] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                chol[c] = np.eye(a.shape[-1])
                bad[c] = True
    return chol, np.flatnonzero(bad).tolist()


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices, row by row by forward
    substitution against the identity."""
    dim = chol.shape[-1]
    inv = np.zeros_like(chol)
    pivots = 1.0 / chol.reshape(-1, dim * dim)[:, ::dim + 1]
    inv.reshape(-1, dim * dim)[:, ::dim + 1] = pivots
    for j in range(1, dim):
        inv[:, j, :j] = -(chol[:, j, None, :j] @ inv[:, :j, :j])[:, 0] * pivots[:, j, None]
    return inv


def _inverse_diagonal(xtx: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """``diag((X'X)^-1)`` of a stack from the inverse Cholesky factors, as
    ``(X'X)^-1 = L^-T L^-1``, and {column: reason} for the non-finite ones.

    A numerically singular ``X'X`` (no Cholesky factor, or a squared pivot
    at most SINGULAR_PIVOT times its own diagonal entry, as a constant series
    gives) takes the diagonal of its pseudo-inverse instead, clipped at zero,
    which drops the unidentified direction. The ratio ``L_jj^2 / (X'X)_jj``
    is ``1 - R^2`` of design column j on the columns before it, so no choice
    of units moves the test.
    """
    chol, singular = _cholesky(xtx)
    dim = xtx.shape[-1]
    pivots = chol.reshape(-1, dim * dim)[:, ::dim + 1] ** 2
    diagonal = xtx.reshape(-1, dim * dim)[:, ::dim + 1]
    tiny = np.flatnonzero((pivots <= SINGULAR_PIVOT * diagonal).any(axis=1))
    singular = set(singular).union(tiny.tolist())
    diag = np.sum(_lower_inverse(chol) ** 2, axis=1)
    failed = {}
    for c in sorted(singular):
        if not np.all(np.isfinite(xtx[c])):
            failed[c] = "non-finite X'X in coefficient posterior"
            continue
        try:
            diag[c] = np.clip(np.diag(np.linalg.pinv(xtx[c])), 0.0, None)
        except np.linalg.LinAlgError as exc:
            failed[c] = f"no pseudo-inverse of X'X ({exc})"
    return diag, failed


def sample_theta0_omega(target: np.ndarray, design: np.ndarray, sigma2: np.ndarray,
                        z: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Draw (theta0, sqrt_omega) of a stack of columns from their joint normal
    posteriors.

    ``target`` (columns, n) and ``design`` (columns, n, 4) are the step-3
    regressions: y_t on the row [1, y_{t-1}, tilde_1t, y_{t-1} * tilde_2t].
    The posterior is N(A X'y / sigma^2, A) with A = (X'X/sigma^2 + A0^-1)^-1
    and the data-based A0^-1 = diag{diag((X'X)^-1)}; column c's draw adds the
    normals ``z[c]`` (4,). Returns the draws (columns, 4), theta0 then
    sqrt_omega, and {column: reason} for the columns that have none. Signs of
    sqrt_omega are unidentified and may come back negative; the implied
    variances use the squares.
    """
    design_t = design.transpose(0, 2, 1)
    xtx = design_t @ design
    prior, failed = _inverse_diagonal(xtx)
    prec = xtx / sigma2[:, None, None]
    prec.reshape(-1, 16)[:, ::5] += prior  # the diagonals
    rhs = (design_t @ target[..., None]) / sigma2[:, None, None]
    chol, singular = _cholesky(prec)
    for c in singular:
        failed.setdefault(c, "rank-deficient design in coefficient posterior")
    # mean = prec^-1 rhs; the draw chol^-T (chol^-1 rhs + z) adds covariance prec^-1
    inv = _lower_inverse(chol)
    draw = inv.transpose(0, 2, 1) @ (inv @ rhs + z[..., None])
    return draw[..., 0], failed


def _precision_shape(n: int) -> float:
    """The Gamma posterior shape of the observation precision after n observations."""
    return C0_SHAPE + n / 2.0


def sample_sigma(target: np.ndarray, design: np.ndarray, theta_star: np.ndarray,
                 gammas: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Draw the observation variances (columns,) of the step-3 regressions.

    Column c's precision is ``gammas[c] / rate`` with the rate C0_RATE + SSR/2
    of its residuals: a Gamma(shape, rate) draw when ``gammas[c]`` is a
    standard Gamma(shape) draw. Returns the variances and {column: reason}
    for the columns whose SSR is not finite (their variance is 1)."""
    resid = target - (design @ theta_star[..., None])[..., 0]
    rates = C0_RATE + 0.5 * np.einsum("cn,cn->c", resid, resid)
    ok = np.isfinite(rates)
    sigma2 = np.ones(rates.size)
    # the scale 1/rate times the standard draw, as Generator.gamma computes it
    sigma2[ok] = 1.0 / ((1.0 / rates[ok]) * gammas[ok])
    return sigma2, dict.fromkeys(np.flatnonzero(~ok).tolist(),
                                 "non-finite residuals in variance update")


def _drop(failed: dict[int, str], it: int, errors: dict[int, str],
          ids: np.ndarray, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Record the failed stack positions as errors of their columns ``ids``
    and remove them from ``ids`` and every stack."""
    if not failed:
        return (ids, *stacks)
    for pos, reason in failed.items():
        errors[int(ids[pos])] = f"iteration {it}: {reason}"
    return tuple(np.delete(stack, list(failed), axis=0) for stack in (ids, *stacks))


def column_scales(y: np.ndarray) -> np.ndarray:
    """Each row's sd over ``y`` (columns, T), or 1 where its values are all
    equal (rounding gives a constant 4.2 an sd of 8.9e-16) or the sd is not
    positive and finite (it overflows from |values| of 1e153 at T = 250)."""
    y = np.ascontiguousarray(y)  # the sums of strided rows round differently
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.std(y, axis=1)
    return np.where(np.any(y != y[:, :1], axis=1) & (sd > 0) & (sd < np.inf), sd, 1.0)


def _row_problems(theta0: np.ndarray, sqrt_omega: np.ndarray, theta: np.ndarray,
                  sigma2: np.ndarray) -> dict[int, str]:
    """{row: reason} for the rows of a column stack that are neither a fit nor
    a failed column's row of NaN: a fit's sigma2 is positive and finite, and
    then every entry of its theta0, sqrt_omega and theta is finite."""
    failed, finite = np.isnan(sigma2), np.ones(sigma2.shape, dtype=bool)
    for array in (theta0, sqrt_omega, theta):
        axes = tuple(range(1, array.ndim))
        failed &= np.isnan(array).all(axis=axes)
        finite &= np.isfinite(array).all(axis=axes)
    # written so that NaN fails: every comparison with NaN is False
    positive = (sigma2 > 0) & (sigma2 < np.inf)
    return {int(c): "sigma2 must be positive and finite" if not positive[c]
            else "theta0, sqrt_omega or theta is not finite"
            for c in np.flatnonzero(~failed & ~(positive & finite))}


class PanelTVPResult(Record):
    """Final-draw coefficient paths of a stack of panel columns: ``theta0`` and
    ``sqrt_omega`` (columns, 2), ``theta`` (columns, n, 2), whose row t of
    column c (intercept, slope) goes with observation t+1 of the column, and
    ``sigma2`` (columns,). A failed column is a row of NaN in every array,
    with its reason in ``errors`` by column name, one entry per such row; the
    others pass ``_row_problems``. The arrays are read-only once checked."""

    def __init__(self, theta0: np.ndarray, sqrt_omega: np.ndarray, theta: np.ndarray,
                 sigma2: np.ndarray, errors: dict[str, str]):
        if theta.ndim != 3 or len({theta0.shape, sqrt_omega.shape, theta.shape[::2],
                                   sigma2.shape + theta.shape[2:]}) > 1:  # (columns, k) each
            raise ValidationError(f"theta0 {theta0.shape}, sqrt_omega {sqrt_omega.shape}, theta "
                                  f"{theta.shape} and sigma2 {sigma2.shape} do not stack")
        problems = _row_problems(theta0, sqrt_omega, theta, sigma2)
        if problems:
            raise ValidationError(next(iter(problems.values())))
        if len(errors) != np.isnan(sigma2).sum():
            raise ValidationError(f"errors has {len(errors)} entries, not one per row of NaN")
        for array in (theta0, sqrt_omega, theta, sigma2):
            array.setflags(write=False)
        self._set(theta0=theta0, sqrt_omega=sqrt_omega, theta=theta, sigma2=sigma2,
                  errors=errors)


def _sample_stack(y: np.ndarray, iters: int, seeds: Sequence,
                  ) -> tuple[list[np.ndarray], dict[int, str]]:
    """Iterate path / coefficient / variance draws on the rows of ``y``
    (columns, T) together, each divided by its ``column_scales`` entry, row c
    drawing from ``default_rng(seeds[c])``, and keep the final draws in the
    rows' own units, as ``PanelTVPResult``'s arrays. A row that fails leaves
    the stack; its rows are NaN, with the reason in the returned {row: reason}."""
    # contiguous rows: a strided stack would take numpy's strided loops, whose
    # sums round differently, and a column's draws would depend on the layout
    y = np.ascontiguousarray(y)
    scales = column_scales(y)
    y = y / scales[:, None]
    width, n = y.shape[0], y.shape[1] - 1
    ids = np.arange(width)
    rngs = np.array([np.random.default_rng(seed) for seed in seeds], dtype=object)
    normals, gammas = np.empty((width, 2 * n + 4)), np.empty(width)  # live columns: first rows
    shape = _precision_shape(n)
    theta_star = np.zeros((width, 4))  # theta0, then sqrt_omega
    theta_star[:, 2:] = 1.0
    sigma2 = np.full(width, 0.1)
    errors: dict[int, str] = {}
    # a column that overflows is caught by the draws' finiteness checks and
    # reported; numpy's warnings on its way there would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(iters):
            # the previous path goes before the next band is built, and the
            # step-3 arrays after their last use: one iteration at a time
            tilde = None
            # every random number of the iteration, in each column's stream order
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=normals[c])
                gammas[c] = rng.standard_gamma(shape)
            path_normals, coef_normals = normals[:ids.size, :2 * n], normals[:ids.size, 2 * n:]
            tilde, path_failed = sample_theta_tilde_banded(
                y, theta_star[:, :2], theta_star[:, 2:], sigma2, path_normals)
            target, design = _step3_design(y, tilde)
            theta_star, coef_failed = sample_theta0_omega(target, design, sigma2, coef_normals)
            sigma2, sigma_failed = sample_sigma(target, design, theta_star, gammas[:ids.size])
            del target, design
            # failed draws leave NaN rows, not exceptions; the first reason wins
            ids, y, theta_star, sigma2, tilde, rngs = _drop(
                {**sigma_failed, **coef_failed, **path_failed}, it, errors,
                ids, y, theta_star, sigma2, tilde, rngs)
            if not ids.size:
                break
        # back to each column's own units; entries 0 and 2 are the intercept's
        theta_star[:, ::2] *= scales[ids, None]
        sigma2 *= scales[ids] ** 2
        theta = theta_star[:, None, :2] + theta_star[:, None, 2:] * tilde

    stack = [theta_star[:, :2].copy(), theta_star[:, 2:].copy(), theta, sigma2]
    errors.update({int(ids[pos]): reason for pos, reason in _row_problems(*stack).items()})
    if errors:
        for k, live in enumerate(stack):
            stack[k] = np.full((width,) + live.shape[1:], np.nan)
            stack[k][ids] = live
            stack[k][list(errors)] = np.nan
    return stack, errors


def fit_equation(y: np.ndarray, iters: int, seed: int | Sequence[int]) -> PanelTVPResult:
    """Iterate path / coefficient / variance draws on one column and keep the
    final draw; ``seed`` seeds the column's own ``default_rng``. This is
    ``estimate_all`` on a one-column stack; a failed draw raises NumericalError.
    No stage runs it; it stays because ``bench/spans.py`` wraps it."""
    y = np.asarray(y, float).reshape(-1)
    if y.size < 3:
        raise ValidationError("need at least 3 observations per equation")
    if not np.all(np.isfinite(y)):
        raise ValidationError("observations must be finite")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    stack, errors = _sample_stack(y[None, :], iters, [seed])
    if errors:
        raise NumericalError(errors[0])
    return PanelTVPResult(*stack, errors={})


def estimate_all(panel: TimeSeriesPanel, config: TVPConfig) -> PanelTVPResult:
    """Fit every panel column, all columns in one sampler iteration; column i
    draws from its own ``default_rng([seed, i])``, so its result depends
    neither on the other columns nor on evaluation order. A column that fails
    leaves the stack with the iteration in its reason; the others continue. A
    panel and a config are checked as they are built, so every column starts.
    """
    stack, failed = _sample_stack(panel.values.T, config.iters,
                                  [(config.seed, i) for i in range(panel.width)])
    names = panel.column_names()
    return PanelTVPResult(*stack, errors={names[i]: failed[i] for i in sorted(failed)})


def write_trajectories(result: PanelTVPResult, panel: TimeSeriesPanel,
                       config: TVPConfig, csv_path: str | Path, meta_path: str | Path) -> None:
    """Export paths as ``date,column,b,f1`` rows plus a JSON sidecar."""
    names = panel.column_names()
    dates = panel.time_index[1:]
    fitted = np.flatnonzero(~np.isnan(result.sigma2)).tolist()  # a failed column is NaN
    # one column's Python floats at a time: write_csv formats them fastest
    rows = ((date, names[i], b, f1)
            for i in fitted for date, (b, f1) in zip(dates, result.theta[i].tolist()))
    write_csv(csv_path, ["date", "column", "b", "f1"], rows)
    columns = {names[i]: {"theta0": result.theta0[i], "sqrt_omega": result.sqrt_omega[i],
                          "sigma2": float(result.sigma2[i])} for i in fitted}
    write_json({"seed": config.seed, "iters": config.iters, "columns": columns,
                "errors": result.errors}, meta_path)


def read_trajectories(csv_path: str | Path) -> dict[str, tuple[list[str], np.ndarray]]:
    """Read a trajectory (or predicted-path) CSV: column -> (dates, (n, 2))."""
    dates: dict[str, list[str]] = {}
    values: dict[str, list[list[float]]] = {}
    for where, (date, column, b, f1) in read_table(csv_path, ["date", "column", "b", "f1"]):
        dates.setdefault(column, []).append(date)
        values.setdefault(column, []).append([parse_float(b, where), parse_float(f1, where)])
    return {col: (dates[col], np.array(values[col])) for col in dates}
