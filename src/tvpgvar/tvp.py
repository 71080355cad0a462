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
X'X is numerically singular); and the observation precision
~ Gamma(C0_SHAPE, C0_RATE) = Gamma(0.01, 0.01). The only settings are the
iteration count and the seed (``TVPConfig``).

The path draw uses the banded posterior precision of the whole path (Chan &
Jeliazkov 2009): the random-walk prior plus one scalar observation per period
make it block tridiagonal, so one banded Cholesky factorization and two
banded triangular solves give an exact joint draw. The Kalman forward pass
and the backward (Carter-Kohn) draw stay as reference implementations.
The banded routines (LAPACK ``dpbtrf``/``dtbtrs``) come from SciPy's compiled
``_flapack`` extension, loaded by file path without importing ``scipy``.

One iteration runs once for all the columns of a panel. The draws take
stacks: the bands and right-hand sides of the path draws are built as
(columns, ...) arrays and factorized column by column; the step-3 designs
(columns, n, 4), their X'X (columns, 4, 4), the Cholesky factors and the
triangular solves of the coefficient draw, and the residual sums of the
variance draw are stacked. Column i keeps its own ``default_rng([seed, i])``
and draws from it in the order path normals, 4 normals, gamma, so a column's
result does not depend on the others. A column whose draw fails (a
non-finite X'X, a precision without a Cholesky factor, non-finite
residuals) leaves the stack with its first failed draw's reason, naming the
iteration; the others go on. A trajectory keeps theta0, sqrt_omega, the
theta path and sigma2. ``fit_equation`` is the one-column case.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import TVPConfig
from .errors import NumericalError, ValidationError
from .ingest import TimeSeriesPanel
from .serialize import parse_float, read_table, write_csv, write_json

RIDGE_JITTER = 1e-8
SINGULAR_PIVOT = 1e-8  # relative squared Cholesky pivot below which X'X counts as singular
P0_SCALE = 1e-15  # prior covariance of the first standardized state, times I
C0_SHAPE = C0_RATE = 0.01  # Gamma prior of the observation precision


@dataclass(frozen=True)
class KalmanState:
    """Filtered moments and update diagnostics, one row per step t=1..T-1."""

    m: np.ndarray               # (n, 2) filtered means
    p: np.ndarray               # (n, 2, 2) filtered covariances
    innovations: np.ndarray     # (n,)
    innovation_var: np.ndarray  # (n,)
    gains: np.ndarray           # (n, 2)


@dataclass(frozen=True)
class TVPTrajectory:
    """Final-draw coefficient paths for one panel column.

    Row t of ``theta`` (intercept, slope) corresponds to observation t+1 of
    the input series (the first observation is consumed as the initial lag).
    Every entry is finite, and the arrays are read-only once checked.
    """

    theta0: np.ndarray       # (2,)
    sqrt_omega: np.ndarray   # (2,)
    theta: np.ndarray        # (n, 2)
    sigma2: float

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is False
        if not self.sigma2 > 0:
            raise ValidationError("sigma2 must be positive")
        arrays = (self.theta0, self.sqrt_omega, self.theta)
        if not all(np.isfinite(array).all() for array in arrays):
            raise ValidationError("theta0, sqrt_omega or theta is not finite")
        for array in arrays:
            array.setflags(write=False)


def kalman_forward(y: np.ndarray, theta0: np.ndarray, sqrt_omega: np.ndarray,
                   sigma2: float, m0: Sequence[float] = (0.0, 0.0),
                   p0: np.ndarray = P0_SCALE * np.eye(2),
                   state_noise: float = 1.0) -> KalmanState:
    """Forward Kalman pass for the standardized state path.

    Observation t (t = 1..T-1) is ``y_t - [1, y_{t-1}] @ theta0`` with loading
    ``H_t = [sqrt_omega_1, sqrt_omega_2 * y_{t-1}]``, observation variance
    ``sigma2``, and state innovation covariance ``state_noise * I`` (1 for the
    non-centred random walk; 0 degenerates to recursive least squares). The
    initial state is N(m0, p0), by default the sampler's fixed prior.
    """
    y = np.asarray(y, float).reshape(-1)
    if y.size < 2:
        raise ValidationError("need at least 2 observations to filter")
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    m0 = np.asarray(m0, float).reshape(2)
    p0 = np.asarray(p0, float).reshape(2, 2)
    n = y.size - 1

    m_out = np.empty((n, 2))
    p_out = np.empty((n, 2, 2))
    v_out = np.empty(n)
    s_out = np.empty(n)
    k_out = np.empty((n, 2))

    # scalar 2x2 recursion: much faster than ndarray ops at this size
    m0, m1 = float(m0[0]), float(m0[1])
    p00 = float(p0[0, 0])
    p01 = float((p0[0, 1] + p0[1, 0]) / 2.0)
    p11 = float(p0[1, 1])
    t00, t01 = float(theta0[0]), float(theta0[1])
    w0, w1 = float(sqrt_omega[0]), float(sqrt_omega[1])
    q = float(state_noise)
    r = float(sigma2)
    yv = y

    for t in range(1, y.size):
        ylag = yv[t - 1]
        h0 = w0
        h1 = w1 * ylag
        ystar = yv[t] - (t00 + t01 * ylag)
        p00 += q
        p11 += q
        v = ystar - (h0 * m0 + h1 * m1)
        ph0 = p00 * h0 + p01 * h1
        ph1 = p01 * h0 + p11 * h1
        s = h0 * ph0 + h1 * ph1 + r
        if s <= 0.0:
            raise NumericalError(f"non-positive innovation variance at step {t}")
        k0 = ph0 / s
        k1 = ph1 / s
        m0 += k0 * v
        m1 += k1 * v
        p00 -= s * k0 * k0
        p01 -= s * k0 * k1
        p11 -= s * k1 * k1
        i = t - 1
        m_out[i, 0] = m0
        m_out[i, 1] = m1
        p_out[i, 0, 0] = p00
        p_out[i, 0, 1] = p01
        p_out[i, 1, 0] = p01
        p_out[i, 1, 1] = p11
        v_out[i] = v
        s_out[i] = s
        k_out[i, 0] = k0
        k_out[i, 1] = k1

    return KalmanState(m=m_out, p=p_out, innovations=v_out,
                       innovation_var=s_out, gains=k_out)


def sample_theta_tilde_smoothed(state: KalmanState, rng: np.random.Generator,
                                state_noise: float = 1.0) -> np.ndarray:
    """Joint draw of the standardized path by backward sampling.

    Draws theta_tilde_{T-1} from its filtered distribution, then walks
    backward through the conditionals of the random-walk state equation
    (Carter-Kohn). Unlike independent filtered draws this respects the serial
    dependence of the path, which keeps the scale coefficients identified.
    """
    if state_noise <= 0:
        raise ValidationError("joint state draw needs positive state noise")
    m, p = state.m, state.p
    n = m.shape[0]
    z = rng.standard_normal((n, 2))
    draws = np.empty((n, 2))
    q = float(state_noise)

    def chol_draw(mean0, mean1, c00, c01, c11, z0, z1):
        l00 = np.sqrt(max(c00, 0.0))
        l10 = c01 / l00 if l00 > 0 else 0.0
        l11 = np.sqrt(max(c11 - l10 * l10, 0.0))
        return mean0 + l00 * z0, mean1 + l10 * z0 + l11 * z1

    d0, d1 = chol_draw(m[-1, 0], m[-1, 1], p[-1, 0, 0], p[-1, 0, 1], p[-1, 1, 1],
                       z[-1, 0], z[-1, 1])
    draws[-1] = (d0, d1)
    for t in range(n - 2, -1, -1):
        p00, p01, p11 = p[t, 0, 0], p[t, 0, 1], p[t, 1, 1]
        s00, s01, s11 = p00 + q, p01, p11 + q
        det = s00 * s11 - s01 * s01
        # gain = P_t (P_t + qI)^-1
        g00 = (p00 * s11 - p01 * s01) / det
        g01 = (p01 * s00 - p00 * s01) / det
        g10 = (p01 * s11 - p11 * s01) / det
        g11 = (p11 * s00 - p01 * s01) / det
        r0 = d0 - m[t, 0]
        r1 = d1 - m[t, 1]
        mean0 = m[t, 0] + g00 * r0 + g01 * r1
        mean1 = m[t, 1] + g10 * r0 + g11 * r1
        c00 = p00 - (g00 * p00 + g01 * p01)
        c01 = p01 - (g00 * p01 + g01 * p11)
        c11 = p11 - (g10 * p01 + g11 * p11)
        d0, d1 = chol_draw(mean0, mean1, c00, c01, c11, z[t, 0], z[t, 1])
        draws[t] = (d0, d1)
    return draws


@functools.cache
def _flapack():
    """SciPy's compiled LAPACK wrappers, the module behind ``scipy.linalg.lapack``.

    ``import scipy.linalg`` adds about 0.3 s and 19 MB to the start of every
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
                              sigma2: np.ndarray, rngs: Sequence[np.random.Generator],
                              ) -> tuple[np.ndarray, dict[int, str]]:
    """Joint draws of the standardized paths of a stack of columns from their
    banded posterior precisions.

    ``y`` is (columns, T), ``theta0`` and ``sqrt_omega`` are (columns, 2),
    ``sigma2`` is (columns,) and column c draws from ``rngs[c]``. Same model
    as ``kalman_forward`` with unit state noise and the fixed prior
    N(0, P0_SCALE * I). The states are interleaved, index 2(t-1)+k holding
    ``theta_tilde[t, k]``, so the precision ``K`` has upper bandwidth 2:
    diagonal blocks ``(1 / (1 + P0_SCALE) + 1) I`` (first), ``2I`` (middle)
    and ``I`` (last; a one-step path has just ``I / (1 + P0_SCALE)``), each
    plus ``h_t h_t' / sigma2``, and off-diagonal blocks ``-I``. With
    ``K = LL'`` the draw ``L^-T (L^-1 b + z)`` has mean ``K^-1 b`` and
    covariance ``K^-1``, where ``b = h_t y*_t / sigma2``.

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
    for c, rng in enumerate(rngs):
        chol, info = lapack.dpbtrf(band[c].T, lower=1, overwrite_ab=1)
        if info != 0:
            failed[c] = f"state precision not positive definite (dpbtrf info {info})"
            rhs[c] = 0.0
            continue
        w, _ = lapack.dtbtrs(chol, rhs[c], uplo="L", overwrite_b=1)
        w += rng.standard_normal((2 * n, 1))
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
    at most SINGULAR_PIVOT times its largest diagonal entry, as a constant
    series gives) takes the diagonal of its pseudo-inverse instead, clipped
    at zero, which drops the unidentified direction.
    """
    chol, singular = _cholesky(xtx)
    dim = xtx.shape[-1]
    pivots = chol.reshape(-1, dim * dim)[:, ::dim + 1] ** 2
    scale = xtx.reshape(-1, dim * dim)[:, ::dim + 1].max(axis=1)
    tiny = np.flatnonzero(pivots.min(axis=1) <= SINGULAR_PIVOT * scale)
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
                        rngs: Sequence[np.random.Generator],
                        ) -> tuple[np.ndarray, dict[int, str]]:
    """Draw (theta0, sqrt_omega) of a stack of columns from their joint normal
    posteriors.

    ``target`` (columns, n) and ``design`` (columns, n, 4) are the step-3
    regressions: y_t on the row [1, y_{t-1}, tilde_1t, y_{t-1} * tilde_2t].
    The posterior is N(A X'y / sigma^2, A) with A = (X'X/sigma^2 + A0^-1)^-1
    and the data-based A0^-1 = diag{diag((X'X)^-1)}; column c draws 4
    normals from ``rngs[c]``. Returns the draws (columns, 4), theta0 then
    sqrt_omega, and {column: reason} for the columns that have none. Signs
    of sqrt_omega are unidentified and may come back negative; the implied
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
        jittered, still = _cholesky(prec[c:c + 1] + RIDGE_JITTER * np.eye(4))
        if still:
            failed.setdefault(c, "rank-deficient design in coefficient posterior")
        else:
            chol[c] = jittered[0]
    z = np.empty((len(rngs), 4, 1))
    for c, rng in enumerate(rngs):
        rng.standard_normal(out=z[c, :, 0])
    # mean = prec^-1 rhs; the draw chol^-T (chol^-1 rhs + z) adds covariance prec^-1
    inv = _lower_inverse(chol)
    draw = inv.transpose(0, 2, 1) @ (inv @ rhs + z)
    return draw[..., 0], failed


def sigma_posterior(target: np.ndarray, design: np.ndarray,
                    theta_star: np.ndarray) -> tuple[float, np.ndarray]:
    """Gamma posterior of the observation precision of a stack of columns: the
    shape C0_SHAPE + n/2 they share, and the rates (columns,) C0_RATE + SSR/2
    of the step-3 regression residuals."""
    resid = target - (design @ theta_star[..., None])[..., 0]
    ssr = np.einsum("cn,cn->c", resid, resid)
    return C0_SHAPE + target.shape[1] / 2.0, C0_RATE + 0.5 * ssr


def sample_sigma(target: np.ndarray, design: np.ndarray, theta_star: np.ndarray,
                 rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, dict[int, str]]:
    """Draw the observation variances (columns,): column c's precision is a
    Gamma(shape, rate) draw from ``rngs[c]``. Returns them and {column: reason}
    for the columns whose residual sum of squares is not finite."""
    shape, rates = sigma_posterior(target, design, theta_star)
    sigma2 = np.ones(len(rngs))
    failed = {}
    for c, (rng, rate) in enumerate(zip(rngs, rates.tolist())):
        if math.isfinite(rate):
            sigma2[c] = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
        else:
            failed[c] = "non-finite residuals in variance update"
    return sigma2, failed


def _drop(failed: dict[int, str], it: int, errors: dict[int, str],
          ids: np.ndarray, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Record the failed stack positions as errors of their columns ``ids``
    and remove them from ``ids`` and every stack."""
    if not failed:
        return (ids, *stacks)
    for pos, reason in failed.items():
        errors[int(ids[pos])] = f"iteration {it}: {reason}"
    keep = np.ones(ids.size, dtype=bool)
    keep[list(failed)] = False
    return tuple(stack[keep] for stack in (ids, *stacks))


def _sample_stack(y: np.ndarray, iters: int, seeds: Sequence,
                  ) -> tuple[list[TVPTrajectory | None], dict[int, str]]:
    """Iterate path / coefficient / variance draws on the rows of ``y``
    (columns, T) together, row c drawing from ``default_rng(seeds[c])``, and
    keep the final draws. A row that fails leaves the stack, and its
    trajectory is None with the reason in the returned {row: reason}."""
    # contiguous rows: a strided stack would take numpy's strided loops, whose
    # sums round differently, and a column's draws would depend on the layout
    y = np.ascontiguousarray(y)
    width = y.shape[0]
    ids = np.arange(width)
    rngs = np.empty(width, dtype=object)
    rngs[:] = [np.random.default_rng(seed) for seed in seeds]
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
            tilde, path_failed = sample_theta_tilde_banded(y, theta_star[:, :2],
                                                           theta_star[:, 2:], sigma2, rngs)
            target, design = _step3_design(y, tilde)
            theta_star, coef_failed = sample_theta0_omega(target, design, sigma2, rngs)
            sigma2, sigma_failed = sample_sigma(target, design, theta_star, rngs)
            del target, design
            # failed draws leave placeholders, not exceptions; the first reason wins
            ids, y, theta_star, sigma2, tilde, rngs = _drop(
                {**sigma_failed, **coef_failed, **path_failed}, it, errors,
                ids, y, theta_star, sigma2, tilde, rngs)
            if not ids.size:
                break

    trajectories: list[TVPTrajectory | None] = [None] * width
    theta = theta_star[:, None, :2] + theta_star[:, None, 2:] * tilde
    for pos, row in enumerate(ids):
        try:
            trajectories[row] = TVPTrajectory(
                theta0=theta_star[pos, :2].copy(), sqrt_omega=theta_star[pos, 2:].copy(),
                theta=theta[pos], sigma2=float(sigma2[pos]))
        except ValidationError as exc:
            errors[int(row)] = str(exc)
    return trajectories, errors


def _checked_series(y: np.ndarray, iters: int) -> np.ndarray:
    y = np.asarray(y, float).reshape(-1)
    if y.size < 3:
        raise ValidationError("need at least 3 observations per equation")
    if not np.all(np.isfinite(y)):
        raise ValidationError("observations must be finite")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    return y


def fit_equation(y: np.ndarray, iters: int, seed: int | Sequence[int]) -> TVPTrajectory:
    """Iterate path / coefficient / variance draws on one column and keep the
    final draw; ``seed`` seeds the column's own ``default_rng``. This is
    ``estimate_all`` on a one-column stack."""
    y = _checked_series(y, iters)
    (trajectory,), errors = _sample_stack(y[None, :], iters, [seed])
    if errors:
        raise NumericalError(errors[0])
    return trajectory


@dataclass
class PanelTVPResult:
    """Per-column trajectories; failed columns carry None plus a reason by name."""

    trajectories: list[TVPTrajectory | None]
    errors: dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.errors


def estimate_all(panel: TimeSeriesPanel, config: TVPConfig) -> PanelTVPResult:
    """Fit every panel column, all columns in one sampler iteration.

    Each iteration draws the paths of all live columns (banded factorizations
    column by column), then their coefficients and variances as stacked
    arrays. Column i draws from its own ``default_rng([seed, i])`` in the
    order path normals, 4 normals, gamma, so its result depends neither on
    the other columns nor on evaluation order. A column that fails (a
    non-finite or non-factorizable matrix, non-finite residuals) leaves the
    stack with the iteration in its reason; the others continue.
    """
    errors: dict[int, str] = {}
    live = []
    for i in range(panel.width):
        try:
            _checked_series(panel.values[:, i], config.iters)
            live.append(i)
        except ValidationError as exc:
            errors[i] = str(exc)
    fitted, failed = _sample_stack(panel.values.T[live], config.iters,
                                   [(config.seed, i) for i in live])
    trajectories: list[TVPTrajectory | None] = [None] * panel.width
    for i, trajectory in zip(live, fitted):
        trajectories[i] = trajectory
    errors.update((live[row], reason) for row, reason in failed.items())
    names = panel.column_names()
    return PanelTVPResult(trajectories, {names[i]: errors[i] for i in sorted(errors)})


def write_trajectories(result: PanelTVPResult, panel: TimeSeriesPanel,
                       config: TVPConfig, csv_path: str | Path, meta_path: str | Path) -> None:
    """Export paths as ``date,column,b,f1`` rows plus a JSON sidecar."""
    names = panel.column_names()
    dates = panel.time_index[1:]
    # one column's Python floats at a time: write_csv formats them fastest
    rows = ((date, names[i], b, f1)
            for i, traj in enumerate(result.trajectories) if traj is not None
            for date, (b, f1) in zip(dates, traj.theta.tolist()))
    write_csv(csv_path, ["date", "column", "b", "f1"], rows)
    meta = {
        "seed": config.seed,
        "iters": config.iters,
        "columns": {
            names[i]: {
                "theta0": traj.theta0,
                "sqrt_omega": traj.sqrt_omega,
                "sigma2": traj.sigma2,
            }
            for i, traj in enumerate(result.trajectories) if traj is not None
        },
        "errors": result.errors,
    }
    write_json(meta, meta_path)


def read_trajectories(csv_path: str | Path) -> dict[str, tuple[list[str], np.ndarray]]:
    """Read a trajectory (or predicted-path) CSV: column -> (dates, (n, 2))."""
    dates: dict[str, list[str]] = {}
    values: dict[str, list[list[float]]] = {}
    for where, (date, column, b, f1) in read_table(csv_path, ["date", "column", "b", "f1"]):
        dates.setdefault(column, []).append(date)
        values.setdefault(column, []).append([parse_float(b, where), parse_float(f1, where)])
    return {col: (dates[col], np.array(values[col])) for col in dates}
