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
of the current step-3 regression, recomputed each iteration; and the
observation precision ~ Gamma(C0_SHAPE, C0_RATE) = Gamma(0.01, 0.01). The
only settings are the iteration count and the seed (``TVPConfig``).

The path draw uses the banded posterior precision of the whole path (Chan &
Jeliazkov 2009): the random-walk prior plus one scalar observation per period
make it block tridiagonal, so one banded Cholesky factorization and two
banded triangular solves give an exact joint draw. The Kalman forward pass
and the backward (Carter-Kohn) draw stay as reference implementations.
The banded routines (LAPACK ``dpbtrf``/``dtbtrs``) come from SciPy's compiled
``_flapack`` extension, loaded by file path without importing ``scipy``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import TimeSeriesPanel
from .serialize import parse_float, read_csv_rows, write_csv, write_json

RIDGE_JITTER = 1e-8
P0_SCALE = 1e-15  # prior covariance of the first standardized state, times I
C0_SHAPE = C0_RATE = 0.01  # Gamma prior of the observation precision


def _default_a0_inv(xtx: np.ndarray) -> np.ndarray:
    # data-based prior: A0 = diag{1 / diag((X'X)^-1)}, so A0^-1 = diag{diag((X'X)^-1)}
    return np.diag(np.clip(np.diag(np.linalg.pinv(xtx)), 0.0, None))


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

    Row t corresponds to observation t+1 of the input series (the first
    observation is consumed as the initial lag). ``theta`` reconstructs as
    ``theta0 + sqrt_omega * theta_tilde`` row-wise.
    """

    theta0: np.ndarray       # (2,)
    sqrt_omega: np.ndarray   # (2,)
    theta_tilde: np.ndarray  # (n, 2)
    theta: np.ndarray        # (n, 2)
    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValidationError("sigma2 must be positive")
        recon = self.theta0[None, :] + self.sqrt_omega[None, :] * self.theta_tilde
        if np.max(np.abs(recon - self.theta)) > 1e-12 * max(1.0, np.max(np.abs(self.theta))):
            raise ValidationError("theta does not reconstruct from theta0 + sqrt_omega * theta_tilde")


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
                              sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Joint draw of the standardized path from its banded posterior precision.

    Same model as ``kalman_forward`` with unit state noise and the fixed
    prior N(0, P0_SCALE * I). The states are interleaved, index 2(t-1)+k
    holding ``theta_tilde[t, k]``, so the precision ``K`` has upper bandwidth
    2: diagonal blocks ``(1 / (1 + P0_SCALE) + 1) I`` (first), ``2I`` (middle)
    and ``I`` (last; a one-step path has just ``I / (1 + P0_SCALE)``), each
    plus ``h_t h_t' / sigma2``, and off-diagonal blocks ``-I``. With
    ``K = U'U`` the draw ``U^-1 (U^-T b + z)`` has mean ``K^-1 b`` and
    covariance ``K^-1``, where ``b = h_t y*_t / sigma2``.
    """
    y = np.asarray(y, float).reshape(-1)
    if y.size < 2:
        raise ValidationError("need at least 2 observations to draw a path")
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    n = y.size - 1
    ylag = y[:-1]
    h = np.empty((n, 2))
    h[:, 0] = sqrt_omega[0]
    h[:, 1] = sqrt_omega[1] * ylag
    ystar = y[1:] - (theta0[0] + theta0[1] * ylag)

    # row j holds K[j-2, j], K[j-1, j], K[j, j]: its transpose is LAPACK's
    # upper band storage, already in Fortran order
    band = np.zeros((2 * n, 3))
    band[2:, 0] = -1.0
    band[1::2, 1] = h[:, 0] * h[:, 1] / sigma2
    band[:, 2] = (h * h).reshape(-1) / sigma2 + 2.0
    band[-2:, 2] -= 1.0
    band[:2, 2] += 1.0 / (1.0 + P0_SCALE) - 1.0
    rhs = (h * (ystar / sigma2)[:, None]).reshape(-1, 1)

    lapack = _flapack()
    chol, info = lapack.dpbtrf(band.T, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"state precision not positive definite (dpbtrf info {info})")
    w, _ = lapack.dtbtrs(chol, rhs, trans="T", overwrite_b=1)
    w += rng.standard_normal((2 * n, 1))
    draw, _ = lapack.dtbtrs(chol, w, overwrite_b=1)
    return draw.reshape(n, 2)


def _step3_design(y: np.ndarray, theta_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regression target/design for the constant and scale coefficients."""
    ylag = y[:-1]
    target = y[1:]
    design = np.column_stack([
        np.ones_like(ylag), ylag,
        theta_tilde[:, 0], ylag * theta_tilde[:, 1],
    ])
    return target, design


def sample_theta0_omega(target: np.ndarray, design: np.ndarray, sigma2: float,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (theta0, sqrt_omega) from their joint normal posterior.

    ``target``/``design`` are the step-3 regression: y_t on the row
    [1, y_{t-1}, tilde_1t, y_{t-1} * tilde_2t]. The posterior is
    N(A X'y / sigma^2, A) with A = (X'X/sigma^2 + A0^-1)^-1 and the data-based
    A0^-1 = diag{diag((X'X)^-1)}. Signs of sqrt_omega are unidentified and
    may come back negative; the implied variances use the squares.
    """
    xtx = design.T @ design
    prec = xtx / sigma2 + _default_a0_inv(xtx)
    rhs = design.T @ target / sigma2
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(prec + RIDGE_JITTER * np.eye(4))
        except np.linalg.LinAlgError:
            raise NumericalError("rank-deficient design in coefficient posterior") from None
    # mean = prec^-1 rhs; draw = mean + chol^-T z so the covariance is prec^-1
    tmp = np.linalg.solve(chol, rhs)
    mean = np.linalg.solve(chol.T, tmp)
    draw = mean + np.linalg.solve(chol.T, rng.standard_normal(4))
    return draw[:2].copy(), draw[2:].copy()


def sigma_posterior(y: np.ndarray, design: np.ndarray,
                    theta_star: np.ndarray) -> tuple[float, float]:
    """Gamma posterior (shape, rate) of the observation precision:
    shape C0_SHAPE + n/2, rate C0_RATE + SSR/2 for the step-3 regression residuals."""
    y = np.asarray(y, float).reshape(-1)
    resid = y - design @ theta_star
    if not np.all(np.isfinite(resid)):
        raise ValidationError("non-finite residuals in variance update")
    c_t = C0_SHAPE + y.size / 2.0
    big_c_t = C0_RATE + 0.5 * float(resid @ resid)
    if big_c_t <= 0:
        raise NumericalError(f"non-positive posterior rate {big_c_t}")
    return c_t, big_c_t


def sample_sigma(y: np.ndarray, design: np.ndarray, theta_star: np.ndarray,
                 rng: np.random.Generator) -> float:
    """Draw the observation variance: precision ~ Gamma(shape, rate)."""
    c_t, big_c_t = sigma_posterior(y, design, theta_star)
    precision = rng.gamma(shape=c_t, scale=1.0 / big_c_t)
    return 1.0 / precision


def fit_equation(y: np.ndarray, iters: int, seed: int | Sequence[int]) -> TVPTrajectory:
    """Iterate path / coefficient / variance draws on one column and keep the
    final draw; ``seed`` seeds the column's own ``default_rng``."""
    y = np.asarray(y, float).reshape(-1)
    if y.size < 3:
        raise ValidationError("need at least 3 observations per equation")
    if not np.all(np.isfinite(y)):
        raise ValidationError("observations must be finite")
    if iters < 1:
        raise ValidationError("iters must be >= 1")
    rng = np.random.default_rng(seed)
    theta0 = np.zeros(2)
    sqrt_omega = np.ones(2)
    sigma2 = 0.1
    theta_tilde = np.zeros((y.size - 1, 2))
    for it in range(iters):
        try:
            theta_tilde = sample_theta_tilde_banded(y, theta0, sqrt_omega, sigma2, rng)
            target, design = _step3_design(y, theta_tilde)
            theta0, sqrt_omega = sample_theta0_omega(target, design, sigma2, rng)
            theta_star = np.concatenate([theta0, sqrt_omega])
            sigma2 = sample_sigma(target, design, theta_star, rng)
        except (NumericalError, ValidationError) as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
    theta = theta0[None, :] + sqrt_omega[None, :] * theta_tilde
    return TVPTrajectory(theta0=theta0, sqrt_omega=sqrt_omega,
                         theta_tilde=theta_tilde, theta=theta, sigma2=sigma2)


@dataclass(frozen=True)
class TVPConfig:
    """The sampler's settings: iterations per column and the base seed."""

    iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.iters < 1:
            raise ValidationError("tvp.iters must be >= 1")
        if self.seed < 0:
            raise ValidationError("tvp.seed must be >= 0")


@dataclass
class PanelTVPResult:
    """Per-column trajectories; failed columns carry None plus a reason."""

    trajectories: list[TVPTrajectory | None]
    errors: dict[int, str]

    @property
    def ok(self) -> bool:
        return not self.errors


def estimate_all(panel: TimeSeriesPanel, config: TVPConfig) -> PanelTVPResult:
    """Fit every panel column independently with a per-column RNG stream.

    Column i draws from ``default_rng([seed, i])`` so results do not depend
    on evaluation order; failures are collected and estimation continues for
    the remaining columns.
    """
    trajectories: list[TVPTrajectory | None] = [None] * panel.width
    errors: dict[int, str] = {}
    for i in range(panel.width):
        try:
            trajectories[i] = fit_equation(panel.values[:, i], config.iters, (config.seed, i))
        except (NumericalError, ValidationError) as exc:
            errors[i] = str(exc)
    return PanelTVPResult(trajectories=trajectories, errors=errors)


def write_trajectories(result: PanelTVPResult, panel: TimeSeriesPanel,
                       config: TVPConfig, csv_path: str | Path,
                       meta_path: str | Path | None = None) -> None:
    """Export paths as ``date,column,b,f1`` rows plus a JSON sidecar."""
    names = panel.column_names()
    dates = panel.time_index[1:]
    rows = []
    for i, traj in enumerate(result.trajectories):
        if traj is None:
            continue
        for t, date in enumerate(dates):
            rows.append([date, names[i], traj.theta[t, 0], traj.theta[t, 1]])
    write_csv(csv_path, ["date", "column", "b", "f1"], rows)
    if meta_path is not None:
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
            "errors": {names[i]: msg for i, msg in result.errors.items()},
        }
        write_json(meta, meta_path)


def read_trajectories(csv_path: str | Path) -> dict[str, tuple[list[str], np.ndarray]]:
    """Read a trajectory (or predicted-path) CSV: column -> (dates, (n, 2))."""
    header, rows = read_csv_rows(csv_path)
    if header != ["date", "column", "b", "f1"]:
        raise ValidationError(f"{csv_path}: expected header date,column,b,f1")
    dates: dict[str, list[str]] = {}
    values: dict[str, list[list[float]]] = {}
    for i, (date, column, b, f1) in enumerate(rows):
        where = f"{csv_path}: row {i + 2}"
        dates.setdefault(column, []).append(date)
        values.setdefault(column, []).append([parse_float(b, where), parse_float(f1, where)])
    return {col: (dates[col], np.array(values[col])) for col in dates}

