"""Orthogonal and generalized impulse responses with asymptotic error bands.

Responses to a unit orthogonalized shock are ``B_n G0^-1 P e_j`` with ``P``
the Cholesky factor of the structural residual covariance; identification
order equals panel column order. Error bands are the delta-method bands of
``B_s chol(Sigma_eps)`` (Lutkepohl 2005, section 3.7) at the requested period,
in closed form from the w x w Kronecker factors of the estimates' covariances
and the Cholesky derivative of Murray (2016), with no w^2 x w^2 matrix. That
band belongs to the point response only when ``G0`` is lower triangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from .errors import NumericalError, ValidationError
from .gvar import StackedSystem, ma_coefficients, stability_check
from .serialize import read_csv_rows, read_json, write_csv, write_json

TIME_INVARIANT = "time-invariant"


# ---------------------------------------------------------------------------
# point responses
# ---------------------------------------------------------------------------

def cholesky_lower(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with explicit PD checks and a reconstruction test."""
    sigma = np.asarray(sigma, float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError("covariance must be square")
    scale = max(np.max(np.abs(sigma)), 1e-300)
    if np.max(np.abs(sigma - sigma.T)) > 1e-8 * scale:
        raise ValidationError("covariance must be symmetric")
    sigma = (sigma + sigma.T) / 2.0
    eig_min = float(np.min(np.linalg.eigvalsh(sigma)))
    if eig_min <= 1e-12 * np.trace(sigma):
        raise NumericalError(
            f"covariance not positive definite (min eigenvalue {eig_min:.6e})")
    factor = np.linalg.cholesky(sigma)
    if np.max(np.abs(factor @ factor.T - sigma)) > 1e-10 * scale:
        raise NumericalError("Cholesky reconstruction check failed")
    return factor


@dataclass(frozen=True)
class ShockSpec:
    """Which columns are shocked, for how many horizons, at which period."""

    targets: tuple[int, ...]
    horizon: int = 6
    at_time: int | str = TIME_INVARIANT
    level: float = 0.95

    def __post_init__(self):
        targets = tuple(int(j) for j in self.targets)
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ValidationError("shock needs at least one target column")
        if len(set(targets)) != len(targets):
            raise ValidationError("shock targets must be distinct")
        if self.horizon < 0:
            raise ValidationError("horizon must be >= 0")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("confidence level must be in (0, 1)")


def _check_targets(targets: Sequence[int], width: int) -> None:
    for j in targets:
        if not 0 <= j < width:
            raise ValidationError(f"shock target {j} out of range [0, {width})")


def oirf_point(system: StackedSystem, shock: ShockSpec) -> np.ndarray:
    """Point responses, one row per horizon 0..n, one column per variable.

    Multi-target responses are accumulated target by target, so a combined
    shock is by construction the sum of its single-target responses.
    """
    _check_targets(shock.targets, system.width)
    chol = cholesky_lower(system.sigma_u)
    base = np.linalg.solve(system.g0, chol)  # all single-shock impact columns
    mas = ma_coefficients(system.f1, shock.horizon)
    out = np.zeros((shock.horizon + 1, system.width))
    for j in shock.targets:
        column = base[:, j]
        for s in range(shock.horizon + 1):
            out[s] += mas[s] @ column
    return out


def girf_point(system: StackedSystem, j: int, horizon: int) -> np.ndarray:
    """Generalized (ordering-free) responses to a one-sd shock in column j.

    Closed form under Gaussian shocks: ``B_s G0^-1 Sigma_u e_j / sqrt(sigma_jj)``.
    """
    _check_targets([j], system.width)
    sjj = float(system.sigma_u[j, j])
    if sjj <= 0:
        raise NumericalError(f"non-positive shock variance sigma_{j}{j} = {sjj}")
    base = np.linalg.solve(system.g0, system.sigma_u[:, j] / np.sqrt(sjj))
    mas = ma_coefficients(system.f1, horizon)
    return np.stack([mas[s] @ base for s in range(horizon + 1)])


# ---------------------------------------------------------------------------
# delta-method bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IRFResult:
    """Point responses plus symmetric half-widths at the requested level."""

    point: np.ndarray       # (n+1, width)
    half_width: np.ndarray  # (n+1, width)
    stable: bool
    at_time: int | str
    targets: tuple[int, ...]
    level: float
    sample_size: int

    @property
    def horizon(self) -> int:
        return self.point.shape[0] - 1

    @property
    def lower(self) -> np.ndarray:
        return self.point - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.point + self.half_width


class AsymptoticInputs(NamedTuple):
    """w x w factors of ``Cov vec(dF1) = moment_inv kron sigma`` and
    ``Cov vec(dSigma) = (I + K)(sigma kron sigma)``."""

    moment_inv: np.ndarray
    sigma: np.ndarray


def estimate_asymptotic_inputs(panel, system: StackedSystem,
                               residuals: np.ndarray | None = None) -> AsymptoticInputs:
    """Standard Gaussian-VAR estimates of the band's input covariances.

    ``moment_inv`` is the lagged-regressor block of the inverse second-moment
    matrix (intercept included, then dropped). ``sigma`` is the innovation
    covariance from ``residuals`` when given, otherwise from the system.
    """
    values = panel.values if hasattr(panel, "values") else np.asarray(panel, float)
    t_len, width = values.shape
    if width != system.width:
        raise ValidationError("panel width does not match system")
    lagged = np.column_stack([np.ones(t_len - 1), values[:-1]])
    moment = lagged.T @ lagged / (t_len - 1)
    try:
        moment_inv = np.linalg.inv(moment)
    except np.linalg.LinAlgError:
        raise NumericalError("singular regressor moment matrix") from None
    if residuals is not None:
        residuals = np.asarray(residuals, float)
        dof = max(residuals.shape[0] - (width + 1), 1)
        sigma = residuals.T @ residuals / dof
    else:
        sigma = system.sigma_eps
    return AsymptoticInputs(moment_inv=moment_inv[1:, 1:], sigma=sigma)


def asymptotic_bands(system: StackedSystem, shock: ShockSpec, sample_size: int,
                     inputs: AsymptoticInputs) -> IRFResult:
    """Point responses with delta-method half-widths.

    The band is the delta-method band of ``B_s P u`` with ``P = chol(Sigma_eps)``
    and ``u`` the sum of the shocked unit vectors. It is the point response
    ``B_s G0^-1 chol(Sigma_u) u`` only when ``G0`` is lower triangular.

    With ``R = P^-1 sigma P^-T`` and ``C_j`` the matrix ``B_s P`` with the
    columns before ``j`` zeroed and column ``j`` halved, the variance of
    response i at horizon s is

        sum_{j,j' in J} [(C_j R C_j'^T)_ii R_jj' + (C_j R)_ij' (C_j' R)_ij]
        + sum_{m,m' < s} (B_m sigma B_m'^T)_ii v_{s-1-m}^T M^-1 v_{s-1-m'}

    with ``v_k = F1^k P u``; the half-width is ``z_{1-alpha/2} sqrt(var / T)``.
    """
    if sample_size < 1:
        raise ValidationError("sample size must be >= 1")
    _check_targets(shock.targets, system.width)
    moment_inv, sigma = (np.asarray(factor, float) for factor in inputs)
    for name, factor in zip(AsymptoticInputs._fields, (moment_inv, sigma)):
        if factor.shape != (system.width,) * 2:
            raise ValidationError(f"band input {name} has shape {factor.shape}, "
                                  f"expected {(system.width,) * 2}")
        if not np.all(np.isfinite(factor)):
            raise ValidationError(f"band input {name} has non-finite entries")
    if np.max(np.abs(sigma - sigma.T)) > 1e-8 * max(np.max(np.abs(sigma)), 1e-300):
        raise ValidationError("band input sigma must be symmetric")
    sigma = (sigma + sigma.T) / 2.0
    targets = list(shock.targets)
    chol_eps = cholesky_lower(system.sigma_eps)
    mas = ma_coefficients(system.f1, shock.horizon)

    # covariance part: dW = P^-1 dSigma P^-T has Cov vec(dW) = (I + K)(R kron R)
    # and d(B_s P) = B_s P Phi(dW), Phi keeping the lower triangle, diagonal halved
    r = solve_triangular(chol_eps, solve_triangular(chol_eps, sigma, lower=True).T,
                         lower=True)
    cols, rows = np.arange(system.width), np.array(targets)[:, None]
    mask = (cols > rows) + 0.5 * (cols == rows)
    c = (mas @ chol_eps)[:, None] * mask[None, :, None, :]  # C_j per horizon
    cr = c @ r
    var = np.einsum("sjia,skia,jk->si", cr, c, r[np.ix_(targets, targets)])
    picked = cr[..., targets]
    var += np.einsum("sjik,skij->si", picked, picked)

    # coefficient part: dB_s = sum_{m<s} B_m dF1 F1^(s-1-m)
    v = mas[:shock.horizon] @ chol_eps[:, targets].sum(axis=1)
    gram = v @ moment_inv @ v.T
    b_sigma = mas @ sigma
    for s in range(1, shock.horizon + 1):
        var[s] += np.einsum("mn,mia,nia->i", gram[s - 1::-1, s - 1::-1],
                            b_sigma[:s], mas[:s])

    floor = np.min(var, axis=1)
    if np.any(floor < -1e-10):
        s = int(np.argmax(floor < -1e-10))
        raise NumericalError(f"negative response variance {floor[s]:.3e} at horizon {s}")
    z = ndtri(0.5 + shock.level / 2.0)
    half = z * np.sqrt(np.clip(var, 0.0, None)) / np.sqrt(sample_size)
    return IRFResult(point=oirf_point(system, shock), half_width=half,
                     stable=stability_check(system.f1).stable,
                     at_time=shock.at_time, targets=shock.targets,
                     level=shock.level, sample_size=sample_size)


# Kronecker-form band derivatives: unused by the bands, kept for bench/spans.py

def elimination_matrix(m: int) -> np.ndarray:
    """L_m with L_m vec(S) = vech(S) for any m x m matrix S."""
    if m < 1:
        raise ValidationError("dimension must be >= 1")
    out = np.zeros((m * (m + 1) // 2, m * m))
    for r, (i, j) in enumerate((i, j) for j in range(m) for i in range(j, m)):
        out[r, j * m + i] = 1.0
    return out


def commutation_matrix(m: int, n: int) -> np.ndarray:
    """K_mn with K_mn vec(Q) = vec(Q') for any m x n matrix Q."""
    if m < 1 or n < 1:
        raise ValidationError("dimensions must be >= 1")
    out = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            out[i * n + j, j * m + i] = 1.0
    return out


def derivative_Gn(f1: np.ndarray, mas: np.ndarray, n: int) -> np.ndarray:
    """d vec(B_n) / d vec(F1)' = sum_{m=0}^{n-1} (F1')^{n-1-m} kron B_m."""
    if n < 1:
        raise ValidationError("derivative defined for n >= 1")
    f1 = np.asarray(f1, float)
    width = f1.shape[0]
    total = np.zeros((width * width, width * width))
    ft_pow = np.eye(width)  # (F1')^0, increasing exponent tracks m downward
    for m in range(n - 1, -1, -1):
        total += np.kron(ft_pow, mas[m])
        ft_pow = ft_pow @ f1.T
    return total


def derivative_H(chol_factor: np.ndarray) -> np.ndarray:
    """d vec(P) / d vech(Sigma)' for the lower Cholesky factor P of Sigma."""
    p = np.asarray(chol_factor, float)
    m = p.shape[0]
    if np.any(np.diag(p) <= 0):
        raise NumericalError("Cholesky factor must have positive diagonal")
    lk = elimination_matrix(m)
    inner = lk @ (np.eye(m * m) + commutation_matrix(m, m)) @ np.kron(p, np.eye(m)) @ lk.T
    try:
        inner_inv = np.linalg.inv(inner)
    except np.linalg.LinAlgError:
        raise NumericalError("singular inner matrix in Cholesky derivative") from None
    return lk.T @ inner_inv


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_irf_json(result: IRFResult, columns: Sequence[str], path: str | Path) -> None:
    obj = {
        "at_time": result.at_time,
        "targets": list(result.targets),
        "target_columns": [columns[j] for j in result.targets],
        "level": result.level,
        "sample_size": result.sample_size,
        "stable": result.stable,
        "horizons": list(range(result.horizon + 1)),
        "columns": list(columns),
        "responses": result.point.T,
        "half_width": result.half_width.T,
        "lower": result.lower.T,
        "upper": result.upper.T,
    }
    write_json(obj, path)


def read_irf_json(path: str | Path) -> tuple[IRFResult, list[str]]:
    obj = read_json(path)
    point = np.array(obj["responses"], float).T
    half = np.array(obj["half_width"], float).T
    at_time = obj["at_time"]
    result = IRFResult(
        point=point, half_width=half, stable=bool(obj["stable"]),
        at_time=at_time if isinstance(at_time, str) else int(at_time),
        targets=tuple(int(j) for j in obj["targets"]),
        level=float(obj["level"]), sample_size=int(obj["sample_size"]))
    return result, list(obj["columns"])


def write_irf_csv(result: IRFResult, columns: Sequence[str], path: str | Path) -> None:
    rows = []
    lower, upper = result.lower, result.upper
    for s in range(result.horizon + 1):
        for j, name in enumerate(columns):
            rows.append([s, name, result.point[s, j], lower[s, j], upper[s, j]])
    write_csv(path, ["horizon", "column", "point", "lower", "upper"], rows)


def read_irf_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read the long-format band CSV into column -> (n+1, 3) arrays."""
    header, rows = read_csv_rows(path)
    if header != ["horizon", "column", "point", "lower", "upper"]:
        raise ValidationError(f"{path}: expected header horizon,column,point,lower,upper")
    data: dict[str, list[list[float]]] = {}
    for _, name, pt, lo, hi in rows:
        data.setdefault(name, []).append([float(pt), float(lo), float(hi)])
    return {name: np.array(vals) for name, vals in data.items()}
