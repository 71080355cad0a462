"""Orthogonal impulse responses with asymptotic error bands.

Responses to a unit orthogonalized shock are ``B_n G0^-1 P e_j`` with ``P``
the Cholesky factor of the structural residual covariance; identification
order equals panel column order. Error bands are the delta-method bands of
``B_s chol(Sigma_eps)`` (Lutkepohl 2005, section 3.7) at the requested period,
in closed form from the w x w Kronecker factors of the estimates' covariances
and the Cholesky derivative of Murray (2016), with no w^2 x w^2 matrix. That
band belongs to the point response only when ``G0`` is lower triangular.
The band multiplier is a port of the Cephes ``ndtri`` normal quantile
(Moshier 1989), the one SciPy uses, so this module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .gvar import StackedSystem, ma_coefficients, spectral_radius
from .ingest import TimeSeriesPanel
from .serialize import (parse_array, parse_float, parse_strings, read_json, read_table,
                        require_keys, write_csv, write_json)


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
    at_time: int | str = field(kw_only=True)  # the period's label
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


def _impact(system: StackedSystem) -> np.ndarray:
    """``G0^-1 chol(Sigma_u)``: all single-shock impact columns."""
    return np.linalg.solve(system.g0, cholesky_lower(system.sigma_u))


def _accumulate(mas: np.ndarray, impact: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Point responses summed target by target: exactly the sum of the single-target ones."""
    out = np.zeros((mas.shape[0], impact.shape[0]))
    for j in targets:
        column = impact[:, j]
        for s in range(mas.shape[0]):
            out[s] += mas[s] @ column
    return out


# ---------------------------------------------------------------------------
# delta-method bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IRFResult:
    """Point responses plus symmetric half-widths at the requested level, and
    how far to trust the period's system: the spectral radius of ``F1`` and
    the condition number of ``G0``."""

    point: np.ndarray       # (n+1, width)
    half_width: np.ndarray  # (n+1, width)
    radius: float
    g0_condition: float
    at_time: int | str
    targets: tuple[int, ...]
    level: float
    sample_size: int

    @property
    def stable(self) -> bool:
        return self.radius < 1.0

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


def estimate_asymptotic_inputs(panel: TimeSeriesPanel,
                               system: StackedSystem) -> AsymptoticInputs:
    """Standard Gaussian-VAR estimates of the band's input covariances.

    ``moment_inv`` is the lagged-regressor block of the inverse second-moment
    matrix of the panel (intercept included, then dropped). ``sigma`` is the
    system's innovation covariance ``Sigma_eps``.
    """
    t_len, width = panel.values.shape
    if width != system.width:
        raise ValidationError("panel width does not match system")
    lagged = np.column_stack([np.ones(t_len - 1), panel.values[:-1]])
    moment = lagged.T @ lagged / (t_len - 1)
    try:
        moment_inv = np.linalg.inv(moment)
    except np.linalg.LinAlgError:
        raise NumericalError("singular regressor moment matrix") from None
    return AsymptoticInputs(moment_inv=moment_inv[1:, 1:], sigma=system.sigma_eps)


def asymptotic_bands(system: StackedSystem, shocks: Sequence[ShockSpec],
                     sample_size: int, inputs: AsymptoticInputs) -> list[IRFResult]:
    """Point responses with delta-method half-widths.

    ``shocks`` are a period's shocks, answered with a list of results in the
    same order. What depends only on the system (its Cholesky factors, ``R``,
    the MA matrices, the eigenvalues of ``F1`` and the condition number of
    ``G0``) is computed once for all of them.

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
    shocks = list(shocks)
    if not shocks:
        raise ValidationError("no shocks given")
    if sample_size < 1:
        raise ValidationError("sample size must be >= 1")
    for shock in shocks:
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
    chol_eps = cholesky_lower(system.sigma_eps)
    # covariance part: dW = P^-1 dSigma P^-T has Cov vec(dW) = (I + K)(R kron R)
    # and d(B_s P) = B_s P Phi(dW), Phi keeping the lower triangle, diagonal halved
    r = _solve_lower(chol_eps, _solve_lower(chol_eps, sigma).T)
    mas = ma_coefficients(system.f1, max(shock.horizon for shock in shocks))
    mas_chol, b_sigma = mas @ chol_eps, mas @ sigma
    impact = _impact(system)
    radius = spectral_radius(system.f1)
    g0_condition = float(np.linalg.cond(system.g0))

    results = []
    for shock in shocks:
        n = shock.horizon + 1
        var = _response_variance(mas[:n], mas_chol[:n], b_sigma[:n], chol_eps, r,
                                 moment_inv, list(shock.targets))
        floor = np.min(var, axis=1)
        if np.any(floor < -1e-10):
            s = int(np.argmax(floor < -1e-10))
            raise NumericalError(f"negative response variance {floor[s]:.3e} at horizon {s}")
        z = _ndtri(0.5 + shock.level / 2.0)
        half = z * np.sqrt(np.clip(var, 0.0, None)) / np.sqrt(sample_size)
        results.append(IRFResult(
            point=_accumulate(mas[:n], impact, shock.targets), half_width=half,
            radius=radius, g0_condition=g0_condition, at_time=shock.at_time,
            targets=shock.targets, level=shock.level, sample_size=sample_size))
    return results


def _response_variance(mas, mas_chol, b_sigma, chol_eps, r, moment_inv, targets):
    """Variance of every response at horizons 0..S (see ``asymptotic_bands``),
    from ``B_s``, ``B_s P`` and ``B_s sigma`` for s = 0..S."""
    cols, rows = np.arange(chol_eps.shape[0]), np.array(targets)[:, None]
    mask = (cols > rows) + 0.5 * (cols == rows)
    c = mas_chol[:, None] * mask[None, :, None, :]  # C_j per horizon
    cr = c @ r
    var = np.einsum("sjia,skia,jk->si", cr, c, r[np.ix_(targets, targets)])
    picked = cr[..., targets]
    var += np.einsum("sjik,skij->si", picked, picked)

    # coefficient part: dB_s = sum_{m<s} B_m dF1 F1^(s-1-m)
    horizon = mas.shape[0] - 1
    v = mas[:horizon] @ chol_eps[:, targets].sum(axis=1)
    gram = v @ moment_inv @ v.T
    for s in range(1, horizon + 1):
        var[s] += np.einsum("mn,mia,nia->i", gram[s - 1::-1, s - 1::-1],
                            b_sigma[:s], mas[:s])
    return var


def _solve_lower(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``factor^-1 rhs`` for a lower-triangular ``factor``: forward substitution
    row by row, each row over all right-hand sides at once."""
    out = np.empty_like(rhs)
    for i in range(factor.shape[0]):
        out[i] = (rhs[i] - factor[i, :i] @ out[:i]) / factor[i, i]
    return out


# Cephes ndtri (Moshier 1989): a rational approximation in y - 1/2 for the
# centre, and in 1/x with x = sqrt(-2 log y) for the tails; Q* lack their
# leading coefficient 1
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef: Sequence[float], monic: bool = False) -> float:
    """Horner evaluation, with an implicit leading 1 when ``monic``."""
    out = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _ndtri(p: float) -> float:
    """Standard normal quantile, bit for bit equal to ``scipy.special.ndtri``."""
    if p == 0.0 or p == 1.0:
        return math.copysign(math.inf, p - 0.5)
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, True))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    num, den = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # x = 8 at y = exp(-32)
    tail = x - math.log(x) / x - z * _polevl(z, num) / _polevl(z, den, True)
    return tail if upper else -tail


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
        "radius": result.radius,
        "g0_condition": result.g0_condition,
        "horizons": list(range(result.horizon + 1)),
        "columns": list(columns),
        "responses": result.point.T,
        "half_width": result.half_width.T,
        "lower": result.lower.T,
        "upper": result.upper.T,
    }
    write_json(obj, path)


def read_irf_json(path: str | Path) -> tuple[IRFResult, list[str]]:
    obj = require_keys(read_json(path), ("responses", "half_width", "at_time", "radius",
                                         "g0_condition", "targets", "level", "sample_size",
                                         "columns"), str(path))
    columns = parse_strings(obj["columns"], f"{path}: columns")
    point = parse_array(obj["responses"], (len(columns), None), f"{path}: responses")
    at_time = obj["at_time"]
    if not isinstance(at_time, str):
        at_time = int(parse_float(at_time, f"{path}: at_time"))
    result = IRFResult(
        point=point.T, half_width=parse_array(obj["half_width"], point.shape,
                                              f"{path}: half_width").T,
        radius=parse_float(obj["radius"], f"{path}: radius"),
        g0_condition=parse_float(obj["g0_condition"], f"{path}: g0_condition"),
        at_time=at_time,
        targets=tuple(int(j) for j in parse_array(obj["targets"], (None,), f"{path}: targets")),
        level=parse_float(obj["level"], f"{path}: level"),
        sample_size=int(parse_float(obj["sample_size"], f"{path}: sample_size")))
    return result, columns


def write_irf_csv(result: IRFResult, columns: Sequence[str], path: str | Path) -> None:
    lower, upper = result.lower, result.upper
    rows = ((s, name, result.point[s, j], lower[s, j], upper[s, j])
            for s in range(result.horizon + 1) for j, name in enumerate(columns))
    write_csv(path, ["horizon", "column", "point", "lower", "upper"], rows)


def read_irf_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read the long-format band CSV into column -> (n+1, 3) arrays."""
    data: dict[str, list[list[float]]] = {}
    for where, (_, name, *cells) in read_table(path, ["horizon", "column", "point", "lower",
                                                      "upper"]):
        data.setdefault(name, []).append([parse_float(c, where) for c in cells])
    return {name: np.array(vals) for name, vals in data.items()}
