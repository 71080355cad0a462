"""Orthogonal impulse responses with asymptotic error bands.

Responses to a unit orthogonalized shock are ``B_n G0^-1 P e_j`` with ``P``
the Cholesky factor of the structural residual covariance; identification
order equals panel column order. Error bands are the delta-method bands of
``B_s chol(Sigma_eps)`` (Lutkepohl 2005, section 3.7) at the requested period,
in closed form from the w x w Kronecker factors ``M^-1`` (the panel's) and
``Sigma_eps`` (the system's) of the estimates' covariances and the Cholesky
derivative of Murray (2016), with no w^2 x w^2 matrix. That band belongs to
the point response only when ``G0`` is lower triangular. One call answers
one period's request: a list of shocks, all at one horizon and one level.
The band multiplier is the normal quantile by Newton steps on the standard
library's ``erf``/``erfc``, so this module runs on numpy alone.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import Record
from .errors import NumericalError, ValidationError
from .gvar import StackedSystem, ma_coefficients, spectral_radius
from .ingest import TimeSeriesPanel
from .serialize import (parse_array, parse_float, parse_int, parse_strings, read_json,
                        read_table, require_keys, write_csv, write_json)


# ---------------------------------------------------------------------------
# point responses
# ---------------------------------------------------------------------------

def cholesky_lower(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix whose correlation matrix
    ``S^-1 Sigma S^-1``, ``S = diag(sqrt(diag Sigma))``, has its minimum
    eigenvalue above ``1e-12`` times the width: a test that no choice of
    units moves."""
    sigma = np.asarray(sigma, float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError("covariance must be square")
    if not np.all(np.isfinite(sigma)):
        raise ValidationError("covariance has non-finite entries")
    scale = max(np.max(np.abs(sigma)), 1e-300)
    if np.max(np.abs(sigma - sigma.T)) > 1e-8 * scale:
        raise ValidationError("covariance must be symmetric")
    sigma = (sigma + sigma.T) / 2.0
    variance = np.diag(sigma)
    sd = np.sqrt(np.where(variance > 0, variance, 1.0))  # a non-positive one fails below
    eig_min = float(np.min(np.linalg.eigvalsh(sigma / sd[:, None] / sd)))
    if eig_min <= 1e-12 * len(sigma):
        raise NumericalError(
            f"covariance not positive definite (min eigenvalue {eig_min:.6e})")
    return np.linalg.cholesky(sigma)


def _impact(system: StackedSystem) -> np.ndarray:
    """``G0^-1 chol(Sigma_u)``: all single-shock impact columns."""
    return np.linalg.solve(system.g0, cholesky_lower(system.sigma_u))


def _accumulate(mas: np.ndarray, impact: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Point responses summed target by target: exactly the sum of the single-target ones."""
    out = np.zeros((mas.shape[0], impact.shape[0]))
    for j in targets:
        out += mas @ impact[:, j]
    return out


# ---------------------------------------------------------------------------
# delta-method bands
# ---------------------------------------------------------------------------

class IRFResult(Record):
    """Point responses and symmetric half-widths at the requested level, both
    (n+1, width), and how far to trust the period's system: the spectral
    radius of ``F1`` and the system's ``g0_condition``, that of ``G0`` in
    residual-sd units."""

    def __init__(self, point: np.ndarray, half_width: np.ndarray, radius: float,
                 g0_condition: float, at_time: int | str, targets: tuple[int, ...],
                 level: float, sample_size: int):
        self._set(point=point, half_width=half_width, radius=radius,
                  g0_condition=g0_condition, at_time=at_time, targets=targets, level=level,
                  sample_size=sample_size)

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


def estimate_asymptotic_inputs(panel: TimeSeriesPanel) -> np.ndarray:
    """``M^-1``, the w x w factor of ``Cov vec(dF1) = M^-1 kron Sigma_eps``: the
    lagged-regressor block of the inverse second-moment matrix of the panel
    (intercept included, then dropped). It depends on the panel alone."""
    lagged = np.column_stack([np.ones(len(panel.values) - 1), panel.values[:-1]])
    moment = lagged.T @ lagged / len(lagged)
    try:
        moment_inv = np.linalg.inv(moment)
    except np.linalg.LinAlgError:
        raise NumericalError("singular regressor moment matrix") from None
    return moment_inv[1:, 1:]


def asymptotic_bands(system: StackedSystem, targets: Sequence[Sequence[int]],
                     sample_size: int, moment_inv: np.ndarray, *, horizon: int, level: float,
                     at_time: int | str) -> list[IRFResult]:
    """Point responses with delta-method half-widths for one period's shocks.

    ``targets`` lists the shocks as column-index tuples; the results come
    back in the same order, over horizons 0..``horizon`` with bands at
    ``level``, labelled ``at_time``. What depends only on the system and the
    request (its Cholesky factors, the MA matrices, the eigenvalues of ``F1``
    and the band multiplier) is computed once for all shocks; each result
    reports the system's ``g0_condition``.

    The band is the delta-method band of ``B_s P u`` with ``P = chol(Sigma_eps)``
    and ``u`` the sum of the shocked unit vectors. It is the point response
    ``B_s G0^-1 chol(Sigma_u) u`` only when ``G0`` is lower triangular.

    With ``Cov vec(dF1) = M^-1 kron Sigma_eps``, ``Cov vec(dSigma_eps) =
    (I + K)(Sigma_eps kron Sigma_eps)`` for the system's own ``Sigma_eps``, and
    ``C_j`` the matrix ``B_s P`` with the columns before ``j`` zeroed and
    column ``j`` halved, the variance of response i at horizon s is

        sum_{j in J} (C_j C_j^T)_ii + sum_{j,j' in J} (C_j)_ij' (C_j')_ij
        + sum_{m,m' < s} (B_m Sigma_eps B_m'^T)_ii v_{s-1-m}^T M^-1 v_{s-1-m'}

    with ``v_k = F1^k P u``; the half-width is ``z_{1-alpha/2} sqrt(var / T)``.
    """
    targets = [tuple(int(j) for j in shock) for shock in targets]
    if not targets:
        raise ValidationError("no shocks given")
    for shock in targets:
        if not shock:
            raise ValidationError("shock needs at least one target column")
        if len(set(shock)) != len(shock):
            raise ValidationError("shock targets must be distinct")
        for j in shock:
            if not 0 <= j < system.width:
                raise ValidationError(f"shock target {j} out of range [0, {system.width})")
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must be in (0, 1)")
    z = _band_multiplier(level)
    if math.isinf(z):
        raise ValidationError(f"confidence level {level!r} gives an infinite band multiplier")
    if sample_size < 1:
        raise ValidationError("sample size must be >= 1")
    moment_inv = np.asarray(moment_inv, float)
    if moment_inv.shape != (system.width,) * 2:
        raise ValidationError(f"band input moment_inv has shape {moment_inv.shape}, "
                              f"expected {(system.width,) * 2}")
    if not np.all(np.isfinite(moment_inv)):
        raise ValidationError("band input moment_inv has non-finite entries")
    # covariance part: dW = P^-1 dSigma P^-T has Cov vec(dW) = (I + K), and
    # d(B_s P) = B_s P Phi(dW), Phi keeping the lower triangle, diagonal halved
    chol_eps = cholesky_lower(system.sigma_eps)
    mas = ma_coefficients(system.f1, horizon)  # checks horizon >= 0
    mas_chol, b_sigma = mas @ chol_eps, mas @ system.sigma_eps
    impact = _impact(system)
    radius = spectral_radius(system.f1)

    results = []
    for shock in targets:
        var = _response_variance(mas, mas_chol, b_sigma, chol_eps, moment_inv, list(shock))
        floor = np.min(var, axis=1)
        if np.any(floor < -1e-10):
            s = int(np.argmax(floor < -1e-10))
            raise NumericalError(f"negative response variance {floor[s]:.3e} at horizon {s}")
        half = z * np.sqrt(np.clip(var, 0.0, None)) / np.sqrt(sample_size)
        results.append(IRFResult(
            point=_accumulate(mas, impact, shock), half_width=half, radius=radius,
            g0_condition=system.g0_condition, at_time=at_time, targets=shock, level=level,
            sample_size=sample_size))
    return results


def _response_variance(mas, mas_chol, b_sigma, chol_eps, moment_inv, targets):
    """Variance of every response at horizons 0..S (see ``asymptotic_bands``),
    from ``B_s``, ``B_s P`` and ``B_s Sigma_eps`` for s = 0..S."""
    cols, rows = np.arange(chol_eps.shape[0]), np.array(targets)[:, None]
    mask = (cols > rows) + 0.5 * (cols == rows)
    c = mas_chol[:, None] * mask[None, :, None, :]  # C_j per horizon
    picked = c[..., targets]
    var = np.einsum("sjia,sjia->si", c, c) + np.einsum("sjik,skij->si", picked, picked)

    # coefficient part: dB_s = sum_{m<s} B_m dF1 F1^(s-1-m)
    horizon = mas.shape[0] - 1
    v = mas[:horizon] @ chol_eps[:, targets].sum(axis=1)
    gram = v @ moment_inv @ v.T
    for s in range(1, horizon + 1):
        var[s] += np.einsum("mn,mia,nia->i", gram[s - 1::-1, s - 1::-1],
                            b_sigma[:s], mas[:s])
    return var


def _band_multiplier(level: float) -> float:
    """The standard normal quantile at ``p = 1/2 + level/2``, within a few ulp
    of ``scipy.special.ndtri``: Abramowitz & Stegun 26.2.23 on the tail
    ``1 - p`` (error below 4.5e-4), then four Newton steps on ``erf`` below
    ``p = 3/4``, where small quantiles keep their relative accuracy, and on
    ``erfc`` above it, where far tails keep theirs."""
    p = 0.5 + level / 2.0
    q = 1.0 - p  # exact for p in [1/2, 1]
    if q == 0.0:
        return math.inf
    t = math.sqrt(-2.0 * math.log(q))
    x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    for _ in range(4):  # 2 (Phi(x) - p), by erf or by erfc
        miss = (math.erf(x / math.sqrt(2.0)) - (2.0 * p - 1.0) if p < 0.75
                else 2.0 * q - math.erfc(x / math.sqrt(2.0)))
        x -= miss * math.sqrt(math.pi / 2.0) * math.exp(x * x / 2.0)
    return x


# Kronecker-form band derivatives: unused by the bands. They stay because the
# tests' dense band oracle is built from them and bench/spans.py wraps
# derivative_Gn and derivative_H by name

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
    if not isinstance(obj["targets"], list):
        raise ValidationError(f"{path}: targets: expected a list, got {obj['targets']!r}")
    at_time = obj["at_time"]
    if not isinstance(at_time, str):
        at_time = parse_int(at_time, f"{path}: at_time")
    result = IRFResult(
        point=point.T, half_width=parse_array(obj["half_width"], point.shape,
                                              f"{path}: half_width").T,
        radius=parse_float(obj["radius"], f"{path}: radius"),
        g0_condition=parse_float(obj["g0_condition"], f"{path}: g0_condition"),
        at_time=at_time,
        targets=tuple(parse_int(j, f"{path}: targets") for j in obj["targets"]),
        level=parse_float(obj["level"], f"{path}: level"),
        sample_size=parse_int(obj["sample_size"], f"{path}: sample_size"))
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
