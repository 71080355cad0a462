"""Multi-country VAR core: link matrices, structural least squares, stacking.

Each country equation regresses its own p variables on their lags, weighted
cross-country ("starred") aggregates, and the common activity block; each
activity equation mirrors that with country aggregates. Rewriting every
equation through a selector/weighting link matrix stacks the system into
contemporaneous and lag coefficient matrices (G0, G1), whose reduced form
``F1 = G0^-1 G1`` drives impulse responses and the moving-average recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import COMMON_REGION, TimeSeriesPanel
from .serialize import read_csv_rows, read_json, write_json

WEIGHT_TOL = 1e-12
COND_CAP = 1e12  # stack_system rejects a G0 with a larger condition number


@dataclass(frozen=True)
class WeightSequence:
    """Per-period weight matrices linking countries to each other and to activities.

    ``we[t]`` is K x K with zero diagonal and unit column sums (column k holds
    the weights other countries get in country k's foreign aggregate);
    ``wb[t]`` is K x l with unit column sums (column m holds the country
    weights in activity m's aggregate). The degenerate one-country case keeps
    an all-zero 1 x 1 ``we`` since no foreign aggregate exists.
    """

    we: np.ndarray  # (T, K, K)
    wb: np.ndarray  # (T, K, l)

    def __post_init__(self):
        we, wb = np.asarray(self.we, float), np.asarray(self.wb, float)
        if we.ndim != 3 or we.shape[1] != we.shape[2]:
            raise ValidationError(f"we must be (T, K, K), got {we.shape}")
        if wb.ndim != 3 or wb.shape[0] != we.shape[0] or wb.shape[1] != we.shape[1]:
            raise ValidationError(f"wb must be (T, K, l) matching we, got {wb.shape}")
        object.__setattr__(self, "we", we)
        object.__setattr__(self, "wb", wb)
        self.validate()

    @property
    def n_periods(self) -> int:
        return self.we.shape[0]

    @property
    def n_regions(self) -> int:
        return self.we.shape[1]

    @property
    def n_activities(self) -> int:
        return self.wb.shape[2]

    def validate(self) -> None:
        we, wb = self.we, self.wb
        if np.any(we < -WEIGHT_TOL) or np.any(wb < -WEIGHT_TOL):
            raise ValidationError("weights must be non-negative")
        diag = np.abs(np.diagonal(we, axis1=1, axis2=2))
        if np.any(diag > WEIGHT_TOL):
            raise ValidationError("country weight matrices must have zero diagonal")
        k = self.n_regions
        if k == 1:
            if np.any(np.abs(we) > WEIGHT_TOL):
                raise ValidationError("single-country weight matrix must be zero")
        else:
            colsums = we.sum(axis=1)
            if np.any(np.abs(colsums - 1.0) > 1e-9):
                raise ValidationError("country weight columns must sum to 1")
        if self.n_activities > 0:
            colsums = wb.sum(axis=1)
            if np.any(np.abs(colsums - 1.0) > 1e-9):
                raise ValidationError("activity weight columns must sum to 1")

    def is_constant(self) -> bool:
        return (np.all(self.we == self.we[:1])
                and np.all(self.wb == self.wb[:1]))

    @classmethod
    def equal(cls, n_periods: int, n_regions: int, n_activities: int) -> "WeightSequence":
        """Fixed equal weights: off-diagonal 1/(K-1), activity weights 1/K."""
        k = n_regions
        if k == 1:
            we1 = np.zeros((1, 1))
        else:
            we1 = (np.ones((k, k)) - np.eye(k)) / (k - 1)
        wb1 = np.full((k, n_activities), 1.0 / k)
        return cls(
            we=np.broadcast_to(we1, (n_periods, k, k)).copy(),
            wb=np.broadcast_to(wb1, (n_periods, k, n_activities)).copy(),
        )

    @classmethod
    def rolling_share(cls, panel: TimeSeriesPanel, variable: str,
                      window: int = 24) -> "WeightSequence":
        """Weights from trailing-window shares of a designated country series."""
        if variable not in panel.variables:
            raise ValidationError(f"share variable {variable!r} not in panel variables")
        if window < 1:
            raise ValidationError("rolling window must be >= 1")
        k, p, l = panel.dims
        t_len = len(panel.time_index)
        vix = panel.variables.index(variable)
        levels = panel.values[:, [i * p + vix for i in range(k)]]
        shares = np.empty((t_len, k))
        for t in range(t_len):
            lo = max(0, t - window + 1)
            shares[t] = levels[lo:t + 1].mean(axis=0)
        if np.any(shares <= 0):
            raise ValidationError(
                f"rolling shares of {variable!r} must be positive to form weights")
        we = np.zeros((t_len, k, k))
        if k > 1:
            for col in range(k):
                others = shares.copy()
                others[:, col] = 0.0
                we[:, :, col] = others / others.sum(axis=1, keepdims=True)
        wb = np.repeat((shares / shares.sum(axis=1, keepdims=True))[:, :, None], l, axis=2)
        return cls(we=we, wb=wb)

    @classmethod
    def from_csv(cls, path: str | Path, time_index: Sequence[str],
                 regions: Sequence[str], activities: Sequence[str]) -> "WeightSequence":
        """Load per-period weights from a ``date,from,to,weight`` CSV.

        Rows with ``to = __COMMON__:<activity>`` populate the activity weight
        block. Every panel date must be covered.
        """
        header, rows = read_csv_rows(path)
        if header != ["date", "from", "to", "weight"]:
            raise ValidationError(f"{path}: expected header date,from,to,weight")
        region_ix = {r: i for i, r in enumerate(regions)}
        act_ix = {a: i for i, a in enumerate(activities)}
        date_ix = {d: t for t, d in enumerate(time_index)}
        k, l = len(regions), len(activities)
        we = np.zeros((len(time_index), k, k))
        wb = np.zeros((len(time_index), k, l))
        for i, row in enumerate(rows):
            rownum = i + 2
            date, src, dst, weight = row
            if date not in date_ix:
                raise ValidationError(f"{path}: row {rownum}: date {date} not in panel range")
            if src not in region_ix:
                raise ValidationError(f"{path}: row {rownum}: unknown region {src!r}")
            t = date_ix[date]
            w = float(weight)
            if dst.startswith(COMMON_REGION + ":"):
                act = dst.split(":", 1)[1]
                if act not in act_ix:
                    raise ValidationError(f"{path}: row {rownum}: unknown activity {act!r}")
                wb[t, region_ix[src], act_ix[act]] = w
            else:
                if dst not in region_ix:
                    raise ValidationError(f"{path}: row {rownum}: unknown region {dst!r}")
                we[t, region_ix[src], region_ix[dst]] = w
        return cls(we=we, wb=wb)


@dataclass(frozen=True)
class CountryCoefficients:
    """Structural blocks of one country equation."""

    a_k: np.ndarray       # (p,) intercept
    phi1: np.ndarray      # (p, p) own-lag block
    gamma_e0: np.ndarray  # (p, p) contemporaneous foreign aggregate
    gamma_e1: np.ndarray  # (p, p) lagged foreign aggregate
    gamma_b0: np.ndarray  # (p, l) contemporaneous activities
    gamma_b1: np.ndarray  # (p, l) lagged activities


@dataclass(frozen=True)
class ActivityCoefficients:
    """Structural blocks of one common-activity equation."""

    a_m: float
    phi_b: float
    gamma_be0: np.ndarray  # (p,) contemporaneous country aggregate
    gamma_be1: np.ndarray  # (p,) lagged country aggregate


@dataclass(frozen=True)
class StructuralFit:
    """Least-squares estimates of all structural blocks plus residuals."""

    countries: tuple[CountryCoefficients, ...]
    activities: tuple[ActivityCoefficients, ...]
    residuals: np.ndarray | None  # (T-1, K*p+l), panel column order
    sigma_u: np.ndarray           # (K*p+l, K*p+l)
    dims: tuple[int, int, int]
    columns: tuple[str, ...]
    nobs: int


@dataclass(frozen=True)
class StackedSystem:
    """Stacked contemporaneous/lag system at one period and its reduced form."""

    g0: np.ndarray
    g1: np.ndarray
    a: np.ndarray
    sigma_u: np.ndarray
    sigma_eps: np.ndarray
    b: np.ndarray
    f1: np.ndarray

    @property
    def width(self) -> int:
        return self.g0.shape[0]

    @classmethod
    def from_reduced_form(cls, intercept: np.ndarray, f1: np.ndarray,
                          sigma_eps: np.ndarray) -> "StackedSystem":
        """Plain reduced-form VAR(1) as a stacked system with G0 = I."""
        n = f1.shape[0]
        return cls(
            g0=np.eye(n), g1=np.asarray(f1, float).copy(),
            a=np.asarray(intercept, float).copy(),
            sigma_u=np.asarray(sigma_eps, float).copy(),
            sigma_eps=np.asarray(sigma_eps, float).copy(),
            b=np.asarray(intercept, float).copy(),
            f1=np.asarray(f1, float).copy(),
        )

    def validate(self, tol: float = 1e-10) -> None:
        if np.max(np.abs(self.g0 @ self.f1 - self.g1)) > tol:
            raise NumericalError("reduced form violates G0 @ F1 = G1")
        if np.max(np.abs(self.g0 @ self.b - self.a)) > tol:
            raise NumericalError("reduced form violates G0 @ b = a")
        for name, mat in (("sigma_u", self.sigma_u), ("sigma_eps", self.sigma_eps)):
            if np.max(np.abs(mat - mat.T)) > tol:
                raise NumericalError(f"{name} is not symmetric")
        recon = np.linalg.solve(self.g0, np.linalg.solve(self.g0, self.sigma_u).T).T
        if np.max(np.abs(recon - self.sigma_eps)) > tol * max(1.0, np.max(np.abs(self.sigma_u))):
            raise NumericalError("sigma_eps != G0^-1 sigma_u G0^-T")


def build_link_matrix_country(k: int, t: int, weights: WeightSequence,
                              dims: tuple[int, int, int]) -> np.ndarray:
    """Link matrix mapping the global vector to country k's equation block.

    Rows 0..p-1 select country k's own variables, rows p..2p-1 apply the
    column-k country weights to every country block, and the last l rows
    select the activities. Indices are 0-based.
    """
    n_regions, p, l = dims
    if not 0 <= k < n_regions:
        raise ValidationError(f"country index {k} out of range [0, {n_regions})")
    if not 0 <= t < weights.n_periods:
        raise ValidationError(f"time index {t} out of range [0, {weights.n_periods})")
    width = n_regions * p + l
    link = np.zeros((2 * p + l, width))
    link[0:p, k * p:(k + 1) * p] = np.eye(p)
    for i in range(n_regions):
        link[p:2 * p, i * p:(i + 1) * p] = weights.we[t, i, k] * np.eye(p)
    if l:
        link[2 * p:, n_regions * p:] = np.eye(l)
    return link


def build_link_matrix_activity(m: int, t: int, weights: WeightSequence,
                               dims: tuple[int, int, int]) -> np.ndarray:
    """Link matrix for activity m: its own selector row plus country weights."""
    n_regions, p, l = dims
    if not 0 <= m < l:
        raise ValidationError(f"activity index {m} out of range [0, {l})")
    if not 0 <= t < weights.n_periods:
        raise ValidationError(f"time index {t} out of range [0, {weights.n_periods})")
    width = n_regions * p + l
    link = np.zeros((p + 1, width))
    link[0, n_regions * p + m] = 1.0
    for i in range(n_regions):
        link[1:, i * p:(i + 1) * p] = weights.wb[t, i, m] * np.eye(p)
    return link


def _starred_series(panel: TimeSeriesPanel, weights: WeightSequence):
    k, p, l = panel.dims
    t_len = len(panel.time_index)
    x_e = panel.values[:, :k * p].reshape(t_len, k, p)
    x_b = panel.values[:, k * p:]
    # foreign aggregate for country k at t uses the weights of the same t
    star_e = np.einsum("tik,tip->tkp", weights.we, x_e)
    star_b = np.einsum("tkm,tkp->tmp", weights.wb, x_e)
    return x_e, x_b, star_e, star_b


def estimate_structural(panel: TimeSeriesPanel, weights: WeightSequence) -> StructuralFit:
    """Estimate all structural blocks by per-equation ordinary least squares.

    Country k's p-variable block is regressed on an intercept, its own lag,
    the contemporaneous and lagged foreign aggregates (built with the weights
    of the matching period), and the contemporaneous and lagged activities;
    activity equations mirror that with country aggregates. Residuals come
    back column-aligned with the panel; the residual covariance uses the
    unbiased divisor nobs - q with q the largest per-equation regressor count.
    """
    k, p, l = panel.dims
    t_len = len(panel.time_index)
    if weights.n_periods != t_len:
        raise ValidationError(
            f"weights cover {weights.n_periods} periods, panel has {t_len}")
    if weights.n_regions != k or weights.n_activities != l:
        raise ValidationError("weight dimensions do not match panel dims")
    x_e, x_b, star_e, star_b = _starred_series(panel, weights)
    nobs = t_len - 1
    names = panel.column_names()

    use_foreign = k > 1
    q_country = 1 + p + (2 * p if use_foreign else 0) + 2 * l
    q_activity = 1 + 1 + 2 * p
    q_max = max(q_country, q_activity) if l else q_country
    if nobs < q_max + 1:
        raise NumericalError(
            f"panel too short: {nobs} usable periods for up to {q_max} regressors")

    residuals = np.empty((nobs, k * p + l))
    countries = []
    ones = np.ones((nobs, 1))
    for kk in range(k):
        blocks = [ones, x_e[:-1, kk, :]]
        if use_foreign:
            blocks += [star_e[1:, kk, :], star_e[:-1, kk, :]]
        if l:
            blocks += [x_b[1:], x_b[:-1]]
        design = np.hstack(blocks)
        target = x_e[1:, kk, :]
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise NumericalError(
                f"rank-deficient regressors in country equation {panel.regions[kk]} "
                f"(rank {rank} < {design.shape[1]})")
        residuals[:, kk * p:(kk + 1) * p] = target - design @ coef
        pos = 1
        phi1 = coef[pos:pos + p].T
        pos += p
        if use_foreign:
            gamma_e0 = coef[pos:pos + p].T
            gamma_e1 = coef[pos + p:pos + 2 * p].T
            pos += 2 * p
        else:
            gamma_e0 = np.zeros((p, p))
            gamma_e1 = np.zeros((p, p))
        if l:
            gamma_b0 = coef[pos:pos + l].T
            gamma_b1 = coef[pos + l:pos + 2 * l].T
        else:
            gamma_b0 = np.zeros((p, 0))
            gamma_b1 = np.zeros((p, 0))
        countries.append(CountryCoefficients(
            a_k=coef[0].copy(), phi1=phi1, gamma_e0=gamma_e0, gamma_e1=gamma_e1,
            gamma_b0=gamma_b0, gamma_b1=gamma_b1))

    activities = []
    for m in range(l):
        design = np.hstack([ones, x_b[:-1, m:m + 1], star_b[1:, m, :], star_b[:-1, m, :]])
        target = x_b[1:, m]
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise NumericalError(
                f"rank-deficient regressors in activity equation {panel.activities[m]} "
                f"(rank {rank} < {design.shape[1]})")
        residuals[:, k * p + m] = target - design @ coef
        activities.append(ActivityCoefficients(
            a_m=float(coef[0]), phi_b=float(coef[1]),
            gamma_be0=coef[2:2 + p].copy(), gamma_be1=coef[2 + p:2 + 2 * p].copy()))

    sigma_u = residuals.T @ residuals / (nobs - q_max)
    return StructuralFit(
        countries=tuple(countries), activities=tuple(activities),
        residuals=residuals, sigma_u=sigma_u, dims=(k, p, l),
        columns=tuple(names), nobs=nobs)


def stack_system(fit: StructuralFit, weights: WeightSequence, t: int) -> StackedSystem:
    """Assemble (G0, G1, a) at period t and solve for the reduced form."""
    k, p, l = fit.dims
    width = k * p + l
    g0 = np.zeros((width, width))
    g1 = np.zeros((width, width))
    a = np.zeros(width)
    for kk, c in enumerate(fit.countries):
        link = build_link_matrix_country(kk, t, weights, fit.dims)
        a0 = np.hstack([np.eye(p), -c.gamma_e0, -c.gamma_b0])
        a1 = np.hstack([c.phi1, c.gamma_e1, c.gamma_b1])
        g0[kk * p:(kk + 1) * p] = a0 @ link
        g1[kk * p:(kk + 1) * p] = a1 @ link
        a[kk * p:(kk + 1) * p] = c.a_k
    for m, act in enumerate(fit.activities):
        link = build_link_matrix_activity(m, t, weights, fit.dims)
        a0 = np.concatenate([[1.0], -act.gamma_be0])
        a1 = np.concatenate([[act.phi_b], act.gamma_be1])
        g0[k * p + m] = a0 @ link
        g1[k * p + m] = a1 @ link
        a[k * p + m] = act.a_m
    cond = np.linalg.cond(g0)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise NumericalError(
            f"G0 at period {t} has condition number {cond:.3e} above cap {COND_CAP:.1e}")
    b = np.linalg.solve(g0, a)
    f1 = np.linalg.solve(g0, g1)
    sigma_eps = np.linalg.solve(g0, np.linalg.solve(g0, fit.sigma_u).T).T
    sigma_eps = (sigma_eps + sigma_eps.T) / 2.0
    system = StackedSystem(g0=g0, g1=g1, a=a, sigma_u=fit.sigma_u.copy(),
                           sigma_eps=sigma_eps, b=b, f1=f1)
    system.validate(tol=1e-10 * max(1.0, cond))
    return system


def ma_coefficients(f1: np.ndarray, horizon: int) -> np.ndarray:
    """Moving-average matrices B_0..B_S from iterating the reduced form."""
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    f1 = np.asarray(f1, float)
    n = f1.shape[0]
    out = np.empty((horizon + 1, n, n))
    out[0] = np.eye(n)
    for s in range(1, horizon + 1):
        out[s] = f1 @ out[s - 1]
    return out


@dataclass(frozen=True)
class Stability:
    radius: float
    stable: bool


def stability_check(f1: np.ndarray) -> Stability:
    """Spectral radius of the transition matrix; stable iff strictly below 1."""
    f1 = np.asarray(f1, float)
    if f1.ndim != 2 or f1.shape[0] != f1.shape[1]:
        raise ValidationError("stability check needs a square matrix")
    radius = float(np.max(np.abs(np.linalg.eigvals(f1))))
    return Stability(radius=radius, stable=radius < 1.0)


def write_coefficients_json(fit: StructuralFit, panel: TimeSeriesPanel,
                            path: str | Path) -> None:
    obj = {
        "regions": list(panel.regions),
        "variables": list(panel.variables),
        "activities": list(panel.activities),
        "nobs": fit.nobs,
        "countries": [
            {
                "region": panel.regions[i],
                "a_k": c.a_k, "phi1": c.phi1,
                "gamma_e0": c.gamma_e0, "gamma_e1": c.gamma_e1,
                "gamma_b0": c.gamma_b0, "gamma_b1": c.gamma_b1,
            }
            for i, c in enumerate(fit.countries)
        ],
        "activity_equations": [
            {
                "activity": panel.activities[m],
                "a_m": a.a_m, "phi_b": a.phi_b,
                "gamma_be0": a.gamma_be0, "gamma_be1": a.gamma_be1,
            }
            for m, a in enumerate(fit.activities)
        ],
        "sigma_u": fit.sigma_u,
    }
    write_json(obj, path)


def read_coefficients_json(path: str | Path) -> StructuralFit:
    """Rebuild a StructuralFit (without residuals) from the JSON export."""
    obj = read_json(path)
    regions = obj["regions"]
    variables = obj["variables"]
    activities = obj["activities"]
    k, p, l = len(regions), len(variables), len(activities)
    countries = tuple(
        CountryCoefficients(
            a_k=np.array(c["a_k"], float),
            phi1=np.array(c["phi1"], float),
            gamma_e0=np.array(c["gamma_e0"], float),
            gamma_e1=np.array(c["gamma_e1"], float),
            gamma_b0=np.array(c["gamma_b0"], float).reshape(p, l),
            gamma_b1=np.array(c["gamma_b1"], float).reshape(p, l),
        )
        for c in obj["countries"]
    )
    acts = tuple(
        ActivityCoefficients(
            a_m=float(a["a_m"]), phi_b=float(a["phi_b"]),
            gamma_be0=np.array(a["gamma_be0"], float),
            gamma_be1=np.array(a["gamma_be1"], float),
        )
        for a in obj["activity_equations"]
    )
    columns = tuple([f"{r}.{v}" for r in regions for v in variables] + list(activities))
    return StructuralFit(
        countries=countries, activities=acts, residuals=None,
        sigma_u=np.array(obj["sigma_u"], float), dims=(k, p, l),
        columns=columns, nobs=int(obj["nobs"]))
