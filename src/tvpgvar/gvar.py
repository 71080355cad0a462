"""Multi-country VAR core: weight aggregation, structural least squares, stacking.

Each country equation regresses its own p variables on their lags, weighted
cross-country ("starred") aggregates, and the common activity block; each
activity equation mirrors that with country aggregates. One linear map,
``_aggregates``, builds those series: estimation applies it to the panel,
and the link matrices are the same map applied to the identity. Each
equation works on ``z_t = W_t x_t`` and its lag term is the lag of that
series, so the stacked system at period t is ``G0_t x_t = a + G1_{t-1}
x_{t-1}``: ``G0`` carries the weights of t, ``G1`` those of t-1, and period
0 (no lag) cannot be stacked. The reduced form ``F1 = G0_t^-1 G1_{t-1}``
drives impulse responses and the moving-average recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import COMMON_REGION, TimeSeriesPanel
from .serialize import (parse_array, parse_float, parse_strings, read_json, read_table,
                        require_keys, write_json)

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
        region_ix = {r: i for i, r in enumerate(regions)}
        act_ix = {a: i for i, a in enumerate(activities)}
        date_ix = {d: t for t, d in enumerate(time_index)}
        k, l = len(regions), len(activities)
        we = np.zeros((len(time_index), k, k))
        wb = np.zeros((len(time_index), k, l))
        for where, (date, src, dst, weight) in read_table(path, ["date", "from", "to", "weight"]):
            if date not in date_ix:
                raise ValidationError(f"{where}: date {date} not in panel range")
            if src not in region_ix:
                raise ValidationError(f"{where}: unknown region {src!r}")
            t = date_ix[date]
            w = parse_float(weight, where)
            if dst.startswith(COMMON_REGION + ":"):
                act = dst.split(":", 1)[1]
                if act not in act_ix:
                    raise ValidationError(f"{where}: unknown activity {act!r}")
                wb[t, region_ix[src], act_ix[act]] = w
            else:
                if dst not in region_ix:
                    raise ValidationError(f"{where}: unknown region {dst!r}")
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


def _aggregates(x: np.ndarray, we: np.ndarray, wb: np.ndarray,
                dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Every equation's series, built from the global vectors ``x`` (..., K*p+l).

    Country k gets ``[x_k, sum_i we[i,k] x_i, activities]`` (2p+l values) and
    activity m gets ``[x_m, sum_k wb[k,m] x_k]`` (1+p values), returned as
    (..., K, 2p+l) and (..., l, 1+p). ``we``/``wb`` broadcast against the
    leading axes of ``x``: per-period weights for a panel, one period's
    weights for the identity (the link matrices).
    """
    k, p, l = dims
    x_e = x[..., :k * p].reshape(x.shape[:-1] + (k, p))
    x_b = x[..., k * p:]
    star_e = np.einsum("...ik,...ip->...kp", we, x_e)
    star_b = np.einsum("...km,...kp->...mp", wb, x_e)
    shared = np.broadcast_to(x_b[..., None, :], x_e.shape[:-1] + (l,))
    return (np.concatenate([x_e, star_e, shared], axis=-1),
            np.concatenate([x_b[..., None], star_b], axis=-1))


def _links(weights: WeightSequence, t: int,
           dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Period-t link matrices: (K, 2p+l, width) country and (l, 1+p, width)
    activity, ``_aggregates`` applied to the identity: country k's rows select
    its own variables, its foreign aggregate and the activities; activity m's
    rows select its own column and its country aggregate."""
    if not 0 <= t < weights.n_periods:
        raise ValidationError(f"time index {t} out of range [0, {weights.n_periods})")
    n_regions, p, l = dims
    country, activity = _aggregates(np.eye(n_regions * p + l), weights.we[t],
                                    weights.wb[t], dims)
    return country.transpose(1, 2, 0), activity.transpose(1, 2, 0)


def _ols(z: np.ndarray, own: int, spans: Sequence[slice], target: np.ndarray,
         equation: str) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, residuals) of one equation regressed on an intercept, the
    lag of the first ``own`` columns of its series ``z``, and each span at t, t-1."""
    cols = [np.ones((len(z) - 1, 1)), z[:-1, :own]]
    for span in spans:
        cols += [z[1:, span], z[:-1, span]]
    design = np.hstack(cols)
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise NumericalError(f"rank-deficient regressors in {equation} "
                             f"(rank {rank} < {design.shape[1]})")
    return coef, target - design @ coef


def estimate_structural(panel: TimeSeriesPanel, weights: WeightSequence) -> StructuralFit:
    """Estimate all structural blocks by per-equation ordinary least squares.

    Country k's p-variable block is regressed on an intercept, its own lag,
    the foreign aggregate and the activities at t and t-1; activity
    equations mirror that with country aggregates. Each aggregate series
    uses the weights of its own period, so the lag term of period t carries
    the weights of t-1. Residuals come back column-aligned with the panel;
    the residual covariance uses the unbiased divisor nobs - q with q the
    largest per-equation regressor count.
    """
    k, p, l = panel.dims
    t_len = len(panel.time_index)
    if weights.n_periods != t_len:
        raise ValidationError(
            f"weights cover {weights.n_periods} periods, panel has {t_len}")
    if weights.n_regions != k or weights.n_activities != l:
        raise ValidationError("weight dimensions do not match panel dims")
    z_e, z_b = _aggregates(panel.values, weights.we, weights.wb, panel.dims)
    nobs = t_len - 1

    use_foreign = k > 1  # one country has no foreign aggregate
    # regressor counts of a country and (if any) an activity equation
    q_max = max(1 + p + (2 * p if use_foreign else 0) + 2 * l, 2 + 2 * p if l else 0)
    if nobs < q_max + 1:
        raise NumericalError(
            f"panel too short: {nobs} usable periods for up to {q_max} regressors")

    residuals = np.empty((nobs, k * p + l))
    spans = ([slice(p, 2 * p)] if use_foreign else []) + [slice(2 * p, None)]
    countries = []
    for kk in range(k):
        coef, residuals[:, kk * p:(kk + 1) * p] = _ols(
            z_e[:, kk], p, spans, z_e[1:, kk, :p],
            f"country equation {panel.regions[kk]}")
        if not use_foreign:
            coef = np.vstack([coef[:1 + p], np.zeros((2 * p, p)), coef[1 + p:]])
        a_k, phi1, ge0, ge1, gb0, gb1 = np.split(coef, np.cumsum([1, p, p, p, l]))
        countries.append(CountryCoefficients(
            a_k=a_k[0].copy(), phi1=phi1.T, gamma_e0=ge0.T, gamma_e1=ge1.T,
            gamma_b0=gb0.T, gamma_b1=gb1.T))

    activities = []
    for m in range(l):
        coef, residuals[:, k * p + m] = _ols(
            z_b[:, m], 1, [slice(1, None)], z_b[1:, m, 0],
            f"activity equation {panel.activities[m]}")
        activities.append(ActivityCoefficients(
            a_m=float(coef[0]), phi_b=float(coef[1]),
            gamma_be0=coef[2:2 + p].copy(), gamma_be1=coef[2 + p:2 + 2 * p].copy()))

    sigma_u = residuals.T @ residuals / (nobs - q_max)
    return StructuralFit(
        countries=tuple(countries), activities=tuple(activities),
        residuals=residuals, sigma_u=sigma_u, dims=(k, p, l),
        columns=tuple(panel.column_names()), nobs=nobs)


def stack_system(fit: StructuralFit, weights: WeightSequence, t: int) -> StackedSystem:
    """Assemble (G0_t, G1_{t-1}, a) and solve for the reduced form at period t.

    ``G0_t x_t = a + G1_{t-1} x_{t-1}``: the contemporaneous terms carry the
    weights of period t and the lag terms those of t-1, as in estimation.
    Period 0 has no lag, so ``t`` must be at least 1.
    """
    if t < 1:
        raise ValidationError(f"period {t} has no lagged period; stacking starts at period 1")
    p = fit.dims[1]
    blocks = [(np.hstack([np.eye(p), -c.gamma_e0, -c.gamma_b0]),
               np.hstack([c.phi1, c.gamma_e1, c.gamma_b1]), c.a_k)
              for c in fit.countries]
    blocks += [(np.concatenate([[1.0], -act.gamma_be0])[None],
                np.concatenate([[act.phi_b], act.gamma_be1])[None], [act.a_m])
               for act in fit.activities]
    now, lag = _links(weights, t, fit.dims), _links(weights, t - 1, fit.dims)
    g0 = np.vstack([a0 @ link for (a0, _, _), link in zip(blocks, [*now[0], *now[1]])])
    g1 = np.vstack([a1 @ link for (_, a1, _), link in zip(blocks, [*lag[0], *lag[1]])])
    a = np.concatenate([c for _, _, c in blocks])
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


def spectral_radius(f1: np.ndarray) -> float:
    """Spectral radius of the transition matrix; the system is stable iff it
    is strictly below 1."""
    f1 = np.asarray(f1, float)
    if f1.ndim != 2 or f1.shape[0] != f1.shape[1]:
        raise ValidationError("stability check needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(f1))))


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
    """Rebuild a StructuralFit (without residuals) from the JSON export, each
    block checked against the shape that the file's own code lists give it."""
    obj = require_keys(read_json(path), ("regions", "variables", "activities", "nobs",
                                         "countries", "activity_equations", "sigma_u"), str(path))
    regions, variables, activities = (parse_strings(obj[key], f"{path}: {key}")
                                      for key in ("regions", "variables", "activities"))
    k, p, l = len(regions), len(variables), len(activities)
    equations = {}
    for key, count, shapes in (
            ("countries", k, {"a_k": (p,), "phi1": (p, p), "gamma_e0": (p, p),
                              "gamma_e1": (p, p), "gamma_b0": (p, l), "gamma_b1": (p, l)}),
            ("activity_equations", l, {"a_m": (), "phi_b": (), "gamma_be0": (p,),
                                       "gamma_be1": (p,)})):
        entries = obj[key]
        if not isinstance(entries, list) or len(entries) != count:
            raise ValidationError(f"{path}: {key} must list {count} equations")
        equations[key] = []
        for i, entry in enumerate(entries):
            where = f"{path}: {key}[{i}]"
            require_keys(entry, list(shapes), where)
            equations[key].append({name: parse_array(entry[name], shape, f"{where}.{name}")
                                   for name, shape in shapes.items()})
    columns = tuple([f"{r}.{v}" for r in regions for v in variables] + activities)
    return StructuralFit(
        countries=tuple(CountryCoefficients(**b) for b in equations["countries"]),
        activities=tuple(ActivityCoefficients(**b) for b in equations["activity_equations"]),
        residuals=None, dims=(k, p, l), columns=columns,
        sigma_u=parse_array(obj["sigma_u"], (len(columns),) * 2, f"{path}: sigma_u"),
        nobs=int(parse_float(obj["nobs"], f"{path}: nobs")))
