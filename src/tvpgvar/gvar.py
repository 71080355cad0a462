"""Multi-country VAR core: weight aggregation, structural least squares, stacking.

Each country equation regresses its own p variables on their lags, weighted
cross-country ("starred") aggregates, and the common activity block; each
activity equation mirrors that with country aggregates. One linear map,
``_aggregates``, builds those series: estimation applies it to the panel,
and the link matrices are the same map applied to the identity. Each
equation is one ``Equation(intercept, now, lag)``: rows of coefficients on
its series ``z_t = W_t x_t`` at t and on the lag of that series, so the
stacked system at period t is ``G0_t x_t = a + G1_{t-1} x_{t-1}``, each
equation giving ``G0`` the rows ``(I - now) L_t`` and ``G1`` the rows
``lag L_{t-1}`` (``L`` its link matrix): ``G0`` carries the weights of t,
``G1`` those of t-1, and period 0 (no lag) cannot be stacked. The reduced
form ``F1 = G0_t^-1 G1_{t-1}`` drives impulse responses and the
moving-average recursion. The named blocks of ``coefficients.json``
(``a_k``, ``phi1``, ``gamma_e0`` ...) are only that file's view of the
equations, given once in ``_file_view``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .config import Record
from .errors import NumericalError, ValidationError, check_array_size
from .ingest import COMMON_REGION, TimeSeriesPanel, month_index
from .ols import least_squares
from .serialize import (parse_array, parse_float, parse_int, parse_strings, read_json,
                        read_table, require_keys, write_json)

WEIGHT_TOL = 1e-12
COND_CAP = 1e12  # stack_system rejects a larger StackedSystem.g0_condition


class WeightSequence(Record):
    """Per-period weight matrices linking countries to each other and to activities.

    ``we`` is (T, K, K) and ``we[t]`` is K x K with zero diagonal and unit
    column sums (column k holds the weights other countries get in country
    k's foreign aggregate); ``wb`` is (T, K, l) and ``wb[t]`` is K x l with
    unit column sums (column m holds the country weights in activity m's
    aggregate). The degenerate one-country case keeps an all-zero 1 x 1
    ``we`` since no foreign aggregate exists.
    """

    def __init__(self, we: np.ndarray, wb: np.ndarray):
        we, wb = np.asarray(we, float), np.asarray(wb, float)
        if we.ndim != 3 or we.shape[1] != we.shape[2]:
            raise ValidationError(f"we must be (T, K, K), got {we.shape}")
        if wb.ndim != 3 or wb.shape[0] != we.shape[0] or wb.shape[1] != we.shape[1]:
            raise ValidationError(f"wb must be (T, K, l) matching we, got {wb.shape}")
        if np.any(we < -WEIGHT_TOL) or np.any(wb < -WEIGHT_TOL):
            raise ValidationError("weights must be non-negative")
        diag = np.abs(np.diagonal(we, axis1=1, axis2=2))
        if np.any(diag > WEIGHT_TOL):
            raise ValidationError("country weight matrices must have zero diagonal")
        # a 1 x 1 we is its diagonal: the check above keeps it zero
        if we.shape[1] > 1 and np.any(np.abs(we.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("country weight columns must sum to 1")
        if wb.shape[2] > 0:
            colsums = wb.sum(axis=1)
            if np.any(np.abs(colsums - 1.0) > 1e-9):
                raise ValidationError("activity weight columns must sum to 1")
        self._set(we=we, wb=wb)

    @property
    def n_periods(self) -> int:
        return self.we.shape[0]

    @property
    def n_regions(self) -> int:
        return self.we.shape[1]

    @property
    def n_activities(self) -> int:
        return self.wb.shape[2]

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
        block. Each panel date needs a row (a lone country with no activity
        needs none), no ``(date, from, to)`` may repeat, and errors name the file.
        """
        region_ix = {r: i for i, r in enumerate(regions)}
        act_ix = {a: i for i, a in enumerate(activities)}
        date_ix = {d: t for t, d in enumerate(time_index)}
        k, l = len(regions), len(activities)
        we = np.zeros((len(time_index), k, k))
        wb = np.zeros((len(time_index), k, l))
        seen: dict[tuple[str, str, str], int] = {}  # (date, from, to) -> first row
        rows = read_table(path, ["date", "from", "to", "weight"])
        for rownum, (where, (date, src, dst, weight)) in enumerate(rows, 2):
            first = seen.setdefault((date, src, dst), rownum)
            if first != rownum:
                raise ValidationError(f"{where}: {date},{src},{dst} repeats row {first}")
            if date not in date_ix:
                month_index(date, where)  # a malformed date fails as malformed
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
        covered = {date for date, _, _ in seen}
        missing = [date for date in time_index if date not in covered]
        if missing and (k > 1 or l):
            raise ValidationError(f"{path}: no weights for {missing[0]}")
        try:
            return cls(we=we, wb=wb)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


class Equation(Record):
    """One structural equation, ``y_t = intercept + now z_t + lag z_{t-1}``,
    where ``z`` is the equation's ``_aggregates`` series and ``y`` its first
    ``own`` columns (p for a country, 1 for an activity). ``intercept`` is
    (own,); ``now`` and ``lag`` are the (own, series) rows of coefficients on
    ``z`` at t and t-1. ``now`` is zero on the own columns, and a series the
    equation is not regressed on (a lone country's foreign aggregate) has zero
    coefficients in both."""

    def __init__(self, intercept: np.ndarray, now: np.ndarray, lag: np.ndarray):
        self._set(intercept=intercept, now=now, lag=lag)


class StructuralFit(Record):
    """Least-squares estimates of every structural equation plus residuals:
    ``equations`` lists the K countries, then the l activities; ``residuals``
    is (T-1, K*p+l) in panel column order (``None`` once read back from
    ``coefficients.json``) and ``sigma_u`` is (K*p+l, K*p+l)."""

    def __init__(self, equations: tuple[Equation, ...], residuals: np.ndarray | None,
                 sigma_u: np.ndarray, dims: tuple[int, int, int], columns: tuple[str, ...],
                 nobs: int):
        self._set(equations=equations, residuals=residuals, sigma_u=sigma_u, dims=dims,
                  columns=columns, nobs=nobs)


class StackedSystem(Record):
    """What the impulse responses need of the stacked system at one period:
    ``G0``, the structural residual covariance ``Sigma_u``, the reduced-form
    covariance ``Sigma_eps = G0^-1 Sigma_u G0^-T`` and transition
    ``F1 = G0^-1 G1``.

    ``g0_condition`` is the 2-norm condition number of ``G0`` in residual-sd
    units, that of ``D^-1 G0 D`` with ``D = diag(sqrt(diag Sigma_u))``:
    rescaling a variable leaves it unchanged."""

    def __init__(self, g0: np.ndarray, sigma_u: np.ndarray, sigma_eps: np.ndarray,
                 f1: np.ndarray, g0_condition: float):
        self._set(g0=g0, sigma_u=sigma_u, sigma_eps=sigma_eps, f1=f1,
                  g0_condition=g0_condition)

    @property
    def width(self) -> int:
        return self.g0.shape[0]


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


def _links(weights: WeightSequence, t: int, dims: tuple[int, int, int]) -> list[np.ndarray]:
    """Period-t link matrices in ``StructuralFit.equations`` order, (2p+l, width)
    for a country and (1+p, width) for an activity: ``_aggregates`` applied to
    the identity. Country k's rows select its own variables, its foreign
    aggregate and the activities; activity m's rows select its own column and
    its country aggregate."""
    if not 0 <= t < weights.n_periods:
        raise ValidationError(f"time index {t} out of range [0, {weights.n_periods})")
    n_regions, p, l = dims
    country, activity = _aggregates(np.eye(n_regions * p + l), weights.we[t],
                                    weights.wb[t], dims)
    return [*country.transpose(1, 2, 0), *activity.transpose(1, 2, 0)]


def _ols(z: np.ndarray, own: int, spans: Sequence[slice], target: np.ndarray,
         equation: str) -> tuple[Equation, np.ndarray]:
    """(Equation, residuals) of one equation regressed on an intercept, the lag
    of the first ``own`` columns of its series ``z`` and each span at t, t-1;
    the columns outside the spans get zero coefficients."""
    n = len(z) - 1
    # each regressor block after the intercept: (1 at t, 0 at t-1; its columns)
    blocks = [(0, slice(own))] + [(at, span) for span in spans for at in (1, 0)]
    pieces = [z[at:n + at, span] for at, span in blocks]
    design = np.hstack([np.ones((n, 1)), *pieces])
    coef, residuals, rank = least_squares(design, target)
    if rank < design.shape[1]:
        raise NumericalError(f"rank-deficient regressors in {equation} "
                             f"(rank {rank} < {design.shape[1]})")
    rows = coef.reshape(len(coef), -1).T  # one row per own column
    terms = np.zeros((2, own, z.shape[1]))  # the coefficients at t-1 and at t
    start = 1
    for (at, span), piece in zip(blocks, pieces):
        terms[at][:, span] = rows[:, start:start + piece.shape[1]]
        start += piece.shape[1]
    return Equation(intercept=rows[:, 0].copy(), now=terms[1], lag=terms[0]), residuals


def estimate_structural(panel: TimeSeriesPanel, weights: WeightSequence) -> StructuralFit:
    """Estimate every structural equation by ordinary least squares
    (``ols.least_squares``: a change of units moves only the coefficients).

    Country k's p-variable block is regressed on an intercept, its own lag,
    the foreign aggregate and the activities at t and t-1; activity
    equations mirror that with country aggregates. A lone country has no
    foreign aggregate: it is left out of the regressors and its coefficients
    are zero. Each aggregate series uses the weights of its own period, so
    the lag term of period t carries the weights of t-1. Residuals come back
    column-aligned with the panel; the residual covariance uses the unbiased
    divisor nobs - q with q the largest per-equation regressor count.
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

    foreign = [slice(p, 2 * p)] if k > 1 else []  # one country has no foreign aggregate
    # regressor counts of a country and (if any) an activity equation
    q_max = max(1 + p + 2 * p * len(foreign) + 2 * l, 2 + 2 * p if l else 0)
    if nobs < q_max + 1:
        raise NumericalError(
            f"panel too short: {nobs} usable periods for up to {q_max} regressors")

    # each equation: its series, own width, regressor spans, panel columns (its
    # target, an activity's 1-D) and name
    requests = [(z_e[:, kk], p, foreign + [slice(2 * p, None)], slice(kk * p, (kk + 1) * p),
                 f"country equation {panel.regions[kk]}") for kk in range(k)]
    requests += [(z_b[:, m], 1, [slice(1, None)], k * p + m,
                  f"activity equation {panel.activities[m]}") for m in range(l)]
    residuals = np.empty((nobs, k * p + l))
    equations = []
    for z, own, spans, cols, name in requests:
        equation, residuals[:, cols] = _ols(z, own, spans, panel.values[1:, cols], name)
        equations.append(equation)

    sigma_u = residuals.T @ residuals / (nobs - q_max)
    return StructuralFit(
        equations=tuple(equations), residuals=residuals, sigma_u=sigma_u, dims=(k, p, l),
        columns=tuple(panel.column_names()), nobs=nobs)


def stack_system(fit: StructuralFit, weights: WeightSequence, t: int) -> StackedSystem:
    """Assemble G0_t and G1_{t-1} and solve for the reduced form at period t.

    ``G0_t x_t = a + G1_{t-1} x_{t-1}``: each equation contributes the rows
    ``(I - now) L_t`` to ``G0`` and ``lag L_{t-1}`` to ``G1``, with ``L`` its
    link matrix, so the contemporaneous terms carry the weights of period t
    and the lag terms those of t-1, as in estimation. The responses do not
    depend on the intercept ``a``, so it is not stacked. Period 0 has no lag,
    so ``t`` must be at least 1. A ``g0_condition`` above ``COND_CAP`` raises
    ``NumericalError``.
    """
    if t < 1:
        raise ValidationError(f"period {t} has no lagged period; stacking starts at period 1")
    now, lag = _links(weights, t, fit.dims), _links(weights, t - 1, fit.dims)
    g0 = np.vstack([(np.eye(*e.now.shape) - e.now) @ link
                    for e, link in zip(fit.equations, now)])
    g1 = np.vstack([e.lag @ link for e, link in zip(fit.equations, lag)])
    sd = np.sqrt(np.diag(fit.sigma_u))
    sd[sd == 0] = 1.0
    cond = float(np.linalg.cond(g0 / sd[:, None] * sd))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise NumericalError(
            f"G0 at period {t} has condition number {cond:.3e} above cap {COND_CAP:.1e}")
    f1 = np.linalg.solve(g0, g1)
    sigma_eps = np.linalg.solve(g0, np.linalg.solve(g0, fit.sigma_u).T).T
    sigma_eps = (sigma_eps + sigma_eps.T) / 2.0
    return StackedSystem(g0=g0, sigma_u=fit.sigma_u.copy(), sigma_eps=sigma_eps, f1=f1,
                         g0_condition=cond)


def ma_coefficients(f1: np.ndarray, horizon: int) -> np.ndarray:
    """Moving-average matrices B_0..B_S from iterating the reduced form."""
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    f1 = np.asarray(f1, float)
    n = f1.shape[0]
    check_array_size((horizon + 1, n, n))
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


def _file_view(p: int, l: int) -> tuple:
    """``coefficients.json``'s view of ``StructuralFit.equations``: for the
    countries, then the activities, the file's list key, the code list that
    labels its entries, each entry's label key, an equation's own and series
    widths, and each named block as (``Equation`` field, index). A country's
    series are [own p, foreign p, activities l], an activity's [own 1, country
    aggregate p]."""
    own, foreign, common = np.s_[:, :p], np.s_[:, p:2 * p], np.s_[:, 2 * p:]
    return (
        ("countries", "regions", "region", p, 2 * p + l, {
            "a_k": ("intercept", ...), "phi1": ("lag", own),
            "gamma_e0": ("now", foreign), "gamma_e1": ("lag", foreign),
            "gamma_b0": ("now", common), "gamma_b1": ("lag", common)}),
        ("activity_equations", "activities", "activity", 1, 1 + p, {
            "a_m": ("intercept", 0), "phi_b": ("lag", (0, 0)),
            "gamma_be0": ("now", np.s_[0, 1:]), "gamma_be1": ("lag", np.s_[0, 1:])}),
    )


def write_coefficients_json(fit: StructuralFit, panel: TimeSeriesPanel,
                            path: str | Path) -> None:
    obj = {"regions": list(panel.regions), "variables": list(panel.variables),
           "activities": list(panel.activities), "nobs": fit.nobs}
    # zip takes a code before an equation, so each list takes only its own equations
    equations = iter(fit.equations)
    for key, codes, label, _, _, blocks in _file_view(*fit.dims[1:]):
        obj[key] = [{label: code, **{name: getattr(e, field)[index]
                                     for name, (field, index) in blocks.items()}}
                    for code, e in zip(obj[codes], equations)]
    obj["sigma_u"] = fit.sigma_u
    write_json(obj, path)


def read_coefficients_json(path: str | Path) -> StructuralFit:
    """Rebuild a StructuralFit (without residuals) from the JSON export, each
    block checked against the shape that the file's own code lists give it.

    No stage reads the file back; this stays because ``bench/check.py``
    reads the export with it and ``bench/spans.py`` wraps it."""
    obj = require_keys(read_json(path), ("regions", "variables", "activities", "nobs",
                                         "countries", "activity_equations", "sigma_u"), str(path))
    codes = {key: parse_strings(obj[key], f"{path}: {key}")
             for key in ("regions", "variables", "activities")}
    k, p, l = map(len, codes.values())
    equations = []
    for key, code_key, _, own, width, blocks in _file_view(p, l):
        entries, count = obj[key], len(codes[code_key])
        if not isinstance(entries, list) or len(entries) != count:
            raise ValidationError(f"{path}: {key} must list {count} equations")
        for i, entry in enumerate(entries):
            where = f"{path}: {key}[{i}]"
            require_keys(entry, list(blocks), where)
            terms = {"intercept": np.zeros(own), "now": np.zeros((own, width)),
                     "lag": np.zeros((own, width))}
            for name, (field, index) in blocks.items():
                terms[field][index] = parse_array(entry[name], np.shape(terms[field][index]),
                                                  f"{where}.{name}")
            equations.append(Equation(**terms))
    columns = tuple([f"{r}.{v}" for r in codes["regions"] for v in codes["variables"]]
                    + codes["activities"])
    return StructuralFit(
        equations=tuple(equations), residuals=None, dims=(k, p, l), columns=columns,
        sigma_u=parse_array(obj["sigma_u"], (len(columns),) * 2, f"{path}: sigma_u"),
        nobs=parse_int(obj["nobs"], f"{path}: nobs"))
