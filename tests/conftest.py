"""Shared fixtures and independent simulation oracles.

The simulators here are deliberately written from the equation definitions
(explicit per-equation loops), not from the library's stacking code, so
tests compare two independent routes to the same numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from tvpgvar import StackedSystem, TimeSeriesPanel, WeightSequence, asymptotic_bands
from tvpgvar.gvar import Equation, StructuralFit
from tvpgvar.ingest import month_label

from oracles import sd_unit_condition


def make_panel(values: np.ndarray, regions, variables, activities=(),
               start_month: int = 2000 * 12) -> TimeSeriesPanel:
    values = np.asarray(values, float)
    return TimeSeriesPanel(
        time_index=tuple(month_label(start_month + t) for t in range(values.shape[0])),
        regions=tuple(regions), variables=tuple(variables),
        activities=tuple(activities), rows=tuple(map(tuple, values.tolist())))


def random_coefficients(rng: np.random.Generator, n_regions: int, p: int, l: int,
                        scale: float = 1.0) -> dict:
    """Random structural blocks with magnitudes that keep the system stable."""
    return dict(
        phi=[rng.uniform(-0.3, 0.55, (p, p)) * scale for _ in range(n_regions)],
        ge0=[rng.uniform(-0.2, 0.2, (p, p)) * scale for _ in range(n_regions)],
        ge1=[rng.uniform(-0.15, 0.15, (p, p)) * scale for _ in range(n_regions)],
        gb0=[rng.uniform(-0.3, 0.3, (p, l)) * scale for _ in range(n_regions)],
        gb1=[rng.uniform(-0.2, 0.2, (p, l)) * scale for _ in range(n_regions)],
        ak=[rng.uniform(-0.5, 0.5, p) for _ in range(n_regions)],
        gbe0=[rng.uniform(-0.3, 0.3, p) * scale for _ in range(l)],
        gbe1=[rng.uniform(-0.2, 0.2, p) * scale for _ in range(l)],
        phib=[rng.uniform(-0.2, 0.5) for _ in range(l)],
        am=[rng.uniform(-0.4, 0.4) for _ in range(l)],
    )


def true_fit(coeffs: dict, dims: tuple[int, int, int]) -> StructuralFit:
    """StructuralFit holding the blocks of a ``random_coefficients`` dict, unit
    Sigma_u. Each block goes to its columns of an equation's series: a
    country's are [own p, foreign p, activities l], an activity's [own 1,
    country aggregate p]; ``now`` is zero on the own columns."""
    n_regions, p, l = dims
    equations = [Equation(
        intercept=np.asarray(coeffs["ak"][k], float),
        now=np.hstack([np.zeros((p, p)), coeffs["ge0"][k], coeffs["gb0"][k]]),
        lag=np.hstack([coeffs["phi"][k], coeffs["ge1"][k], coeffs["gb1"][k]]))
        for k in range(n_regions)]
    equations += [Equation(
        intercept=np.array([coeffs["am"][m]], float),
        now=np.concatenate([[0.0], coeffs["gbe0"][m]])[None],
        lag=np.concatenate([[coeffs["phib"][m]], coeffs["gbe1"][m]])[None])
        for m in range(l)]
    width = n_regions * p + l
    return StructuralFit(equations=tuple(equations), residuals=None, sigma_u=np.eye(width),
                         dims=dims, columns=tuple(f"c{j}" for j in range(width)), nobs=100)


def fit_blocks(fit: StructuralFit) -> dict:
    """The equations of a StructuralFit as a ``random_coefficients`` dict: the
    inverse of ``true_fit``."""
    n_regions, p, _ = fit.dims
    countries, activities = fit.equations[:n_regions], fit.equations[n_regions:]
    own, foreign, common = slice(p), slice(p, 2 * p), slice(2 * p, None)
    return dict(
        phi=[e.lag[:, own] for e in countries],
        ge0=[e.now[:, foreign] for e in countries],
        ge1=[e.lag[:, foreign] for e in countries],
        gb0=[e.now[:, common] for e in countries],
        gb1=[e.lag[:, common] for e in countries],
        ak=[e.intercept for e in countries],
        gbe0=[e.now[0, 1:] for e in activities],
        gbe1=[e.lag[0, 1:] for e in activities],
        phib=[e.lag[0, 0] for e in activities],
        am=[e.intercept[0] for e in activities])


def structural_matrices(coeffs: dict, we_t: np.ndarray, wb_t: np.ndarray,
                        n_regions: int, p: int, l: int):
    """Equation-by-equation construction of (G0, G1, a) for one period."""
    width = n_regions * p + l
    g0 = np.zeros((width, width))
    g1 = np.zeros((width, width))
    a = np.zeros(width)
    for k in range(n_regions):
        rows = slice(k * p, (k + 1) * p)
        g0[rows, k * p:(k + 1) * p] += np.eye(p)
        for i in range(n_regions):
            g0[rows, i * p:(i + 1) * p] -= coeffs["ge0"][k] * we_t[i, k]
            g1[rows, i * p:(i + 1) * p] += coeffs["ge1"][k] * we_t[i, k]
        g1[rows, k * p:(k + 1) * p] += coeffs["phi"][k]
        if l:
            g0[rows, n_regions * p:] -= coeffs["gb0"][k]
            g1[rows, n_regions * p:] += coeffs["gb1"][k]
        a[rows] = coeffs["ak"][k]
    for m in range(l):
        r = n_regions * p + m
        g0[r, r] += 1.0
        for k in range(n_regions):
            g0[r, k * p:(k + 1) * p] -= coeffs["gbe0"][m] * wb_t[k, m]
            g1[r, k * p:(k + 1) * p] += coeffs["gbe1"][m] * wb_t[k, m]
        g1[r, r] += coeffs["phib"][m]
        a[r] = coeffs["am"][m]
    return g0, g1, a


def simulate_structural(coeffs: dict, weights: WeightSequence, x0: np.ndarray,
                        n_regions: int, p: int, l: int,
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Forward simulation: G0_t x_t = a + G1_{t-1} x_{t-1} + u_t."""
    t_len = weights.n_periods
    x = np.zeros((t_len, n_regions * p + l))
    x[0] = x0
    for t in range(1, t_len):
        g0_t, _, a = structural_matrices(coeffs, weights.we[t], weights.wb[t],
                                         n_regions, p, l)
        _, g1_prev, _ = structural_matrices(coeffs, weights.we[t - 1],
                                            weights.wb[t - 1], n_regions, p, l)
        rhs = a + g1_prev @ x[t - 1]
        if noise is not None:
            rhs = rhs + noise[t]
        x[t] = np.linalg.solve(g0_t, rhs)
    return x


def wave_weights(t_len: int, n_regions: int, l: int,
                 rng: np.random.Generator | None = None) -> WeightSequence:
    """Smooth, strictly valid time-varying weights (identification-friendly)."""
    t_ax = np.arange(t_len)
    we = np.zeros((t_len, n_regions, n_regions))
    if n_regions > 1:
        for col in range(n_regions):
            raw = np.exp(np.stack(
                [0.9 * np.sin(2 * np.pi * t_ax / (13 + 4 * i + 7 * col))
                 for i in range(n_regions)], axis=1))
            raw[:, col] = 0.0
            we[:, :, col] = raw / raw.sum(axis=1, keepdims=True)
    wb = np.zeros((t_len, n_regions, l))
    for m in range(l):
        raw = np.exp(np.stack(
            [0.8 * np.cos(2 * np.pi * t_ax / (11 + 3 * k + 5 * m))
             for k in range(n_regions)], axis=1))
        wb[:, :, m] = raw / raw.sum(axis=1, keepdims=True)
    return WeightSequence(we=we, wb=wb)


def random_stable_system(rng: np.random.Generator, dim: int,
                         radius: float = 0.7) -> StackedSystem:
    """Random stacked system with invertible G0 and a stable reduced form."""
    g0 = np.eye(dim) + rng.uniform(-0.25, 0.25, (dim, dim)) * (1 - np.eye(dim))
    raw = rng.standard_normal((dim, dim))
    eig_max = np.max(np.abs(np.linalg.eigvals(raw)))
    f1 = raw * (radius / eig_max) * rng.uniform(0.6, 1.0)
    root = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    sigma_u = root @ root.T + 0.3 * np.eye(dim)
    sigma_eps = np.linalg.solve(g0, np.linalg.solve(g0, sigma_u).T).T
    return StackedSystem(g0=g0, sigma_u=sigma_u, sigma_eps=(sigma_eps + sigma_eps.T) / 2,
                         f1=f1, g0_condition=sd_unit_condition(g0, sigma_u))


def from_reduced_form(f1: np.ndarray, sigma_eps: np.ndarray) -> StackedSystem:
    """Plain reduced-form VAR(1) as a stacked system with G0 = I."""
    return StackedSystem(
        g0=np.eye(f1.shape[0]),
        sigma_u=np.asarray(sigma_eps, float).copy(),
        sigma_eps=np.asarray(sigma_eps, float).copy(),
        f1=np.asarray(f1, float).copy(),
        g0_condition=1.0,
    )


def oirf_simulation_oracle(system: StackedSystem, targets, horizon: int) -> np.ndarray:
    """Shocked-minus-baseline paths of the reduced-form recursion. The
    intercept cancels in the difference and the baseline starts at rest, so
    the baseline is zero and the shocked path is the difference."""
    width = system.width
    chol = np.linalg.cholesky(system.sigma_u)
    u0 = np.zeros(width)
    for j in targets:
        u0 += chol[:, j]
    shocked = np.empty((horizon + 1, width))
    shocked[0] = np.linalg.solve(system.g0, u0)
    for s in range(1, horizon + 1):
        shocked[s] = system.f1 @ shocked[s - 1]
    return shocked


def reported_point(system: StackedSystem, targets, horizon: int) -> np.ndarray:
    """The point response the package reports: that of ``asymptotic_bands``
    (at any moment and level: the point depends on neither)."""
    (result,) = asymptotic_bands(system, [targets], 1, np.eye(system.width),
                                 horizon=horizon, level=0.95, at_time=1)
    return result.point


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
