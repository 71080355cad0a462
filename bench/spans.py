"""Span tracing of the tvpgvar layers, installed from outside the package.

``traced(tracer)`` replaces the public functions of each module with thin
wrappers that record a span per call, at the name the caller looks up (the
CLI's own ``load_config``, ``tvp.kalman_forward`` as ``fit_equation`` finds it
at module scope, and so on), and restores the originals on exit. Spans stay
in memory until the run ends. Span names read ``<layer>.<operation>`` with an
optional ``:<label>``; a layer's self time is its spans' durations minus the
part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "ingest", "gvar", "tvp", "irf", "forecast")
TAIL_PERCENTILES = (99.0, 90.0)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread, plus counts read from return values."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.first_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, perf_counter(), math.nan, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, on_result=None, label=None, keep_args=False):
        """``func`` inside a span; ``on_result(result, *args, **kwargs)`` reads
        counts from the return value, ``label(*args, **kwargs)`` suffixes the
        span name, ``keep_args`` keeps the first call's arguments."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = f"{name}:{label(*args, **kwargs)}" if label else name
            if keep_args and name not in self.first_args:
                self.first_args[name] = (args, kwargs)
            with self.span(span_name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record)) + "\n")


def _patch_points(tracer: Tracer):
    """(owner, attribute, span name, wrap options) for every traced call site."""
    from tvpgvar import cli, forecast, gvar, ingest, irf, tvp

    counts = tracer.counts

    def rows_in(series, *args, **kwargs):
        counts["ingest.rows_in"] += sum(len(s) for s in series)

    def tvp_work(result, panel, config, *args, **kwargs):
        counts["tvp.column_iters"] += panel.width * config.iters
        counts["tvp.failed_columns"] += len(result.errors)

    def lasso_result(fit, *args, **kwargs):
        counts["forecast.lasso_sweeps"] += fit.n_sweeps
        counts["forecast.lasso_converged"] += int(fit.converged)

    def forecaster_kind(panel, tvp_result, config, *args, **kwargs):
        return config.kind

    points = [(cli, "load_config", "config.load_config", {})]
    points += [(ingest, fn, f"ingest.{fn}", {"on_result": rows_in} if fn == "load_panel" else {})
               for fn in ("load_panel", "align_frequencies", "validate_panel",
                          "write_panel_csv", "read_panel_csv")]
    points += [(gvar.WeightSequence, fn, f"gvar.weights_{fn}", {})
               for fn in ("equal", "rolling_share", "from_csv")]
    points += [(gvar, fn, f"gvar.{fn}", {})
               for fn in ("estimate_structural", "stack_system",
                          "write_coefficients_json", "read_coefficients_json")]
    points += [
        (tvp, "estimate_all", "tvp.estimate_all", {"on_result": tvp_work}),
        (tvp, "fit_equation", "tvp.fit_equation", {}),
        (tvp, "kalman_forward", "tvp.kalman_forward", {}),
        (tvp, "sample_theta_tilde_smoothed", "tvp.state_draw", {}),
        (tvp, "sample_theta0_omega", "tvp.coef_draw", {}),
        (tvp, "sample_sigma", "tvp.sigma_draw", {}),
        (tvp, "write_trajectories", "tvp.write_trajectories", {}),
    ]
    points += [(irf, fn, f"irf.{fn}", {"keep_args": fn == "asymptotic_bands"})
               for fn in ("estimate_asymptotic_inputs", "asymptotic_bands",
                          "derivative_Gn", "derivative_H", "write_irf_json", "write_irf_csv")]
    points += [
        (forecast, "two_stage_forecast", "forecast.two_stage", {"label": forecaster_kind}),
        (forecast, "select_lasso_lambda", "forecast.select_lasso_lambda", {}),
        (forecast, "lasso_fit", "forecast.lasso_fit", {"on_result": lasso_result}),
    ]
    points += [(forecast, fn, f"forecast.{fn}", {})
               for fn in ("write_param_paths", "write_variable_paths",
                          "write_mse_report", "read_mse_report")]
    return points


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on the tvpgvar modules; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, options in _patch_points(tracer):
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, **options)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, **options))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# arithmetic on finished spans
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = s.duration - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def tail_percentile(n: int) -> float | None:
    """p99 when at least ten of the ``n`` samples lie beyond it, else p90 on
    the same rule, else None."""
    for q in TAIL_PERCENTILES:
        # samples beyond q: n * (100 - q) / 100, in tenths of a percent
        if n * (1000 - round(q * 10)) >= 10_000:
            return q
    return None


@dataclass(frozen=True)
class Summary:
    n: int
    p50: float
    tail_q: float | None
    tail: float | None


def summarize(values) -> Summary:
    values = np.asarray(values, float)
    if values.size == 0:
        return Summary(0, 0.0, None, None)
    q = tail_percentile(values.size)
    return Summary(values.size, float(np.percentile(values, 50)), q,
                   None if q is None else float(np.percentile(values, q)))


def durations(spans: list[Span], prefix: str) -> list[float]:
    """Durations of spans named ``prefix`` or ``prefix:<label>``."""
    return [s.duration for s in spans if s.name == prefix or s.name.startswith(prefix + ":")]


def layer_metrics(tracer: Tracer, bands_peak_mb: float, out_bytes: int, out_files: int,
                  overhead_s: float) -> dict[str, tuple[float, str, int | None]]:
    """Per-layer metric name -> (value, unit, sample count for per-call values).

    Per-call values with no calls (lasso on a workload without it) read 0
    with sample count 0.
    """
    spans, counts = tracer.spans, tracer.counts
    selfs = layer_self_times(spans)

    def total(prefix):
        return sum(durations(spans, prefix))

    m: dict[str, tuple[float, str, int | None]] = {}

    def put(name, value, unit, n=None):
        m[name] = (value, unit, n)

    def put_per_call(name, prefix, unit, scale, tail=False):
        s = summarize(durations(spans, prefix))
        put(f"{name}_p50", s.p50 * scale, unit, s.n)
        if tail:
            put(f"{name}_p99", (s.tail or 0.0) * scale, unit, s.n)

    put("config.load_config_s", total("config.load_config"), "s")
    put("cli.self_s", selfs["cli"], "s")
    for fn in ("load_panel", "align_frequencies", "validate_panel",
               "write_panel_csv", "read_panel_csv"):
        put(f"ingest.{fn}_s", total(f"ingest.{fn}"), "s")
    put("ingest.rows_in", counts["ingest.rows_in"], "count")
    put("ingest.self_s", selfs["ingest"], "s")

    put("gvar.weights_s", sum(total(f"gvar.weights_{fn}")
                              for fn in ("equal", "rolling_share", "from_csv")), "s")
    put("gvar.estimate_structural_s", total("gvar.estimate_structural"), "s")
    put("gvar.stack_system_s", total("gvar.stack_system"), "s")
    put("gvar.stack_system_calls", len(durations(spans, "gvar.stack_system")), "count")
    put("gvar.periods_skipped", counts["gvar.stack_system.raised.NumericalError"], "count")
    put("gvar.self_s", selfs["gvar"], "s")

    estimate_all_s = total("tvp.estimate_all")
    put("tvp.estimate_all_s", estimate_all_s, "s")
    put("tvp.fit_equation_calls", len(durations(spans, "tvp.fit_equation")), "count")
    put_per_call("tvp.fit_equation_s", "tvp.fit_equation", "s", 1.0)
    put("tvp.us_per_column_iter",
        estimate_all_s * 1e6 / counts["tvp.column_iters"] if counts["tvp.column_iters"] else 0.0,
        "us")
    for key, span_name, tail in (("kalman_forward", "tvp.kalman_forward", True),
                                 ("state_draw", "tvp.state_draw", True),
                                 ("coef_draw", "tvp.coef_draw", False),
                                 ("sigma_draw", "tvp.sigma_draw", False)):
        put_per_call(f"tvp.{key}_us", span_name, "us", 1e6, tail)
    put("tvp.failed_columns", counts["tvp.failed_columns"], "count")
    put("tvp.write_trajectories_s", total("tvp.write_trajectories"), "s")
    put("tvp.self_s", selfs["tvp"], "s")

    put("irf.estimate_asymptotic_inputs_s", total("irf.estimate_asymptotic_inputs"), "s")
    put("irf.asymptotic_bands_calls", len(durations(spans, "irf.asymptotic_bands")), "count")
    put_per_call("irf.asymptotic_bands_s", "irf.asymptotic_bands", "s", 1.0)
    put("irf.derivative_Gn_s", total("irf.derivative_Gn"), "s")
    put("irf.derivative_H_s", total("irf.derivative_H"), "s")
    put("irf.bands_peak_mb", bands_peak_mb, "MB")
    put("irf.write_s", total("irf.write_irf_json") + total("irf.write_irf_csv"), "s")
    put("irf.self_s", selfs["irf"], "s")

    for kind in ("constant", "var1", "lasso"):
        put(f"forecast.two_stage_s.{kind}", total(f"forecast.two_stage:{kind}"), "s")
    put("forecast.select_lasso_lambda_s", total("forecast.select_lasso_lambda"), "s")
    lasso_calls = len(durations(spans, "forecast.lasso_fit"))
    put("forecast.lasso_fit_calls", lasso_calls, "count")
    put_per_call("forecast.lasso_fit_us", "forecast.lasso_fit", "us", 1e6, tail=True)
    put("forecast.lasso_sweeps", counts["forecast.lasso_sweeps"], "count")
    put("forecast.lasso_converged_ratio",
        counts["forecast.lasso_converged"] / lasso_calls if lasso_calls else 0.0, "ratio")
    put("forecast.write_s", sum(total(f"forecast.{fn}") for fn in
                                ("write_param_paths", "write_variable_paths",
                                 "write_mse_report")), "s")
    put("forecast.self_s", selfs["forecast"], "s")

    put("serialize.bytes_written", out_bytes, "bytes")
    put("serialize.files_written", out_files, "count")
    put("trace.overhead_s", overhead_s, "s")
    return m
