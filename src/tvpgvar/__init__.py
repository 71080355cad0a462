"""Multi-country time-varying-parameter VAR toolkit.

Estimates stacked multi-country VAR systems with time-varying cross-country
weights, per-equation drifting coefficients, orthogonalized impulse
responses with delta-method error bands, and two-stage out-of-sample
forecasts driven by pluggable parameter-path forecasters.

The names below load with their module on first use (PEP 562), so
``import tvpgvar`` loads neither numpy nor any stage module.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "ForecasterConfig": "config", "TVPConfig": "config", "select_model": "config",
    "NumericalError": "errors", "ValidationError": "errors",
    "ForecastResult": "forecast", "LassoFit": "forecast", "forecast_constant": "forecast",
    "forecast_lasso": "forecast", "forecast_var1": "forecast", "lasso_fit": "forecast",
    "mse": "forecast", "two_stage_forecast": "forecast",
    "ActivityCoefficients": "gvar", "CountryCoefficients": "gvar", "StackedSystem": "gvar",
    "StructuralFit": "gvar", "WeightSequence": "gvar", "estimate_structural": "gvar",
    "ma_coefficients": "gvar", "spectral_radius": "gvar", "stack_system": "gvar",
    "RawSeries": "ingest", "TimeSeriesPanel": "ingest", "ValidationReport": "ingest",
    "align_frequencies": "ingest", "load_panel": "ingest", "read_panel_csv": "ingest",
    "validate_panel": "ingest", "write_panel_csv": "ingest",
    "AsymptoticInputs": "irf", "IRFResult": "irf", "ShockSpec": "irf",
    "asymptotic_bands": "irf", "cholesky_lower": "irf", "estimate_asymptotic_inputs": "irf",
    "PanelTVPResult": "tvp", "TVPTrajectory": "tvp", "estimate_all": "tvp",
    "fit_equation": "tvp", "sample_sigma": "tvp", "sample_theta0_omega": "tvp",
    "sample_theta_tilde_banded": "tvp",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted([*globals(), *_HOMES])
