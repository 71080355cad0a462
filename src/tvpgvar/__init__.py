"""Multi-country time-varying-parameter VAR toolkit.

Estimates stacked multi-country VAR systems with time-varying cross-country
weights, per-equation drifting coefficients, orthogonalized impulse
responses with delta-method error bands, and two-stage out-of-sample
forecasts driven by pluggable parameter-path forecasters.
"""

from .errors import NumericalError, ValidationError
from .forecast import (
    ForecastResult,
    ForecasterConfig,
    LassoFit,
    forecast_constant,
    forecast_lasso,
    forecast_var1,
    lasso_fit,
    mse,
    select_model,
    two_stage_forecast,
)
from .gvar import (
    ActivityCoefficients,
    CountryCoefficients,
    Stability,
    StackedSystem,
    StructuralFit,
    WeightSequence,
    estimate_structural,
    ma_coefficients,
    stability_check,
    stack_system,
)
from .ingest import (
    RawSeries,
    TimeSeriesPanel,
    ValidationReport,
    align_frequencies,
    load_panel,
    read_panel_csv,
    validate_panel,
    write_panel_csv,
)
from .irf import (
    AsymptoticInputs,
    IRFResult,
    ShockSpec,
    asymptotic_bands,
    cholesky_lower,
    estimate_asymptotic_inputs,
)
from .tvp import (
    PanelTVPResult,
    TVPConfig,
    TVPTrajectory,
    estimate_all,
    fit_equation,
    sample_sigma,
    sample_theta0_omega,
    sample_theta_tilde_banded,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityCoefficients",
    "AsymptoticInputs",
    "CountryCoefficients",
    "ForecastResult",
    "ForecasterConfig",
    "IRFResult",
    "LassoFit",
    "NumericalError",
    "PanelTVPResult",
    "RawSeries",
    "ShockSpec",
    "Stability",
    "StackedSystem",
    "StructuralFit",
    "TVPConfig",
    "TVPTrajectory",
    "TimeSeriesPanel",
    "ValidationError",
    "ValidationReport",
    "WeightSequence",
    "align_frequencies",
    "asymptotic_bands",
    "cholesky_lower",
    "estimate_all",
    "estimate_asymptotic_inputs",
    "estimate_structural",
    "forecast_constant",
    "forecast_lasso",
    "forecast_var1",
    "lasso_fit",
    "load_panel",
    "ma_coefficients",
    "mse",
    "read_panel_csv",
    "fit_equation",
    "sample_sigma",
    "sample_theta0_omega",
    "sample_theta_tilde_banded",
    "select_model",
    "stability_check",
    "stack_system",
    "two_stage_forecast",
    "validate_panel",
    "write_panel_csv",
]
