"""Declarative run configuration: a single versioned JSON document.

Unknown keys are rejected so that a config is either fully understood or
fails fast; relative paths resolve against the config file's directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import ValidationError
from .forecast import METHOD_ORDER
from .ingest import ALIGN_METHODS, TRANSFORMS
from .serialize import read_json
from .tvp import TVPConfig

SCHEMA_VERSION = 1

WEIGHT_PROVIDERS = ("equal", "rolling-share", "csv")


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown config keys in {where}: {sorted(unknown)}")


def _number(obj: Mapping[str, Any], section: str, key: str, default: Any, kind: type) -> Any:
    """``kind(obj[key])`` (int or float), or a ValidationError naming the key."""
    value = obj.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{section}.{key} must be {what}, got {value!r}") from None


@dataclass
class WeightSettings:
    provider: str = "equal"
    variable: str | None = None
    window: int = 24
    path: Path | None = None


@dataclass
class IRFSettings:
    horizon: int = 6
    level: float = 0.95
    dates: list[str] = field(default_factory=list)
    shocks: list[list[str]] = field(default_factory=list)


@dataclass
class ForecastSettings:
    horizon: int = 6
    methods: list[str] = field(default_factory=lambda: list(METHOD_ORDER))
    lag_window: int = 6
    cv_folds: int = 5
    grid_size: int = 50
    grid_floor: float = 1e-4
    external: dict[str, Path] = field(default_factory=dict)


@dataclass
class RunConfig:
    data_path: Path
    imputation: str
    transform: str
    regions: list[str] | None
    variables: list[str] | None
    activities: list[str] | None
    weights: WeightSettings
    tvp: TVPConfig
    irf: IRFSettings
    forecast: ForecastSettings
    out_dir: Path
    time_invariant: bool = False


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    base = path.parent
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    _check_keys(obj, {"schema_version", "data", "panel", "weights", "tvp",
                      "irf", "forecast", "output"}, "top level")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION}")

    data = obj.get("data")
    if not isinstance(data, dict) or "path" not in data:
        raise ValidationError("config needs a data object with a path")
    _check_keys(data, {"path", "imputation", "transform"}, "data")
    data_path = (base / data["path"]).resolve()
    if not data_path.exists():
        raise ValidationError(f"data file not found: {data_path}")
    imputation = data.get("imputation", "linear-interpolate")
    if imputation not in ALIGN_METHODS:
        raise ValidationError(f"unknown imputation {imputation!r}")
    transform = data.get("transform", "none")
    if transform not in TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")

    panel = obj.get("panel", {})
    _check_keys(panel, {"regions", "variables", "activities"}, "panel")
    for key in ("regions", "variables", "activities"):
        codes = panel.get(key)
        if codes is not None and len(set(codes)) != len(codes):
            raise ValidationError(f"duplicate codes in panel.{key}")

    weights_obj = obj.get("weights", {})
    _check_keys(weights_obj, {"provider", "variable", "window", "path"}, "weights")
    provider = weights_obj.get("provider", "equal")
    if provider not in WEIGHT_PROVIDERS:
        raise ValidationError(f"unknown weight provider {provider!r}")
    weights = WeightSettings(
        provider=provider,
        variable=weights_obj.get("variable"),
        window=_number(weights_obj, "weights", "window", 24, int),
        path=(base / weights_obj["path"]).resolve() if "path" in weights_obj else None,
    )
    if provider == "rolling-share" and not weights.variable:
        raise ValidationError("rolling-share weights need a 'variable'")
    if provider == "csv":
        if weights.path is None:
            raise ValidationError("csv weights need a 'path'")
        if not weights.path.exists():
            raise ValidationError(f"weight file not found: {weights.path}")

    tvp_obj = obj.get("tvp", {})
    _check_keys(tvp_obj, {"iters", "seed"}, "tvp")
    tvp = TVPConfig(iters=_number(tvp_obj, "tvp", "iters", 1000, int),
                    seed=_number(tvp_obj, "tvp", "seed", 0, int))
    if tvp.iters < 1:
        raise ValidationError("tvp.iters must be >= 1")

    irf_obj = obj.get("irf", {})
    _check_keys(irf_obj, {"horizon", "level", "dates", "shocks"}, "irf")
    irf = IRFSettings(
        horizon=_number(irf_obj, "irf", "horizon", 6, int),
        level=_number(irf_obj, "irf", "level", 0.95, float),
        dates=list(irf_obj.get("dates", [])),
        shocks=[list(s) for s in irf_obj.get("shocks", [])],
    )
    if irf.horizon < 0:
        raise ValidationError("irf.horizon must be >= 0")
    if not 0.0 < irf.level < 1.0:
        raise ValidationError("irf.level must be in (0, 1)")
    for shock in irf.shocks:
        if not shock:
            raise ValidationError("each IRF shock needs at least one target column")

    fc_obj = obj.get("forecast", {})
    _check_keys(fc_obj, {"horizon", "methods", "lag_window", "cv_folds",
                         "grid_size", "grid_floor", "external"}, "forecast")
    external_obj = fc_obj.get("external", {})
    if not isinstance(external_obj, dict) or not all(
            isinstance(p, str) for p in external_obj.values()):
        raise ValidationError("forecast.external must be an object of method name -> file path")
    external = {name: (base / p).resolve() for name, p in external_obj.items()}
    forecast = ForecastSettings(
        horizon=_number(fc_obj, "forecast", "horizon", 6, int),
        methods=list(fc_obj.get("methods", list(METHOD_ORDER))),
        lag_window=_number(fc_obj, "forecast", "lag_window", 6, int),
        cv_folds=_number(fc_obj, "forecast", "cv_folds", 5, int),
        grid_size=_number(fc_obj, "forecast", "grid_size", 50, int),
        grid_floor=_number(fc_obj, "forecast", "grid_floor", 1e-4, float),
        external=external,
    )
    if forecast.horizon < 1:
        raise ValidationError("forecast.horizon must be >= 1")
    for method in forecast.methods:
        if method not in METHOD_ORDER and method not in external:
            raise ValidationError(
                f"unknown forecast method {method!r} (no external path configured)")
    for name, ext_path in external.items():
        if not ext_path.exists():
            raise ValidationError(f"external forecast file not found: {ext_path}")

    output = obj.get("output", {})
    _check_keys(output, {"dir"}, "output")
    out_dir = (base / output.get("dir", "out")).resolve()

    return RunConfig(
        data_path=data_path, imputation=imputation, transform=transform,
        regions=panel.get("regions"), variables=panel.get("variables"),
        activities=panel.get("activities"), weights=weights, tvp=tvp,
        irf=irf, forecast=forecast, out_dir=out_dir)
