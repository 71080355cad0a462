"""Declarative run configuration: a single versioned JSON document.

Unknown keys are rejected so that a config is either fully understood or
fails fast; relative paths resolve against the config file's directory.

This is the package's leaf module. It owns the vocabulary the stages share
(the alignment, transform and forecaster names, ``ForecasterConfig``,
``TVPConfig``), the ``Record`` base of the numpy-free stages' records, and
the method scores' reader and tie-break. It imports neither numpy, nor a
stage module, nor ``inspect``, so ``report`` starts without them.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Mapping

from .errors import ValidationError
from .serialize import parse_float, parse_strings, read_json, read_table

ALIGN_METHODS = ("linear-interpolate", "repeat-last")
TRANSFORMS = ("none", "log")
METHOD_ORDER = ("constant", "var1", "lasso")
FORECASTER_KINDS = METHOD_ORDER + ("external",)

SCHEMA_VERSION = 1

WEIGHT_PROVIDERS = ("equal", "rolling-share", "csv")


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown config keys in {where}: {sorted(unknown)}")


def _section(obj: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """``obj[key]`` (an empty object when absent), or a ValidationError naming it."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be an object, got {value!r}")
    return value


def _numbers(obj: Mapping[str, Any], section: str, kinds: Mapping[str, type]) -> dict[str, Any]:
    """``kind(obj[key])`` for each ``key: kind`` of ``kinds`` that ``obj`` holds
    (an absent key takes the record's default), or a ValidationError naming
    the key.

    Only JSON numbers pass: strings and booleans do not, and an int key takes
    no fractional value, where ``int("3")``, ``int(True)`` and ``int(2.7)``
    would silently run with 3, 1 and 2.
    """
    out = {}
    for key, kind in kinds.items():
        if key not in obj:
            continue
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            what = "an integer" if kind is int else "a number"
            raise ValidationError(f"{section}.{key} must be {what}, got {value!r}")
        out[key] = kind(value)
    return out


def _path(base: Path, obj: Mapping[str, Any], section: str, key: str,
          default: Any = None) -> Path:
    """``obj[key]`` resolved against ``base``, or a ValidationError naming the
    key when it is not a string."""
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(f"{section}.{key} must be a string, got {value!r}")
    return (base / value).resolve()


class Record:
    """Base of the records that the numpy-free stages build.

    Their methods are written out, not generated when the module loads:
    generating them would load ``inspect`` and compile code in every stage
    process, a large share of the start-up of ``ingest`` and ``report``.
    A subclass's own ``__init__`` checks its arguments and stores them with
    ``_set``; its parameters are the fields. The base compares and prints
    records field by field (leaving ``_hidden`` fields out of ``repr``) and
    makes checked copies with ``replace``. A subclass declared
    ``frozen=True`` refuses assignment and hashes by its fields.
    """

    _fields: tuple[str, ...]
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            cls.__hash__ = Record._hash

    def _set(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _refuse(self, name: str, *value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _hash(self) -> int:
        return hash(self._values())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def replace(self, **changes: Any):
        """A copy with ``changes``, checked by the constructor like any new record."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})


class TVPConfig(Record, frozen=True):
    """The sampler's settings: iterations per column and the base seed."""

    def __init__(self, iters: int = 1000, seed: int = 0):
        if iters < 1:
            raise ValidationError("tvp.iters must be >= 1")
        if seed < 0:
            raise ValidationError("tvp.seed must be >= 0")
        self._set(iters=iters, seed=seed)


class ForecasterConfig(Record, frozen=True):
    """Stage-one settings. The numeric fields are the ``forecast`` config keys
    of the same name; a value out of range fails with a message naming it.
    ``kind`` is one of ``FORECASTER_KINDS``."""

    def __init__(self, kind: str = "constant", horizon: int = 6, lag_window: int = 6,
                 cv_folds: int = 5, grid_size: int = 50, grid_floor: float = 1e-4,
                 external_path: str | Path | None = None):
        if kind not in FORECASTER_KINDS:
            raise ValidationError(
                f"unknown forecaster kind {kind!r}, expected one of {FORECASTER_KINDS}")
        if horizon < 1:
            raise ValidationError("forecast.horizon must be >= 1")
        if lag_window < 1:
            raise ValidationError("forecast.lag_window must be >= 1")
        if cv_folds < 2:
            raise ValidationError("forecast.cv_folds must be >= 2")
        if grid_size < 1:
            raise ValidationError("forecast.grid_size must be >= 1")
        if not 0.0 < grid_floor < 1.0:
            raise ValidationError("forecast.grid_floor must be in (0, 1)")
        if kind == "external" and external_path is None:
            raise ValidationError("external forecaster needs a predicted-path CSV")
        self._set(kind=kind, horizon=horizon, lag_window=lag_window, cv_folds=cv_folds,
                  grid_size=grid_size, grid_floor=grid_floor, external_path=external_path)


class WeightSettings(Record):
    def __init__(self, provider: str = "equal", variable: str | None = None,
                 window: int = 24, path: Path | None = None):
        self._set(provider=provider, variable=variable, window=window, path=path)


class IRFSettings(Record):
    def __init__(self, horizon: int = 6, level: float = 0.95,
                 dates: list[str] | None = None, shocks: list[list[str]] | None = None):
        self._set(horizon=horizon, level=level, dates=[] if dates is None else dates,
                  shocks=[] if shocks is None else shocks)


class RunConfig(Record):
    """A loaded config; ``methods`` is in config order, each with its kind and
    external path set."""

    def __init__(self, data_path: Path, imputation: str, transform: str,
                 regions: list[str] | None, variables: list[str] | None,
                 activities: list[str] | None, weights: WeightSettings, tvp: TVPConfig,
                 irf: IRFSettings, methods: dict[str, ForecasterConfig], out_dir: Path):
        self._set(data_path=data_path, imputation=imputation, transform=transform,
                  regions=regions, variables=variables, activities=activities,
                  weights=weights, tvp=tvp, irf=irf, methods=methods, out_dir=out_dir)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    base = path.parent
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    _check_keys(obj, {"schema_version", "data", "panel", "weights", "tvp",
                      "irf", "forecast", "output"}, "top level")
    version = obj.get("schema_version")
    # True == 1.0 == 1 in Python: only the integer itself names the version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")

    data = obj.get("data")
    if not isinstance(data, dict) or "path" not in data:
        raise ValidationError("config needs a data object with a path")
    _check_keys(data, {"path", "imputation", "transform"}, "data")
    data_path = _path(base, data, "data", "path")
    imputation = data.get("imputation", "linear-interpolate")
    if imputation not in ALIGN_METHODS:
        raise ValidationError(f"unknown imputation {imputation!r}")
    transform = data.get("transform", "none")
    if transform not in TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")

    panel = _section(obj, "panel")
    _check_keys(panel, {"regions", "variables", "activities"}, "panel")
    for key in ("regions", "variables", "activities"):
        if panel.get(key) is not None:
            codes = parse_strings(panel[key], f"panel.{key}")
            if len(set(codes)) != len(codes):
                raise ValidationError(f"duplicate codes in panel.{key}")

    weights_obj = _section(obj, "weights")
    _check_keys(weights_obj, {"provider", "variable", "window", "path"}, "weights")
    provider = weights_obj.get("provider", "equal")
    if provider not in WEIGHT_PROVIDERS:
        raise ValidationError(f"unknown weight provider {provider!r}")
    weights = WeightSettings(
        provider=provider,
        variable=weights_obj.get("variable"),
        **_numbers(weights_obj, "weights", {"window": int}),
        path=_path(base, weights_obj, "weights", "path") if "path" in weights_obj else None,
    )
    if provider == "rolling-share" and not weights.variable:
        raise ValidationError("rolling-share weights need a 'variable'")
    if provider == "csv" and weights.path is None:
        raise ValidationError("csv weights need a 'path'")

    tvp_obj = _section(obj, "tvp")
    _check_keys(tvp_obj, {"iters", "seed"}, "tvp")
    tvp = TVPConfig(**_numbers(tvp_obj, "tvp", {"iters": int, "seed": int}))

    irf_obj = _section(obj, "irf")
    _check_keys(irf_obj, {"horizon", "level", "dates", "shocks"}, "irf")
    shocks = irf_obj.get("shocks", [])
    if not isinstance(shocks, list):
        raise ValidationError(f"irf.shocks must be a list of column lists, got {shocks!r}")
    irf = IRFSettings(
        **_numbers(irf_obj, "irf", {"horizon": int, "level": float}),
        dates=parse_strings(irf_obj.get("dates", []), "irf.dates"),
        shocks=[parse_strings(s, f"irf.shocks[{i}]") for i, s in enumerate(shocks)],
    )
    if irf.horizon < 0:
        raise ValidationError("irf.horizon must be >= 0")
    if not 0.0 < irf.level < 1.0:
        raise ValidationError("irf.level must be in (0, 1)")
    for i, shock in enumerate(irf.shocks):
        if not shock:
            raise ValidationError("each IRF shock needs at least one target column")
        if len(set(shock)) != len(shock):
            raise ValidationError(f"duplicate columns in irf.shocks[{i}]: {shock}")

    fc_obj = _section(obj, "forecast")
    _check_keys(fc_obj, {"horizon", "methods", "lag_window", "cv_folds",
                         "grid_size", "grid_floor", "external"}, "forecast")
    external_obj = fc_obj.get("external", {})
    if not isinstance(external_obj, dict) or not all(
            isinstance(p, str) for p in external_obj.values()):
        raise ValidationError("forecast.external must be an object of method name -> file path")
    reused = sorted(set(external_obj) & set(METHOD_ORDER))
    if reused:
        raise ValidationError(f"forecast.external may not reuse a built-in method name: {reused}")
    external = {name: (base / p).resolve() for name, p in external_obj.items()}
    names = parse_strings(fc_obj.get("methods", list(METHOD_ORDER)), "forecast.methods")
    if not names:
        raise ValidationError("forecast.methods must list at least one method")
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate names in forecast.methods: {names}")
    settings = ForecasterConfig(**_numbers(fc_obj, "forecast", {
        "horizon": int, "lag_window": int, "cv_folds": int, "grid_size": int,
        "grid_floor": float}))
    methods = {}
    for name in names:
        if name in external:
            methods[name] = settings.replace(kind="external", external_path=external[name])
        elif name in METHOD_ORDER:
            methods[name] = settings.replace(kind=name)
        else:
            raise ValidationError(
                f"unknown forecast method {name!r} (no external path configured)")

    output = _section(obj, "output")
    _check_keys(output, {"dir"}, "output")
    out_dir = _path(base, output, "output", "dir", "out")

    return RunConfig(
        data_path=data_path, imputation=imputation, transform=transform,
        regions=panel.get("regions"), variables=panel.get("variables"),
        activities=panel.get("activities"), weights=weights, tvp=tvp,
        irf=irf, methods=methods, out_dir=out_dir)


def select_model(results: Mapping[str, float]) -> str:
    """Pick minimal MSE; ties resolve by fixed method order, then name."""
    if not results:
        raise ValidationError("no model scores to select from")
    for name, value in results.items():
        if not math.isfinite(value):
            raise ValidationError(f"non-finite MSE for {name}")

    def rank(item: tuple[str, float]):
        name, value = item
        order = METHOD_ORDER.index(name) if name in METHOD_ORDER else len(METHOD_ORDER)
        return (value, order, name)

    return min(results.items(), key=rank)[0]


def read_mse_report(path: str | Path) -> dict[str, dict[str, float]]:
    """The ``forecast`` stage's MSE report: method -> series (or ``ALL``) -> MSE."""
    out: dict[str, dict[str, float]] = {}
    for where, (method, series, value) in read_table(path, ["method", "series", "mse"]):
        out.setdefault(method, {})[series] = parse_float(value, where)
    return out
