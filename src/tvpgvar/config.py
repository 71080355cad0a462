"""Declarative run configuration: a single versioned JSON document.

Unknown keys are rejected so that a config is either fully understood or
fails fast; relative paths resolve against the config file's directory.
``load_config`` reads JSON: each section goes through one reader that
rejects unknown keys and resolves paths, and only the checks that span keys
or sections stay in it. Each config record checks the types and values of
its own fields when it is built, with the messages a config file gets, so
one built or changed outside ``load_config`` is as valid.

This is the package's leaf module. It owns the vocabulary the stages share
(the alignment, transform and forecaster names, ``ForecasterConfig``,
``TVPConfig``, the pooled-row label ``POOLED_ROW``, the panel code rule
``code_issues``), ``Record``, the base of every record the stages build,
each an immutable value compared field by field, and the method scores'
reader and tie-break. It imports neither numpy, nor a stage module, nor
``inspect``, so ``report`` starts without them.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import ValidationError
from .serialize import is_csv_cell, parse_float, parse_strings, read_json, read_table

ALIGN_METHODS = ("linear-interpolate", "repeat-last")
TRANSFORMS = ("none", "log")
METHOD_ORDER = ("constant", "var1", "lasso")
FORECASTER_KINDS = METHOD_ORDER + ("external",)
# the series cell of each method's pooled row in mse_report.csv: no column takes it
POOLED_ROW = "ALL"
# the input CSV's region code for the common (activity) series
COMMON_REGION = "__COMMON__"
CODE_RE = re.compile(r"[A-Za-z0-9_\-]+")

SCHEMA_VERSION = 1

WEIGHT_PROVIDERS = ("equal", "rolling-share", "csv")


def _read(obj: Mapping[str, Any], section: str, fields: Mapping[str, Any],
          base: Path) -> dict[str, Any]:
    """``obj[section]`` (an empty object when absent) with each key it holds
    read as its kind in ``fields``: ``Path`` (a string, resolved against
    ``base``) or ``None`` (as is, for the record to check). A non-object
    section, an unknown key or a non-string path is a ValidationError naming
    it."""
    body = obj.get(section, {})
    if not isinstance(body, dict):
        raise ValidationError(f"{section} must be an object, got {body!r}")
    unknown = set(body) - set(fields)
    if unknown:
        raise ValidationError(f"unknown config keys in {section}: {sorted(unknown)}")
    out = {}
    for key, kind in fields.items():
        if key not in body:
            continue
        value = body[key]
        if kind is Path:
            if not isinstance(value, str):
                raise ValidationError(f"{section}.{key} must be a string, got {value!r}")
            value = (base / value).resolve()
        out[key] = value
    return out


def code_issues(key: str, codes: Sequence[str]) -> list[str]:
    """The issues of ``codes`` as the code list ``panel.<key>`` (``regions``,
    ``variables`` or ``activities``), one message each: an empty ``regions``
    or ``variables`` list (a panel needs a country column), a repeated code,
    a code other than letters, digits, ``_`` and ``-`` (a ``.`` would split
    its column name in ``panel.csv``) and ``COMMON_REGION`` as a region.
    The one rule for a code list: ``RunConfig`` raises the first issue and
    ``ingest.validate_panel`` lists them all."""
    issues = []
    if not codes and key != "activities":
        issues.append(f"panel.{key} is empty: a panel needs a country column")
    if len(set(codes)) != len(codes):
        issues.append(f"duplicate codes in panel.{key}")
    issues.extend(f"invalid code {code!r} in panel.{key}: use letters, digits, '_' or '-' only"
                  for code in dict.fromkeys(codes) if not CODE_RE.fullmatch(code))
    if key == "regions" and COMMON_REGION in codes:
        issues.append(f"panel.regions may not list {COMMON_REGION!r}, the region of "
                      "the common series")
    return issues


def _number(value: Any, name: str, kind: type) -> Any:
    """``value`` as ``kind``, ``int`` or ``float``, or a ValidationError naming
    it: a bool is no number and an int takes no fractional value, where
    ``int("3")``, ``int(True)`` and ``int(2.7)`` would silently run with 3, 1
    and 2."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return kind(value)


class Record:
    """Base of every record the stages build: an immutable value.

    Their methods are written out, not generated when the module loads:
    generating them would load ``inspect`` and compile code in every stage
    process, a large share of the start-up of ``ingest`` and ``report``.
    A subclass's own ``__init__`` checks its arguments and stores them with
    ``_set``; its parameters, keyword-only ones included, are the fields, in
    the order of the signature. Every record refuses assignment, hashes by
    its fields, compares field by field (an array field by value, with
    ``np.array_equal``, NaN equal to NaN in a float array), prints its
    fields (leaving ``_hidden`` ones out of ``repr``) and makes checked
    copies with ``replace``.
    """

    _fields: tuple[str, ...]
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]

    def _set(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        np = sys.modules.get("numpy")  # no array exists before numpy is loaded
        array = np.ndarray if np else ()
        # NaN equals NaN between float arrays: a failed column's row of NaN is a value
        return all(np.array_equal(a, b, equal_nan=getattr(a, "dtype", None) == float
                                  == getattr(b, "dtype", None))
                   if isinstance(a, array) or isinstance(b, array)
                   else a == b for a, b in zip(self._values(), other._values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def replace(self, **changes: Any):
        """A copy with ``changes``, checked by the constructor like any new record:
        a config record changed this way meets the checks of ``load_config``."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})


class TVPConfig(Record):
    """The sampler's settings: iterations per column and the base seed."""

    def __init__(self, iters: int = 1000, seed: int = 0):
        iters, seed = _number(iters, "tvp.iters", int), _number(seed, "tvp.seed", int)
        if iters < 1:
            raise ValidationError("tvp.iters must be >= 1")
        if seed < 0:
            raise ValidationError("tvp.seed must be >= 0")
        self._set(iters=iters, seed=seed)


class ForecasterConfig(Record):
    """Stage-one settings. The numeric fields are the ``forecast`` config keys
    of the same name; a value out of range fails with a message naming it.
    ``kind`` is one of ``FORECASTER_KINDS``."""

    def __init__(self, kind: str = "constant", horizon: int = 6, lag_window: int = 6,
                 cv_folds: int = 5, grid_size: int = 50, grid_floor: float = 1e-4,
                 external_path: str | Path | None = None):
        if kind not in FORECASTER_KINDS:
            raise ValidationError(
                f"unknown forecaster kind {kind!r}, expected one of {FORECASTER_KINDS}")
        horizon = _number(horizon, "forecast.horizon", int)
        lag_window = _number(lag_window, "forecast.lag_window", int)
        cv_folds = _number(cv_folds, "forecast.cv_folds", int)
        grid_size = _number(grid_size, "forecast.grid_size", int)
        grid_floor = _number(grid_floor, "forecast.grid_floor", float)
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
    """The ``weights`` keys; ``provider`` is one of ``WEIGHT_PROVIDERS``."""

    def __init__(self, provider: str = "equal", variable: str | None = None,
                 window: int = 24, path: Path | None = None):
        if provider not in WEIGHT_PROVIDERS:
            raise ValidationError(f"unknown weight provider {provider!r}")
        if variable is not None and not isinstance(variable, str):
            raise ValidationError(f"weights.variable must be a string, got {variable!r}")
        window = _number(window, "weights.window", int)
        if window < 1:
            raise ValidationError("weights.window must be >= 1")
        if provider == "rolling-share" and not variable:
            raise ValidationError("rolling-share weights need a 'variable'")
        if provider == "csv" and path is None:
            raise ValidationError("csv weights need a 'path'")
        self._set(provider=provider, variable=variable, window=window, path=path)


class IRFSettings(Record):
    """The ``irf`` keys: distinct dates, and shocks on distinct sets of
    columns, each held as a list."""

    def __init__(self, horizon: int = 6, level: float = 0.95,
                 dates: Sequence[str] = (), shocks: Sequence[Sequence[str]] = ()):
        horizon, level = _number(horizon, "irf.horizon", int), _number(level, "irf.level", float)
        dates = parse_strings(dates, "irf.dates")
        if not isinstance(shocks, (list, tuple)):
            raise ValidationError(f"irf.shocks must be a list of column lists, got {shocks!r}")
        shocks = [parse_strings(shock, f"irf.shocks[{i}]") for i, shock in enumerate(shocks)]
        if horizon < 0:
            raise ValidationError("irf.horizon must be >= 0")
        if not 0.0 < level < 1.0:
            raise ValidationError("irf.level must be in (0, 1)")
        if 0.5 + level / 2.0 == 1.0:  # the band multiplier's quantile point
            raise ValidationError(f"irf.level {level!r} is too close to 1: the band "
                                  "multiplier at 0.5 + level/2 = 1.0 is infinite")
        for i, date in enumerate(dates):
            first = dates.index(date)
            if first != i:
                raise ValidationError(f"irf.dates[{i}] repeats irf.dates[{first}]: {date!r}")
        column_sets: dict[frozenset[str], int] = {}
        for i, shock in enumerate(shocks):
            if not shock:
                raise ValidationError("each IRF shock needs at least one target column")
            if len(set(shock)) != len(shock):
                raise ValidationError(f"duplicate columns in irf.shocks[{i}]: {shock}")
            # the same columns in another order give the same response
            first = column_sets.setdefault(frozenset(shock), i)
            if first != i:
                raise ValidationError(
                    f"irf.shocks[{i}] repeats the columns of irf.shocks[{first}]: {shock}")
        self._set(horizon=horizon, level=level, dates=dates, shocks=shocks)


class RunConfig(Record):
    """A loaded config; ``methods`` is in config order, each with its kind and
    external path set, and lists at least one method, all with one horizon."""

    def __init__(self, data_path: Path, imputation: str, transform: str,
                 regions: list[str] | None, variables: list[str] | None,
                 activities: list[str] | None, weights: WeightSettings, tvp: TVPConfig,
                 irf: IRFSettings, methods: dict[str, ForecasterConfig], out_dir: Path):
        if imputation not in ALIGN_METHODS:
            raise ValidationError(f"unknown imputation {imputation!r}")
        if transform not in TRANSFORMS:
            raise ValidationError(f"unknown transform {transform!r}")
        lists = {"regions": regions, "variables": variables, "activities": activities}
        for key, codes in lists.items():
            if codes is not None:  # a code list that is None is unset
                lists[key] = codes = parse_strings(codes, f"panel.{key}")
                issues = code_issues(key, codes)
                if issues:
                    raise ValidationError(issues[0])
        if not methods:
            raise ValidationError("forecast.methods must list at least one method")
        # forecast holds out one horizon for every method
        if len({fconf.horizon for fconf in methods.values()}) > 1:
            raise ValidationError("forecast.methods must share one horizon, got " + ", ".join(
                f"{name} {fconf.horizon}" for name, fconf in methods.items()))
        self._set(data_path=data_path, imputation=imputation, transform=transform, **lists,
                  weights=weights, tvp=tvp, irf=irf, methods=methods, out_dir=out_dir)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    base = path.parent
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    # the document is a section whose keys, the sections, are read as is
    _read({"top level": obj}, "top level", dict.fromkeys((
        "schema_version", "data", "panel", "weights", "tvp", "irf", "forecast",
        "output")), base)
    version = obj.get("schema_version")
    # True == 1.0 == 1 in Python: only the integer itself names the version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")

    if not isinstance(obj.get("data"), dict) or "path" not in obj["data"]:
        raise ValidationError("config needs a data object with a path")
    data = _read(obj, "data", {"path": Path, "imputation": None, "transform": None}, base)

    # a code list that is null or absent is unset
    keys = ("regions", "variables", "activities")
    panel = _read(obj, "panel", dict.fromkeys(keys), base)
    codes = {key: panel.get(key) for key in keys}

    weights = WeightSettings(**_read(obj, "weights", {
        "provider": None, "variable": None, "window": None, "path": Path}, base))
    tvp = TVPConfig(**_read(obj, "tvp", dict.fromkeys(("iters", "seed")), base))
    irf = IRFSettings(**_read(obj, "irf", dict.fromkeys(("horizon", "level", "dates",
                                                          "shocks")), base))

    fc_obj = _read(obj, "forecast", dict.fromkeys((
        "horizon", "methods", "lag_window", "cv_folds", "grid_size", "grid_floor",
        "external")), base)
    external_obj = fc_obj.pop("external", {})
    if not isinstance(external_obj, dict) or not all(
            isinstance(p, str) for p in external_obj.values()):
        raise ValidationError("forecast.external must be an object of method name -> file path")
    # a name is a cell of mse_report.csv: it fails here, not after the sampler
    unwritable = [name for name in external_obj if not is_csv_cell(name)]
    if unwritable:
        raise ValidationError("forecast.external method names may not contain commas or "
                              f"line breaks: {unwritable}")
    reused = sorted(set(external_obj) & set(METHOD_ORDER))
    if reused:
        raise ValidationError(f"forecast.external may not reuse a built-in method name: {reused}")
    external = {name: (base / p).resolve() for name, p in external_obj.items()}
    names = parse_strings(fc_obj.pop("methods", list(METHOD_ORDER)), "forecast.methods")
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate names in forecast.methods: {names}")
    unlisted = sorted(set(external) - set(names))
    if unlisted:
        raise ValidationError("forecast.external names methods that forecast.methods "
                              f"does not list: {unlisted}")
    settings = ForecasterConfig(**fc_obj)
    methods = {}
    for name in names:
        if name in external:
            methods[name] = settings.replace(kind="external", external_path=external[name])
        elif name in METHOD_ORDER:
            methods[name] = settings.replace(kind=name)
        else:
            raise ValidationError(
                f"unknown forecast method {name!r} (no external path configured)")

    out_dir = _read(obj, "output", {"dir": Path}, base).get("dir") or (base / "out").resolve()

    return RunConfig(
        data_path=data["path"], imputation=data.get("imputation", "linear-interpolate"),
        transform=data.get("transform", "none"), **codes, weights=weights, tvp=tvp,
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
    """The ``forecast`` stage's MSE report: method -> series (or ``POOLED_ROW``) -> MSE."""
    out: dict[str, dict[str, float]] = {}
    for where, (method, series, value) in read_table(path, ["method", "series", "mse"]):
        out.setdefault(method, {})[series] = parse_float(value, where)
    return out
