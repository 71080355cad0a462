"""Loading, validation, and monthly alignment of long-format economic panels.

Input data is a UTF-8 CSV with header ``date,region,variable,value``, dates
formatted ``YYYY-MM``. Series observed quarterly (3-month date spacing) are
expanded to monthly frequency on the common date range; the reserved region
code ``__COMMON__`` marks shared activity series (oil price and the like)
that enter every country's equation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .serialize import read_csv_rows, write_csv

COMMON_REGION = "__COMMON__"

ALIGN_METHODS = ("linear-interpolate", "repeat-last")
TRANSFORMS = ("none", "log")

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")
_CODE_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


def month_index(date: str) -> int:
    """Map 'YYYY-MM' to a consecutive month counter."""
    m = _DATE_RE.match(date)
    if not m:
        raise ValidationError(f"malformed date {date!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValidationError(f"malformed date {date!r}, month out of range")
    return year * 12 + (month - 1)


def month_label(index: int) -> str:
    """Inverse of :func:`month_index`."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _check_code(code: str, what: str, row: int | None = None) -> str:
    where = f" (row {row})" if row is not None else ""
    if code != COMMON_REGION and not _CODE_RE.match(code):
        raise ValidationError(f"invalid {what} code {code!r}{where}: "
                              "use letters, digits, '_' or '-' only")
    return code


@dataclass(frozen=True)
class RawSeries:
    """One (region, variable) series in its native observation frequency."""

    region: str
    variable: str
    dates: tuple[str, ...]
    values: np.ndarray
    frequency: str  # "monthly" | "quarterly"

    @property
    def key(self) -> tuple[str, str]:
        return (self.region, self.variable)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Aligned monthly panel: K regions x p variables plus l activity columns.

    Column order is region-major, variable-minor, activities last; that
    ordering also fixes the Cholesky identification order downstream.
    """

    time_index: tuple[str, ...]
    regions: tuple[str, ...]
    variables: tuple[str, ...]
    activities: tuple[str, ...]
    values: np.ndarray  # (T, K*p + l)

    def __post_init__(self):
        k, p, l = self.n_regions, self.n_variables, self.n_activities
        if self.values.shape != (len(self.time_index), k * p + l):
            raise ValidationError(
                f"panel values shape {self.values.shape} does not match "
                f"T={len(self.time_index)}, K*p+l={k * p + l}")
        if len(self.time_index) < 3:
            raise ValidationError("panel needs at least 3 months")
        self.values.setflags(write=False)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_activities(self) -> int:
        return len(self.activities)

    @property
    def width(self) -> int:
        return self.n_regions * self.n_variables + self.n_activities

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n_regions, self.n_variables, self.n_activities)

    def column_names(self) -> list[str]:
        names = [f"{r}.{v}" for r in self.regions for v in self.variables]
        names.extend(self.activities)
        return names

    def column_index(self, name: str) -> int:
        try:
            return self.column_names().index(name)
        except ValueError:
            raise ValidationError(f"unknown panel column {name!r}") from None

    def date_index(self, date: str) -> int:
        try:
            return self.time_index.index(date)
        except ValueError:
            raise ValidationError(f"date {date} outside panel range "
                                  f"[{self.time_index[0]}, {self.time_index[-1]}]") from None

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesPanel":
        return TimeSeriesPanel(
            time_index=self.time_index[start:stop],
            regions=self.regions,
            variables=self.variables,
            activities=self.activities,
            values=self.values[start:stop].copy(),
        )


def load_panel(path: str | Path, schema: Mapping[str, str] | None = None) -> list[RawSeries]:
    """Parse a long-format CSV into one RawSeries per (region, variable).

    ``schema`` optionally maps the canonical column names
    (date/region/variable/value) to the actual header names. Rows are sorted
    by date within each series; duplicates, malformed dates, and non-numeric
    values are rejected with the offending row number (header = row 1).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    schema = dict(schema or {})
    colmap = {key: schema.get(key, key) for key in ("date", "region", "variable", "value")}

    header, rows = read_csv_rows(path)
    positions = {}
    for key, name in colmap.items():
        if name not in header:
            raise ValidationError(f"{path}: missing column {name!r} in header {header}")
        positions[key] = header.index(name)

    seen: dict[tuple[str, str, str], int] = {}
    groups: dict[tuple[str, str], list[tuple[int, float]]] = {}
    group_dates: dict[tuple[str, str], dict[int, str]] = {}
    order: list[tuple[str, str]] = []
    for i, row in enumerate(rows):
        rownum = i + 2
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
        date = row[positions["date"]].strip()
        region = _check_code(row[positions["region"]].strip(), "region", rownum)
        variable = _check_code(row[positions["variable"]].strip(), "variable", rownum)
        raw_value = row[positions["value"]].strip()
        try:
            midx = month_index(date)
        except ValidationError as exc:
            raise ValidationError(f"{path}: row {rownum}: {exc}") from None
        try:
            value = float(raw_value)
        except ValueError:
            raise ValidationError(f"{path}: row {rownum}: non-numeric value {raw_value!r}") from None
        if not np.isfinite(value):
            raise ValidationError(f"{path}: row {rownum}: non-finite value {raw_value!r}")
        dup_key = (region, variable, date)
        if dup_key in seen:
            raise ValidationError(
                f"{path}: row {rownum}: duplicate ({region}, {variable}, {date}), "
                f"first seen at row {seen[dup_key]}")
        seen[dup_key] = rownum
        key = (region, variable)
        if key not in groups:
            groups[key] = []
            group_dates[key] = {}
            order.append(key)
        groups[key].append((midx, value))
        group_dates[key][midx] = date

    series: list[RawSeries] = []
    for key in order:
        pts = sorted(groups[key])
        months = [m for m, _ in pts]
        vals = np.array([v for _, v in pts], dtype=float)
        freq = _infer_frequency(months, key, path)
        series.append(RawSeries(
            region=key[0],
            variable=key[1],
            dates=tuple(group_dates[key][m] for m in months),
            values=vals,
            frequency=freq,
        ))
    if not series:
        raise ValidationError(f"{path}: no data rows")
    return series


def _infer_frequency(months: Sequence[int], key: tuple[str, str], path: Path) -> str:
    if len(months) < 2:
        return "monthly"
    steps = {b - a for a, b in zip(months, months[1:])}
    if steps == {1}:
        return "monthly"
    if steps == {3}:
        return "quarterly"
    raise ValidationError(
        f"{path}: series {key[0]}/{key[1]} has irregular date spacing {sorted(steps)}; "
        "expected uniform 1-month or 3-month steps")


def _expand_to_monthly(s: RawSeries, months: np.ndarray, method: str) -> np.ndarray:
    anchors = np.array([month_index(d) for d in s.dates])
    if s.frequency == "monthly":
        start = int(months[0] - anchors[0])
        return s.values[start:start + len(months)].astype(float)
    if method == "linear-interpolate":
        return np.interp(months, anchors, s.values)
    # repeat-last: carry the most recent anchor value forward
    idx = np.searchsorted(anchors, months, side="right") - 1
    return s.values[idx]


def align_frequencies(
    series: Sequence[RawSeries],
    method: str = "linear-interpolate",
    regions: Sequence[str] | None = None,
    variables: Sequence[str] | None = None,
    activities: Sequence[str] | None = None,
    transform: str = "none",
) -> TimeSeriesPanel:
    """Align mixed monthly/quarterly series onto their common monthly range.

    Quarterly series are expanded by linear interpolation (default) or
    carry-forward between quarter anchors; coverage ends at the last anchor,
    never extrapolating outside the observed range. Explicit region /
    variable / activity orders may be passed; the default is first
    appearance in ``series``.
    """
    if method not in ALIGN_METHODS:
        raise ValidationError(f"unknown alignment method {method!r}, expected one of {ALIGN_METHODS}")
    if transform not in TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}, expected one of {TRANSFORMS}")
    if not series:
        raise ValidationError("no series to align")
    for s in series:
        if len(s) < 2:
            raise ValidationError(f"series {s.region}/{s.variable} has fewer than 2 observations")

    lookup: dict[tuple[str, str], RawSeries] = {}
    for s in series:
        if s.key in lookup:
            raise ValidationError(f"duplicate series for {s.key}")
        lookup[s.key] = s

    seen_regions = [s.region for s in series if s.region != COMMON_REGION]
    seen_activities = [s.variable for s in series if s.region == COMMON_REGION]
    regions = list(regions) if regions is not None else list(dict.fromkeys(seen_regions))
    activities = (list(activities) if activities is not None
                  else list(dict.fromkeys(seen_activities)))
    if variables is None:
        if not regions:
            raise ValidationError("panel has no country series")
        variables = list(dict.fromkeys(
            s.variable for s in series if s.region == regions[0]))
    else:
        variables = list(variables)
    for name, codes in (("regions", regions), ("variables", variables), ("activities", activities)):
        if len(set(codes)) != len(codes):
            raise ValidationError(f"duplicate codes in {name} list: {codes}")

    wanted: list[tuple[str, str]] = [(r, v) for r in regions for v in variables]
    wanted += [(COMMON_REGION, a) for a in activities]
    missing = [k for k in wanted if k not in lookup]
    if missing:
        raise ValidationError(f"missing series for {missing}")

    firsts, lasts = [], []
    for key in wanted:
        s = lookup[key]
        firsts.append(month_index(s.dates[0]))
        lasts.append(month_index(s.dates[-1]))
    start, stop = max(firsts), min(lasts)
    if start > stop:
        raise ValidationError("empty date-range intersection across series")
    months = np.arange(start, stop + 1)

    columns = [_expand_to_monthly(lookup[key], months, method) for key in wanted]
    values = np.column_stack(columns)
    if transform == "log":
        if np.any(values <= 0):
            raise ValidationError("log transform requires strictly positive values")
        values = np.log(values)
    if not np.all(np.isfinite(values)):
        raise ValidationError("aligned panel contains non-finite values")

    return TimeSeriesPanel(
        time_index=tuple(month_label(m) for m in months),
        regions=tuple(regions),
        variables=tuple(variables),
        activities=tuple(activities),
        values=values,
    )


@dataclass
class ValidationReport:
    """Outcome of panel validation; empty ``issues`` means a clean panel."""

    width: int
    expected_width: int
    n_rows: int
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "width": self.width,
            "expected_width": self.expected_width,
            "n_rows": self.n_rows,
            "issues": list(self.issues),
        }


def validate_panel(panel: TimeSeriesPanel) -> ValidationReport:
    """Report every invariant violation (non-finite cell, ordering breach)."""
    issues: list[str] = []
    expected = panel.n_regions * panel.n_variables + panel.n_activities
    if panel.values.shape[1] != expected:
        issues.append(f"width {panel.values.shape[1]} != K*p+l = {expected}")
    names = panel.column_names()
    if len(set(names)) != len(names):
        issues.append("duplicate column names")
    months = [month_index(d) for d in panel.time_index]
    gaps = [panel.time_index[i + 1] for i in range(len(months) - 1)
            if months[i + 1] - months[i] != 1]
    for g in gaps:
        issues.append(f"non-consecutive month at {g}")
    bad = np.argwhere(~np.isfinite(panel.values))
    for t, j in bad:
        issues.append(f"non-finite cell at ({panel.time_index[t]}, {names[j]})")
    return ValidationReport(
        width=panel.values.shape[1],
        expected_width=expected,
        n_rows=len(panel.time_index),
        issues=issues,
    )


def write_panel_csv(panel: TimeSeriesPanel, path: str | Path) -> None:
    header = ["date"] + panel.column_names()
    rows = [[date] + values for date, values in zip(panel.time_index, panel.values.tolist())]
    write_csv(path, header, rows)


def read_panel_csv(path: str | Path) -> TimeSeriesPanel:
    """Load a panel written by :func:`write_panel_csv` (exact round-trip)."""
    header, rows = read_csv_rows(path)
    if not header or header[0] != "date":
        raise ValidationError(f"{path}: expected first column 'date'")
    names = header[1:]
    regions: list[str] = []
    variables: list[str] = []
    activities: list[str] = []
    for name in names:
        if "." in name:
            region, variable = name.split(".", 1)
            if region not in regions:
                regions.append(region)
            if variable not in variables:
                variables.append(variable)
        else:
            activities.append(name)
    expected = [f"{r}.{v}" for r in regions for v in variables] + activities
    if names != expected:
        raise ValidationError(f"{path}: columns are not in region-major panel order")
    dates = []
    values = []
    for row in rows:
        dates.append(row[0])
        values.append([float(c) for c in row[1:]])
    return TimeSeriesPanel(
        time_index=tuple(dates),
        regions=tuple(regions),
        variables=tuple(variables),
        activities=tuple(activities),
        values=np.array(values, dtype=float),
    )
