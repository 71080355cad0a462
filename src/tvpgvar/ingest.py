"""Loading, validation, and monthly alignment of long-format economic panels.

Input data is a UTF-8 CSV with header ``date,region,variable,value``, dates
formatted ``YYYY-MM``. Series observed quarterly (3-month date spacing) are
expanded to monthly frequency on the common date range; the reserved region
code ``__COMMON__`` marks shared activity series (oil price and the like)
that enter every country's equation.

Ingest is scalar work on thousands of cells, cheaper than importing numpy, so
this module runs on the standard library alone: a panel keeps its cells as
float rows and builds its numpy array when an estimation stage first reads
``values``. Each row is an ``array('d')``, 8 bytes a cell; a panel read back
from ``panel.csv`` parses each row straight from its line.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_right
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .config import ALIGN_METHODS, TRANSFORMS, Record
from .errors import ValidationError
from .serialize import parse_float, read_csv_rows, write_csv

if TYPE_CHECKING:
    import numpy as np

COMMON_REGION = "__COMMON__"

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


class RawSeries(Record, frozen=True):
    """One (region, variable) series in its native observation frequency,
    ``"monthly"`` or ``"quarterly"``."""

    def __init__(self, region: str, variable: str, dates: tuple[str, ...],
                 values: tuple[float, ...], frequency: str):
        self._set(region=region, variable=variable, dates=dates, values=values,
                  frequency=frequency)

    @property
    def key(self) -> tuple[str, str]:
        return (self.region, self.variable)

    def __len__(self) -> int:
        return len(self.dates)


class TimeSeriesPanel(Record, frozen=True):
    """Aligned monthly panel: K regions x p variables plus l activity columns.

    Column order is region-major, variable-minor, activities last; that
    ordering also fixes the Cholesky identification order downstream.
    The cells are stored once, as T ``array('d')`` rows of K*p + l, one per
    month; rows given as any other float sequence are converted on
    construction. ``repr`` leaves the rows out.
    """

    _hidden = ("rows",)

    def __init__(self, time_index: tuple[str, ...], regions: tuple[str, ...],
                 variables: tuple[str, ...], activities: tuple[str, ...],
                 rows: tuple[array, ...]):
        if not all(isinstance(row, array) and row.typecode == "d" for row in rows):
            rows = tuple(array("d", row) for row in rows)
        self._set(time_index=time_index, regions=regions, variables=variables,
                  activities=activities, rows=rows)
        width = self.width
        if len(rows) != len(time_index) or any(len(row) != width for row in rows):
            raise ValidationError(
                f"panel rows do not match T={len(time_index)}, K*p+l={width}")
        if len(time_index) < 3:
            raise ValidationError("panel needs at least 3 months")

    @cached_property
    def values(self) -> np.ndarray:
        """The cells as a read-only (T, K*p + l) float array, built on first use."""
        import numpy as np  # here, not at the top: the ingest stage never needs the array

        values = np.array(self.rows, dtype=float).reshape(len(self.rows), self.width)
        values.setflags(write=False)
        return values

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
            rows=self.rows[start:stop],
        )


def load_panel(path: str | Path) -> list[RawSeries]:
    """Parse a long-format ``date,region,variable,value`` CSV into one
    RawSeries per (region, variable).

    The columns are found by header name, in any order. Rows are sorted by
    date within each series; duplicates, malformed dates, and non-numeric
    values are rejected with the offending row number (header = row 1).
    """
    path = Path(path)
    header, rows = read_csv_rows(path)
    names = ("date", "region", "variable", "value")
    for name in names:
        if name not in header:
            raise ValidationError(f"{path}: missing column {name!r} in header {header}")
    at_date, at_region, at_variable, at_value = (header.index(name) for name in names)

    # (region, variable) -> month -> (date, value, row number), in order of
    # first appearance; the month also finds a duplicate date, as each month
    # has one YYYY-MM label
    points: dict[tuple[str, str], dict[int, tuple[str, float, int]]] = {}
    months: dict[str, int] = {}
    for rownum, row in enumerate(rows, 2):
        date = row[at_date].strip()
        region = row[at_region].strip()
        variable = row[at_variable].strip()
        by_month = points.get((region, variable))
        if by_month is None:
            # a code seen for the first time comes with a series seen for the
            # first time, so an error still names the first bad row
            _check_code(region, "region", rownum)
            _check_code(variable, "variable", rownum)
            by_month = points[region, variable] = {}
        midx = months.get(date)
        if midx is None:
            try:
                midx = months[date] = month_index(date)
            except ValidationError as exc:
                raise ValidationError(f"{path}: row {rownum}: {exc}") from None
        cell = row[at_value].strip()
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            parse_float(cell, f"{path}: row {rownum}")  # raises, naming the row
        if midx in by_month:
            raise ValidationError(
                f"{path}: row {rownum}: duplicate ({region}, {variable}, {date}), "
                f"first seen at row {by_month[midx][2]}")
        by_month[midx] = (date, value, rownum)

    series: list[RawSeries] = []
    for key, by_month in points.items():
        anchors = sorted(by_month)
        series.append(RawSeries(
            region=key[0],
            variable=key[1],
            dates=tuple(by_month[m][0] for m in anchors),
            values=tuple(by_month[m][1] for m in anchors),
            frequency=_infer_frequency(anchors, key, path),
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


def _expand_to_monthly(s: RawSeries, months: range, method: str) -> Sequence[float]:
    """``s`` on each of ``months``, which lie within its first and last anchor."""
    ys = s.values
    if s.frequency == "monthly":
        start = months[0] - month_index(s.dates[0])
        return ys[start:start + len(months)]
    anchors = [month_index(d) for d in s.dates]
    out = []
    for x in months:
        j = bisect_right(anchors, x) - 1  # the last anchor at or before x
        if method == "repeat-last" or anchors[j] == x:
            out.append(ys[j])
        else:
            # numpy's interp formula, so the panel matches np.interp bit for bit
            slope = (ys[j + 1] - ys[j]) / (anchors[j + 1] - anchors[j])
            out.append(slope * (x - anchors[j]) + ys[j])
    return out


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
    months = range(start, stop + 1)

    columns = [_expand_to_monthly(lookup[key], months, method) for key in wanted]
    if transform == "log":
        if any(v <= 0 for column in columns for v in column):
            raise ValidationError("log transform requires strictly positive values")
        columns = [[math.log(v) for v in column] for column in columns]
    if not all(math.isfinite(v) for column in columns for v in column):
        raise ValidationError("aligned panel contains non-finite values")

    return TimeSeriesPanel(
        time_index=tuple(month_label(m) for m in months),
        regions=tuple(regions),
        variables=tuple(variables),
        activities=tuple(activities),
        rows=tuple(zip(*columns)),
    )


class ValidationReport(Record):
    """Outcome of panel validation; empty ``issues`` means a clean panel."""

    def __init__(self, width: int, n_rows: int, issues: list[str] | None = None):
        self._set(width=width, n_rows=n_rows, issues=[] if issues is None else issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "width": self.width,
            "n_rows": self.n_rows,
            "issues": list(self.issues),
        }


def _order_issues(panel: TimeSeriesPanel) -> list[str]:
    """The duplicate-name and month-order violations of ``panel``."""
    issues: list[str] = []
    names = panel.column_names()
    if len(set(names)) != len(names):
        issues.append("duplicate column names")
    months = [month_index(d) for d in panel.time_index]
    gaps = [panel.time_index[i + 1] for i in range(len(months) - 1)
            if months[i + 1] - months[i] != 1]
    for g in gaps:
        issues.append(f"non-consecutive month at {g}")
    return issues


def validate_panel(panel: TimeSeriesPanel) -> ValidationReport:
    """Report every invariant violation (non-finite cell, ordering breach)."""
    issues = _order_issues(panel)
    names = panel.column_names()
    for date, row in zip(panel.time_index, panel.rows):
        if not all(map(math.isfinite, row)):
            issues.extend(f"non-finite cell at ({date}, {name})"
                          for name, value in zip(names, row) if not math.isfinite(value))
    return ValidationReport(
        width=panel.width,
        n_rows=len(panel.time_index),
        issues=issues,
    )


def write_panel_csv(panel: TimeSeriesPanel, path: str | Path) -> None:
    header = ["date"] + panel.column_names()
    write_csv(path, header, ((date, *row) for date, row in zip(panel.time_index, panel.rows)))


def read_panel_csv(path: str | Path) -> TimeSeriesPanel:
    """Load and validate a panel written by :func:`write_panel_csv` (exact round-trip).

    Each cell is checked once, by :func:`parse_float` as its line is parsed,
    so the panel is then checked only for its column names and month order.
    """
    header, rows = read_csv_rows(path)
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
    if header != ["date"] + [f"{r}.{v}" for r in regions for v in variables] + activities:
        raise ValidationError(f"{path}: expected 'date', then the columns in "
                              "region-major panel order")
    dates = []
    cells = []
    for rownum, row in enumerate(rows, 2):
        where = f"{path}: row {rownum}"
        dates.append(row[0])
        cells.append(array("d", [parse_float(c, where) for c in row[1:]]))
    try:
        panel = TimeSeriesPanel(
            time_index=tuple(dates),
            regions=tuple(regions),
            variables=tuple(variables),
            activities=tuple(activities),
            rows=tuple(cells),
        )
        issues = _order_issues(panel)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if issues:
        raise ValidationError(f"{path}: " + "; ".join(issues[:5]))
    return panel
