"""Loading, validation, and monthly alignment of long-format economic panels.

Input data is a UTF-8 CSV with header ``date,region,variable,value``, dates
formatted ``YYYY-MM`` and read into month numbers (:func:`month_index`).
Series observed quarterly (3-month spacing) are expanded to monthly
frequency on the common date range; the reserved region
code ``__COMMON__`` marks shared activity series (oil price and the like)
that enter every country's equation. No column may be named ``ALL``
(``config.POOLED_ROW``), the series cell of ``mse_report.csv``'s pooled rows.
A panel's code lists follow the one code rule, ``config.code_issues``: the
run config applies it as it loads, so in every stage, and
:func:`validate_panel` as a panel is built.

Ingest is scalar work on thousands of cells, cheaper than importing numpy, so
this module runs on the standard library alone: a panel keeps its cells as
float rows and builds its numpy array when an estimation stage first reads
``values``. Each row is an ``array('d')``, 8 bytes a cell; a panel read back
from ``panel.csv`` parses each row straight from its line.

A series and a panel are valid once built: :class:`RawSeries` and
:class:`TimeSeriesPanel` (on any issue :func:`validate_panel` lists) raise
as they are built, so no stage checks either again.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_right
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .config import (ALIGN_METHODS, CODE_RE, COMMON_REGION, POOLED_ROW, TRANSFORMS, Record,
                     code_issues)
from .errors import ValidationError
from .serialize import parse_float, read_csv_rows, write_csv

if TYPE_CHECKING:
    import numpy as np

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


def month_index(date: str, where: str = "") -> int:
    """Map 'YYYY-MM' to a consecutive month counter. An error starts with
    ``where`` (the file and row), when given, as ``parse_float``'s does."""
    m = _DATE_RE.match(date)
    month = int(m.group(2)) if m else 0
    if not 1 <= month <= 12:
        prefix = f"{where}: " if where else ""
        reason = "month out of range" if m else "expected YYYY-MM"
        raise ValidationError(f"{prefix}malformed date {date!r}, {reason}")
    return int(m.group(1)) * 12 + (month - 1)


def month_label(index: int) -> str:
    """Inverse of :func:`month_index`."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _check_code(code: str, what: str, row: int) -> None:
    if not CODE_RE.fullmatch(code):
        raise ValidationError(f"invalid {what} code {code!r} (row {row}): "
                              "use letters, digits, '_' or '-' only")


class RawSeries(Record):
    """One (region, variable) series at its observation months, as
    :func:`month_index` numbers: 2 or more, one value each, spaced a uniform
    1 month (``frequency`` ``"monthly"``) or 3 (``"quarterly"``), or it raises."""

    def __init__(self, region: str, variable: str, months: tuple[int, ...],
                 values: tuple[float, ...]):
        name = f"series {region}/{variable}"
        if len(values) != len(months):
            raise ValidationError(f"{name} has {len(values)} values for {len(months)} months")
        if len(months) < 2:
            raise ValidationError(f"{name} has fewer than 2 observations")
        steps = {b - a for a, b in zip(months, months[1:])}
        if steps != {1} and steps != {3}:
            raise ValidationError(f"{name} has irregular date spacing {sorted(steps)}; "
                                  "expected uniform 1-month or 3-month steps")
        self._set(region=region, variable=variable, months=months, values=values)

    @property
    def frequency(self) -> str:
        return "monthly" if self.months[1] - self.months[0] == 1 else "quarterly"

    @property
    def dates(self) -> tuple[str, ...]:
        return tuple(map(month_label, self.months))

    @property
    def key(self) -> tuple[str, str]:
        return (self.region, self.variable)

    def __len__(self) -> int:
        return len(self.months)


class TimeSeriesPanel(Record):
    """Aligned monthly panel: K regions x p variables plus l activity columns.

    Column order is region-major, variable-minor, activities last; that
    ordering also fixes the Cholesky identification order downstream.
    The cells are stored once, as T ``array('d')`` rows of K*p + l, one per
    month; rows given as any other float sequence are converted on
    construction. ``repr`` leaves the rows out. Construction raises unless the
    rows fit, there are 3 months or more and :func:`validate_panel` passes.
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
        issues = validate_panel(self)
        if issues:
            raise ValidationError("; ".join(issues[:5]))

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
        month_index(date)  # a malformed date fails as malformed, not as out of range
        try:
            return self.time_index.index(date)
        except ValueError:
            raise ValidationError(f"date {date} outside panel range "
                                  f"[{self.time_index[0]}, {self.time_index[-1]}]") from None

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesPanel":
        return self.replace(time_index=self.time_index[start:stop], rows=self.rows[start:stop])


def load_panel(path: str | Path) -> list[RawSeries]:
    """Parse a long-format ``date,region,variable,value`` CSV into one
    RawSeries per (region, variable).

    The columns are found by header name, once each, in any order. Rows are
    sorted by date within each series; duplicates, malformed dates, and
    non-numeric values are rejected with the offending row number (header =
    row 1); a series that :class:`RawSeries` refuses fails naming the file.
    """
    path = Path(path)
    header, rows = read_csv_rows(path)
    names = ("date", "region", "variable", "value")
    for name in names:
        if header.count(name) != 1:  # a second column of the name would go unread
            what = "repeated" if name in header else "missing"
            raise ValidationError(f"{path}: {what} column {name!r} in header {header}")
    at_date, at_region, at_variable, at_value = (header.index(name) for name in names)

    # (region, variable) -> month -> (value, row number), in order of first
    # appearance; the month also finds a duplicate date, as each month has
    # one YYYY-MM label
    points: dict[tuple[str, str], dict[int, tuple[float, int]]] = {}
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
            midx = months[date] = month_index(date, f"{path}: row {rownum}")
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
                f"first seen at row {by_month[midx][1]}")
        by_month[midx] = (value, rownum)

    series: list[RawSeries] = []
    for (region, variable), by_month in points.items():
        anchors = tuple(sorted(by_month))
        try:
            series.append(RawSeries(region, variable, anchors,
                                    tuple(by_month[m][0] for m in anchors)))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if not series:
        raise ValidationError(f"{path}: no data rows")
    return series


def _expand_to_monthly(s: RawSeries, months: range, method: str) -> Sequence[float]:
    """``s`` on each of ``months``, which lie within its first and last anchor."""
    ys, anchors = s.values, s.months
    if s.frequency == "monthly":
        start = months[0] - anchors[0]
        return ys[start:start + len(months)]
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
    if variables is None:  # none without a region: the panel refuses both lists
        variables = list(dict.fromkeys(
            s.variable for s in series if s.region in regions[:1]))
    else:
        variables = list(variables)

    wanted: list[tuple[str, str]] = [(r, v) for r in regions for v in variables]
    wanted += [(COMMON_REGION, a) for a in activities]
    missing = [k for k in wanted if k not in lookup]
    if missing:
        raise ValidationError(f"missing series for {missing}")

    start = max(lookup[key].months[0] for key in wanted)
    stop = min(lookup[key].months[-1] for key in wanted)
    if start > stop:
        raise ValidationError("empty date-range intersection across series")
    months = range(start, stop + 1)

    columns = [_expand_to_monthly(lookup[key], months, method) for key in wanted]
    if transform == "log":
        for (region, variable), column in zip(wanted, columns):
            bad = next((t for t, v in enumerate(column) if v <= 0), None)
            if bad is not None:
                name = variable if region == COMMON_REGION else f"{region}.{variable}"
                raise ValidationError("log transform requires strictly positive values: "
                                      f"{name} is {column[bad]!r} at {month_label(months[bad])}")
        columns = [[math.log(v) for v in column] for column in columns]

    return TimeSeriesPanel(
        time_index=tuple(month_label(m) for m in months),
        regions=tuple(regions),
        variables=tuple(variables),
        activities=tuple(activities),
        rows=tuple(zip(*columns)),
    )


def validate_panel(panel: TimeSeriesPanel) -> list[str]:
    """A panel's invariant violations, one message each: each issue that the
    code rule, ``config.code_issues``, finds in its regions, variables and
    activities, a column named ``POOLED_ROW``, a month that does not follow
    the one before, a non-finite cell. Under the code rule no column name
    repeats and ``panel.csv`` reads back as the same panel. The one
    definition of a valid panel: :class:`TimeSeriesPanel` raises on any of
    them, so a built panel always gives an empty list."""
    issues = [issue for kind in ("regions", "variables", "activities")
              for issue in code_issues(kind, getattr(panel, kind))]
    names = panel.column_names()
    if POOLED_ROW in names:
        issues.append(f"column name {POOLED_ROW!r} is reserved for the pooled rows "
                      "of mse_report.csv")
    months = [month_index(d) for d in panel.time_index]
    issues.extend(f"non-consecutive month at {panel.time_index[i]}"
                  for i in range(1, len(months)) if months[i] - months[i - 1] != 1)
    for date, row in zip(panel.time_index, panel.rows):
        if not all(map(math.isfinite, row)):
            issues.extend(f"non-finite cell at ({date}, {name})"
                          for name, value in zip(names, row) if not math.isfinite(value))
    return issues


def write_panel_csv(panel: TimeSeriesPanel, path: str | Path) -> None:
    header = ["date"] + panel.column_names()
    write_csv(path, header, ((date, *row) for date, row in zip(panel.time_index, panel.rows)))


def read_panel_csv(path: str | Path) -> TimeSeriesPanel:
    """Load a panel written by :func:`write_panel_csv` (exact round-trip).

    A cell that is not a finite number fails as its line is parsed, naming
    the row; the panel's own checks then name the file before their message.
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
        return TimeSeriesPanel(
            time_index=tuple(dates),
            regions=tuple(regions),
            variables=tuple(variables),
            activities=tuple(activities),
            rows=tuple(cells),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
