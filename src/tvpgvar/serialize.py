"""Deterministic serialization helpers: the one place numbers become text.

Every float is written in Python's shortest round-trip ``repr`` (``0.95``,
``1.0``, ``0.30000000000000004``), so each emitted CSV/JSON value parses back
to the exact in-memory double. That is the format the stdlib JSON encoder
already writes, so JSON goes through ``json.dumps`` with a hook for numpy
arrays and scalars; non-finite floats and unsupported types are rejected.
Files that cannot be decoded raise :class:`ValidationError` naming the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError


def format_float(x: float) -> str:
    """Render a float in its shortest round-trip form."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


def _numpy_default(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj: Any) -> str:
    """Serialize to JSON with a two-space layout and round-trip floats."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_numpy_default) + "\n"
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"cannot serialize to JSON: {exc}") from None


def write_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def write_csv(path: str | Path, header: list[str], rows: list[list[Any]]) -> None:
    """Write a CSV with round-trip floats and no quoting surprises.

    Cells may be str, int, or float; values must not contain commas or
    newlines (callers use restricted code/date vocabularies).
    """
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            # floats first: they are nearly every cell of every artifact
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(cell))
            elif isinstance(cell, str):
                if "," in cell or "\n" in cell:
                    raise ValidationError(f"CSV cell may not contain commas/newlines: {cell!r}")
                cells.append(cell)
            elif isinstance(cell, (bool, np.bool_)):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                raise ValidationError(f"cannot serialize CSV cell of type {type(cell).__name__}")
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a simple comma-separated file; returns (header, rows)."""
    lines = [ln for ln in _read_text(path).splitlines() if ln != ""]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
