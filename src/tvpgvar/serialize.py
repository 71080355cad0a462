"""Deterministic serialization helpers: the one place numbers become text.

Every float is written in Python's shortest round-trip ``repr`` (``0.95``,
``1.0``, ``0.30000000000000004``), so each emitted CSV/JSON value parses back
to the exact in-memory double. That is the format the stdlib JSON encoder
already writes, so JSON goes through ``json.dumps`` with a hook that turns
numpy arrays and scalars into lists and numbers through ``.tolist()``;
non-finite floats and unsupported types are rejected. The module loads numpy
only to build an array, so the stages that never do start without it.
Writes go into a temporary file beside the target, which replaces the target
only when the whole write succeeded, so a failed write leaves the target as it
was and no partial file, and an OS error raises :class:`ValidationError` naming
the target. CSV rows are formatted one at a time and written a few hundred
lines at a time; JSON artifacts are small and are rendered whole.
Reads are checked: a missing or undecodable file, a wrong CSV header or JSON key, a misshapen
array or a non-finite number raises :class:`ValidationError` naming the file (and CSV row).
CSV rows are split one at a time as the caller iterates.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np


def format_float(x: float) -> str:
    """Render a float in its shortest round-trip form."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


def _numpy_default(obj: Any) -> Any:
    try:
        return obj.tolist()
    except AttributeError:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}") from None


def dumps_json(obj: Any) -> str:
    """Serialize to JSON with a two-space layout and round-trip floats."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_numpy_default) + "\n"
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"cannot serialize to JSON: {exc}") from None


def _write_atomically(path: str | Path, write: Callable[[IO[str]], None]) -> None:
    """Call ``write`` on a temporary file beside ``path``, then move it onto
    ``path``; on any error remove the temporary file and leave ``path`` as it was.
    An ``OSError`` is raised again as a :class:`ValidationError` naming ``path``."""
    head, name = os.path.split(path)  # str work: cheaper than pathlib on every write
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(temporary, path)
    except BaseException as exc:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise ValidationError(f"{path}: cannot write ({exc.strerror or exc})") from None
        raise


def write_json(obj: Any, path: str | Path) -> None:
    _write_atomically(path, lambda fh: fh.write(dumps_json(obj)))


def _read_text(path: str | Path) -> str:
    """The file's text, less the byte-order mark that Excel's "CSV UTF-8" writes."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ValidationError(f"{path}: file not found or unreadable ({exc.strerror})") from None


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def require_keys(obj: Any, keys: Sequence[str], where: str) -> dict:
    """``obj`` if it is a JSON object with all of ``keys``, else a ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValidationError(f"{where}: lacks {', '.join(missing)}")
    return obj


def parse_strings(value: Any, name: str) -> list[str]:
    """``value``, a list (or tuple) of strings, as a list, or a ValidationError naming it."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{name} must be a list of strings, got {value!r}")
    return list(value)


def parse_array(value: Any, shape: Sequence[int | None], where: str) -> np.ndarray | float:
    """A nested JSON list as a float array of ``shape`` (a float if ``()``), each entry
    through :func:`parse_float`; a ``None`` length is that of the first list at its depth."""
    dims = list(shape)

    def walk(v: Any, depth: int) -> Any:
        if depth == len(dims):
            return parse_float(v, where)
        if not isinstance(v, list) or dims[depth] not in (None, len(v)):
            raise ValidationError(f"{where}: expected an array of shape {tuple(shape)}")
        dims[depth] = len(v)
        return [walk(x, depth + 1) for x in v]
    parsed = walk(value, 0)
    if not dims:
        return parsed
    import numpy as np  # here, not at the top: a stage that builds no array never loads it

    return np.array(parsed, dtype=float).reshape([d or 0 for d in dims])


def is_csv_cell(text: str) -> bool:
    """Whether ``text`` reads back as the one CSV cell it was written as: it
    holds no comma and no line boundary on which the reader's
    ``str.splitlines`` splits (``\\r``, ``\\x0b``, ``\\x85`` and ``\\u2028``
    among others, not only ``\\n``)."""
    # every line boundary is unprintable, so printable text, nearly every
    # cell, needs no split; the appended character makes a trailing
    # boundary split the text too
    return "," not in text and (text.isprintable() or len((text + "x").splitlines()) == 1)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write a CSV with round-trip floats and no quoting surprises, one row at a time.

    ``rows`` may be any iterable, a generator included. Cells may be float
    (numpy's ``float64`` is one), str or int; any other type, a bool included,
    is rejected. A str must pass :func:`is_csv_cell` (callers use restricted
    code/date vocabularies).
    """
    def write(fh: IO[str]) -> None:
        # lines go out 256 at a time: one write call per row costs a few
        # percent of the formatting, and 256 lines are a few kB
        lines = [",".join(header) + "\n"]
        for row in rows:
            cells = []
            for cell in row:
                # floats first (numpy's float64 is one): they are nearly every
                # cell of every artifact, and strings most of the rest
                if isinstance(cell, float):
                    cells.append(format_float(cell))
                elif isinstance(cell, str):
                    if not is_csv_cell(cell):
                        raise ValidationError(
                            f"CSV cell may not contain commas or line breaks: {cell!r}")
                    cells.append(cell)
                elif type(cell) is int:  # not a bool, which is an int too
                    cells.append(str(cell))
                else:
                    raise ValidationError(f"cannot serialize CSV cell of type {type(cell).__name__}")
            lines.append(",".join(cells) + "\n")
            if len(lines) == 256:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))
    _write_atomically(path, write)


def read_csv_rows(path: str | Path) -> tuple[list[str], Iterator[list[str]]]:
    """Read a simple comma-separated file; returns (header, rows), the rows
    split one at a time as they are iterated.

    Blank lines are skipped and not counted: row N is the Nth non-blank line,
    the header being row 1, as in every reader's messages. A row whose cell
    count differs from the header's is rejected when it is reached, naming the
    file and row.
    """
    lines = iter([line for line in _read_text(path).splitlines() if line])
    first = next(lines, None)
    if first is None:
        raise ValidationError(f"{path}: empty file")
    header = first.split(",")

    def rows() -> Iterator[list[str]]:
        for rownum, line in enumerate(lines, 2):
            row = line.split(",")
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
            yield row
    return header, rows()


def read_table(path: str | Path, header: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """The rows of a CSV with exactly ``header``, each with its ``"<path>: row N"`` label."""
    found, rows = read_csv_rows(path)
    if found != list(header):
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    return ((f"{path}: row {rownum}", row) for rownum, row in enumerate(rows, 2))


def parse_float(cell: Any, where: str) -> float:
    """A CSV cell (or JSON number) as a finite float, or a ValidationError
    that starts with ``where`` (the file and row or key) and quotes the cell.
    A boolean is not a number here: ``float(True)`` would read a JSON ``true``
    as 1.0."""
    try:
        if isinstance(cell, bool):
            raise TypeError
        value = float(cell)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: non-finite value {cell!r}")
    return value


def parse_int(cell: Any, where: str) -> int:
    """A cell or JSON number with no fractional part as an int, as :func:`parse_float`
    reads it, or a ValidationError that starts with ``where`` and quotes the cell:
    ``int(parse_float(...))`` would read 9.7 as 9. A boolean is a non-integer."""
    value = None if isinstance(cell, bool) else parse_float(cell, where)
    if value is None or not value.is_integer():
        raise ValidationError(f"{where}: non-integer value {cell!r}")
    return int(value)
