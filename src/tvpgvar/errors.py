"""Shared exception types, and the array-size check that raises like numpy."""

import math
import sys


class ValidationError(Exception):
    """Bad inputs: malformed files, broken invariants, inconsistent config."""


class NumericalError(RuntimeError):
    """Numerical breakdown: singular systems, non-PD covariances, filter failure."""


def check_array_size(shape: tuple[int, ...]) -> None:
    """Raise ``MemoryError``, as numpy does when the host cannot allocate,
    for a float64 array of 2**63 bytes or more, which numpy cannot even
    size and refuses with a ``ValueError``."""
    if math.prod(shape) > sys.maxsize // 8:
        raise MemoryError(f"Unable to allocate 8 EiB or more for an array with shape {shape}")
