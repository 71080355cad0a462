"""Least squares whose rank test and solution do not depend on units.

Both least-squares fits of the pipeline solve through ``least_squares``: the
structural equations (``gvar``) and the parameter VAR(1) (``forecast``). Each
design column is divided by its 2-norm before the QR factorization, so
multiplying a regressor by a positive factor leaves the rank unchanged and
divides only that regressor's coefficient by the factor. Imports only numpy.
"""

from __future__ import annotations

import numpy as np


def least_squares(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(coefficients, residuals, rank) of the (n,) or (n, m) ``target`` on the
    (n, q) ``design``.

    The columns are scaled to unit 2-norm (an all-zero column keeps scale 1,
    so it reads as deficient) and factored as ``Q R``. The rank counts the
    entries of ``|diag R|`` above ``eps * max(n, q) * max|diag R|``, the
    tolerance of ``np.linalg.matrix_rank`` on the scaled design. Below full
    rank no unique solution exists: the coefficients and residuals are NaN,
    and the caller names the failure.
    """
    design = np.ascontiguousarray(design)  # the same values in F order round differently
    n, q = design.shape
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0.0] = 1.0
    basis, r = np.linalg.qr(design / scale)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > np.finfo(float).eps * max(n, q) * diag.max(initial=0.0)))
    if rank < q:
        return np.full((q,) + target.shape[1:], np.nan), np.full(target.shape, np.nan), rank
    coef = (np.linalg.solve(r, basis.T @ target).T / scale).T  # back in the design's units
    return coef, target - design @ coef, rank
