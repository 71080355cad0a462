import numpy as np
import pytest

from tvpgvar.ols import least_squares

SCALES = 10.0 ** np.arange(-12, 13, 3)  # 1e-12 ... 1e12


def column_scaled(design):
    """The design with unit 2-norm columns, an all-zero column left as is."""
    norms = np.linalg.norm(design, axis=0)
    return design / np.where(norms == 0.0, 1.0, norms)


def planted(rng, n, q, dependent):
    """An (n, q) design whose columns in ``dependent`` are exact combinations
    of two other columns (or, for column 0, a copy of the last one), with
    every column then multiplied by a scale between 1e-12 and 1e12."""
    design = rng.standard_normal((n, q))
    for j in dependent:
        if j == 0:
            design[:, 0] = design[:, -1]
        else:
            i, k = rng.choice([c for c in range(q) if c not in dependent], 2, replace=False)
            design[:, j] = rng.uniform(0.5, 2.0) * design[:, i] - rng.uniform(0.5, 2.0) * design[:, k]
    return design * rng.choice(SCALES, q)


class TestRank:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dependent", [(), (3,), (0,), (2, 5), (1, 4, 6)])
    def test_matches_matrix_rank_of_scaled_design(self, seed, dependent):
        rng = np.random.default_rng([seed, len(dependent)])
        q = 8
        design = planted(rng, 60, q, dependent)
        _, _, rank = least_squares(design, rng.standard_normal(60))
        assert rank == np.linalg.matrix_rank(column_scaled(design)) == q - len(dependent)

    def test_zero_column_is_deficient(self, rng):
        design = rng.standard_normal((30, 4))
        design[:, 2] = 0.0
        coef, residuals, rank = least_squares(design, rng.standard_normal((30, 2)))
        assert rank == 3 == np.linalg.matrix_rank(column_scaled(design))
        assert coef.shape == (4, 2) and np.all(np.isnan(coef))
        assert residuals.shape == (30, 2) and np.all(np.isnan(residuals))

    def test_more_columns_than_rows(self, rng):
        design = rng.standard_normal((5, 7)) * rng.choice(SCALES, 7)
        _, _, rank = least_squares(design, rng.standard_normal(5))
        assert rank == 5 == np.linalg.matrix_rank(column_scaled(design))


class TestSolve:
    @pytest.mark.parametrize("targets", [None, 3])
    def test_matches_lstsq_on_well_conditioned_design(self, rng, targets):
        design = np.column_stack([np.ones(80), rng.standard_normal((80, 5))])
        target = rng.standard_normal((80,) if targets is None else (80, targets))
        coef, residuals, rank = least_squares(design, target)
        want, _, want_rank, _ = np.linalg.lstsq(design, target, rcond=None)
        assert rank == want_rank == 6
        assert coef.shape == want.shape
        np.testing.assert_allclose(coef, want, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(residuals, target - design @ coef)

    def test_memory_order_of_the_design_changes_no_bit(self):
        # the same values held column-major (as np.hstack of index-array
        # slices returns them) gave coefficients 8.3e-17 apart on this design
        rng = np.random.default_rng(0)
        design = np.column_stack([np.ones(240), rng.standard_normal((240, 12))])
        target = rng.standard_normal(240)
        ours = least_squares(design, target)
        fortran = least_squares(np.asfortranarray(design), target)
        np.testing.assert_array_equal(fortran[0], ours[0])
        np.testing.assert_array_equal(fortran[1], ours[1])
        assert fortran[2] == ours[2] == 13
