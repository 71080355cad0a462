import hashlib
import math
from array import array

import numpy as np
import pytest

from tvpgvar import align_frequencies, load_panel, validate_panel
from tvpgvar.config import ALIGN_METHODS, ForecasterConfig, TVPConfig
from tvpgvar.errors import ValidationError
from tvpgvar.ingest import (
    COMMON_REGION, RawSeries, month_index, month_label, read_panel_csv, write_panel_csv,
)
from tvpgvar.sample import write_sample_csv

from conftest import make_panel
from oracles import expand_to_monthly_np


def write_rows(tmp_path, rows, header="date,region,variable,value"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_month_helpers_round_trip():
    for date in ("2000-01", "2007-12", "2020-07"):
        assert month_label(month_index(date)) == date
    assert month_index("2000-02") - month_index("2000-01") == 1
    assert month_index("2001-01") - month_index("2000-12") == 1


class TestLoadPanel:
    def test_two_rows_one_series(self, tmp_path):
        path = write_rows(tmp_path, ["2000-01,USA,CPI,100.0", "2000-02,USA,CPI,100.5"])
        series = load_panel(path)
        assert len(series) == 1
        s = series[0]
        assert s.key == ("USA", "CPI")
        assert len(s) == 2
        assert s.frequency == "monthly"
        np.testing.assert_allclose(s.values, [100.0, 100.5])

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_rows(tmp_path, ["2000-02,USA,CPI,2", "2000-01,USA,CPI,1"])
        s = load_panel(path)[0]
        assert s.dates == ("2000-01", "2000-02")
        np.testing.assert_allclose(s.values, [1.0, 2.0])

    def test_duplicate_row_rejected_with_row_number(self, tmp_path):
        path = write_rows(tmp_path, [
            "2000-01,USA,CPI,100.0", "2000-02,USA,CPI,100.5", "2000-01,USA,CPI,99.0"])
        with pytest.raises(ValidationError, match=r"row 4.*duplicate.*first seen at row 2"):
            load_panel(path)

    def test_malformed_date_rejected(self, tmp_path):
        path = write_rows(tmp_path, ["2000/01,USA,CPI,100.0"])
        with pytest.raises(ValidationError, match="row 2"):
            load_panel(path)

    @pytest.mark.parametrize("bad_row, message", [
        ("2000/02,EUR,CPI,2.0", "row 3: malformed date"),
        ("2000-02,E U,CPI,2.0", "invalid region code 'E U' \\(row 3\\)"),
        ("2000-02,EUR,C/PI,2.0", "invalid variable code 'C/PI' \\(row 3\\)"),
    ])
    def test_first_bad_row_named(self, tmp_path, bad_row, message):
        # each distinct date and code is checked once: a string seen again
        # later must still fail at its first row
        path = write_rows(tmp_path, ["2000-01,USA,CPI,1.0", bad_row, "2000-03,USA,CPI,3.0",
                                     bad_row])
        with pytest.raises(ValidationError, match=message):
            load_panel(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = write_rows(tmp_path, ["2000-01,USA,CPI,abc"])
        with pytest.raises(ValidationError, match="row 2.*non-numeric"):
            load_panel(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_panel(tmp_path / "nope.csv")

    def test_columns_found_by_header_name(self, tmp_path):
        path = write_rows(tmp_path, ["1.0,CPI,USA,2000-01", "2.0,CPI,USA,2000-02"],
                          header="value,variable,region,date")
        assert load_panel(path)[0].key == ("USA", "CPI")
        path = write_rows(tmp_path, ["2000-01,USA,CPI,1.0"], header="date,region,variable,obs")
        with pytest.raises(ValidationError, match="missing column 'value'"):
            load_panel(path)

    def test_quarterly_frequency_inferred(self, tmp_path):
        path = write_rows(tmp_path, [
            "2000-01,USA,GDP,1.0", "2000-04,USA,GDP,2.0", "2000-07,USA,GDP,3.0"])
        assert load_panel(path)[0].frequency == "quarterly"

    def test_irregular_spacing_rejected(self, tmp_path):
        path = write_rows(tmp_path, [
            "2000-01,USA,CPI,1.0", "2000-02,USA,CPI,2.0", "2000-04,USA,CPI,3.0"])
        with pytest.raises(ValidationError, match="irregular"):
            load_panel(path)

    def test_bundled_fixture_counts(self, tmp_path):
        series = load_panel(write_sample_csv(tmp_path / "sample_panel.csv"))
        assert len(series) == 10
        lengths = sorted({len(s) for s in series})
        assert lengths == [84, 252]
        quarterly = [s for s in series if s.frequency == "quarterly"]
        assert len(quarterly) == 3
        assert all(len(s) == 84 for s in quarterly)


class TestRecords:
    """The records of the numpy-free stages behave as frozen value types."""

    @pytest.mark.parametrize("make, field", [
        (TVPConfig, "seed"),
        (ForecasterConfig, "horizon"),
        (lambda: RawSeries("USA", "CPI", ("2000-01",), (1.0,), "monthly"), "values"),
        (lambda: make_panel(np.zeros((3, 1)), ["A"], ["x"]), "rows"),
    ])
    def test_fields_refuse_assignment(self, make, field):
        record = make()
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, getattr(record, field))
        assert record == make()

    def test_replace_runs_the_constructor_checks(self):
        assert ForecasterConfig().replace(cv_folds=3) == ForecasterConfig(cv_folds=3)
        assert hash(TVPConfig().replace(seed=0)) == hash(TVPConfig())
        with pytest.raises(ValidationError, match="forecast.cv_folds must be >= 2"):
            ForecasterConfig().replace(cv_folds=1)

    def test_panel_repr_omits_rows(self):
        panel = make_panel(np.full((3, 2), 7.25), ["A"], ["x", "y"])
        assert repr(panel) == ("TimeSeriesPanel(time_index=('2000-01', '2000-02', '2000-03'), "
                               "regions=('A',), variables=('x', 'y'), activities=())")


class TestAlignFrequencies:
    def quarterly(self, values, region="USA", variable="GDP", start="2000-01"):
        dates = tuple(month_label(month_index(start) + 3 * i) for i in range(len(values)))
        return RawSeries(region=region, variable=variable, dates=dates,
                         values=tuple(map(float, values)), frequency="quarterly")

    def monthly(self, values, region="USA", variable="CPI", start="2000-01"):
        dates = tuple(month_label(month_index(start) + i) for i in range(len(values)))
        return RawSeries(region=region, variable=variable, dates=dates,
                         values=tuple(map(float, values)), frequency="monthly")

    def test_linear_interpolation(self):
        panel = align_frequencies(
            [self.quarterly([100.0, 106.0]), self.monthly([1, 2, 3, 4], variable="CPI")],
            method="linear-interpolate")
        np.testing.assert_allclose(panel.values[:, 0], [100.0, 102.0, 104.0, 106.0])

    def test_repeat_last(self):
        panel = align_frequencies(
            [self.quarterly([100.0, 106.0]), self.monthly([1, 2, 3, 4], variable="CPI")],
            method="repeat-last")
        np.testing.assert_allclose(panel.values[:, 0], [100.0, 100.0, 100.0, 106.0])

    def test_all_monthly_identity_and_idempotence(self):
        values = np.arange(12.0)
        panel = align_frequencies([self.monthly(values)])
        np.testing.assert_array_equal(panel.values[:, 0], values)
        again = align_frequencies([self.monthly(values)])
        np.testing.assert_array_equal(again.values, panel.values)

    def test_quarter_anchor_agreement(self, rng):
        vals = rng.standard_normal(8)
        panel = align_frequencies(
            [self.quarterly(vals), self.monthly(np.arange(22.0), variable="CPI")])
        anchors = panel.values[::3, 0]
        np.testing.assert_allclose(anchors, vals)

    def test_intersection_range(self):
        late = self.monthly([1.0] * 10, variable="CPI", start="2000-03")
        q = self.quarterly([1.0, 2.0, 3.0, 4.0])
        panel = align_frequencies([q, late])
        assert panel.time_index[0] == "2000-03"
        assert panel.time_index[-1] == "2000-10"  # last quarterly anchor

    def test_empty_intersection(self):
        early = self.monthly([1, 2, 3], start="2000-01")
        late = self.monthly([1, 2, 3], variable="HUR", start="2005-01")
        with pytest.raises(ValidationError, match="intersection"):
            align_frequencies([early, late])

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError, match="fewer than 2"):
            align_frequencies([self.monthly([1.0])])

    def test_column_order_is_pure_function_of_lists(self):
        m1 = self.monthly(np.arange(6.0), region="USA", variable="CPI")
        m2 = self.monthly(np.arange(6.0) + 1, region="EUR", variable="CPI")
        act = self.monthly(np.arange(6.0) + 2, region=COMMON_REGION, variable="OIL")
        panel_a = align_frequencies([m1, m2, act], regions=["EUR", "USA"])
        panel_b = align_frequencies([act, m2, m1], regions=["EUR", "USA"])
        assert panel_a.column_names() == panel_b.column_names()
        np.testing.assert_array_equal(panel_a.values, panel_b.values)
        assert panel_a.column_names() == ["EUR.CPI", "USA.CPI", "OIL"]

    def test_width_is_kp_plus_l(self, tmp_path):
        series = load_panel(write_sample_csv(tmp_path / "sample_panel.csv"))
        panel = align_frequencies(series)
        assert panel.width == 3 * 3 + 1
        assert panel.values.shape[1] == 10

    def test_missing_series_for_region(self):
        m1 = self.monthly(np.arange(6.0), region="USA", variable="CPI")
        m2 = self.monthly(np.arange(6.0), region="EUR", variable="HUR")
        with pytest.raises(ValidationError, match="missing series"):
            align_frequencies([m1, m2])

    def test_log_transform(self):
        panel = align_frequencies([self.monthly([1.0, np.e, np.e ** 2])], transform="log")
        np.testing.assert_allclose(panel.values[:, 0], [0.0, 1.0, 2.0], atol=1e-15)
        # the transform is math.log, which can differ from np.log by 1 ulp
        values = np.random.default_rng(3).lognormal(0.0, 3.0, 200)
        panel = align_frequencies([self.monthly(values)], transform="log")
        assert panel.values[:, 0].tolist() == [math.log(v) for v in values]

    @pytest.mark.parametrize("method", ALIGN_METHODS)
    def test_alignment_matches_numpy_oracle(self, method):
        # np.interp and searchsorted, bit for bit, on random series whose
        # common range may start and end between quarterly anchors
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n_anchors = int(rng.integers(3, 60))
            scale = 10.0 ** rng.integers(-4, 5)
            gdp = self.quarterly(rng.normal(rng.normal() * scale, scale, n_anchors),
                                 start="2000-04")
            start = month_index("2000-04") + int(rng.integers(0, 3))
            cpi = self.monthly(rng.normal(0.0, scale, 3 * n_anchors - 2 - rng.integers(0, 3)),
                               start=month_label(start))
            oil = self.monthly(rng.normal(0.0, scale, 3 * n_anchors + 6),
                               region=COMMON_REGION, variable="OIL", start="2000-01")
            panel = align_frequencies([gdp, cpi, oil], method=method,
                                      variables=["GDP", "CPI"])
            months = [month_index(d) for d in panel.time_index]
            expected = np.column_stack([expand_to_monthly_np(s, months, method)
                                        for s in (gdp, cpi, oil)])
            np.testing.assert_array_equal(panel.values, expected)


class TestValidatePanel:
    def test_clean_panel(self, rng):
        panel = make_panel(rng.standard_normal((10, 3)), ["A"], ["x", "y"], ["ACT"])
        report = validate_panel(panel)
        assert report.ok
        assert report.issues == []

    def test_nan_cell_named(self, rng):
        values = rng.standard_normal((10, 3))
        values[4, 1] = np.nan
        panel = make_panel(values, ["A"], ["x", "y"], ["ACT"])
        report = validate_panel(panel)
        assert not report.ok
        assert any("2000-05" in issue and "A.y" in issue for issue in report.issues)

    def test_width_confirmed(self, rng):
        panel = make_panel(rng.standard_normal((8, 10)), ["A", "B", "C"],
                           ["x", "y", "z"], ["ACT"])
        report = validate_panel(panel)
        assert report.as_dict() == {"ok": True, "width": 10, "n_rows": 8, "issues": []}


def test_panel_csv_misordered_columns_rejected(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("date,OIL,A.x\n2000-01,1.0,2.0\n2000-02,1.0,2.0\n2000-03,1.0,2.0\n")
    with pytest.raises(ValidationError, match="region-major"):
        read_panel_csv(path)


def test_bundled_fixture_matches_generator(tmp_path):
    # the seeded generator still writes the sample CSV byte for byte
    regenerated = write_sample_csv(tmp_path / "sample_panel.csv")
    assert hashlib.sha256(regenerated.read_bytes()).hexdigest() == (
        "326126fabccaf35193acadec5d888849caa631cbd9848b452242f7f8ab0a87c7")


def test_panel_csv_round_trip(tmp_path, rng):
    panel = make_panel(rng.standard_normal((9, 5)), ["A", "B"], ["x", "y"], ["ACT"])
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    loaded = read_panel_csv(path)
    assert loaded.time_index == panel.time_index
    assert loaded.regions == panel.regions
    assert loaded.variables == panel.variables
    assert loaded.activities == panel.activities
    np.testing.assert_array_equal(loaded.values, panel.values)
    assert loaded.values.dtype == np.float64
    assert not loaded.values.flags.writeable
    assert loaded.values is loaded.values  # built once, on first use
    # every panel holds 8-byte cells, so a read panel equals the panel it was written from
    for p in (panel, loaded):
        assert all(isinstance(row, array) and row.typecode == "d" for row in p.rows)
    assert loaded == panel
