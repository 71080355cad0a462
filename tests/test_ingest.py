import hashlib
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest

from tvpgvar import align_frequencies, load_panel, validate_panel
from tvpgvar.config import (
    ALIGN_METHODS, POOLED_ROW, TRANSFORMS, ForecasterConfig, IRFSettings, Record, RunConfig,
    TVPConfig, WeightSettings,
)
from tvpgvar.errors import ValidationError
from tvpgvar.forecast import ForecastResult
from tvpgvar.gvar import Equation, StackedSystem, StructuralFit, WeightSequence
from tvpgvar.ingest import (
    COMMON_REGION, RawSeries, TimeSeriesPanel, month_index, month_label, read_panel_csv,
    write_panel_csv,
)
from tvpgvar.irf import IRFResult
from tvpgvar.sample import write_sample_csv
from tvpgvar.tvp import PanelTVPResult

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
        ("2000-13,EUR,CPI,2.0", "row 3: malformed date '2000-13', month out of range"),
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

    @pytest.mark.parametrize("name", ["date", "region", "variable", "value"])
    def test_repeated_header_name_rejected(self, tmp_path, name):
        # the first of two columns of one name would be read and the second
        # silently ignored
        path = write_rows(tmp_path, ["2000-01,USA,CPI,1.0,2.0"],
                          header=f"date,region,variable,value,{name}")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: repeated column {name!r} in header ")):
            load_panel(path)

    def test_quarterly_frequency_inferred(self, tmp_path):
        path = write_rows(tmp_path, [
            "2000-01,USA,GDP,1.0", "2000-04,USA,GDP,2.0", "2000-07,USA,GDP,3.0"])
        assert load_panel(path)[0].frequency == "quarterly"

    def test_one_row_series_named_with_its_file(self, tmp_path):
        path = write_rows(tmp_path, ["2000-01,USA,CPI,1.0", "2000-02,USA,CPI,2.0",
                                     "2000-01,USA,HUR,5.0"])
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{path}: series USA/HUR has fewer than 2 observations") + "$"):
            load_panel(path)

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


class Labelled(Record):
    """A record with a keyword-only field, a kind no stage builds."""

    def __init__(self, targets, horizon=6, *, at_time):
        self._set(targets=tuple(targets), horizon=horizon, at_time=at_time)


class TestRecords:
    """The records of every stage behave as immutable values."""

    @pytest.mark.parametrize("make, field", [
        (TVPConfig, "seed"),
        (ForecasterConfig, "horizon"),
        (lambda: RawSeries("USA", "CPI", (24000, 24001), (1.0, 2.0)), "values"),
        (lambda: make_panel(np.zeros((3, 1)), ["A"], ["x"]), "rows"),
        (lambda: WeightSequence.equal(2, 2, 1), "we"),
        # a country's and an activity's equation; the ids name the own-lag
        # block each one's lag field holds (coefficients.json's phi1 and phi_b)
        pytest.param(lambda: Equation(np.zeros(2), *[np.zeros((2, 5))] * 2), "lag",
                     id="<lambda>-phi1"),
        pytest.param(lambda: Equation(np.zeros(1), *[np.zeros((1, 3))] * 2), "lag",
                     id="<lambda>-phi_b"),
        (lambda: StructuralFit((), None, np.eye(1), (1, 1, 0), ("A.x",), 9), "nobs"),
        (lambda: StackedSystem(*[np.eye(1)] * 4, 1.0), "g0_condition"),
        (lambda: PanelTVPResult(*[np.ones((1, 2))] * 2, np.ones((1, 3, 2)), np.ones(1), {}),
         "sigma2"),
        (lambda: IRFResult(*[np.zeros((1, 1))] * 2, 0.5, 1.0, 1, (0,), 0.95, 9), "radius"),
        (WeightSettings, "window"),
        (IRFSettings, "dates"),
        (lambda: RunConfig(Path("data.csv"), "repeat-last", "none", None, None, None,
                           WeightSettings(), TVPConfig(), IRFSettings(),
                           {"constant": ForecasterConfig()}, Path("out")),
         "out_dir"),
        (lambda: PanelTVPResult(*[np.full((1, 2), np.nan)] * 2, np.full((1, 3, 2), np.nan),
                                np.full(1, np.nan), {"A.x": "failed"}), "errors"),
        (lambda: ForecastResult((), (), np.zeros((1, 0, 2)), np.zeros((1, 0)), {}), "errors"),
    ])
    def test_fields_refuse_assignment(self, make, field):
        record = make()
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value

    @pytest.mark.parametrize("make, array", [
        (lambda wb: WeightSequence(WeightSequence.equal(2, 2, 1).we, wb),
         np.full((2, 2, 1), 0.5)),
        # a country's (p=2, l=1) and an activity's equation, under the names
        # their records had before both became one Equation
        (lambda now: Equation(np.zeros(2), now, np.zeros((2, 5))), np.arange(10.0).reshape(2, 5)),
        (lambda lag: Equation(np.zeros(1), np.zeros((1, 3)), lag), np.arange(3.0).reshape(1, 3)),
        (lambda res: StructuralFit((), res, np.eye(1), (1, 1, 0), ("A.x",), 9),
         np.ones((3, 1))),
        (lambda g0: StackedSystem(g0, *[np.eye(2)] * 3, 1.0), np.eye(2)),
        (lambda theta: PanelTVPResult(theta[:, 0], theta[:, -1], theta, np.ones(1), {}),
         np.ones((1, 3, 2))),
        # a failed column, A.y, is a row of NaN, and NaN equals NaN; with a
        # number in place of its NaN, A.y is no failed column
        (lambda theta: PanelTVPResult(theta[:, 0], theta[:, -1], theta, theta[:, 0, 0],
                                      {"A.y": "failed"} if np.isnan(theta).any() else {}),
         np.stack([np.ones((3, 2)), np.full((3, 2), np.nan)])),
        (lambda point: IRFResult(point, np.zeros((2, 1)), 0.5, 1.0, 1, (0,), 0.95, 9),
         np.ones((2, 1))),
        (lambda paths: ForecastResult(("A.x",), ("2001-01",), paths, np.zeros((1, 1)), {}),
         np.ones((1, 1, 2))),
        # a failed column's parameter (and variable) paths are NaN
        (lambda paths: ForecastResult(("A.x", "A.y"), ("2001-01",), paths,
                                      paths[..., 0] + paths[..., 1], {"A.y": "failed"}),
         np.array([[[1.0, 1.0], [np.nan, np.nan]]])),
    ], ids=["WeightSequence", "CountryCoefficients", "ActivityCoefficients", "StructuralFit",
            "StackedSystem", "PanelTVPResult-one-column", "PanelTVPResult",
            "IRFResult", "ForecastResult", "ForecastResult-failed-column"])
    def test_equality_compares_arrays_by_value(self, make, array):
        record = make(array)
        assert record == make(array.copy())
        assert record == record.replace()
        bumped = array.copy()
        bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)
        assert (record == make(bumped)) is False
        wider = np.concatenate([array, array[..., :1]], axis=-1)
        assert (record == make(wider)) is False
        nan = np.isnan(array)
        if nan.any():  # a NaN against a number is still unequal
            assert (record == make(np.where(nan, 1.0, array))) is False

    def test_records_hash_by_their_fields(self):
        assert hash(TVPConfig()) == hash((1000, 0))
        assert hash(WeightSettings(window=3)) == hash(WeightSettings().replace(window=3))
        with pytest.raises(TypeError, match="unhashable type"):
            hash(WeightSequence.equal(2, 2, 1))

    def test_replace_runs_the_constructor_checks(self):
        assert ForecasterConfig().replace(cv_folds=3) == ForecasterConfig(cv_folds=3)
        assert hash(TVPConfig().replace(seed=0)) == hash(TVPConfig())
        with pytest.raises(ValidationError, match="forecast.cv_folds must be >= 2"):
            ForecasterConfig().replace(cv_folds=1)
        weights = WeightSequence.equal(2, 2, 1)
        with pytest.raises(ValidationError, match="^weights must be non-negative$"):
            weights.replace(we=-weights.we)
        # a keyword-only field is a field like the others
        shock = Labelled((0, 2), at_time="2001-05")
        moved = shock.replace(horizon=3)
        assert moved == Labelled((0, 2), 3, at_time="2001-05") != shock
        assert repr(moved) == "Labelled(targets=(0, 2), horizon=3, at_time='2001-05')"

    def test_panel_repr_omits_rows(self):
        panel = make_panel(np.full((3, 2), 7.25), ["A"], ["x", "y"])
        assert repr(panel) == ("TimeSeriesPanel(time_index=('2000-01', '2000-02', '2000-03'), "
                               "regions=('A',), variables=('x', 'y'), activities=())")


class TestAlignFrequencies:
    def quarterly(self, values, region="USA", variable="GDP", start="2000-01"):
        months = tuple(month_index(start) + 3 * i for i in range(len(values)))
        return RawSeries(region=region, variable=variable, months=months,
                         values=tuple(map(float, values)))

    def monthly(self, values, region="USA", variable="CPI", start="2000-01"):
        months = tuple(month_index(start) + i for i in range(len(values)))
        return RawSeries(region=region, variable=variable, months=months,
                         values=tuple(map(float, values)))

    def test_linear_interpolation(self):
        panel = align_frequencies(
            [self.quarterly([100.0, 106.0]), self.monthly([1, 2, 3, 4], variable="CPI")],
            method="linear-interpolate")
        np.testing.assert_allclose(panel.values[:, 0], [100.0, 102.0, 104.0, 106.0])

    def test_overflowing_interpolation_names_its_cells(self):
        # two finite anchors whose slope overflows to -inf
        with pytest.raises(ValidationError, match="^" + re.escape(
                "non-finite cell at (2000-02, USA.GDP); non-finite cell at (2000-03, USA.GDP)")):
            align_frequencies([self.quarterly([1e308, -1e308]), self.monthly([1, 2, 3, 4])])

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

    @pytest.mark.parametrize("months, values, message", [
        # out of order, a quarterly series would cut the common range short
        ((24006, 24000, 24003, 24009), (3.0, 1.0, 2.0, 4.0),
         "has irregular date spacing [-6, 3, 6]; expected uniform 1-month or 3-month steps"),
        # a monthly series missing 2000-03 and 2000-04 would move every
        # later value two months early
        ((24000, 24001, 24004, 24005), (1.0, 2.0, 5.0, 6.0),
         "has irregular date spacing [1, 3]; expected uniform 1-month or 3-month steps"),
        ((24000, 24003, 24004, 24007), (1.0, 2.0, 3.0, 4.0),
         "has irregular date spacing [1, 3]; expected uniform 1-month or 3-month steps"),
        ((24000, 24001, 24002, 24003), (1.0, 2.0, 3.0), "has 3 values for 4 months"),
    ], ids=["decreasing", "gapped", "mixed-steps", "length-mismatch"])
    def test_series_refused_as_built(self, months, values, message):
        with pytest.raises(ValidationError,
                           match="^" + re.escape(f"series USA/CPI {message}") + "$"):
            RawSeries("USA", "CPI", months, values)

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

    @pytest.mark.parametrize("make, message", [
        (lambda m, a: ([m, a], {"method": "spline"}),
         f"unknown alignment method 'spline', expected one of {ALIGN_METHODS}"),
        (lambda m, a: ([m, a], {"transform": "sqrt"}),
         f"unknown transform 'sqrt', expected one of {TRANSFORMS}"),
        (lambda m, a: ([m, a, m], {}), "duplicate series for ('USA', 'CPI')"),
        # the panel, not align_frequencies, refuses a list config.code_issues refuses
        (lambda m, a: ([a], {}), "panel.regions is empty: a panel needs a country column; "
         "panel.variables is empty: a panel needs a country column"),
        (lambda m, a: ([m, a], {"regions": ["USA", "USA"]}), "duplicate codes in panel.regions"),
        (lambda m, a: ([m, a], {"variables": ["CPI", "CPI"]}),
         "duplicate codes in panel.variables"),
        (lambda m, a: ([m, a], {"activities": ["OIL", "OIL"]}),
         "duplicate codes in panel.activities"),
        # with no regions, a repeated variable repeats no column name
        (lambda m, a: ([a], {"regions": [], "variables": ["GDP", "GDP"], "activities": ["OIL"]}),
         "panel.regions is empty: a panel needs a country column; "
         "duplicate codes in panel.variables"),
    ], ids=["method", "transform", "repeated-series", "no-country", "regions", "variables",
            "activities", "variables-without-regions"])
    def test_library_input_refused(self, make, message):
        # RunConfig refuses these before the CLI calls align_frequencies
        series, options = make(self.monthly(np.arange(6.0)),
                               self.monthly(np.arange(6.0), COMMON_REGION, "OIL"))
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            align_frequencies(series, **options)

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

    def test_log_transform_names_the_first_non_positive_cell(self):
        series = [self.monthly([1.0, 2.0, 3.0], region="A", variable="x"),
                  self.monthly([1.0, 0.0, -1.0], region="A", variable="y"),
                  self.monthly([1.0, 1.0, -2.0], region=COMMON_REGION, variable="OIL")]
        with pytest.raises(ValidationError, match="^" + re.escape(
                "log transform requires strictly positive values: A.y is 0.0 at 2000-02") + "$"):
            align_frequencies(series, transform="log")
        with pytest.raises(ValidationError, match=re.escape(": OIL is -2.0 at 2000-03")):
            align_frequencies([series[0], series[2]], transform="log")

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
        assert validate_panel(panel) == []

    def test_nan_cell_named(self, rng):
        # a panel is checked as it is built: no invalid panel exists to report on
        values = rng.standard_normal((10, 3))
        values[4, 1] = np.nan
        with pytest.raises(ValidationError,
                           match=re.escape("non-finite cell at (2000-05, A.y)")):
            make_panel(values, ["A"], ["x", "y"], ["ACT"])

    def test_month_gap_named(self):
        with pytest.raises(ValidationError, match="^non-consecutive month at 2000-04$"):
            TimeSeriesPanel(time_index=("2000-01", "2000-02", "2000-04"), regions=("A",),
                            variables=("x",), activities=(), rows=((1.0,), (2.0,), (3.0,)))

    def test_repeated_column_name_rejected(self):
        # valid codes, none repeated, repeat no column name
        with pytest.raises(ValidationError, match=r"^duplicate codes in panel\.regions$"):
            make_panel(np.zeros((3, 2)), ["A", "A"], ["x"])

    def test_repeated_code_rejected_without_a_repeated_name(self):
        # with no variables the regions name no column, but a panel's codes
        # must still identify its columns, whose names key the sampler's streams
        with pytest.raises(ValidationError, match=r"^duplicate codes in panel\.regions; "
                           r"panel\.variables is empty: a panel needs a country column$"):
            TimeSeriesPanel(time_index=("2000-01", "2000-02", "2000-03"), regions=("A", "A"),
                            variables=(), activities=("OIL",), rows=((1.0,), (2.0,), (3.0,)))

    @pytest.mark.parametrize("regions, activities, message", [
        # panel.csv would read back as region A with variable B.x
        (["A.B"], [], "invalid code 'A.B' in panel.regions"),
        # panel.csv would not read back at all
        (["A"], ["OIL.B"], "invalid code 'OIL.B' in panel.activities"),
    ], ids=["region", "activity"])
    def test_code_that_would_not_read_back_refused(self, regions, activities, message):
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{message}: use letters, digits, '_' or '-' only") + "$"):
            make_panel(np.zeros((3, 1 + len(activities))), regions, ["x"], activities)

    def test_pooled_row_label_is_reserved(self, tmp_path):
        # a common series named ALL would share its mse_report.csv rows with
        # the pooled scores, and reading the report back would keep only one
        message = "column name 'ALL' is reserved for the pooled rows of mse_report.csv"
        assert POOLED_ROW == "ALL"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make_panel(np.zeros((3, 2)), ["A"], ["x"], ["ALL"])
        series = [RawSeries("A", "x", (24000, 24001, 24002), (1.0, 2.0, 3.0)),
                  RawSeries(COMMON_REGION, "ALL", (24000, 24001, 24002), (1.0, 2.0, 3.0))]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            align_frequencies(series)
        path = tmp_path / "panel.csv"
        path.write_text("date,A.x,ALL\n2000-01,1.0,2.0\n2000-02,1.0,2.0\n2000-03,1.0,2.0\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            read_panel_csv(path)
        # a country series named ALL is the column A.ALL, which is free
        assert make_panel(np.zeros((3, 1)), ["A"], ["ALL"]).column_names() == ["A.ALL"]

    def test_error_lists_the_first_five_issues(self):
        values = np.zeros((8, 1))
        values[1:] = np.inf
        with pytest.raises(ValidationError) as caught:
            make_panel(values, ["A"], ["x"])
        assert str(caught.value) == "; ".join(
            f"non-finite cell at (2000-0{t}, A.x)" for t in range(2, 7))

    def test_sliced_panel_is_checked(self):
        # slice_rows builds a panel too: a slice needs its 3 months
        panel = make_panel(np.zeros((5, 1)), ["A"], ["x"])
        assert panel.slice_rows(1, 4).time_index == ("2000-02", "2000-03", "2000-04")
        with pytest.raises(ValidationError, match="panel needs at least 3 months"):
            panel.slice_rows(0, 2)

    def test_width_confirmed(self, rng):
        panel = make_panel(rng.standard_normal((8, 10)), ["A", "B", "C"],
                           ["x", "y", "z"], ["ACT"])
        assert validate_panel(panel) == []
        assert (panel.width, len(panel.time_index)) == (10, 8)


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
    shapes = [(["A", "B"], ["x", "y"], ["ACT"]), (["A"], ["x"], []),
              (["A", "B", "C"], ["x"], ["ACT", "OIL"]), (["A"], ["x", "y", "z"], ["ACT"]),
              (["__COMMON"], ["A-1", "b_2"], ["COMMON__"])]
    for regions, variables, activities in shapes:
        width = len(regions) * len(variables) + len(activities)
        panel = make_panel(rng.standard_normal((9, width)), regions, variables, activities)
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
    # a panel with regions but no variables is refused: its panel.csv would
    # hold only the activities and read back as a panel with no regions
    with pytest.raises(ValidationError, match=r"^panel\.variables is empty: a panel needs "
                       r"a country column$"):
        make_panel(np.zeros((9, 1)), ["A", "B"], [], ["ACT"])
    path = tmp_path / "panel.csv"
    path.write_text("date,ACT\n2000-01,1.0\n2000-02,1.0\n2000-03,1.0\n")
    with pytest.raises(ValidationError, match="^" + re.escape(
            f"{path}: panel.regions is empty: a panel needs a country column; "
            "panel.variables is empty: a panel needs a country column") + "$"):
        read_panel_csv(path)
