import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvpgvar
from tvpgvar import read_panel_csv
from tvpgvar.cli import main
from tvpgvar.config import load_config
from tvpgvar.errors import ValidationError
from tvpgvar.gvar import read_coefficients_json
from tvpgvar.irf import read_irf_csv, read_irf_json
from tvpgvar.forecast import read_mse_report
from tvpgvar.ingest import month_label
from tvpgvar.sample import write_sample_config
from tvpgvar.serialize import read_json, write_json


def write_mini_dataset(path, t_len=72, seed=99):
    """Two regions x (monthly CPI, quarterly GDP) + one activity."""
    rng = np.random.default_rng(seed)
    lines = ["date,region,variable,value"]
    start = 2000 * 12

    def ar_series(rho, base, scale):
        out = np.empty(t_len)
        out[0] = base
        for t in range(1, t_len):
            out[t] = base * (1 - rho) + rho * out[t - 1] + scale * rng.standard_normal()
        return out

    for region in ("AAA", "BBB"):
        cpi = ar_series(0.8, 2.0 if region == "AAA" else 1.5, 0.15)
        gdp = ar_series(0.7, 1.8, 0.3)
        for t in range(t_len):
            lines.append(f"{month_label(start + t)},{region},CPI,{float(cpi[t])!r}")
        for t in range(0, t_len, 3):
            lines.append(f"{month_label(start + t)},{region},GDP,{float(gdp[t])!r}")
    oil = ar_series(0.85, 5.0, 0.4)
    for t in range(t_len):
        lines.append(f"{month_label(start + t)},__COMMON__,OIL,{float(oil[t])!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def mini_config(tmp_path, **overrides):
    data_path = write_mini_dataset(tmp_path / "mini.csv")
    config = {
        "schema_version": 1,
        "data": {"path": str(data_path), "imputation": "linear-interpolate"},
        "panel": {"regions": ["AAA", "BBB"], "variables": ["CPI", "GDP"],
                  "activities": ["OIL"]},
        "weights": {"provider": "equal"},
        "tvp": {"iters": 25, "seed": 11},
        "irf": {"horizon": 4, "level": 0.95,
                "dates": ["2003-06", "2005-01"],
                "shocks": [["OIL"], ["AAA.CPI"], ["OIL", "AAA.CPI"]]},
        "forecast": {"horizon": 4, "methods": ["constant", "var1", "lasso"],
                     "lag_window": 3, "cv_folds": 3, "grid_size": 25},
        "output": {"dir": "out"},
    }
    config.update(overrides)
    config_path = tmp_path / "config.json"
    write_json(config, config_path)
    return config_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; individual tests inspect the artifacts."""
    tmp_path = tmp_path_factory.mktemp("mini")
    config_path = mini_config(tmp_path)
    for command in ("ingest", "estimate", "irf", "forecast"):
        assert main([command, "--config", str(config_path)]) == 0
    return tmp_path


class TestIngest:
    def test_panel_artifact(self, pipeline):
        panel = read_panel_csv(pipeline / "out" / "panel.csv")
        assert panel.width == 2 * 2 + 1
        assert panel.column_names() == ["AAA.CPI", "AAA.GDP", "BBB.CPI",
                                        "BBB.GDP", "OIL"]
        report = read_json(pipeline / "out" / "validation.json")
        assert report["ok"] is True
        assert report["width"] == 5

    def test_missing_file_exit_code(self, tmp_path, capsys):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        obj["data"]["path"] = "does-not-exist.csv"
        write_json(obj, config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "does-not-exist.csv" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config_path = mini_config(tmp_path, extra_section={"x": 1})
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err
        config_path = mini_config(tmp_path, tvp={"smooth_states": True})
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "unknown config keys in tvp: ['smooth_states']" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [2, 0, "1", None, True, 1.0])
    def test_unsupported_schema_version_rejected(self, tmp_path, capsys, version):
        config_path = mini_config(tmp_path, schema_version=version)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"unsupported schema_version {version!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("tvp", "iters", "abc"),
        ("irf", "horizon", None),
        ("irf", "level", "high"),
        ("forecast", "cv_folds", "x"),
        ("weights", "window", "w"),
        ("forecast", "external", ["a"]),
        ("forecast", "external", {"plugin": 5}),
        ("tvp", "iters", 0),
        ("tvp", "seed", -1),
        ("tvp", "iters", 2.7),  # int() would run 2 iterations
        ("irf", "horizon", True),  # int() would give 1
        ("tvp", "iters", "3"),  # int() would parse the string
        ("irf", "level", "0.9"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, section, key, value):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        obj[section][key] = value
        write_json(obj, config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"{section}.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, key", [
        (("tvp",), 5, "tvp"),
        (("panel", "regions"), 5, "panel.regions"),
        (("panel", "regions"), "AAA", "panel.regions"),
        (("irf", "dates"), "2003-06", "irf.dates"),
        (("irf", "shocks"), "OIL", "irf.shocks"),
        (("irf", "shocks"), ["OIL"], "irf.shocks[0]"),
        (("forecast", "methods"), "lasso", "forecast.methods"),
        (("data", "path"), 5, "data.path"),
        (("weights", "path"), 5, "weights.path"),
        (("output", "dir"), 5, "output.dir"),
    ])
    def test_wrongly_typed_section_or_list_rejected(self, tmp_path, where, value, key):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        parent = obj
        for name in where[:-1]:
            parent = parent[name]
        parent[where[-1]] = value
        write_json(obj, config_path)
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        assert proc.returncode == 1
        assert f"{key} must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [
        # unchecked, forecast would end in: an empty-sequence argmin; a
        # np.geomspace traceback; NaN penalties that run the solver to its
        # sweep cap; an ascending grid, silently
        ("grid_size", 0), ("grid_floor", 0), ("grid_floor", -1.0), ("grid_floor", 2.0),
    ])
    def test_out_of_range_grid_setting_rejected(self, tmp_path, key, value):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        obj["forecast"][key] = value
        write_json(obj, config_path)
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        assert proc.returncode == 1
        assert f"forecast.{key} must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_any_wrongly_typed_key_raises_only_validation_error(self, tmp_path):
        # every key of the sample config, plus the two optional path keys,
        # set to each JSON type in turn: loading succeeds or fails cleanly
        config_path = write_sample_config(tmp_path, iters=20)
        sample = read_json(config_path)
        sample["weights"]["path"] = "weights.csv"
        sample["forecast"]["external"] = {}
        keys = [(section,) for section in sample]
        keys += [(section, key) for section, body in sample.items()
                 if isinstance(body, dict) for key in body]
        unexpected = []
        for where in keys:
            for value in (5, 2.5, "x", [], ["a"], {}, None, True):
                obj = read_json(config_path)
                parent = obj
                for name in where[:-1]:
                    parent = parent[name]
                parent[where[-1]] = value
                bad_path = tmp_path / "swept.json"
                write_json(obj, bad_path)
                try:
                    load_config(bad_path)
                except ValidationError:
                    pass
                except Exception as exc:
                    unexpected.append((".".join(where), value, type(exc).__name__))
        assert len(keys) == 27
        assert unexpected == []

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        first = (pipeline / "out" / "panel.csv").read_bytes()
        config_path = pipeline / "config.json"
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert (pipeline / "out" / "panel.csv").read_bytes() == first


class TestEstimate:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline / "out" / "coefficients.json").exists()
        assert (pipeline / "out" / "trajectories.csv").exists()
        assert (pipeline / "out" / "trajectories_meta.json").exists()

    def test_trajectory_row_count(self, pipeline):
        panel = read_panel_csv(pipeline / "out" / "panel.csv")
        lines = (pipeline / "out" / "trajectories.csv").read_text().strip().splitlines()
        # one row per column per month after the initial lag
        assert len(lines) - 1 == panel.width * (len(panel.time_index) - 1)

    def test_seeded_rerun_identical(self, pipeline):
        first = (pipeline / "out" / "trajectories.csv").read_bytes()
        config_path = pipeline / "config.json"
        assert main(["estimate", "--config", str(config_path)]) == 0
        assert (pipeline / "out" / "trajectories.csv").read_bytes() == first

    def test_seed_override_changes_output(self, pipeline):
        config_path = pipeline / "config.json"
        first = (pipeline / "out" / "trajectories.csv").read_bytes()
        out_dir = str(pipeline / "out_seeded")
        assert main(["ingest", "--config", str(config_path), "--out", out_dir]) == 0
        assert main(["estimate", "--config", str(config_path), "--seed", "12",
                     "--out", out_dir]) == 0
        assert (pipeline / "out_seeded" / "trajectories.csv").read_bytes() != first

    def test_requires_ingest_artifact(self, tmp_path, capsys):
        config_path = mini_config(tmp_path)
        assert main(["estimate", "--config", str(config_path)]) == 1
        assert "run 'ingest' first" in capsys.readouterr().err

    def test_negative_seed_override_rejected(self, tmp_path):
        # numpy's default_rng rejects a negative seed with a bare ValueError
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        proc = run_python("-m", "tvpgvar.cli", "estimate", "--config", str(config_path),
                          "--seed", "-1")
        assert proc.returncode == 1
        assert "tvp.seed must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestIRF:
    def test_file_count(self, pipeline):
        files = sorted((pipeline / "out").glob("irf_*.json"))
        assert len(files) == 2 * 3  # dates x shocks

    def test_multi_target_equals_sum_of_singles(self, pipeline):
        oil, _ = read_irf_json(pipeline / "out" / "irf_2003-06__OIL.json")
        cpi, _ = read_irf_json(pipeline / "out" / "irf_2003-06__AAA.CPI.json")
        both, _ = read_irf_json(pipeline / "out" / "irf_2003-06__OIL+AAA.CPI.json")
        np.testing.assert_allclose(both.point, oil.point + cpi.point, atol=1e-12)

    def test_level_recorded(self, pipeline):
        result, columns = read_irf_json(pipeline / "out" / "irf_2005-01__OIL.json")
        assert result.level == 0.95
        assert columns == ["AAA.CPI", "AAA.GDP", "BBB.CPI", "BBB.GDP", "OIL"]
        assert result.point.shape == (5, 5)  # horizons 0..4 x width

    def test_csv_matches_json(self, pipeline):
        result, columns = read_irf_json(pipeline / "out" / "irf_2005-01__OIL.json")
        table = read_irf_csv(pipeline / "out" / "irf_2005-01__OIL.csv")
        for j, name in enumerate(columns):
            np.testing.assert_array_equal(table[name][:, 0], result.point[:, j])
            np.testing.assert_array_equal(table[name][:, 1], result.lower[:, j])

    def test_date_outside_sample(self, pipeline, capsys):
        config_path = pipeline / "config.json"
        obj = read_json(config_path)
        obj["irf"]["dates"] = ["1980-01"]
        bad_path = config_path.parent / "bad_irf.json"
        write_json(obj, bad_path)
        assert main(["irf", "--config", str(bad_path)]) == 1
        assert "1980-01" in capsys.readouterr().err

    def test_first_panel_month_rejected(self, pipeline, capsys):
        # the first month has no lagged month to stack G1 from
        config_path = pipeline / "config.json"
        obj = read_json(config_path)
        obj["irf"]["dates"] = ["2003-06", "2000-01"]
        bad_path = config_path.parent / "first_month_irf.json"
        write_json(obj, bad_path)
        assert main(["irf", "--config", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert "2000-01" in err and "first usable month is 2000-02" in err
        assert "Traceback" not in err

    def test_ill_conditioned_period_skipped(self, pipeline, capsys, monkeypatch):
        import tvpgvar.gvar
        from tvpgvar.errors import NumericalError as NumErr

        real = tvpgvar.gvar.stack_system
        first_t = None

        def flaky(fit, weights, t, **kwargs):
            nonlocal first_t
            if first_t is None:
                first_t = t
            if t == first_t:
                raise NumErr("G0 condition number above cap (synthetic)")
            return real(fit, weights, t, **kwargs)

        monkeypatch.setattr(tvpgvar.gvar, "stack_system", flaky)
        out_dir = pipeline / "out_skip"
        config_path = pipeline / "config.json"
        assert main(["ingest", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert main(["estimate", "--config", str(config_path), "--out", str(out_dir)]) == 0
        first_t = None  # only IRF stacking should trip the failure
        assert main(["irf", "--config", str(config_path), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping 2003-06" in captured.err
        assert len(sorted(out_dir.glob("irf_*.json"))) == 3  # one date survived
        stacking = read_json(out_dir / "stacking.json")["periods"]
        assert [(p["label"], p["status"]) for p in stacking] == [
            ("2003-06", "skipped"), ("2005-01", "ok")]
        assert stacking[0]["period"] == 41
        assert "condition number above cap (synthetic)" in stacking[0]["reason"]
        assert stacking[1]["reason"] is None
        first = (out_dir / "stacking.json").read_bytes()
        first_t = None
        assert main(["irf", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "stacking.json").read_bytes() == first


class TestForecast:
    def test_mse_report_shape(self, pipeline):
        table = read_mse_report(pipeline / "out" / "mse_report.csv")
        assert set(table) == {"constant", "var1", "lasso"}
        for method, per_series in table.items():
            assert set(per_series) == {"AAA.CPI", "AAA.GDP", "BBB.CPI",
                                       "BBB.GDP", "OIL", "ALL"}

    def test_selected_model_printed(self, pipeline, capsys):
        config_path = pipeline / "config.json"
        assert main(["forecast", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "selected model:" in out
        table = read_mse_report(pipeline / "out" / "mse_report.csv")
        best = min(table, key=lambda m: table[m]["ALL"])
        assert f"selected model: {best}" in out

    def test_horizon_rows(self, pipeline):
        lines = (pipeline / "out" / "forecast_variables.csv").read_text().strip().splitlines()
        # methods x horizon x columns
        assert len(lines) - 1 == 3 * 4 * 5

    def test_future_dates_continue_panel(self, pipeline):
        panel = read_panel_csv(pipeline / "out" / "panel.csv")
        lines = (pipeline / "out" / "forecast_variables.csv").read_text().strip().splitlines()
        first = lines[1].split(",")
        # training window ends 4 months before the panel end
        assert first[1] == panel.time_index[-4]

    def test_train_trajectories_written(self, pipeline):
        assert (pipeline / "out" / "trajectories_train.csv").exists()

    def test_train_trajectories_record_their_seed(self, tmp_path):
        # the sidecar names the seed and iterations behind mse_report.csv
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["forecast", "--config", str(config_path), "--seed", "9"]) == 0
        meta = read_json(tmp_path / "out" / "trajectories_train_meta.json")
        assert meta["seed"] == 9
        assert meta["iters"] == 25
        assert meta["errors"] == {}
        assert list(meta["columns"]) == ["AAA.CPI", "AAA.GDP", "BBB.CPI", "BBB.GDP", "OIL"]
        assert set(meta["columns"]["OIL"]) == {"theta0", "sqrt_omega", "sigma2"}


    def test_short_panel_names_var1_need(self, tmp_path, capsys):
        # 19 training months of 5 columns: the 10-dim parameter VAR(1) needs
        # 20 path rows, so 21 training months; the stage stops before sampling
        config_path = mini_config(tmp_path)
        write_mini_dataset(tmp_path / "mini.csv", t_len=25)
        obj = read_json(config_path)
        obj["forecast"].update(horizon=6, methods=["constant", "var1"])
        write_json(obj, config_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["forecast", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "19 training months, and var1 needs at least 21" in err
        assert not (tmp_path / "out" / "trajectories_train.csv").exists()

    @pytest.mark.parametrize("methods, external, message", [
        ([], {}, "forecast.methods must list at least one method"),
        (["constant", "constant"], {}, "duplicate names in forecast.methods"),
        (["constant"], {"constant": "paths.csv"},
         "forecast.external may not reuse a built-in method name: ['constant']"),
    ])
    def test_bad_method_list_rejected_at_load(self, tmp_path, capsys, methods, external,
                                              message):
        # the stage ends before it samples: no training trajectories
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        (tmp_path / "paths.csv").write_text("date,column,b,f1\n")
        obj = read_json(config_path)
        obj["forecast"].update(methods=methods, external=external)
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectories_train.csv").exists()

    def test_failed_method_reported(self, tmp_path, capsys):
        # the external path file lacks OIL: only the stage's own run can tell,
        # so the method fails for that column while the rest still score
        from tvpgvar.serialize import write_csv

        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        ext_path = tmp_path / "external_paths.csv"
        write_csv(ext_path, ["date", "column", "b", "f1"],
                  [[date, name, 0.0, 1.0] for date in panel.time_index[-4:]
                   for name in panel.column_names() if name != "OIL"])
        obj = read_json(config_path)
        obj["forecast"].update(methods=["constant", "partial"],
                               external={"partial": str(ext_path)})
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 0
        err = capsys.readouterr().err
        assert ("warning: partial failed for OIL: "
                "external path file has no rows for this column") in err
        assert "warning: constant" not in err
        table = read_mse_report(tmp_path / "out" / "mse_report.csv")
        assert set(table) == {"constant", "partial"}
        assert set(table["partial"]) == {"AAA.CPI", "AAA.GDP", "BBB.CPI", "BBB.GDP", "ALL"}

    def test_lasso_stall_fails_only_its_series(self, tmp_path, capsys, monkeypatch):
        # one stalled fold path drops AAA.GDP's lasso rows alone, and the
        # warning names the column and the series
        import tvpgvar.forecast as forecast_module

        config_path = mini_config(tmp_path)
        clean_out = ["--out", str(tmp_path / "clean")]
        for argv in ([], clean_out):
            assert main(["ingest", "--config", str(config_path), *argv]) == 0
        assert main(["forecast", "--config", str(config_path), *clean_out]) == 0
        lasso_path = forecast_module._lasso_path
        batches = []

        def stalling(problems, lams):
            betas, failed = lasso_path(problems, lams)
            if not batches:  # the CV batch, fold-major over the 10 series b_0, f_0, ...
                failed[10 + 3] = "lasso path took more than 27 events between two grid penalties"
            batches.append(problems)
            return betas, failed

        monkeypatch.setattr(forecast_module, "_lasso_path", stalling)
        capsys.readouterr()
        assert main(["forecast", "--config", str(config_path)]) == 0
        err = capsys.readouterr().err
        assert ("warning: lasso failed for AAA.GDP: f1 series of AAA.GDP: "
                "lasso path took more than 27 events between two grid penalties") in err
        assert err.count("warning:") == 1
        rows = (tmp_path / "out" / "forecast_params.csv").read_text().splitlines()
        clean = (tmp_path / "clean" / "forecast_params.csv").read_text().splitlines()
        assert rows == [row for row in clean if not row.startswith("lasso,")
                        or ",AAA.GDP," not in row]
        assert len(clean) - len(rows) == 4  # the horizon's lasso rows of AAA.GDP

    @pytest.mark.parametrize("text, message", [
        (None, "file not found or unreadable"),
        ("date,column,b,f1\n2005-09,OIL,0.0,abc\n", "row 2: non-numeric value 'abc'"),
    ], ids=["missing", "bad-cell"])
    def test_external_file_checked_before_sampler(self, tmp_path, capsys, text, message):
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        ext_path = tmp_path / "external_paths.csv"
        if text is not None:
            ext_path.write_text(text)
        obj = read_json(config_path)
        obj["forecast"].update(methods=["constant", "plugin"],
                               external={"plugin": str(ext_path)})
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        assert f"{ext_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectories_train.csv").exists()


class TestExternalForecaster:
    def test_plugin_paths_flow_through(self, tmp_path, capsys):
        from tvpgvar.serialize import write_csv

        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        h = 4
        future = panel.time_index[-h:]  # held-out months of the training split
        rows = []
        for date_idx, date in enumerate(future):
            for j, name in enumerate(panel.column_names()):
                # b = actual, f1 = 0: the recursion reproduces the actuals
                rows.append([date, name, panel.values[-h + date_idx, j], 0.0])
        ext_path = tmp_path / "external_paths.csv"
        write_csv(ext_path, ["date", "column", "b", "f1"], rows)

        obj = read_json(config_path)
        obj["forecast"]["methods"] = ["constant", "oracle"]
        obj["forecast"]["external"] = {"oracle": str(ext_path)}
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "selected model: oracle" in out
        table = read_mse_report(tmp_path / "out" / "mse_report.csv")
        assert table["oracle"]["ALL"] == pytest.approx(0.0, abs=1e-28)


class TestReport:
    def test_report_prints_summary(self, pipeline, capsys):
        config_path = pipeline / "config.json"
        assert main(["report", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "selected model:" in out
        assert "irf artifacts:" in out

    def test_report_without_forecast(self, tmp_path, capsys):
        config_path = mini_config(tmp_path)
        assert main(["report", "--config", str(config_path)]) == 1
        assert "run 'forecast' first" in capsys.readouterr().err


def test_irf_refits_under_its_own_weights(tmp_path):
    # coefficients.json records no weights: irf after an estimate under equal
    # weights must equal a run that fits and stacks under rolling-share
    equal_config = mini_config(tmp_path)
    obj = read_json(equal_config)
    obj["weights"] = {"provider": "rolling-share", "variable": "CPI", "window": 12}
    share_config = tmp_path / "share.json"
    write_json(obj, share_config)
    outputs = []
    for estimate_config, out_name in ((equal_config, "mixed"), (share_config, "own")):
        out_dir = tmp_path / out_name
        for command, config_path in (("ingest", share_config), ("estimate", estimate_config),
                                     ("irf", share_config)):
            assert main([command, "--config", str(config_path), "--out", str(out_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                        if p.name.startswith("irf_") or p.name == "stacking.json"})
    assert len(outputs[0]) == 2 * 3 * 2 + 1
    assert outputs[0] == outputs[1]


def test_full_pipeline_rerun_byte_identical(tmp_path):
    config_path = mini_config(tmp_path)
    digests = []
    for out_name in ("out_a", "out_b"):
        out_dir = tmp_path / out_name
        for command in ("ingest", "estimate", "irf", "forecast"):
            assert main([command, "--config", str(config_path),
                         "--out", str(out_dir)]) == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert digests[0].keys() == digests[1].keys()
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{name} differs between reruns"


def test_each_stage_prints_its_wall_time(tmp_path, capsys):
    # one timing line on stderr per stage; timings stay out of the output
    # directory, which the byte-identical rerun above pins
    config_path = mini_config(tmp_path)
    for command in ("ingest", "estimate", "irf", "forecast", "report"):
        assert main([command, "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        timings = [line for line in lines if line.startswith(f"{command}: ")]
        assert len(timings) == 1, (command, lines)
        assert re.fullmatch(rf"{command}: \d+\.\d\d s", timings[0])
        assert timings[0] in captured.err.splitlines()


def run_python(*args):
    """Run a fresh interpreter that imports this checkout of the package; a
    run that hangs fails the test after two minutes."""
    src_dir = str(Path(tvpgvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def last_cell(line, value):
    """A CSV line with its last cell replaced by ``value``."""
    return line.rsplit(",", 1)[0] + "," + value


class TestUndecodableInput:
    """A file that cannot be decoded, or a CSV row that cannot be parsed, ends
    the stage with exit code 1 and a message naming the file (and the row),
    not a traceback."""

    def assert_clean_failure(self, proc, bad_file):
        assert proc.returncode == 1
        assert str(bad_file) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_json_artifact(self, tmp_path):
        bad_file = tmp_path / "coefficients.json"
        bad_file.write_text('{"a": 1')
        with pytest.raises(ValidationError, match="invalid JSON") as caught:
            read_coefficients_json(bad_file)
        assert str(caught.value).startswith(f"{bad_file}: ")

    @pytest.mark.parametrize("stage, name, damage, message", [
        ("estimate", "panel.csv", lambda rows: rows[:2] + [last_cell(rows[2], "nan")] + rows[3:],
         "row 3: non-finite value 'nan'"),
        ("estimate", "panel.csv", lambda rows: rows[:2] + [last_cell(rows[2], "abc")] + rows[3:],
         "row 3: non-numeric value 'abc'"),
        ("estimate", "panel.csv", lambda lines: lines[:3] + lines[4:],
         "non-consecutive month at 2000-04"),
        # no stage reads coefficients.json (irf re-fits), so its reader is called directly
        (None, "coefficients.json", None, "file not found or unreadable"),
        (None, "coefficients.json",
         lambda lines: [line for line in lines if '"nobs"' not in line], "lacks nobs"),
        ("report", "mse_report.csv", lambda lines: lines[:1] + ["constant,ALL,abc"] + lines[2:],
         "row 2: non-numeric value 'abc'"),
    ], ids=["panel-nan", "panel-abc", "panel-gap", "no-coefficients", "no-nobs", "mse-abc"])
    def test_malformed_artifact(self, pipeline, tmp_path, stage, name, damage, message):
        # a copy of the pipeline's artifacts in which ``damage`` rewrote the
        # lines of file ``name`` (None deletes it)
        out = tmp_path / "out"
        shutil.copytree(pipeline / "out", out)
        bad_file = out / name
        if damage is None:
            bad_file.unlink()
        else:
            bad_file.write_text("\n".join(damage(bad_file.read_text().splitlines())) + "\n")
        if stage is None:
            with pytest.raises(ValidationError) as caught:
                read_coefficients_json(bad_file)
            error = str(caught.value)
        else:
            proc = run_python("-m", "tvpgvar.cli", stage, "--config",
                              str(pipeline / "config.json"), "--out", str(out))
            self.assert_clean_failure(proc, bad_file)
            error = proc.stderr
        assert f"{bad_file}: {message}" in error

    def test_non_utf8_data_file(self, tmp_path):
        config_path = mini_config(tmp_path)
        bad_file = tmp_path / "mini.csv"
        bad_file.write_bytes(bad_file.read_bytes() + b"2000-01,AAA,CPI,caf\xe9\n")
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)


    @pytest.mark.parametrize("bad_row, message", [
        ("2000-02,BBB,AAA,abc", "row 7: non-numeric value 'abc'"),
        ("2000-02,BBB,AAA", "row 7 has 3 cells, expected 4"),
        ("2000-02,BBB,AAA,nan", "row 7: non-finite value 'nan'"),
    ])
    def test_bad_weight_row(self, tmp_path, bad_row, message):
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        lines = ["date,from,to,weight"]
        for date in panel.time_index:
            lines += [f"{date},AAA,BBB,1.0", f"{date},BBB,AAA,1.0",
                      f"{date},AAA,__COMMON__:OIL,0.5", f"{date},BBB,__COMMON__:OIL,0.5"]
        lines[6] = bad_row
        bad_file = tmp_path / "weights.csv"
        bad_file.write_text("\n".join(lines) + "\n")
        obj = read_json(config_path)
        obj["weights"] = {"provider": "csv", "path": str(bad_file)}
        write_json(obj, config_path)
        proc = run_python("-m", "tvpgvar.cli", "estimate", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)
        assert f"{bad_file}: {message}" in proc.stderr

    @pytest.mark.parametrize("bad_cell, message", [
        ("abc", "row 3: non-numeric value 'abc'"),
        ("nan", "row 3: non-finite value 'nan'"),
        ("0.0,1.0", "row 3 has 5 cells, expected 4"),
    ])
    def test_bad_external_path_row(self, tmp_path, bad_cell, message):
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        lines = ["date,column,b,f1"] + [f"{date},{name},0.0,1.0"
                                        for date in panel.time_index[-4:]
                                        for name in panel.column_names()]
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + bad_cell
        bad_file = tmp_path / "external_paths.csv"
        bad_file.write_text("\n".join(lines) + "\n")
        obj = read_json(config_path)
        obj["forecast"].update(methods=["constant", "plugin"],
                               external={"plugin": str(bad_file)})
        write_json(obj, config_path)
        proc = run_python("-m", "tvpgvar.cli", "forecast", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)
        assert f"{bad_file}: {message}" in proc.stderr


# a fresh interpreter imports the package, runs the CLI stage argv[2] and
# prints the modules no stage may load: SciPy, and the numpy parts that
# SciPy's own import pulls in
STAGE_SCRIPT = """
import sys
import tvpgvar.cli
code = tvpgvar.cli.main([sys.argv[2], "--config", sys.argv[1]])
assert code == 0, code
print("loaded:", *sorted(m for m in sys.modules
                         if m.startswith(("scipy", "numpy.f2py", "numpy.testing"))))
"""


def run_stage_fresh(config_path, stage):
    """Run one stage in a fresh interpreter; return its stdout lines and the
    forbidden modules it held afterwards."""
    out = run_python("-c", STAGE_SCRIPT, str(config_path), stage)
    assert out.returncode == 0, (stage, out.stderr)
    lines = out.stdout.splitlines()
    assert lines[-1].startswith("loaded:"), (stage, out.stdout)
    return lines, lines[-1].split()[1:]


def test_ingest_and_report_start_without_scipy(tmp_path):
    # every CLI stage is its own process, and importing scipy.linalg costs
    # about 0.3 s and 19 MB: estimate and forecast load only SciPy's compiled
    # LAPACK extension, and irf runs on numpy alone
    config_path = write_sample_config(tmp_path, iters=20)
    for stage in ("ingest", "estimate", "forecast", "report"):
        lines, loaded = run_stage_fresh(config_path, stage)
        assert loaded == [], stage
    assert any("selected model:" in line for line in lines)


def test_irf_starts_without_scipy(tmp_path):
    # the bands' normal quantile and triangular solves run on numpy alone
    config_path = write_sample_config(tmp_path, iters=20)
    for stage in ("ingest", "estimate"):
        assert main([stage, "--config", str(config_path)]) == 0
    _, loaded = run_stage_fresh(config_path, "irf")
    assert loaded == []
    assert list((tmp_path / "out").glob("irf_*.json"))


# a fresh interpreter imports the package and, given a config and a stage,
# runs that CLI stage; it prints the package modules it then holds, and which
# of numpy, dataclasses and inspect
SCOPE_SCRIPT = """
import sys
import tvpgvar
if sys.argv[1:]:
    import tvpgvar.cli
    assert tvpgvar.cli.main([sys.argv[2], "--config", sys.argv[1]]) == 0, sys.argv[2]
print("loaded:", *sorted(m[len("tvpgvar."):] for m in sys.modules if m.startswith("tvpgvar.")),
      *(m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules))
"""


def loaded_after(*argv):
    proc = run_python("-c", SCOPE_SCRIPT, *argv)
    assert proc.returncode == 0, (argv, proc.stderr)
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded:"), (argv, proc.stdout)
    return set(last.split()[1:])


def test_each_stage_loads_only_the_modules_it_runs(tmp_path):
    # every CLI stage is its own process: what it imports is start-up it pays
    assert loaded_after() == set()
    config_path = mini_config(tmp_path)
    shared = {"cli", "config", "errors", "serialize"}
    runs = {"ingest": {"ingest"}, "estimate": {"ingest", "gvar", "tvp", "numpy"},
            "irf": {"ingest", "gvar", "irf", "numpy"},
            "forecast": {"ingest", "tvp", "forecast", "numpy"}, "report": set()}
    for stage, modules in runs.items():
        loaded = loaded_after(str(config_path), stage)
        if "numpy" in modules:  # numpy loads inspect, and its stages' modules keep @dataclass
            loaded -= {"dataclasses", "inspect"}
        assert loaded == shared | modules, stage


def test_irf_without_requests_fails_before_numpy(tmp_path):
    # no panel.csv either: the config is at fault, and is named before any fit
    config_path = mini_config(tmp_path, irf={"dates": []})
    script = ("import sys, tvpgvar.cli\n"
              "code = tvpgvar.cli.main(['irf', '--config', sys.argv[1]])\n"
              "print('numpy' in sys.modules)\n"
              "sys.exit(code)")
    proc = run_python("-c", script, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: config lists no IRF dates"
    assert proc.stdout.split() == ["False"]


def test_irf_unknown_shock_column_fails_before_numpy(tmp_path):
    # the shock names are checked against panel.csv's header, before any fit
    config_path = mini_config(tmp_path, irf={"dates": ["2003-06"], "shocks": [["NOPE"]]})
    assert main(["ingest", "--config", str(config_path)]) == 0
    script = ("import sys, tvpgvar.cli\n"
              "code = tvpgvar.cli.main(['irf', '--config', sys.argv[1]])\n"
              "print('numpy' in sys.modules)\n"
              "sys.exit(code)")
    proc = run_python("-c", script, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: unknown panel column 'NOPE'"
    assert proc.stdout.split() == ["False"]


def test_repeated_shock_target_fails_at_load(tmp_path):
    # the config is at fault: no panel.csv is read and numpy never loads
    config_path = mini_config(tmp_path, irf={"dates": ["2003-06"],
                                             "shocks": [["OIL"], ["OIL", "OIL"]]})
    script = ("import sys, tvpgvar.cli\n"
              "code = tvpgvar.cli.main(['irf', '--config', sys.argv[1]])\n"
              "print('numpy' in sys.modules)\n"
              "sys.exit(code)")
    proc = run_python("-c", script, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: duplicate columns in irf.shocks[1]: ['OIL', 'OIL']"
    assert proc.stdout.split() == ["False"]


def test_package_names_resolve_on_first_use():
    namespace = {}
    exec("from tvpgvar import *", namespace)
    assert len(tvpgvar.__all__) == 43
    assert set(tvpgvar.__all__) <= set(dir(tvpgvar))
    for name in tvpgvar.__all__:
        assert namespace[name] is getattr(tvpgvar, name)
        assert namespace[name].__module__.startswith("tvpgvar.")
    with pytest.raises(AttributeError, match="no_such_name"):
        tvpgvar.no_such_name
