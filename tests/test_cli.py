import csv
import errno
import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import tvpgvar
from tvpgvar import read_panel_csv
from tvpgvar.cli import cmd_estimate, main
from tvpgvar.config import WeightSettings, load_config
from tvpgvar.errors import ValidationError
from tvpgvar.gvar import read_coefficients_json
from tvpgvar.irf import read_irf_csv, read_irf_json
from tvpgvar.forecast import read_mse_report
from tvpgvar.ingest import month_label
from tvpgvar.sample import (IRF_DATES, QUARTERLY_VARIABLE, write_sample_config,
                            write_sample_csv)
from tvpgvar.serialize import read_json, write_json

from oracles import pooled_scores


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


def stall_lasso_on_aaa_gdp(monkeypatch):
    """Make the first lasso path batch, the CV folds, report a stall for
    AAA.GDP's f1 series in the second fold."""
    import tvpgvar.forecast as forecast_module

    lasso_path = forecast_module._lasso_path
    batches = []

    def stalling(problems, lams):
        betas, failed = lasso_path(problems, lams)
        if not batches:  # the CV batch, fold-major over the 10 series b_0, f_0, ...
            failed[10 + 3] = "lasso path took more than 27 events between two grid penalties"
        batches.append(problems)
        return betas, failed

    monkeypatch.setattr(forecast_module, "_lasso_path", stalling)


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

    def test_repeated_header_name_exit_code(self, tmp_path, capsys):
        config_path = mini_config(tmp_path)
        data_path = (tmp_path / "mini.csv").resolve()
        header, *rows = data_path.read_text().splitlines()
        lines = [header + ",value"] + [row + ",0.0" for row in rows]
        data_path.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {data_path}: repeated column 'value' in header ")
        assert not (tmp_path / "out" / "panel.csv").exists()

    @pytest.mark.parametrize("out, code", [("afile/sub", errno.ENOTDIR),
                                           ("afile", errno.EEXIST)],
                             ids=["parent-is-a-file", "dir-is-a-file"])
    def test_uncreatable_out_dir(self, tmp_path, capsys, out, code):
        # a regular file stands where the output directory or its parent goes
        config_path = mini_config(tmp_path)
        (tmp_path / "afile").write_text("")
        out_dir = (tmp_path / out).resolve()
        assert main(["ingest", "--config", str(config_path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out_dir}: cannot create output directory ({os.strerror(code)})\n")

    def test_unwritable_artifact_named(self, tmp_path, capsys):
        # a directory stands where panel.csv goes: the move onto it fails
        config_path = mini_config(tmp_path)
        out_dir = (tmp_path / "out").resolve()
        (out_dir / "panel.csv").mkdir(parents=True)
        assert main(["ingest", "--config", str(config_path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out_dir}/panel.csv: cannot write (Is a directory)\n")
        assert not list(out_dir.glob(".panel.csv.*.tmp"))
        assert not (out_dir / "validation.json").exists()

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
        ("weights", "window", 0),  # gvar would reject these two only after numpy loads
        ("weights", "variable", 5),
        ("forecast", "horizon", 0),
        ("forecast", "lag_window", 0),
        ("irf", "horizon", -1),
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

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: [obj], "config must be a JSON object"),
        (lambda obj: obj["data"].update(transform="sqrt"), "unknown transform 'sqrt'"),
        (lambda obj: obj["panel"].update(regions=["AAA", "BBB", "AAA"]),
         "duplicate codes in panel.regions"),
        (lambda obj: obj.update(weights={"provider": "rolling-share"}),
         "rolling-share weights need a 'variable'"),
        (lambda obj: obj.update(weights={"provider": "csv"}), "csv weights need a 'path'"),
        (lambda obj: obj["irf"].update(shocks=[["OIL"], []]),
         "each IRF shock needs at least one target column"),
    ], ids=["array", "transform", "repeated-region", "rolling-share-variable",
            "csv-path", "empty-shock"])
    def test_inconsistent_config_rejected(self, tmp_path, edit, message):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        write_json(edit(obj) or obj, config_path)  # an edit in place returns None
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

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
        # every key of the sample config, plus the optional keys it omits,
        # set to each JSON type in turn: loading succeeds or fails cleanly
        config_path = write_sample_config(tmp_path, iters=20)
        sample = read_json(config_path)
        sample["data"]["transform"] = "none"
        sample["weights"].update(variable="HUR", window=24, path="weights.csv")
        sample["forecast"].update(external={}, grid_size=50, grid_floor=1e-4)
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
        assert len(keys) == 32
        assert unexpected == []

    @pytest.mark.parametrize("section, key, value, record, message", [
        ("weights", "provider", "rolling_share", "weights",
         "unknown weight provider 'rolling_share'"),
        ("weights", "provider", "rolling-share", "weights",
         "rolling-share weights need a 'variable'"),
        ("weights", "provider", "csv", "weights", "csv weights need a 'path'"),
        ("irf", "horizon", -1, "irf", "irf.horizon must be >= 0"),
        ("irf", "level", 1.5, "irf", "irf.level must be in (0, 1)"),
        ("irf", "level", 0.9999999999999999, "irf",
         "irf.level 0.9999999999999999 is too close to 1: the band multiplier at "
         "0.5 + level/2 = 1.0 is infinite"),
        ("irf", "dates", ["2003-06", "2003-06"], "irf",
         "irf.dates[1] repeats irf.dates[0]: '2003-06'"),
        ("irf", "shocks", [["OIL", "OIL"]], "irf",
         "duplicate columns in irf.shocks[0]: ['OIL', 'OIL']"),
        ("irf", "shocks", [["OIL", "AAA.CPI"], ["AAA.CPI", "OIL"]], "irf",
         "irf.shocks[1] repeats the columns of irf.shocks[0]: ['AAA.CPI', 'OIL']"),
        ("data", "imputation", "spline", None, "unknown imputation 'spline'"),
        ("data", "transform", "sqrt", None, "unknown transform 'sqrt'"),
        ("panel", "regions", ["AAA", "BBB", "AAA"], None, "duplicate codes in panel.regions"),
        # the panel's code rule, config.code_issues: at load, not at ingest
        ("panel", "regions", ["USA", "E.U"], None,
         "invalid code 'E.U' in panel.regions: use letters, digits, '_' or '-' only"),
        ("panel", "regions", [" USA"], None,
         "invalid code ' USA' in panel.regions: use letters, digits, '_' or '-' only"),
        ("panel", "regions", ["__COMMON__"], None,
         "panel.regions may not list '__COMMON__', the region of the common series"),
        ("panel", "regions", [], None, "panel.regions is empty: a panel needs a country column"),
        ("panel", "variables", [], None,
         "panel.variables is empty: a panel needs a country column"),
        ("forecast", "methods", [], None, "forecast.methods must list at least one method"),
        # each record checks its fields' JSON types too
        ("tvp", "iters", 2.5, "tvp", "tvp.iters must be an integer, got 2.5"),
        ("tvp", "seed", True, "tvp", "tvp.seed must be an integer, got True"),
        ("forecast", "horizon", 2.5, "methods", "forecast.horizon must be an integer, got 2.5"),
        ("irf", "dates", ["2020-01", ["x"]], "irf",
         "irf.dates must be a list of strings, got ['2020-01', ['x']]"),
        ("irf", "horizon", "6", "irf", "irf.horizon must be an integer, got '6'"),
        ("weights", "window", None, "weights", "weights.window must be an integer, got None"),
        ("panel", "regions", [["A"]], None, "panel.regions must be a list of strings, got [['A']]"),
    ], ids=["provider-typo", "rolling-share-variable", "csv-path", "horizon", "level",
            "level-next-to-1", "repeated-date", "repeated-column", "reordered-shock",
            "imputation", "transform", "repeated-region", "dotted-region", "spaced-region",
            "common-region", "no-regions", "no-variables", "no-methods", "fractional-iters",
            "boolean-seed", "fractional-forecast-horizon", "nested-date", "string-horizon",
            "null-window", "nested-region"])
    def test_each_record_checks_its_fields_as_load_config_does(
            self, tmp_path, section, key, value, record, message):
        config_path = mini_config(tmp_path)
        config = load_config(config_path)
        obj = read_json(config_path)
        obj[section][key] = value
        write_json(obj, config_path)
        exact = "^" + re.escape(message) + "$"
        with pytest.raises(ValidationError, match=exact):
            load_config(config_path)
        # a record built or changed outside load_config meets the same check;
        # the field has the key's name, and RunConfig holds no methods as {}.
        # The forecast keys are fields of each method's settings: take the first
        valid = config if record is None else getattr(config, record)
        if isinstance(valid, dict):
            valid = next(iter(valid.values()))
        changes = {key: {} if key == "methods" else value}
        with pytest.raises(ValidationError, match=exact):
            type(valid)(**{**vars(valid), **changes})
        with pytest.raises(ValidationError, match=exact):
            valid.replace(**changes)

    def test_provider_typo_fails_before_the_stage_runs(self, pipeline):
        # once built, estimate would fall through to the csv provider and
        # end in a TypeError on its missing path
        config = load_config(pipeline / "config.json")
        with pytest.raises(ValidationError, match="^unknown weight provider 'rolling_share'$"):
            cmd_estimate(config.replace(
                weights=WeightSettings(provider="rolling_share", variable="HUR")))

    def test_methods_with_different_horizons_refused(self, tmp_path):
        # forecast holds out one horizon for every method: a config file has
        # one forecast.horizon, and a record changed in code may not hold two
        config = load_config(mini_config(tmp_path))
        var1 = config.methods["var1"].replace(horizon=3)
        with pytest.raises(ValidationError, match="^forecast.methods must share one horizon, "
                                                  "got constant 4, var1 3, lasso 4$"):
            config.replace(methods={**config.methods, "var1": var1})

    def test_null_code_lists_load_unset(self, tmp_path):
        config = load_config(mini_config(tmp_path, panel={
            "regions": None, "variables": None, "activities": None}))
        assert (config.regions, config.variables, config.activities) == (None, None, None)
        # the other lists are never unset
        for section, key in [("irf", "dates"), ("forecast", "methods")]:
            config_path = mini_config(tmp_path)
            obj = read_json(config_path)
            obj[section][key] = None
            write_json(obj, config_path)
            with pytest.raises(ValidationError,
                               match=f"^{section}.{key} must be a list of strings, got None$"):
                load_config(config_path)

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

    def test_failed_column_exits_2(self, tmp_path, capsys, monkeypatch):
        # the sampler fails the last column, OIL: the others are written
        import tvpgvar.tvp as tvp_module

        sample_stack = tvp_module._sample_stack

        def failing_last(y, iters, seeds):
            stack, failed = sample_stack(y, iters, seeds)
            for array in stack:
                array[-1] = np.nan
            return stack, {**failed, len(seeds) - 1: "iteration 0: forced failure"}
        monkeypatch.setattr(tvp_module, "_sample_stack", failing_last)
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "warning: OIL: iteration 0: forced failure\n"
            "numerical failure: estimation failed for columns: OIL\n")
        meta = read_json(tmp_path / "out" / "trajectories_meta.json")
        assert meta["errors"] == {"OIL": "iteration 0: forced failure"}
        assert "OIL" not in meta["columns"]
        rows = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()[1:]
        assert rows and not [row for row in rows if row.split(",")[1] == "OIL"]

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

    def test_configured_level_scales_only_the_half_widths(self, pipeline):
        # irf.level reaches the band multiplier: at 0.9 the responses keep
        # their bytes and every half-width scales by ndtri(0.95) / ndtri(0.975)
        obj = read_json(pipeline / "config.json")
        obj["irf"]["level"] = 0.9
        write_json(obj, pipeline / "level90.json")
        out_dir = pipeline / "out_level90"
        shutil.copytree(pipeline / "out", out_dir)
        assert main(["irf", "--config", str(pipeline / "level90.json"),
                     "--out", str(out_dir)]) == 0
        files = sorted(path.name for path in (pipeline / "out").glob("irf_*.json"))
        assert len(files) == 6
        for name in files:
            at95, at90 = read_json(pipeline / "out" / name), read_json(out_dir / name)
            assert (at95["level"], at90["level"]) == (0.95, 0.9)
            assert at90["responses"] == at95["responses"]
            np.testing.assert_allclose(np.array(at90["half_width"]),
                                       np.array(at95["half_width"]) * ndtri(0.95) / ndtri(0.975),
                                       rtol=1e-13, atol=0)

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

    def test_malformed_date_named(self, pipeline, capsys):
        # a month without its leading zero is malformed, not out of range
        obj = read_json(pipeline / "config.json")
        obj["irf"]["dates"] = ["2003-6"]
        bad_path = pipeline / "malformed_irf.json"
        write_json(obj, bad_path)
        assert main(["irf", "--config", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: malformed date '2003-6', expected YYYY-MM"

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

    def test_every_period_skipped_exits_2(self, pipeline, capsys, monkeypatch):
        import tvpgvar.gvar
        from tvpgvar.errors import NumericalError as NumErr

        def failing(fit, weights, t, **kwargs):
            raise NumErr("G0 condition number above cap (synthetic)")

        monkeypatch.setattr(tvpgvar.gvar, "stack_system", failing)
        out_dir = pipeline / "out_all_skipped"
        config_path = pipeline / "config.json"
        assert main(["ingest", "--config", str(config_path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["irf", "--config", str(config_path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numerical failure: all requested periods were skipped: ['2003-06', '2005-01']")
        stacking = read_json(out_dir / "stacking.json")["periods"]
        assert [p["status"] for p in stacking] == ["skipped", "skipped"]
        assert not list(out_dir.glob("irf_*"))


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
        (["constant"], {"plugin": "paths.csv"},
         "forecast.external names methods that forecast.methods does not list: ['plugin']"),
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

    @pytest.mark.parametrize("name", ["mine,x", "mine\nx", "mine\rx", "mine\x0bx",
                                      "mine\x1cx", "mine\u2028x", "mine\r"], ids=ascii)
    def test_external_name_must_be_a_csv_cell(self, tmp_path, capsys, name):
        # the name is a cell of mse_report.csv, which report reads back
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        obj = read_json(config_path)
        obj["forecast"].update(methods=["constant", name], external={name: "paths.csv"})
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        assert ("error: forecast.external method names may not contain commas or line "
                f"breaks: {[name]}") in capsys.readouterr().err
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
        config_path = mini_config(tmp_path)
        clean_out = ["--out", str(tmp_path / "clean")]
        for argv in ([], clean_out):
            assert main(["ingest", "--config", str(config_path), *argv]) == 0
        assert main(["forecast", "--config", str(config_path), *clean_out]) == 0
        stall_lasso_on_aaa_gdp(monkeypatch)
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

    def test_all_rows_pool_the_series_every_method_scored(self, tmp_path, capsys,
                                                          monkeypatch):
        # lasso loses AAA.GDP: constant and var1 keep its per-series rows, but
        # every ALL row averages the four series all three methods scored,
        # each MSE over the variance of its column in the training window
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        stall_lasso_on_aaa_gdp(monkeypatch)
        assert main(["forecast", "--config", str(config_path)]) == 0
        table = read_mse_report(tmp_path / "out" / "mse_report.csv")
        shared = ["AAA.CPI", "BBB.CPI", "BBB.GDP", "OIL"]
        assert "AAA.GDP" in table["constant"] and "AAA.GDP" in table["var1"]
        assert set(table["lasso"]) == {*shared, "ALL"}
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        train = panel.values[:-4]  # the mini config holds out 4 months
        sd = {name: np.std(train[:, i]) for i, name in enumerate(panel.column_names())}
        for method, per_series in table.items():
            assert per_series["ALL"] == np.mean(
                [per_series[name] / sd[name] ** 2 for name in shared]), method
        forecast_choice = capsys.readouterr().out.splitlines()[-1]
        assert forecast_choice.startswith("selected model: ")
        assert main(["report", "--config", str(config_path)]) == 0
        assert forecast_choice in capsys.readouterr().out.splitlines()

    def test_failed_training_column_exits_2(self, tmp_path, capsys, monkeypatch):
        # OIL's path draw fails, while the other columns fit; the stage
        # writes the training trajectories and scores nothing
        import tvpgvar.tvp as tvp_module

        config_path = write_sample_config(tmp_path, iters=20)
        assert main(["ingest", "--config", str(config_path)]) == 0
        oil = read_panel_csv(tmp_path / "out" / "panel.csv").column_names().index("OIL")
        draw = tvp_module.sample_theta_tilde_banded
        calls = itertools.count()

        def failing(y, theta0, sqrt_omega, sigma2, normals):
            tilde, failed = draw(y, theta0, sqrt_omega, sigma2, normals)
            if next(calls) == 0:  # the first iteration, on the whole panel
                failed[oil] = "state precision not positive definite (dpbtrf info 5)"
            return tilde, failed

        monkeypatch.setattr(tvp_module, "sample_theta_tilde_banded", failing)
        capsys.readouterr()
        assert main(["forecast", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "warning: OIL: iteration 0: state precision not positive definite (dpbtrf info 5)\n"
            "numerical failure: trajectory estimation failed for columns: OIL\n")
        meta = read_json(tmp_path / "out" / "trajectories_train_meta.json")
        assert list(meta["errors"]) == ["OIL"] and len(meta["columns"]) == 9
        assert not (tmp_path / "out" / "mse_report.csv").exists()

    def test_all_zero_column_exits_2(self, tmp_path, capsys):
        # every OIL value 0: the lag of OIL's equation is zero, its slope and
        # slope scale unidentified, and its coefficient posterior has no
        # Cholesky factor. The column fails by name; nothing is scored
        config_path = write_sample_config(tmp_path, iters=20)
        data = tmp_path / "sample_panel.csv"
        data.write_text(re.sub(r"(,__COMMON__,OIL,).*", r"\g<1>0", data.read_text()))
        assert main(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["forecast", "--config", str(config_path)]) == 2
        reason = "iteration 0: rank-deficient design in coefficient posterior"
        assert capsys.readouterr().err == (
            f"warning: OIL: {reason}\n"
            "numerical failure: trajectory estimation failed for columns: OIL\n")
        meta = read_json(tmp_path / "out" / "trajectories_train_meta.json")
        assert meta["errors"] == {"OIL": reason}
        assert not (tmp_path / "out" / "mse_report.csv").exists()

    def test_methods_sharing_no_scored_series_exit_2(self, tmp_path, capsys):
        config_path = disjoint_forecasters_config(tmp_path)
        capsys.readouterr()
        assert main(["forecast", "--config", str(config_path)]) == 2
        assert ("numerical failure: the forecasters oil, rest share no scored series"
                in capsys.readouterr().err)
        table = read_mse_report(tmp_path / "out" / "mse_report.csv")
        assert set(table["oil"]) == {"OIL"} and "ALL" not in table["rest"]

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


def disjoint_forecasters_config(tmp_path):
    """An ingested mini config whose two external forecasters, ``oil`` and
    ``rest``, each score but over no common series: one file covers OIL alone
    and the other every column but OIL, so ``forecast`` exits 2."""
    from tvpgvar.serialize import write_csv

    config_path = mini_config(tmp_path)
    assert main(["ingest", "--config", str(config_path)]) == 0
    panel = read_panel_csv(tmp_path / "out" / "panel.csv")
    files = {}
    for method, keep in (("oil", lambda name: name == "OIL"),
                         ("rest", lambda name: name != "OIL")):
        files[method] = str(tmp_path / f"{method}.csv")
        write_csv(files[method], ["date", "column", "b", "f1"],
                  [[date, name, 0.0, 1.0] for date in panel.time_index[-4:]
                   for name in panel.column_names() if keep(name)])
    obj = read_json(config_path)
    obj["forecast"].update(methods=["oil", "rest"], external=files)
    write_json(obj, config_path)
    return config_path


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


    def test_path_file_covering_no_column_exits_2(self, tmp_path, capsys):
        from tvpgvar.serialize import write_csv

        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()
        ext_path = tmp_path / "elsewhere.csv"
        write_csv(ext_path, ["date", "column", "b", "f1"], [["2030-01", "NOPE", 0.0, 0.0]])
        obj = read_json(config_path)
        obj["forecast"]["methods"] = ["ext"]
        obj["forecast"]["external"] = {"ext": str(ext_path)}
        obj["tvp"]["iters"] = 3
        write_json(obj, config_path)
        assert main(["forecast", "--config", str(config_path)]) == 2
        # one warning line for the one reason, then the stage's own failure
        assert capsys.readouterr().err.splitlines() == [
            "warning: ext failed for AAA.CPI, AAA.GDP, BBB.CPI, BBB.GDP, OIL: "
            "external path file has no rows for this column",
            "numerical failure: no forecaster produced a scoreable path"]

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


def test_sample_chain_with_gdp_in_other_units(tmp_path):
    # every GDP value a million times larger: the conditioning cap and the
    # Cholesky test are unit-free, so every requested period still stacks
    data_path = write_sample_csv(tmp_path / "sample_panel.csv")
    header, *rows = data_path.read_text().splitlines()
    lines = [header]
    for row in rows:
        date, region, variable, value = row.split(",")
        if variable == QUARTERLY_VARIABLE:
            value = repr(float(value) * 1e6)
        lines.append(",".join([date, region, variable, value]))
    data_path.write_text("\n".join(lines) + "\n")
    config_path = write_sample_config(tmp_path, data_path=data_path, iters=50)
    for command in ("ingest", "estimate", "irf"):
        assert main([command, "--config", str(config_path)]) == 0
    stacking = read_json(tmp_path / "out" / "stacking.json")["periods"]
    assert [(p["label"], p["status"]) for p in stacking] == [(d, "ok") for d in IRF_DATES]


def run_sample_chain(run_dir, stages, variable=None, factor=1.0):
    """The sample chain at 5 iterations with ``variable`` times ``factor`` in
    the data CSV; returns the output directory."""
    data_path = write_sample_csv(Path(run_dir) / "sample_panel.csv")
    header, *rows = data_path.read_text().splitlines()
    lines = [header]
    for row in rows:
        date, region, name, value = row.split(",")
        if name == variable:
            value = repr(float(value) * factor)
        lines.append(",".join([date, region, name, value]))
    data_path.write_text("\n".join(lines) + "\n")
    config_path = write_sample_config(run_dir, data_path=data_path, iters=5)
    for command in stages:
        assert main([command, "--config", str(config_path)]) == 0
    return Path(run_dir) / "out"


@pytest.fixture(scope="module")
def sample_chain(tmp_path_factory):
    return run_sample_chain(tmp_path_factory.mktemp("units"), ("ingest", "irf", "forecast"))


def csv_groups(path, keys, fields):
    """An artifact CSV as {key cells: (rows, fields) float array}."""
    groups = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            groups.setdefault(tuple(row[k] for k in keys), []).append(
                [float(row[f]) for f in fields])
    return {key: np.array(values) for key, values in groups.items()}


def assert_scaled(ours, base, factor):
    """``ours`` equals ``base`` times ``factor`` (broadcast over its fields),
    within 1e-8 of each field's largest value: the paths cross zero."""
    want = base * factor
    top = np.abs(want).max(axis=0)
    top = np.where(top > 0, top, 1.0)
    np.testing.assert_allclose(ours / top, want / top, rtol=0, atol=1e-8)


@pytest.mark.parametrize("variable, factor", [
    *((variable, factor) for variable in ("OIL", QUARTERLY_VARIABLE, "HUR", "CPI")
      for factor in (1e-2, 1e2, 1e12)),
    ("OIL", 1e152),
])
def test_a_change_of_units_changes_no_result(sample_chain, tmp_path, variable, factor):
    # the sampler runs in each column's sd units and the ALL rows average
    # MSE / sd^2, so one variable in other units selects the same model with
    # the same ALL rows, and every response, band, path and forecast of that
    # variable's columns comes out times the factor (sigma2 times its
    # square). OIL x 1e152 runs
    # ingest and forecast, whose sampler used to overflow on it
    stages = ("ingest", "forecast") if factor > 1e100 else ("ingest", "irf", "forecast")
    out = run_sample_chain(tmp_path, stages, variable, factor)

    def scale(name, power=1):
        return factor ** power if name.rsplit(".", 1)[-1] == variable else 1.0

    report, base_report = (csv_groups(d / "mse_report.csv", ["method", "series"], ["mse"])
                           for d in (out, sample_chain))
    assert report.keys() == base_report.keys()
    for (method, series), value in base_report.items():
        np.testing.assert_allclose(report[method, series], value * scale(series, 2),
                                   rtol=1e-8, atol=0)
    table = read_mse_report(out / "mse_report.csv")
    base_table = read_mse_report(sample_chain / "mse_report.csv")
    assert min(table, key=lambda m: table[m]["ALL"]) == min(
        base_table, key=lambda m: base_table[m]["ALL"])
    for name, keys, fields, per_field in (
            ("trajectories_train.csv", ["column"], ["b", "f1"], (1, 0)),
            ("forecast_params.csv", ["method", "column"], ["b", "f1"], (1, 0)),
            ("forecast_variables.csv", ["method", "column"], ["actual", "predicted"], (1, 1))):
        ours, base = (csv_groups(d / name, keys, fields) for d in (out, sample_chain))
        assert ours.keys() == base.keys()
        for key, values in base.items():
            assert_scaled(ours[key], values, [scale(key[-1], power) for power in per_field])
    meta, base_meta = (read_json(d / "trajectories_train_meta.json")["columns"]
                       for d in (out, sample_chain))
    for column, draw in base_meta.items():
        assert meta[column]["sigma2"] == pytest.approx(draw["sigma2"] * scale(column, 2),
                                                       rel=1e-8, abs=0)
    irf_files = sorted(p.name for p in out.glob("irf_*.json"))
    assert irf_files == (sorted(p.name for p in sample_chain.glob("irf_*.json"))
                         if "irf" in stages else [])
    for name in irf_files:
        (ours, columns), (base, _) = (read_irf_json(d / name) for d in (out, sample_chain))
        factors = [scale(column) for column in columns]
        assert_scaled(ours.point, base.point, factors)
        assert_scaled(ours.half_width, base.half_width, factors)


def test_all_rows_match_an_independent_oracle(sample_chain):
    # each ALL row from panel.csv and forecast_variables.csv alone
    table = read_mse_report(sample_chain / "mse_report.csv")
    scores = pooled_scores(sample_chain / "panel.csv",
                           sample_chain / "forecast_variables.csv", horizon=6)
    assert scores.keys() == table.keys()
    for method, score in scores.items():
        assert table[method]["ALL"] == pytest.approx(score, rel=1e-12, abs=0), method


def test_csv_weights_listing_equal_weights_match_equal_provider(tmp_path):
    # a weights file that lists the equal weights as round-trip floats gives
    # every artifact of estimate and irf byte for byte
    equal_config = write_sample_config(tmp_path, iters=5)
    assert main(["ingest", "--config", str(equal_config)]) == 0
    panel = read_panel_csv(tmp_path / "out" / "panel.csv")
    k = len(panel.regions)
    lines = ["date,from,to,weight"]
    for date in panel.time_index:
        lines += [f"{date},{src},{dst},{1 / (k - 1)!r}"
                  for src in panel.regions for dst in panel.regions if src != dst]
        lines += [f"{date},{src},__COMMON__:{act},{1 / k!r}"
                  for src in panel.regions for act in panel.activities]
    weights_file = tmp_path / "weights.csv"
    weights_file.write_text("\n".join(lines) + "\n")
    obj = read_json(equal_config)
    obj["weights"] = {"provider": "csv", "path": str(weights_file)}
    csv_config = tmp_path / "csv.json"
    write_json(obj, csv_config)
    outputs = []
    for config_path, out_name in ((equal_config, "out"), (csv_config, "csv_out")):
        out_dir = tmp_path / out_name
        for command in ("ingest", "estimate", "irf"):
            assert main([command, "--config", str(config_path), "--out", str(out_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert k == 3 and len(outputs[0]) == 2 + 3 + 3 * 3 * 2 + 1
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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the python block after "Library use" in README.md, run as written
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    code = re.search(r"```python\n(.*?)```", text[text.index("Library use"):], re.S).group(1)
    write_sample_csv(tmp_path / "run" / "sample_panel.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(readme), "exec"), namespace)
    oil, first = namespace["oil"], namespace["first"]
    panel = namespace["panel"]
    assert oil.targets == (panel.column_index("OIL"),) and first.targets == (0,)
    for result in (oil, first):
        assert result.at_time == "2020-07"
        assert result.point.shape == result.half_width.shape == (7, panel.width)
        assert np.all(np.isfinite(result.half_width)) and np.all(result.half_width >= 0)


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


@pytest.mark.parametrize("stage, section, key, value", [
    ("irf", "irf", "horizon", 1_000_000_000_000_000),
    ("forecast", "forecast", "grid_size", 100_000_000_000_000_000),
    ("irf", "irf", "horizon", 10**18),
    ("forecast", "forecast", "grid_size", 10**19),
])
def test_allocation_no_host_can_make_exits_1(tmp_path, capsys, stage, section, key, value):
    # 10**15 horizons of responses or 10**17 lasso penalties ask for more
    # than the 64 PiB user address space of any x86-64 host, and for less
    # than numpy's 2**63-byte limit, above which numpy raises ValueError:
    # 10**18 horizons and 10**19 penalties pass that limit, and the stage
    # checks the size before numpy sees it
    config_path = mini_config(tmp_path, tvp={"iters": 2, "seed": 11})
    assert main(["ingest", "--config", str(config_path)]) == 0
    obj = read_json(config_path)
    obj[section][key] = value
    write_json(obj, config_path)
    capsys.readouterr()
    assert main([stage, "--config", str(config_path)]) == 1
    assert re.fullmatch(r"error: out of memory: Unable to allocate .+ [PE]iB (or more )?for an "
                        r"array with shape \(\d+[^\n]*\n", capsys.readouterr().err)


def run_python(*args, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports this checkout of the package; a
    run that hangs fails the test after two minutes. Its stderr, and its
    stdout unless ``stdout`` sends it elsewhere, are captured."""
    src_dir = str(Path(tvpgvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


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
        # the common series alone: no country equation, where unchecked the
        # weights' division by the number of regions raised ZeroDivisionError
        ("estimate", "panel.csv",
         lambda lines: [f"{line.split(',')[0]},{line.rsplit(',', 1)[1]}" for line in lines],
         "panel.regions is empty: a panel needs a country column; "
         "panel.variables is empty: a panel needs a country column"),
        # no stage reads coefficients.json (irf re-fits), so its reader is called directly
        (None, "coefficients.json", None, "file not found or unreadable"),
        (None, "coefficients.json",
         lambda lines: [line for line in lines if '"nobs"' not in line], "lacks nobs"),
        ("report", "mse_report.csv", lambda lines: lines[:1] + ["constant,ALL,abc"] + lines[2:],
         "row 2: non-numeric value 'abc'"),
    ], ids=["panel-nan", "panel-abc", "panel-gap", "panel-no-country", "no-coefficients",
            "no-nobs", "mse-abc"])
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
            assert f"{bad_file}: {message}" in str(caught.value)
        else:
            proc = run_python("-m", "tvpgvar.cli", stage, "--config",
                              str(pipeline / "config.json"), "--out", str(out))
            self.assert_clean_failure(proc, bad_file)
            assert proc.stderr == f"error: {bad_file}: {message}\n"  # one line

    def test_non_utf8_data_file(self, tmp_path):
        config_path = mini_config(tmp_path)
        bad_file = tmp_path / "mini.csv"
        bad_file.write_bytes(bad_file.read_bytes() + b"2000-01,AAA,CPI,caf\xe9\n")
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)

    def test_byte_order_mark_read_as_text_start(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark: a
        # data CSV with one ingests to the same panel.csv, and a config with
        # one loads to the same settings
        plain_config = write_sample_config(tmp_path / "plain")
        plain_csv = read_json(plain_config)["data"]["path"]
        marked_csv = tmp_path / "marked.csv"
        marked_csv.write_bytes(b"\xef\xbb\xbf" + Path(plain_csv).read_bytes())
        marked_config = write_sample_config(tmp_path / "marked", data_path=marked_csv)
        for config_path in (plain_config, marked_config):
            assert main(["ingest", "--config", str(config_path)]) == 0
        panels = [(path.parent / "out" / "panel.csv").read_bytes()
                  for path in (plain_config, marked_config)]
        assert panels[0] == panels[1]
        marked_copy = plain_config.with_name("marked.json")
        marked_copy.write_bytes(b"\xef\xbb\xbf" + plain_config.read_bytes())
        assert load_config(marked_copy) == load_config(plain_config)
        # a decode error still names the byte's offset in the file
        marked_csv.write_bytes(b"\xef\xbb\xbfdate\xe9")
        with pytest.raises(ValidationError, match="at byte 7"):
            read_panel_csv(marked_csv)


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
    # about 0.23 s and 28 MB: estimate and forecast load only SciPy's compiled
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
    runs = {"ingest": {"ingest"}, "estimate": {"ingest", "gvar", "ols", "tvp", "numpy"},
            "irf": {"ingest", "gvar", "ols", "irf", "numpy"},
            "forecast": {"ingest", "tvp", "ols", "forecast", "numpy"}, "report": set()}
    for stage, modules in runs.items():
        loaded = loaded_after(str(config_path), stage)
        if "numpy" in modules:  # numpy loads inspect; no stage loads dataclasses
            loaded -= {"inspect"}
        assert loaded == shared | modules, stage


# a fresh interpreter runs the irf stage on the config argv[1], prints
# whether numpy loaded and exits with the stage's code
IRF_SCRIPT = """
import sys, tvpgvar.cli
code = tvpgvar.cli.main(["irf", "--config", sys.argv[1]])
print("numpy" in sys.modules)
sys.exit(code)
"""


def test_irf_without_requests_fails_before_numpy(tmp_path):
    # no panel.csv either: the config is at fault, and is named before any fit
    config_path = mini_config(tmp_path, irf={"dates": []})
    proc = run_python("-c", IRF_SCRIPT, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: config lists no IRF dates"
    assert proc.stdout.split() == ["False"]


def test_irf_unknown_shock_column_fails_before_numpy(tmp_path):
    # the shock names are checked against panel.csv's header, before any fit
    config_path = mini_config(tmp_path, irf={"dates": ["2003-06"], "shocks": [["NOPE"]]})
    assert main(["ingest", "--config", str(config_path)]) == 0
    proc = run_python("-c", IRF_SCRIPT, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: unknown panel column 'NOPE'"
    assert proc.stdout.split() == ["False"]


def test_repeated_shock_target_fails_at_load(tmp_path):
    # the config is at fault: no panel.csv is read and numpy never loads
    config_path = mini_config(tmp_path, irf={"dates": ["2003-06"],
                                             "shocks": [["OIL"], ["OIL", "OIL"]]})
    proc = run_python("-c", IRF_SCRIPT, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "error: duplicate columns in irf.shocks[1]: ['OIL', 'OIL']"
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("dates, shocks, message", [
    # without the check: one fit, the period answered twice, each file written
    # twice and the period listed twice in stacking.json
    (["2003-06", "2005-01", "2003-06"], [["OIL"]], "irf.dates[2] repeats irf.dates[0]: '2003-06'"),
    # the same columns in another order: the same response under two names
    (["2003-06"], [["OIL"], ["AAA.CPI", "OIL"], ["OIL", "AAA.CPI"]],
     "irf.shocks[2] repeats the columns of irf.shocks[1]: ['OIL', 'AAA.CPI']"),
], ids=["date", "shock"])
def test_repeated_irf_request_fails_at_load(tmp_path, dates, shocks, message):
    # no panel.csv is read and numpy never loads
    config_path = mini_config(tmp_path, irf={"dates": dates, "shocks": shocks})
    proc = run_python("-c", IRF_SCRIPT, str(config_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == f"error: {message}"
    assert proc.stdout.split() == ["False"]


# a fresh interpreter records OPENBLAS_THREAD_TIMEOUT as numpy starts to
# import, then runs the given CLI argv as ``python -m tvpgvar.cli`` does
TIMEOUT_SCRIPT = """
import os, runpy, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy sees:", os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            sys.meta_path.remove(self)
        return None

sys.meta_path.insert(0, Probe())
sys.argv = ["tvpgvar", *sys.argv[1:]]
runpy.run_module("tvpgvar.cli", run_name="__main__")
"""


@pytest.mark.parametrize("user_value, seen", [(None, "4"), ("12", "12")],
                         ids=["unset", "user-set"])
def test_entrypoint_lets_idle_blas_workers_sleep(tmp_path, monkeypatch, user_value, seen):
    # an idle OpenBLAS worker spins for about 2**28 cycles unless the timeout
    # is set before numpy (and with it the BLAS library) loads
    config_path = mini_config(tmp_path)
    assert main(["ingest", "--config", str(config_path)]) == 0
    if user_value is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", user_value)
    proc = run_python("-c", TIMEOUT_SCRIPT, "estimate", "--config", str(config_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"numpy sees: {seen}"


def test_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    # callers run main() in-process: the timeout belongs to entrypoint()
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    config_path = mini_config(tmp_path)
    before = dict(os.environ)
    for stage in ("ingest", "estimate"):
        assert main([stage, "--config", str(config_path)]) == 0
    assert dict(os.environ) == before


def test_package_names_resolve_on_first_use():
    namespace = {}
    exec("from tvpgvar import *", namespace)
    assert len(tvpgvar.__all__) == 36
    assert set(tvpgvar.__all__) <= set(dir(tvpgvar))
    for name in tvpgvar.__all__:
        assert namespace[name] is getattr(tvpgvar, name)
        assert namespace[name].__module__.startswith("tvpgvar.")
    with pytest.raises(AttributeError, match="no_such_name"):
        tvpgvar.no_such_name


# a fresh interpreter registers an atexit handler, then runs the given CLI
# argv as ``python -m tvpgvar.cli`` does
EXIT_SCRIPT = """
import atexit, runpy, sys
atexit.register(print, "teardown ran", file=sys.stderr)
sys.argv = ["tvpgvar", *sys.argv[1:]]
runpy.run_module("tvpgvar.cli", run_name="__main__")
"""


def test_stage_output_survives_the_exit_without_teardown(pipeline, tmp_path, capsys,
                                                         monkeypatch):
    # buffered output, as without PYTHONUNBUFFERED: the CLI flushes it before
    # it ends the process, and the handler registered before its own is skipped
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    config_path = str(pipeline / "config.json")
    with open(tmp_path / "stdout.txt", "w") as stdout:
        proc = run_python("-c", EXIT_SCRIPT, "report", "--config", config_path, stdout=stdout)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"report: \d+\.\d\d s\n", proc.stderr)
    printed = (tmp_path / "stdout.txt").read_text()
    assert main(["report", "--config", config_path]) == 0
    assert printed == capsys.readouterr().out
    assert any(line.startswith("selected model: ") for line in printed.splitlines())


def test_exit_codes_pass_through(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    missing = tmp_path / "missing.json"
    (tmp_path / "no-shocks").mkdir()
    no_shocks = mini_config(tmp_path / "no-shocks", irf={"dates": ["2003-06"], "shocks": []})
    cases = [
        (["report", "--config", str(missing)], 1, f"error: {missing}: file not found"),
        (["irf", "--config", str(no_shocks)], 1, "error: config lists no IRF shocks"),
        (["forecast", "--config", str(disjoint_forecasters_config(tmp_path))], 2,
         "numerical failure: the forecasters oil, rest share no scored series"),
        (["report"], 2, "the following arguments are required: --config"),  # argparse
        (["--help"], 0, "usage: tvpgvar"),
    ]
    for argv, code, message in cases:
        proc = run_python("-m", "tvpgvar.cli", *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert message in proc.stdout + proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv


def test_closed_stdout_pipe_exits_120(pipeline, monkeypatch):
    # the buffered report meets the pipe only at the flush: the CLI leaves the
    # exit to the interpreter, which reports the broken pipe without a traceback
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python("-m", "tvpgvar.cli", "report", "--config",
                          str(pipeline / "config.json"), stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_profiler_around_a_stage_still_prints(pipeline, monkeypatch):
    # cProfile prints its table after the stage's SystemExit: an exit at the
    # end of entrypoint() would end the process before that
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = run_python("-m", "cProfile", "-m", "tvpgvar.cli", "report", "--config",
                      str(pipeline / "config.json"))
    assert proc.returncode == 0, proc.stderr
    assert "selected model: " in proc.stdout
    assert re.search(r"\d+ function calls .* in \d+\.\d+ seconds", proc.stdout)
