import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvpgvar
from tvpgvar import read_panel_csv
from tvpgvar.cli import main
from tvpgvar.irf import read_irf_csv, read_irf_json
from tvpgvar.forecast import read_mse_report
from tvpgvar.ingest import month_label
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

    @pytest.mark.parametrize("section, key, value", [
        ("tvp", "iters", "abc"),
        ("irf", "horizon", None),
        ("irf", "level", "high"),
        ("forecast", "cv_folds", "x"),
        ("weights", "window", "w"),
        ("forecast", "external", ["a"]),
        ("forecast", "external", {"plugin": 5}),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, section, key, value):
        config_path = mini_config(tmp_path)
        obj = read_json(config_path)
        obj[section][key] = value
        write_json(obj, config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"{section}.{key} must be" in capsys.readouterr().err

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

    def test_ill_conditioned_period_skipped(self, pipeline, capsys, monkeypatch):
        import tvpgvar.cli as cli_mod
        from tvpgvar.errors import NumericalError as NumErr

        real = cli_mod.gvar.stack_system
        first_t = None

        def flaky(fit, weights, t, **kwargs):
            nonlocal first_t
            if first_t is None:
                first_t = t
            if t == first_t:
                raise NumErr("G0 condition number above cap (synthetic)")
            return real(fit, weights, t, **kwargs)

        monkeypatch.setattr(cli_mod.gvar, "stack_system", flaky)
        out_dir = pipeline / "out_skip"
        config_path = pipeline / "config.json"
        assert main(["ingest", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert main(["estimate", "--config", str(config_path), "--out", str(out_dir)]) == 0
        first_t = None  # only IRF stacking should trip the failure
        assert main(["irf", "--config", str(config_path), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping 2003-06" in captured.err
        assert len(sorted(out_dir.glob("irf_*.json"))) == 3  # one date survived

    def test_time_invariant_mode(self, pipeline):
        config_path = pipeline / "config.json"
        assert main(["irf", "--config", str(config_path), "--time-invariant"]) == 0
        files = sorted((pipeline / "out").glob("irf_time-invariant__*.json"))
        assert len(files) == 3
        result, _ = read_irf_json(files[0])
        assert result.at_time == "time-invariant"


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


def run_python(*args):
    """Run a fresh interpreter that imports this checkout of the package."""
    src_dir = str(Path(tvpgvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestUndecodableInput:
    """A file that cannot be decoded ends the stage with exit code 1 and a
    message naming the file, not a traceback."""

    def assert_clean_failure(self, proc, bad_file):
        assert proc.returncode == 1
        assert str(bad_file) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_json_artifact(self, tmp_path):
        config_path = mini_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        bad_file = tmp_path / "out" / "coefficients.json"
        bad_file.write_text('{"a": 1')
        proc = run_python("-m", "tvpgvar.cli", "irf", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)

    def test_non_utf8_data_file(self, tmp_path):
        config_path = mini_config(tmp_path)
        bad_file = tmp_path / "mini.csv"
        bad_file.write_bytes(bad_file.read_bytes() + b"2000-01,AAA,CPI,caf\xe9\n")
        proc = run_python("-m", "tvpgvar.cli", "ingest", "--config", str(config_path))
        self.assert_clean_failure(proc, bad_file)


def test_package_import_skips_scipy_stats():
    # every CLI stage pays the package import; scipy.stats alone costs about
    # a second of it, and nothing in the package needs it
    out = run_python("-c", "import sys, tvpgvar; print('scipy.stats' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
