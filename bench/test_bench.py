"""Self-tests of the benchmark: span arithmetic, the percentile rule and the
output checker. Run with ``PYTHONPATH=src python -m pytest -q bench``."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import spans
from spans import Span


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "test")


class TestSelfTime:
    def test_children_and_overlap(self):
        tree = [
            _span(0, "cli.main:estimate", 0.0, 10.0),
            _span(1, "tvp.estimate_all", 1.0, 4.0, parent=0),
            _span(2, "tvp.kalman_forward", 2.0, 3.0, parent=1),
            _span(3, "gvar.stack_system", 3.0, 6.0, parent=0),  # overlaps span 1
        ]
        own = spans.self_times(tree)
        assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0})

    def test_child_outside_parent_is_clipped(self):
        tree = [_span(0, "cli.main:irf", 0.0, 2.0),
                _span(1, "irf.asymptotic_bands", 1.5, 3.0, parent=0)]
        assert spans.self_times(tree)[0] == pytest.approx(1.5)

    def test_layer_self_times_add_up_to_the_stage(self):
        tree = [
            _span(0, "cli.main:forecast", 0.0, 8.0),
            _span(1, "config.load_config", 0.5, 1.0, parent=0),
            _span(2, "tvp.estimate_all", 1.0, 5.0, parent=0),
            _span(3, "tvp.fit_equation", 1.5, 4.5, parent=2),
            _span(4, "forecast.two_stage:lasso", 5.0, 7.5, parent=0),
            _span(5, "forecast.lasso_fit", 6.0, 7.0, parent=4),
        ]
        layers = spans.layer_self_times(tree)
        assert layers["cli"] == pytest.approx(1.0)
        assert layers["config"] == pytest.approx(0.5)
        assert layers["tvp"] == pytest.approx(4.0)
        assert layers["forecast"] == pytest.approx(2.5)
        assert sum(layers.values()) == pytest.approx(8.0)

    def test_tracer_nests_and_counts_raises(self):
        tracer = spans.Tracer("t")
        with tracer.span("cli.main:irf"):
            with pytest.raises(ValueError):
                with tracer.span("gvar.stack_system"):
                    raise ValueError("ill-conditioned")
            wrapped = tracer.wrap("irf.write_irf_json", lambda x: x + 1,
                                  on_result=lambda r, x: tracer.counts.update(calls=r))
            assert wrapped(2) == 3
        assert [s.parent for s in tracer.spans] == [None, 0, 0]
        assert tracer.counts["gvar.stack_system.raised.ValueError"] == 1
        assert tracer.counts["calls"] == 3
        assert all(s.end >= s.start for s in tracer.spans)

    def test_traced_restores_the_modules(self):
        from tvpgvar import cli, gvar, tvp

        before = (tvp.kalman_forward, cli.load_config, gvar.WeightSequence.__dict__["equal"])
        with spans.traced(spans.Tracer("t")):
            assert tvp.kalman_forward is not before[0]
            weights = gvar.WeightSequence.equal(3, 2, 1)
            assert weights.we.shape == (3, 2, 2)
        after = (tvp.kalman_forward, cli.load_config, gvar.WeightSequence.__dict__["equal"])
        assert after == before


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.0),
    ])
    def test_ten_samples_beyond(self, n, expected):
        assert spans.tail_percentile(n) == expected

    def test_summary_states_count_and_tail(self):
        s = spans.summarize(np.arange(1, 1001, dtype=float))
        assert (s.n, s.p50, s.tail_q) == (1000, 500.5, 99.0)
        assert s.tail == pytest.approx(np.percentile(np.arange(1, 1001), 99))
        few = spans.summarize([3.0, 1.0, 2.0])
        assert (few.n, few.p50, few.tail_q, few.tail) == (3, 2.0, None, None)
        assert spans.summarize([]).n == 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A full five-stage run of a very small sample config, in-process."""
    from tvpgvar import cli
    from tvpgvar.sample import write_sample_config

    root = tmp_path_factory.mktemp("bench_check")
    config_path = write_sample_config(root / "inputs", iters=3, seed=1)
    config = json.loads(config_path.read_text())
    config["irf"]["dates"] = config["irf"]["dates"][:1]
    config["forecast"]["methods"] = ["constant", "var1"]
    config_path.write_text(json.dumps(config))
    out = root / "out"
    outputs = {}
    for stage in ("ingest", "estimate", "irf", "forecast", "report"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main([stage, "--config", str(config_path), "--out", str(out)]) == 0
        outputs[stage] = buf.getvalue()
    return config_path, out, outputs


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


class TestChecker:
    def test_clean_run_passes(self, small_run):
        config, out, outputs = small_run
        for stage, text in outputs.items():
            assert check.check_stage(stage, out, config, text) == [], stage
        assert check.compare_dirs(out, out) == {}

    def test_band_that_misses_its_point(self, small_run, tmp_path):
        config, out, _ = small_run
        bad = _copy(out, tmp_path / "out")
        irf_json = sorted(bad.glob("irf_*__OIL.json"))[0]
        obj = json.loads(irf_json.read_text())
        obj["half_width"][0][1] = -1.0
        irf_json.write_text(json.dumps(obj))
        problems = check.check_stage("irf", bad, config)
        assert any("band does not contain" in p for p in problems)
        assert check.compare_dirs(out, bad) == {"irf": [irf_json.name]}

    def test_combined_shock_must_be_the_sum(self, small_run, tmp_path):
        config, out, _ = small_run
        bad = _copy(out, tmp_path / "out")
        irf_json = sorted(bad.glob("irf_*__OIL+USA.GDP.json"))[0]
        obj = json.loads(irf_json.read_text())
        obj["responses"][0][2] += 1e-3
        obj["lower"][0][2] += 1e-3
        obj["upper"][0][2] += 1e-3
        irf_json.write_text(json.dumps(obj))
        problems = check.check_stage("irf", bad, config)
        assert any("sum of its singles" in p for p in problems)

    def test_non_finite_and_missing_rows(self, small_run, tmp_path):
        config, out, _ = small_run
        bad = _copy(out, tmp_path / "out")
        panel = bad / "panel.csv"
        lines = panel.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "nan"
        lines[5] = ",".join(cells)
        panel.write_text("\n".join(lines) + "\n")
        assert check.check_stage("ingest", bad, config) != []

        report = bad / "mse_report.csv"
        report.write_text("\n".join(ln for ln in report.read_text().splitlines()
                                    if not ln.startswith("var1,ALL")) + "\n")
        assert any("no ALL row for var1" in p for p in check.check_stage("forecast", bad, config))

        (bad / "coefficients.json").write_text("{")
        assert any("do not load" in p for p in check.check_stage("estimate", bad, config))

    def test_missing_artifact_is_attributed(self, small_run, tmp_path):
        _, out, _ = small_run
        bad = _copy(out, tmp_path / "out")
        (bad / "trajectories_train.csv").unlink()
        assert check.compare_dirs(out, bad) == {"forecast": ["trajectories_train.csv"]}

    @pytest.mark.parametrize("code, expected", [
        ("raise FileNotFoundError('coefficients.json')",
         ["exit code 1", "printed a Python traceback"]),
        ("import traceback\ntry:\n    1 / 0\nexcept ZeroDivisionError:\n    traceback.print_exc()",
         ["printed a Python traceback"]),
        ("import sys; print('error: bad input', file=sys.stderr); sys.exit(1)", ["exit code 1"]),
        ("print('ok')", []),
    ])
    def test_stage_process_failures(self, code, expected):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert check.process_problems(proc.returncode, proc.stdout + proc.stderr) == expected
