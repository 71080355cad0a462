import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_panel
from tvpgvar.cli import main
from tvpgvar.config import TVPConfig
from tvpgvar.errors import ValidationError
from tvpgvar.forecast import read_mse_report, read_variable_paths
from tvpgvar.gvar import read_coefficients_json
from tvpgvar.ingest import read_panel_csv, write_panel_csv
from tvpgvar.irf import read_irf_csv, read_irf_json
from tvpgvar.sample import write_sample_config
from tvpgvar.serialize import (
    dumps_json, format_float, parse_int, read_csv_rows, read_json, write_csv, write_json,
)
from tvpgvar.tvp import PanelTVPResult, TVPTrajectory, read_trajectories, write_trajectories


def test_format_float_round_trips_exactly(rng):
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


@pytest.mark.parametrize("cell, value", [(3, 3), (3.0, 3), ("3", 3), (-2, -2)],
                         ids=["int", "float", "cell", "negative"])
def test_parse_int_accepts_integral_numbers(cell, value):
    assert parse_int(cell, "k") == value


@pytest.mark.parametrize("cell, message", [
    (9.7, "k: non-integer value 9.7"), ("2.5", "k: non-integer value '2.5'"),
    (True, "k: non-integer value True"), ([1], "k: non-numeric value [1]"),
    (float("nan"), "k: non-finite value nan"),
], ids=["fraction", "cell-fraction", "bool", "list", "nan"])
def test_parse_int_rejects(cell, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse_int(cell, "k")


def test_json_round_trip(tmp_path, rng):
    obj = {
        "name": "run",
        "values": list(rng.standard_normal(20)),
        "nested": {"matrix": np.arange(6, dtype=float).reshape(2, 3), "n": 3},
        "flags": [True, False, None],
    }
    path = tmp_path / "obj.json"
    write_json(obj, path)
    loaded = read_json(path)
    assert loaded["values"] == obj["values"]
    assert loaded["nested"]["matrix"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert loaded["flags"] == [True, False, None]
    # stdlib parser accepts our output
    json.loads(dumps_json(obj))


def test_json_output_is_deterministic(rng):
    obj = {"a": list(rng.standard_normal(5)), "b": {"c": 1.25}}
    assert dumps_json(obj) == dumps_json(obj)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["x", 0.1], ["y", 2]])
    header, rows = read_csv_rows(path)
    assert header == ["a", "b"]
    rows = list(rows)  # split as they are iterated
    assert float(rows[0][1]) == 0.1
    assert rows[1] == ["y", "2"]


def test_csv_rejects_commas_in_cells(tmp_path):
    with pytest.raises(ValidationError):
        write_csv(tmp_path / "t.csv", ["a"], [["x,y"]])


def test_dumps_json_text_is_pinned():
    obj = {
        "empty": [],
        "nested": {
            "none": {},
            "ints": [3, -1],
            "one": 1.0,
            "level": 0.95,
            "sum": 0.1 + 0.2,
            "matrix": np.array([[1.0, 0.5], [-2.0, 1e-300]]),
            "count": np.int64(7),
            "pair": (1, "a"),
        },
    }
    assert dumps_json(obj) == """{
  "empty": [],
  "nested": {
    "none": {},
    "ints": [
      3,
      -1
    ],
    "one": 1.0,
    "level": 0.95,
    "sum": 0.30000000000000004,
    "matrix": [
      [
        1.0,
        0.5
      ],
      [
        -2.0,
        1e-300
      ]
    ],
    "count": 7,
    "pair": [
      1,
      "a"
    ]
  }
}
"""


def test_csv_writes_shortest_round_trip_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[0.95, np.float64(0.1 + 0.2), 1.0]])
    assert path.read_text() == "a,b,c\n0.95,0.30000000000000004,1.0\n"


@pytest.mark.parametrize("bad", [
    {"a": [1.0, float("nan")]},
    {"a": {"b": np.array([0.0, np.inf])}},
    {"a": [np.float32("-inf")]},
    {"a": object()},
])
def test_dumps_json_rejects_non_finite_and_unsupported(bad):
    with pytest.raises(ValidationError):
        dumps_json(bad)



@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The output directory of one short sample run of every stage."""
    run_dir = tmp_path_factory.mktemp("run")
    config_path = write_sample_config(run_dir, iters=20)
    for stage in ("ingest", "estimate", "irf", "forecast"):
        assert main([stage, "--config", str(config_path)]) == 0
    return run_dir / "out"


def damage_csv(text, damage):
    lines = text.splitlines()
    if damage == "header":
        lines[0] = "x" + lines[0]
    else:  # the last cell of row 2 (the header is row 1), numeric in every artifact
        lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
    return "\n".join(lines) + "\n"


def damage_json(text, damage, key):
    obj = json.loads(text)
    if damage == "header":
        del obj[key]
    else:
        obj[key][0][0] = "abc"
    return json.dumps(obj)


@pytest.mark.parametrize("loader, pattern, key", [
    (read_panel_csv, "panel.csv", None),
    (read_coefficients_json, "coefficients.json", "sigma_u"),
    (read_trajectories, "trajectories.csv", None),
    (read_irf_json, "irf_*.json", "responses"),
    (read_irf_csv, "irf_*.csv", None),
    (read_mse_report, "mse_report.csv", None),
    (read_variable_paths, "forecast_variables.csv", None),
])
@pytest.mark.parametrize("damage", ["missing", "header", "cell"])
def test_loader_names_the_damaged_file(artifacts, tmp_path, loader, pattern, key, damage):
    # "header" is a wrong CSV header or a missing JSON key
    source = sorted(artifacts.glob(pattern))[0]
    loader(source)
    path = tmp_path / source.name
    if damage != "missing":
        text = source.read_text()
        path.write_text(damage_json(text, damage, key) if key else damage_csv(text, damage))
    with pytest.raises(ValidationError) as error:
        loader(path)
    message = str(error.value)
    assert message.startswith(str(path))
    if damage == "cell":
        assert "non-numeric value 'abc'" in message
        if key is None:
            assert message.startswith(f"{path}: row 2: ")


@pytest.mark.parametrize("damage, message", [
    (lambda obj: obj["countries"][0]["phi1"].pop(), "countries[0].phi1: expected an array"),
    (lambda obj: obj["countries"][1].pop("gamma_b0"), "countries[1]: lacks gamma_b0"),
    (lambda obj: obj["activity_equations"].pop(), "activity_equations must list 1 equations"),
    (lambda obj: obj["sigma_u"].pop(), "sigma_u: expected an array of shape"),
    (lambda obj: obj.update(nobs=[1]), "nobs: non-numeric value [1]"),
    (lambda obj: obj.update(nobs=249.5), "nobs: non-integer value 249.5"),
    (lambda obj: obj["activity_equations"][0].update(a_m=True),
     "activity_equations[0].a_m: non-numeric value True"),
], ids=["short-block", "missing-block", "equation-count", "sigma-shape", "nobs",
        "nobs-fraction", "bool-entry"])
def test_coefficient_blocks_checked_against_the_code_lists(artifacts, tmp_path, damage,
                                                           message):
    obj = read_json(artifacts / "coefficients.json")
    damage(obj)
    path = tmp_path / "coefficients.json"
    write_json(obj, path)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {message}")):
        read_coefficients_json(path)


@pytest.mark.parametrize("key, value", [
    ("targets", [9.7]), ("targets", [True]), ("sample_size", 250.5), ("at_time", 3.5),
], ids=["targets-fraction", "targets-bool", "sample_size-fraction", "at_time-fraction"])
def test_irf_integers_must_be_integral(artifacts, tmp_path, key, value):
    # int() of the parsed float would read these as 9, 1, 250 and 3
    obj = read_json(sorted(artifacts.glob("irf_*.json"))[0])
    obj[key] = value
    path = tmp_path / "irf.json"
    write_json(obj, path)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {key}: non-integer")):
        read_irf_json(path)


@pytest.mark.parametrize("key", ["radius", "level", "g0_condition"])
def test_irf_floats_reject_booleans(artifacts, tmp_path, key):
    # float() of a JSON true would read it as 1.0
    obj = read_json(sorted(artifacts.glob("irf_*.json"))[0])
    obj[key] = True
    path = tmp_path / "irf.json"
    write_json(obj, path)
    with pytest.raises(ValidationError,
                       match="^" + re.escape(f"{path}: {key}: non-numeric value True") + "$"):
        read_irf_json(path)


# ---------------------------------------------------------------------------
# streaming and atomic replacement
# ---------------------------------------------------------------------------

def traced_peak(call) -> int:
    """The peak of the memory ``call()`` allocates, in bytes, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def wide_panel(rng):
    """600 months x 100 columns (33 regions x 3 variables + 1 activity)."""
    regions = [f"R{i:02d}" for i in range(33)]
    return make_panel(rng.standard_normal((600, 100)), regions, ["x", "y", "z"], ["ACT"])


def test_write_trajectories_streams(tmp_path, rng):
    # the whole file as Python rows would take about 20 MB
    panel = wide_panel(rng)
    n = len(panel.time_index) - 1
    trajectories = []
    for _ in range(panel.width):
        theta0, sqrt_omega = rng.standard_normal(2), rng.uniform(0.1, 1.0, 2)
        tilde = rng.standard_normal((n, 2))
        trajectories.append(TVPTrajectory(theta0=theta0, sqrt_omega=sqrt_omega,
                                          theta=theta0 + sqrt_omega * tilde, sigma2=1.0))
    result = PanelTVPResult(trajectories=trajectories, errors={})
    path = tmp_path / "trajectories.csv"
    peak = traced_peak(lambda: write_trajectories(result, panel, TVPConfig(), path,
                                                  tmp_path / "trajectories_meta.json"))
    assert peak < 1_000_000
    loaded = read_trajectories(path)
    assert len(loaded) == panel.width
    np.testing.assert_array_equal(loaded["R32.z"][1], trajectories[98].theta)


def test_read_panel_csv_streams(tmp_path, rng):
    # reading holds the file's bytes, its text and its lines, then 8 bytes a cell
    # in array('d') rows; the split rows of the whole file would take about 3 MB more
    panel = wide_panel(rng)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(read_panel_csv(path)))
    cells = len(panel.time_index) * panel.width
    assert peak < 2 * path.stat().st_size + 16 * cells
    np.testing.assert_array_equal(loaded[0].values, panel.values)


def test_write_csv_takes_a_generator(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], ((str(i), i / 4) for i in range(3)))
    assert path.read_text() == "a,b\n0,0.0\n1,0.25\n2,0.5\n"


def test_csv_rows_are_split_as_they_are_read(tmp_path):
    # a damaged row is met when the iteration reaches it, not before
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3\n")
    header, rows = read_csv_rows(path)
    assert header == ["a", "b"]
    assert next(rows) == ["1", "2"]
    with pytest.raises(ValidationError, match=re.escape(f"{path}: row 3 has 1 cells, expected 2")):
        next(rows)


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, ["a", "b"], [["x", 1.0]] * 600 + [["y,z", 2.0]]),
    lambda path: write_csv(path, ["a", "b"], [["x", 1.0]] * 600 + [["y", float("nan")]]),
    lambda path: write_json({"a": [1.0] * 600, "b": float("nan")}, path),
], ids=["csv-comma", "csv-nan", "json-nan"])
@pytest.mark.parametrize("existing", [b"old,bytes\n", None], ids=["existing", "absent"])
def test_failed_write_leaves_the_target_as_it_was(tmp_path, write, existing):
    # the bad cell or value comes last, after lines already written to the file
    path = tmp_path / "artifact"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(ValidationError):
        write(path)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["artifact"])
