import json

import numpy as np
import pytest

from tvpgvar.errors import ValidationError
from tvpgvar.serialize import (
    dumps_json, format_float, read_csv_rows, read_json, write_csv, write_json,
)


def test_format_float_round_trips_exactly(rng):
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


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

