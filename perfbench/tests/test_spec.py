"""BENCHMARK.json is well formed and every metric it declares has a
meaning in metric_map.json."""
import json
import re
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_end_to_end_metric_is_defined_for_every_workload():
    for m in SPEC["end_to_end"]:
        defs = MAP["end_to_end"][m["name"]]
        assert {w["name"] for w in SPEC["workloads"]} <= set(defs), m["name"]


def test_every_per_layer_metric_belongs_to_one_layer():
    for m in SPEC["per_layer"]:
        owners = [layer["layer"] for layer in MAP["layers"]
                  if any(fnmatch(m["name"], pat) for pat in layer["metrics"])]
        assert len(owners) == 1, (m["name"], owners)
