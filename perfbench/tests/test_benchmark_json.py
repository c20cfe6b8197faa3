"""BENCHMARK.json agrees with the metric catalogue the runs print."""

import json
import re
from pathlib import Path

from perfbench.layers import ALL, END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def entries(metrics):
    return [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in metrics]


def test_metrics_match_the_catalogue():
    doc = load()
    assert [{k: e[k] for k in ("name", "unit", "better")}
            for e in doc["end_to_end"]] == entries(END_TO_END)
    assert doc["per_layer"] == entries(PER_LAYER)


def test_workloads_and_metric_fields_keep_the_contract_shape():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_gated_metric_is_measured_on_every_workload():
    assert all(metric.workloads == ALL for metric in END_TO_END)
