"""BENCHMARK.json, the metric tables and what the workloads really emit
agree; the driver's command behaves as its contract says."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.inputs import WORKLOADS
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.worker import REPORT_PREFIX

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(
        WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_benchmark_json_meets_the_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--smoke", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    lines = done.stdout.splitlines()
    report = next(json.loads(line[len(REPORT_PREFIX):]) for line in lines
                  if line.startswith(REPORT_PREFIX))
    return done.returncode, json.loads(lines[-1]), report


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_emitted_and_nothing_else(workload):
    code, result, report = _run(workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _ in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["end_to_end"]["failed_share"]["value"] == 0

    code, result, report = _run(workload, trace=1)
    assert code == 0 and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _ in PER_LAYER}
    # the self times the layers report are the whole profile
    layer_sum = sum(m["value"] for n, m in result["metrics"].items()
                    if n.endswith(".self_s"))
    assert layer_sum == pytest.approx(report["profiled_self_total_s"])
    # reported, not asserted above 1: it is a ratio of two separately timed
    # passes and a host that changes speed between them can push it under
    assert result["metrics"]["trace.overhead_factor"]["value"] > 0
    # what the workload measured is a subset of the named metrics, non-zero
    # where it matters
    assert set(report["per_layer"]) <= {n for n, _, _ in PER_LAYER}
    assert result["metrics"]["simmpi.engine.events"]["value"] > 0
    assert not (ROOT / ".perfbench_work").exists()


def test_no_result_outside_a_checkout(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ there is no
    program to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell_cg1024",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
