"""Smoke and schema test of the benchmark itself; never checks timings.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once, untraced and traced, for a single pass, and
checks the result line against BENCHMARK.json.  Also checks that the
benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def run(cwd, workload, trace):
    cmd = CONTRACT["command"] + ["--workload", workload, "--seed", "0",
                                 "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_result_schema(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"} and isinstance(v["value"], float)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, CONTRACT["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
