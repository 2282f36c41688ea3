"""The newest checked-in BENCH_*.json (bench/record.py) against its schema;
no timing is checked."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def newest_bench():
    records = [json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")]
    assert records, "no BENCH_*.json at the root of the checkout"
    return max(records, key=lambda r: r["recorded"])


def test_newest_bench_file_holds_every_workload_and_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = newest_bench()
    assert bench["label"] and bench["commit"] and bench["machine"]
    assert set(bench["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, w in bench["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, name
        assert set(w["per_layer"]) == {m["name"] for m in contract["per_layer"]}, name
        for metric in contract["end_to_end"]:
            m = w["end_to_end"][metric["name"]]
            assert len(m["values"]) == len(bench["seeds"]), (name, metric["name"])
            assert m["q1"] <= m["median"] <= m["q3"], (name, metric["name"])
            assert m["unit"] == metric["unit"], (name, metric["name"])
