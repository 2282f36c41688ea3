#!/usr/bin/env python3
"""Record the benchmark of this checkout as BENCH_<label>.json at its root.

    python3 bench/record.py --label <label>

For each workload of perfbench/spec.json this runs BENCHMARK.json's
command (python3 perfbench/run.py) in its own process five times with
--trace 0 (seeds 1 to 5) and once with --trace 1, each for its
run_seconds, and reads each run's last stdout line (its result) and its
'# machine' line.  The file holds the label, the commit measured, the
machine record and, per workload, each end-to-end metric's five values
with their median, quartiles and unit, the attempted and failed
operations summed over the six runs, and the traced run's per-layer
metrics.  A run that perfbench does not call correct stops the recording.
It then runs bench/reference.py in its own process and keeps its JSON (the
in-process reference lines and one Tier-1 wall time) under "reference".
Nothing here imports perfbench or sketchqr.  A recording takes about 16
minutes.
"""

import argparse
import json
import os
import statistics
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)


def load_json(*path):
    with open(os.path.join(ROOT, *path)) as fh:
        return json.load(fh)


def run(command, workload, seed, seconds, trace):
    """(result, machine) of one run of the benchmark's command; a run that
    is not correct (a failed operation, or an op with no good sample, whose
    time reads 0) stops the recording."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    machine = next(json.loads(ln.split(" ", 2)[2]) for ln in lines
                   if ln.startswith("# machine "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: run not correct: "
                           + "\n".join(ln for ln in lines if ln.startswith(("# fail_frac", "# error"))))
    return result, machine


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def reference():
    """The JSON that bench/reference.py prints on its last stdout line."""
    out = subprocess.run(["python3", os.path.join("bench", "reference.py")], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def record(label):
    contract = load_json("BENCHMARK.json")
    seconds = contract["run_seconds"]
    workloads, machines = {}, []
    for name in load_json("perfbench", "spec.json")["workloads"]:
        runs = []
        for seed in SEEDS:
            runs.append(run(contract["command"], name, seed, seconds, 0))
            print(f"{name} seed {seed}: {runs[-1][0]['metrics']}", flush=True)
        traced, machine = run(contract["command"], name, SEEDS[0], seconds, 1)
        machines += [m for _, m in runs] + [machine]
        results = [r for r, _ in runs] + [traced]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            end_to_end[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                          "unit": metric["unit"], "values": values}
        workloads[name] = {
            "end_to_end": end_to_end,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "per_layer": traced["metrics"],
        }
    commits = {m.pop("commit") for m in machines}
    for m in machines:
        m.pop("seed")
    return {
        "label": label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commits.pop() if len(commits) == 1 else sorted(commits),
        # a recording of a work tree with changes not yet committed
        "uncommitted": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "machine": machines[0],
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "reference": reference(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    out = record(args.label)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
