#!/usr/bin/env python3
"""Reference lines of a BENCH file: in-process timings of every factor
algorithm, of LAPACK's geqrf and of numpy.linalg.qr, and one wall time of
the Tier-1 suite.

    python3 bench/reference.py

Every case runs in this process, on one BLAS thread, from this checkout's
src/: one warm-up call, then 5 timed calls, reported as their median, min
and max.  The factor algorithms are the entries of experiments.ALGOS,
called on gen_cmatrix(16384, 600) in double, each sketched algorithm with
its SRHT of ell = 4m (seed 43); geqrf is scipy.linalg.qr(mode="raw") and
numpy.linalg.qr forms Q and R, both on the same matrix.  The Tier-1 suite
then runs once, in its own process and on one BLAS thread too, with src/
on PYTHONPATH as ROADMAP's Tier-1 command sets it (the CLI tests start
`python -m sketchqr` in processes of their own), and its wall time is
reported whatever its outcome, with pytest's summary line.
Prints one JSON object; bench/record.py stores it under "reference".  One
round of the 14 calls takes about 56 s on a 2-core x86 machine, so the
script takes about 6 minutes, the suite's run included.
"""

import functools
import json
import os
import statistics
import subprocess
import sys
import time

# before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy.linalg

from sketchqr.experiments import (
    ALGOS,
    FACTOR_ALGOS,
    TRAILING,
    ExperimentConfig,
    gen_cmatrix,
)
from sketchqr.precision import policy_from_tag
from sketchqr.sketching import make_sketch

N, M, SEED, REPEATS = 16384, 600, 43, 5
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def timed(fn):
    """Median, min and max in seconds of REPEATS calls of fn after one
    warm-up call."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median": statistics.median(times), "min": min(times), "max": max(times),
            "unit": "s", "repeats": REPEATS}


def cases():
    """Case name -> a call of it on gen_cmatrix(N, M)."""
    W = gen_cmatrix(N, M)
    policy = policy_from_tag("double")
    calls = {}
    for algo in FACTOR_ALGOS:
        call, rows = ALGOS[algo]
        omega = None
        if rows:
            omega = make_sketch("srht", 4 * M, N - M if rows == TRAILING else N, SEED)
        calls[algo] = functools.partial(call, W, omega, ExperimentConfig(algo=algo, seed=SEED),
                                        policy)
    calls["geqrf"] = lambda: scipy.linalg.qr(W, mode="raw")
    calls["numpy.linalg.qr"] = lambda: np.linalg.qr(W)
    return calls


def tier1():
    """One wall time of the Tier-1 suite, as a case of one call, with
    pytest's summary line, with src/ on PYTHONPATH for the suite and the
    processes it starts."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    r = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    lines = r.stdout.strip().splitlines()
    return {"median": wall, "min": wall, "max": wall, "unit": "s", "repeats": 1,
            "summary": lines[-1] if lines else ""}


def main():
    out = {}
    for name, fn in cases().items():
        out[name] = timed(fn)
        print(f"{name}: {out[name]['median']:.3f} s", file=sys.stderr, flush=True)
    out["tier1-suite"] = tier1()
    print(f"tier1-suite: {out['tier1-suite']['median']:.1f} s", file=sys.stderr, flush=True)
    print(json.dumps({"n": N, "m": M, "ell": 4 * M, "seed": SEED, "precision": "double",
                      "blas_threads": 1, "cases": out}))


if __name__ == "__main__":
    main()
