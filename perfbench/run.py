#!/usr/bin/env python3
"""sketchqr benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, calls each of its operations once
to warm up and check the output, then repeats passes over the operations
for --seconds.  Every call's output must match the checked warm-up output
bitwise.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced passes and reports the per-layer metrics.  Progress
lines go first; the last line of stdout is the JSON result.  Full records
(raw samples, machine, checks, spans) go to perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def parse_args(spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def pin_threads(wanted):
    threads = max(1, min(wanted, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import sketchqr from this checkout's src/ only; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sketchqr", "__init__.py")):
        print(f"perfbench: no sketchqr sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import sketchqr
    if not os.path.abspath(sketchqr.__file__).startswith(src + os.sep):
        print(f"perfbench: sketchqr imported from {sketchqr.__file__}", file=sys.stderr)
        sys.exit(2)


def import_seconds():
    """Import time of numpy, scipy and sketchqr in two fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import numpy, scipy.sparse, "
            "scipy.linalg, sketchqr; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(2)]


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record(threads, seed):
    import ctypes
    import glob

    import numpy as np
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"))
    llc = max(((int(_read(c + "/level") or 0), _read(c + "/size").strip()) for c in caches),
              default=(0, ""))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    queried = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        queried = get()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "llc": f"L{llc[0]} {llc[1]}",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "blas_threads_queried": queried,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(), "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(os.path.join(git, ref)).strip()
    if not sha:
        for ln in _read(os.path.join(git, "packed-refs")).splitlines():
            if ln.endswith(" " + ref):
                sha = ln.split()[0]
    return sha or None


class Probe:
    """A fixed kernel timed between op calls: Python-level vector steps,
    text parsing, a memory-bound gemv and small gemms, as in the ops
    themselves (the mix tracked the ops best among those tried).  The host
    runs this box's cores at speeds that drift by up to 1.6x over seconds;
    dividing an op's time by the probe time around it cancels most of that
    drift, so the gated times read as seconds at the probe's reference
    time `ref_s`."""

    def __init__(self, ref_s):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal(2048)
        self.M = rng.standard_normal((1 << 14, 64))
        self.u = rng.standard_normal(1 << 14)
        self.B = rng.standard_normal((192, 192))
        self.text = "".join(f"{i} {i % 97} {x:.17g}\n" for i, x in enumerate(self.a[:1024]))
        self.ref_s = ref_s
        self.times = []

    def __call__(self):
        """Time the kernel once; returns the index of this probe."""
        t0 = time.perf_counter()
        v = self.a.copy()
        for _ in range(400):
            v = v * 0.5 + self.a
            float(v @ self.a)
        for _ in range(24):
            self.M.T @ self.u
        for _ in range(4):
            self.B @ self.B
        for ln in self.text.splitlines():
            i, j, x = ln.split()
            int(i), int(j), float(x)
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def speed(self, i):
        """Reference time over the median of the probes next to op call i
        (which ran between probes i and i+1): one probe alone is too noisy."""
        return self.ref_s / statistics.median(self.times[max(0, i - 1): i + 3])


class Runner:
    """Calls ops, times them, and compares each output with the reference."""

    def __init__(self, wl, probe_ref_s):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.refs = {}
        self.probe = Probe(probe_ref_s)

    def call(self, name, fn):
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        except Exception as exc:  # a breakdown or any other failure counts
            self.fail(f"{name}: {exc!r}")
            return None, None
        return out, dt

    def fail(self, why):
        self.failed += 1
        self.errors.append(why)

    def warm_up(self, ops, tolerances):
        """One call per op; the checked output's digest becomes the reference."""
        checks, outs, warm = {}, {}, {}
        for op in ops:
            if op.name in warm:
                continue
            out, dt = self.call(op.name, op.call)
            if out is None:
                continue
            warm[op.name] = dt
            got = op.check(out)
            tol = tolerances.get(op.name, {})
            checks[op.name] = {k: {"value": v, "tol": tol.get(k)} for k, v in got.items()}
            bad = [k for k, v in got.items() if not (k in tol and v <= tol[k])]
            if bad:
                self.fail(f"{op.name}: check failed for {bad}: {got}")
                continue
            self.refs[op.name] = self.wl.digest(out)
            outs[op.name] = out
        return checks, outs, warm

    def timed_pass(self, ops, samples, wrap=None):
        """One call per op, each followed by a probe; samples[op] gets
        (seconds, index of the probe before the call)."""
        gc.collect()
        gc.disable()
        try:
            before = self.probe()
            for op in ops:
                fn = op.call if wrap is None else (lambda op=op: wrap(op.name, op.call))
                out, dt = self.call(op.name, fn)
                i, before = before, self.probe()
                if out is None:
                    continue
                if self.wl.digest(out) != self.refs.get(op.name):
                    self.fail(f"{op.name}: output differs from the checked output")
                    continue
                samples[op.name].append((dt, i))
        finally:
            gc.enable()

    def split(self, samples):
        """Raw seconds and probe-scaled seconds per op."""
        raw = {k: [dt for dt, _ in v] for k, v in samples.items()}
        scaled = {k: [dt * self.probe.speed(i) for dt, i in v] for k, v in samples.items()}
        return raw, scaled


def summary(samples):
    return {k: {"median": statistics.median(v), "min": min(v), "max": max(v), "n": len(v)}
            for k, v in samples.items() if v}


def layer_metrics(table, casts, cast_bytes, mtx_bytes):
    """Per-layer quantities of one traced pass (see README.md)."""
    def rows(name, where=None):
        return [r for r in table if r[0] == name and (where is None or where(r))]

    def incl(name, where=None):
        return sum(r[1] for r in rows(name, where))

    def own(name):
        return sum(r[2] for r in rows(name))

    top_apply = rows("sketching.apply", lambda r: r[3] != "sketching.apply")
    round_to = rows("precision.round_to")
    load_s = incl("mmio.load")
    return {
        "sketching.apply_calls": len(top_apply),
        "sketching.apply_cols": sum(r[5] for r in top_apply),
        "sketching.apply_s": own("sketching.apply"),
        "sketching.fwht_s": incl("sketching.fwht"),
        "rhqr.rh_vector_calls": len(rows("rhqr.rh_vector")),
        "rhqr.rh_vector_s": incl("rhqr.rh_vector"),
        "rhqr.compact_apply_calls": len(rows("rhqr.compact_apply")),
        "rhqr.compact_apply_s": incl("rhqr.compact_apply"),
        "rhqr.sweep_self_s": own("rhqr.sweep"),
        "rhqr.thin_q_s": incl("rhqr.thin_q"),
        "trim.normalize_s": incl("trim.normalize"),
        "trim.self_s": own("trim.sweep"),
        "baselines.pivoted_qr_calls": len(rows("baselines.pivoted_qr")),
        "baselines.pivoted_qr_s": incl("baselines.pivoted_qr"),
        "baselines.householder_qr_s": incl("baselines.householder_qr", lambda r: r[3] != "op"),
        "linalg.tri_solve_calls": len(rows("linalg.tri_solve")),
        "linalg.tri_solve_s": incl("linalg.tri_solve"),
        "linalg.metrics_s": incl("linalg.metrics"),
        "linalg.cast_calls": casts,
        "linalg.cast_bytes": cast_bytes,
        "precision.round_to_calls": len(round_to),
        "precision.round_to_bytes": sum(r[5] for r in round_to),
        "precision.round_to_s": sum(r[1] for r in round_to),
        "krylov.arnoldi_self_s": own("krylov.arnoldi"),
        "krylov.hessenberg_s": incl("krylov.hessenberg"),
        "krylov.matvec_calls": len(rows("krylov.matvec")),
        "krylov.matvec_s": incl("krylov.matvec"),
        "experiments.sweep_self_s": own("experiments.sweep"),
        "mmio.load_mb_per_s": mtx_bytes / 1e6 / load_s if load_s else 0.0,
        "trace.spans": len(table),
    }


def self_time_by_op(table):
    """Self seconds per call of each op, by span name, in one traced pass."""
    out, calls = {}, {}
    for name, _, self_s, _, op, _ in table:
        out.setdefault(op, {}).setdefault(name, 0.0)
        out[op][name] += self_s
        calls[op] = calls.get(op, 0) + (name == "op")
    return {op: {k: v / calls[op] for k, v in d.items()} for op, d in out.items()}


def main():
    spec = load_json(os.path.join(HERE, "spec.json"))
    contract = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(spec)
    threads = pin_threads(spec["blas_threads"])
    import_program()
    import spans as sp
    import workloads as wl
    imports = [time.perf_counter() - T_START] + import_seconds()

    wname, seed = args.workload, args.seed
    cfg = spec["workloads"][wname]
    tag = f"{wname}-seed{seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = sp.Tracer() if args.trace else None
        builds, build_s = [], []
        for _ in range(spec["setup_repeats"]):
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            ops, info = wl.build(cfg, seed, workdir)
            builds.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                table = sp.span_table(tracer.take()[0])
                build_s.append(sum(r[1] for r in table if r[0] == "sketching.build"))
        setup_s = statistics.median(imports) + statistics.median(builds)
        print(f"# {tag}: setup {setup_s:.3f} s (imports {', '.join(f'{b:.3f}' for b in imports)} s, "
              f"builds {', '.join(f'{b:.3f}' for b in builds)} s)", flush=True)

        runner = Runner(wl, spec["probe_ref_s"])
        checks, outs, warm = runner.warm_up(ops, spec["tolerances"][wname])
        for op, d in checks.items():
            print(f"# check {op}: " + ", ".join(
                f"{k} {v['value']:.3e} (tol {v['tol']})" for k, v in d.items()), flush=True)

        plain, traced = ({op.name: [] for op in ops} for _ in range(2))
        passes, by_op = [], []
        if tracer:
            tops, _ = wl.build(cfg, seed, workdir,
                               matvec=lambda A: tracer.wrap("krylov.matvec", lambda v: A @ v))
            spans_path = os.path.join(OUT, f"{tag}-spans.jsonl")
            open(spans_path, "w").close()
        # whole passes only, and none that would end after the deadline
        deadline = time.perf_counter() + args.seconds
        while True:
            t_pass = time.perf_counter()
            runner.timed_pass(ops, plain)
            if tracer:
                tracer.install()
                try:
                    runner.timed_pass(tops, traced, wrap=tracer.root)
                finally:
                    tracer.uninstall()
                recorded, casts, cast_bytes = tracer.take()
                table = sp.span_table(recorded)
                passes.append(layer_metrics(table, casts, cast_bytes, info.get("mtx_bytes", 0)))
                by_op.append(self_time_by_op(table))
                with open(spans_path, "a") as fh:
                    fh.write(json.dumps({"pass": len(passes), "fields": sp.FIELDS,
                                         "spans": recorded}) + "\n")
            now = time.perf_counter()
            if now + (now - t_pass) > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw, cal = runner.split(plain)
        traced_raw, traced_cal = runner.split(traced)

        wall, scaled = summary(raw), summary(cal)
        for op, s in wall.items():
            print(f"# {op}_s median {s['median']:.4f} s (probe-scaled {scaled[op]['median']:.4f} s)  "
                  f"min {s['min']:.4f}  max {s['max']:.4f}  n={s['n']}  "
                  f"warm-up {warm.get(op, float('nan')):.4f} s", flush=True)
        med = {op: s["median"] for op, s in wall.items()}
        med_cal = {op: s["median"] for op, s in scaled.items()}
        complete = len(med) == len(plain)
        fail_frac = runner.failed / max(runner.attempted, 1)
        print(f"# fail_frac {fail_frac:.4g} ({runner.failed}/{runner.attempted})", flush=True)
        for e in runner.errors[:20]:
            print(f"# error {e}", flush=True)

        record = {"workload": wname, "config": cfg, "machine": machine_record(threads, seed),
                  "seconds": args.seconds, "trace": args.trace, "checks": checks,
                  "warmup_s": warm, "samples_s": raw, "samples_probe_scaled_s": cal,
                  "probe_s": runner.probe.times, "wall": wall, "probe_scaled": scaled,
                  "setup": {"imports_s": imports, "builds_s": builds},
                  "attempted": runner.attempted, "failed": runner.failed,
                  "fail_frac": fail_frac, "errors": runner.errors}
        print(f"# machine {json.dumps(record['machine'])}", flush=True)
        if not args.trace:
            # an op with no good sample makes the run incorrect; its time reads 0
            values = {
                "setup_s": setup_s,
                "pass_cal_s": sum(med_cal.values()),
                "rhqr_cal_s": med_cal.get(cfg["rhqr_op"], 0.0),
                "baseline_cal_s": med_cal.get(cfg["baseline_op"], 0.0),
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            t_total = sum(s["median"] for s in summary(traced_cal).values())
            p_total = sum(med_cal.values())
            values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
            values["sketching.build_s"] = statistics.median(build_s)
            values["krylov.iters_to_tol"] = (wl.iters_to_tol(outs["gmres_rhqr"], cfg["tol"])
                                             if "gmres_rhqr" in outs else 0)
            values["trace.overhead_s"] = t_total - p_total
            values["trace.overhead_frac"] = (t_total - p_total) / p_total
            values.update(wl.cost_metrics(cfg, med))
            record["traced_wall"] = summary(traced_raw)
            record["layers_per_pass"] = passes
            record["self_s_by_op"] = {
                o: {n: statistics.median(b.get(o, {}).get(n, 0.0) for b in by_op)
                    for n in {n for b in by_op for n in b.get(o, {})}}
                for o in plain}
            for o, parts in record["self_s_by_op"].items():
                print(f"# self time in {o}: " + ", ".join(
                    f"{k} {v:.4f} s" for k, v in sorted(parts.items(), key=lambda kv: -kv[1])
                    if v >= 0.0005), flush=True)
            print(f"# tracing overhead {values['trace.overhead_s']:.4f} s per pass "
                  f"({100 * values['trace.overhead_frac']:.1f}%), {len(passes)} traced passes",
                  flush=True)

        metrics = contract["per_layer"] if args.trace else contract["end_to_end"]
        result = {
            "correct": runner.failed == 0 and complete,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                        for m in metrics},
        }
        for name, v in result["metrics"].items():
            print(f"# {name} {v['value']:.6g} {v['unit']}", flush=True)
        record["result"] = result
        with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1, default=float)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
