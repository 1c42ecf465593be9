#!/usr/bin/env python3
"""graphmass benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload suite|verify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The run times the package's set-up in
fresh processes, then repeats passes over the workload's entries until
``--seconds`` have elapsed (at least one pass), checks every operation,
and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the package is instrumented before the timed passes
and the metrics are the per-layer ones; the tracing overhead is the
traced run's ``trace.wall_s`` minus the ``wall_s`` of untraced runs
(``trajectory.py`` reports it).  A record of the run (environment, every
sample, and with tracing the spans) goes to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_runs")

# Both sides of a comparison run with this BLAS thread count; the value
# the benchmark inherited is recorded in the environment block.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 2  # fresh processes besides this one that time the set-up

clock = time.perf_counter


def pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed,
    so the package's big temporary arrays are first faulted in fresh from
    the kernel on every call and later reused from the heap: pass times
    fall over the first passes, and the page-fault cost varies with the
    host's memory pressure.  Fixed thresholds make every pass reuse the
    heap from the start.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if (mallopt(m_mmap_threshold, 32 << 20)
            and mallopt(m_trim_threshold, 256 << 20)):
        return "glibc mmap_threshold=32MiB trim_threshold=256MiB"
    return "default"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time the set-up only and print it (internal)")
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, rec=None) -> list:
    """Passes until ``seconds`` have elapsed, at least one."""
    passes = []
    start = clock()
    while True:
        passes.append(workload.run_pass(rec) if rec is not None
                      else workload.run_pass())
        if clock() - start >= seconds:
            return passes


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "graphmass")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, inherited: dict, allocator: str) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_inherited": inherited,
        "blas_threads_used": BLAS_THREADS,
        "allocator": allocator,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_digests(workload: str, seed: int, passes: list,
                  source: str) -> list[str]:
    """Report bodies of one seed must be byte-identical: across the
    passes of this run and across runs of the same source in this
    checkout."""
    digests = {p.digest for p in passes if p.digest is not None}
    if not digests:
        return []
    problems = []
    if len(digests) > 1:
        problems.append(f"report body differs between passes: {digests}")
    store = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}:{source}"
    first = sorted(digests)[0]
    if key in known and known[key] != first:
        problems.append(f"report body differs from an earlier run with "
                        f"this seed: {known[key]} vs {first}")
    known.setdefault(key, first)
    with open(store, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return problems


def summarize(name, unit, values):
    lo, hi = quartiles(values)
    return (f"  {name:<18} median {statistics.median(values):.6g} {unit}"
            f"  (n={len(values)}, q1 {lo:.6g}, q3 {hi:.6g})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphmass", "__init__.py")):
        print(f"error: no graphmass package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    allocator = pin_allocator()
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, SRC)
    from workloads import ENTRY_METRICS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    t0 = clock()
    workload = WORKLOADS[args.workload](args.seed)
    setups = [clock() - t0]
    if args.setup_probe:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    setups += [setup_probe(args.workload, args.seed)
               for _ in range(SETUP_PROBES)]

    warm = [workload.run_pass()] if workload.warmup else []
    rec = None
    if args.trace:
        from tracer import Recorder
        rec = Recorder()
        rec.install()
    try:
        passes = measure(workload, args.seconds, rec)
    finally:
        if rec is not None:
            rec.uninstall()

    ops = [op for p in warm + passes for op in p.ops]
    failures = [f"{op.label}: {op.note}" for op in ops if not op.ok]
    env = environment(args.seed, inherited, allocator)
    problems = check_digests(args.workload, args.seed, passes,
                             env["source_sha256"])
    walls = [p.wall for p in passes]
    slowest = [p.slowest for p in passes]
    errors = [e for p in warm + passes for e in p.mass_errors]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "slowest_entry_s": statistics.median(slowest),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mass_err_max": max(errors, default=0.0),
        "passed_share": 1.0 - len(failures) / len(ops),
    }
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(warm)} warm-up "
          f"and {len(passes)} {'timed' if rec is None else 'traced'} passes")
    print(summarize("wall_s", "s", walls))
    print(summarize("slowest_entry_s", "s", slowest))
    print(summarize("setup_s", "s", setups))
    for line in failures + problems:
        print(f"  FAILED {line}")
    if rec is not None:
        metrics = rec.layer_metrics(len(passes), ENTRY_METRICS)
        metrics["trace.wall_s"] = end_to_end["wall_s"]
    else:
        metrics = end_to_end

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    record = {
        "environment": env, "workload": args.workload,
        "seconds": args.seconds, "setup_samples": setups,
        "passes": [{"phase": phase, "wall": p.wall, "digest": p.digest,
                    "ops": [vars(op) for op in p.ops]}
                   for phase, group in (("warmup", warm), ("timed", passes))
                   for p in group],
        "traced": rec is not None, "end_to_end": end_to_end,
        "metrics": metrics, "failures": failures, "problems": problems,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if rec is not None:
        rec.dump(stem + ".spans.jsonl")

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} "
              "are not both declared in BENCHMARK.json and measured",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
