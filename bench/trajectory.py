#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record one trajectory entry.

    python3 bench/trajectory.py --workloads suite verify \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace-seed 1] [--out FILE]

For each workload, runs ``bench/run.py`` once per seed (untraced) and
reports, per end-to-end metric, the median over the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  With ``--trace-seed`` it adds one
traced run per workload for the per-layer table, and the tracing
overhead: the traced ``trace.wall_s`` minus the untraced median
``wall_s``.  ``--out`` writes all of
it, with every run's values and environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "process_s": elapsed,
            "environment": env, **result}


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    entry: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        summary = {}
        print(f"{workload}: {len(runs)} runs, process time "
              f"{sum(r['process_s'] for r in runs):.0f} s, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            flag = "ok" if rel <= bound / 3 else (
                "within bound" if rel <= bound else "TOO WIDE")
            print(f"  {name:<16} median {med:<12.6g} {unit:<6} spread "
                  f"{rel:7.2%} bound {bound:.0%}  {flag}")
            summary[name] = {"median": med, "unit": unit, "spread": rel,
                             "bound": bound, "values": values}
        record = {"end_to_end": summary,
                  "runs": [{k: r[k] for k in ("seed", "process_s", "correct",
                                              "attempted", "failed")}
                           for r in runs],
                  "environment": runs[0]["environment"]}
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            record["per_layer"] = {
                "seed": args.trace_seed, "correct": traced["correct"],
                "metrics": {k: v["value"]
                            for k, v in traced["metrics"].items()}}
            # tracing overhead: traced run against the untraced median
            over = (traced["metrics"]["trace.wall_s"]["value"]
                    - summary["wall_s"]["median"])
            record["trace_overhead_s"] = over
            cover = traced["metrics"]["trace.entry_coverage_min"]["value"]
            print(f"  traced run: overhead {over:+.3f} s, entry coverage "
                  f"{cover:.4f}")
        entry["workloads"][workload] = record
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
