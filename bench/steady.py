#!/usr/bin/env python3
"""Steadiness of the benchmark: two interleaved sets of runs of every workload.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--traced 1]

Run from the repository root.  For each workload listed in BENCHMARK.json
it makes two sets of ``--runs`` untraced runs, set A on seeds first-seed,
first-seed + 1, ... and set B on the next ``--runs`` seeds, alternating one
run of A with one run of B.  Each run is a separate ``bench/run.py``
invocation with the run length from BENCHMARK.json, so ``--runs 1`` runs
every workload twice and prints operations attempted and failed for each.

For each set and end-to-end metric it prints the median, the quartiles and
the spread (Q3 - Q1) / median next to the metric's bound, then the change of
the median from set A to set B as a share of A's.  For ``wall_s`` it also
prints the same figures for the measured wall time before scaling to the
reference speed (see reference.py).  It also prints the share
of failed operations, which must be the same in every run.  With
``--traced N`` it then makes N traced runs per workload and prints the
tracing overhead: the median traced ``trace.wall_s`` minus the median
untraced ``wall_s`` of both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    measured = next(line for line in lines if line.startswith("speed_factor"))
    run["measured_wall_s"] = float(measured.split("measured wall ")[1].split()[0])
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    started = time.monotonic()
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, offset in (("A", 0), ("B", args.runs)):
                seed = args.first_seed + offset + i
                run = one_run(workload, seed, seconds, 0)
                sets[label].append(run)
                print(f"{workload} {label} seed {seed}: attempted {run['attempted']}"
                      f" failed {run['failed']} correct {run['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
        runs = sets["A"] + sets["B"]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct {all(r['correct'] for r in runs)},"
              f" failed/attempted {', '.join(f'{s:.6f}' for s in shares)}")
        medians = {}
        for name, bound in bounds.items():
            for label, set_runs in sets.items():
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in set_runs])
                medians[name, label] = med
                spread = (q3 - q1) / med
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
                print(f"  {name:12s} {label} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                      f"  spread {spread:6.3f}  bound {bound:.2f}  {flag}")
            if name == "wall_s":
                for label, set_runs in sets.items():
                    q1, med, q3 = quartiles([r["measured_wall_s"] for r in set_runs])
                    print(f"  {'measured':12s} {label} median {med:10.4f}  q1 {q1:10.4f}"
                          f"  q3 {q3:10.4f}  spread {(q3 - q1) / med:6.3f}  (unscaled wall)")
            change = medians[name, "B"] / medians[name, "A"] - 1
            print(f"  {name:12s} median B vs A {change:+.3f}"
                  f"  {'ok' if abs(change) <= bound else 'OVER'}")
        traced = [one_run(workload, args.first_seed + i, seconds, 1)
                  for i in range(args.traced)]
        if traced:
            traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
            wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs)
            print(f"  tracing overhead {traced_wall - wall:+.3f} s"
                  f" ({(traced_wall - wall) / wall:+.1%} of wall_s)", flush=True)
        print(f"  {time.monotonic() - started:.0f} s since the start", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
