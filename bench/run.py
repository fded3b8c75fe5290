#!/usr/bin/env python3
"""Run one htype benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run starts a fresh interpreter for the
workload (bench/worker.py, with PYTHONPATH=src and a fixed BLAS thread
count), which runs one round of it and checks every output.  Around it,
SETUP_PROBES more interpreters only import the package, half before the
round and half after, and ``setup_s`` is the median set-up time of all of
them.  ``--seconds`` is accepted so that every benchmark takes the same
arguments; a run is one round whatever its length.

Times are reported at the reference speed of reference.py, so that a slow
spell of the shared machine does not read as a slower program: each
interpreter the run starts gauges its own speed with short reference
slices and scales its set-up and operation times by them.  The measured
times, and ``speed_factor``, the scaled over the measured wall time (below
1 in a slow spell), are printed on the lines before the result.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
same workload, taken from spans recorded around each layer's entry points,
and the spans are written to .bench_out/.  Lines before it give the same
figures for people, plus the stage times of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("exact-large", "exact-small", "float-geometry", "cli-cold")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 2


class RunFailed(Exception):
    pass


def child_env() -> tuple[dict, int]:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("DIVH_BUDGET", None)
    return env, threads


def run_child(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RunFailed(f"timed out: {' '.join(cmd[1:3])}") from None
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd[1:4])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_probe(workload: str, env: dict, deadline: float) -> tuple[float, float]:
    """Set-up time of a fresh interpreter: measured, and at the reference speed."""
    proc = run_child([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                      "--probe", "--launched", repr(time.perf_counter())], env, deadline)
    return tuple(json.loads(proc.stdout))


def import_metrics(workload: str, env: dict, deadline: float) -> dict[str, float]:
    sys.path.insert(0, str(BENCH))
    import spans
    module = "htype.cli" if workload == "cli-cold" else "htype"
    proc = run_child([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                     env, deadline)
    return spans.import_metrics(proc.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "htype" / "__init__.py").is_file():
        print(f"error: no htype sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env, threads = child_env()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    # a traced run reports no set-up time, so it needs no probes
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [setup_probe(args.workload, env, deadline) for _ in range(probes)]
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            out_file = Path(tmp) / "result.json"
            launched = time.perf_counter()
            run_child([sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--trace", str(args.trace),
                       "--launched", repr(launched), "--tmp", tmp, "--out", str(out_file)],
                      env, deadline)
            result = json.loads(out_file.read_text())
        setups += [setup_probe(args.workload, env, deadline) for _ in range(probes)]
        layers_import = import_metrics(args.workload, env, deadline) if args.trace else {}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append((result["measured_setup_s"], result["setup_s"]))
    measured_setup, setup = (statistics.median(s) for s in zip(*setups))
    failures, problems = result["failures"], result["problems"]
    speed = result["wall_s"] / result["measured_wall_s"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" | python {platform.python_version()} numpy {result['numpy']}"
          f" blas_threads {threads} cores {len(os.sched_getaffinity(0))}")
    print(f"speed_factor {speed:.4f} from {result['ref_slices']} reference slices"
          f" | measured wall {result['measured_wall_s']:.4f} s"
          + ("" if args.trace else f" setup {measured_setup:.4f} s"))

    if args.trace:
        import spans
        metrics = {name: (result["layers"][name], unit)
                   for name, unit in spans.LAYER_METRICS.items()}
        metrics.update({name: (value, "s") for name, value in layers_import.items()})
        metrics["trace.wall_s"] = (result["wall_s"], "s")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(result["spans"]))
    else:
        for stage, value in result["stage_s"].items():
            if value > 0:
                print(f"{stage}_s {value:.4f} s")
        if args.workload == "cli-cold":
            print(f"invocation_p50_s {statistics.median(result['op_s']):.4f} s")
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (result["wall_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for f in failures:
        print(f"failed: {f['op']}: {f['error'].strip().splitlines()[-1]}")
    for p in problems:
        print(f"WRONG: {p}")
    print(f"attempted {result['attempted']} failed {len(failures)} correct {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
