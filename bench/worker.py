"""One benchmark run inside a fresh interpreter; started by run.py.

The first thing it does is start the gauge of reference.py, whose slices
measure the machine's speed for the rest of the process, and import htype
(htype.cli for cli-cold).  The time from launch to the end of that import
is the set-up time.  With ``--probe`` it prints the set-up time and exits;
run.py starts a few probes next to the real run and reports the median.

Otherwise it runs one round of the workload, checks its outputs and writes
a JSON result to ``--out``.  The times it reports (``setup_s``,
``wall_s``, ``stage_s`` and ``op_s``) are taken at the reference speed;
``measured_setup_s`` and ``measured_wall_s`` are the clock's own.  Neither
counts the gauge's slices.  A run is always exactly one round, so the
operations attempted, and the known faults among them, do not depend on
how fast the round goes.
"""

import sys
import time

import reference

GAUGE = reference.Gauge()
GAUGE.start()
WORKLOAD = sys.argv[sys.argv.index("--workload") + 1]
if WORKLOAD == "cli-cold":
    import htype.cli  # noqa: F401
else:
    import htype  # noqa: F401
IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

STAGES = ("construct", "derivations", "prolong", "certify", "boundary")


def run_round(rnd, tracer) -> dict:
    results, failures, spans_s = {}, [], []
    for op in rnd.ops:  # an operation may append follow-up operations
        span = tracer.span(f"op.{op.stage}", op=op.name) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = op.run()
        except Exception:
            failures.append({"op": op.name, "error": traceback.format_exc(limit=3)})
            continue
        finally:
            spans_s.append((t0, time.perf_counter()))
        results[op.name] = result
    GAUGE.stop()
    measured, op_s = zip(*(GAUGE.program_time(*span) for span in spans_s))
    traced = len(tracer.spans) if tracer else 0  # the checks below may record more
    problems = []
    for op in rnd.ops:
        if op.expect is not None and op.name in results:
            try:
                op.expect(results[op.name])
            except workloads.Fault as exc:
                failures.append({"op": op.name, "error": f"known fault: {exc}"})
                del results[op.name]
            except Exception:
                problems.append(f"{op.name}: expect raised: " + traceback.format_exc(limit=3))
    try:
        problems += rnd.check(results)
    except Exception:
        problems.append("check raised: " + traceback.format_exc(limit=3))
    stage_s = dict.fromkeys(STAGES, 0.0)
    for op, dt in zip(rnd.ops, op_s):
        stage_s[op.stage] += dt
    return {"measured_wall_s": sum(measured), "wall_s": sum(op_s), "stage_s": stage_s,
            "op_s": op_s, "ref_slices": len(GAUGE.times), "attempted": len(rnd.ops),
            "failures": failures, "problems": problems,
            "layers": spans.layer_metrics(tracer.spans[:traced]) if tracer else None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launched", type=float, default=0.0)
    parser.add_argument("--tmp")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.probe:
        GAUGE.stop()
        print(json.dumps(GAUGE.program_time(args.launched, IMPORTED)))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        rnd = workloads.WORKLOADS[args.workload](args.seed, tracer, Path(tmp))
        if tracer:
            tracer.spans = []  # building the inputs is not part of the round
        result = run_round(rnd, tracer)

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF)
    measured_setup, setup = GAUGE.program_time(args.launched, IMPORTED)
    result.update(numpy=numpy.__version__, setup_s=setup, measured_setup_s=measured_setup,
                  peak_rss_mb=usage.ru_maxrss / 1024)
    if tracer:
        result["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
