"""Traced stand-in for `python -m htype.cli ARGS`, used by the cli-cold workload.

Usage: python3 bench/clichild.py SPANS_JSON ARGS...

Runs htype.cli.main(ARGS) in this fresh process with the benchmark's span
recorder installed, writes the spans to SPANS_JSON and exits with main's
code.  The command's output is the same as the untraced invocation's.
"""

import json
import sys
import time

start = time.perf_counter()
import htype.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.spans.append({"name": "import", "start": start, "end": time.perf_counter(),
                         "parent": None, "attrs": {}})
    spans.install(tracer)
    try:
        with tracer.span(f"cli.{argv[0]}"):
            return htype.cli.main(argv)
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
