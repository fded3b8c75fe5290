"""Time one htype command in fresh processes and read each one's peak RSS.

    python tools/command_rss.py [--runs N] ARGS ...

runs `python -m htype.cli ARGS` N times (default 5), one after another,
each in a fresh process started from this small parent process, with its
stdout sent to /dev/null. It prints the median of the runs' wall time, CPU
time (user plus system) and `ru_maxrss` (in MB of 1024 KB), each read for
that child alone through `os.wait4`, so a figure is the command's own and
not the high-water mark of a longer-lived process. `htype` is imported as
the environment finds it, e.g. with `PYTHONPATH=src`. The tool exits 1
when a run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time


def run_once(args: list[str]) -> tuple[int, float, float, float]:
    """(exit code, wall s, CPU s, peak RSS MB) of one `python -m htype.cli ARGS`."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "htype.cli", *args],
                         os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="command_rss.py", description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    if opts.runs < 1 or not opts.args:
        parser.error("give --runs of at least 1 and an htype command")
    codes, wall, cpu, rss = zip(*(run_once(opts.args) for _ in range(opts.runs)))
    print(f"command      htype {' '.join(opts.args)}")
    print(f"runs         {opts.runs}, exit codes {sorted(set(codes))}")
    print(f"wall_s       {statistics.median(wall):.4f}")
    print(f"cpu_s        {statistics.median(cpu):.4f}")
    print(f"peak_rss_mb  {statistics.median(rss):.2f}")
    return 0 if set(codes) == {0} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
