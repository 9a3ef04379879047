"""Child launcher for the end-to-end run: starts each request in a closed loop.

A child's peak RSS as ``wait4`` reports it includes the resident size of
the process it was forked from, so children are started from this small
process rather than from the benchmark, whose memory grows with the outputs
it validates.  For the same reason this script imports nothing from the
benchmark and keeps no output in memory: each child writes stdout and
stderr straight to files.

The machine's speed is measured around every child with ``reference_s``,
a fixed pure-Python loop: before the first child and after each one.  The
benchmark scales each child's times by it (see ``run.py``).

Protocol, one JSON line each way per request list:
    in:  {"dir": DIR, "timeout": SECONDS, "requests": [[arg, ...], ...]}
    out: {"wall": SECONDS, "spent": SECONDS, "children": [{"code", "latency",
          "cpu", "rss_kb", "ref"}, ...]}
Request i runs as ``python <args>`` with output in DIR/i.out and DIR/i.err;
its ``ref`` is the mean of the reference times taken just before and just
after it.  ``spent`` is the time the reference loops took; ``wall`` leaves
it out.  The launcher exits at end of input.
"""

import json
import os
import select
import subprocess
import sys
import time


REFERENCE_LOOP = 50_000
REFERENCE_REPS = 3


def reference_s():
    """Fastest of three runs of a fixed loop: the time it takes at the
    machine's current speed, which load elsewhere on the host changes."""
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_one(args, out_path, err_path, timeout):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            pidfd = None
        if pidfd is not None:
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "latency": latency,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        job = json.loads(line)
        t0 = time.perf_counter()
        before = reference_s()
        spent = time.perf_counter() - t0
        children = []
        for i, args in enumerate(job["requests"]):
            child = run_one(args, os.path.join(job["dir"], f"{i}.out"),
                            os.path.join(job["dir"], f"{i}.err"), job["timeout"])
            t1 = time.perf_counter()
            after = reference_s()
            spent += time.perf_counter() - t1
            child["ref"] = (before + after) / 2
            children.append(child)
            before = after
        wall = time.perf_counter() - t0 - spent
        sys.stdout.write(json.dumps({"wall": wall, "spent": spent, "children": children}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
