"""Run one command; report its wall time and peak resident set.

Usage::

    python3 perfbench/launch.py LOG BUDGET_S -- PROGRAM [ARGS...]

Starts PROGRAM in a process group of its own, with its output appended
to LOG, and waits for it.  Kills the whole group when PROGRAM outlives
BUDGET_S seconds, and after it exits (fabric workers are normally gone
already).  Prints one JSON line: ``{"wall_s", "peak_rss_mb", "code"}``,
where the peak covers PROGRAM and every descendant it waited for.

Linux counts the memory a process was forked with in its peak resident
set, so ``run.py``, which grows while it measures, starts every program
through this small process rather than forking it directly.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main() -> int:
    log, budget, sep, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log, "a", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(budget, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
