"""Host speed: fixed kernels that time how fast this host runs the
interpreter right now.

The benchmark runs on a shared virtual machine whose speed drifts with
its neighbours' load, by up to 2x over minutes, and the slowdown shows
in CPU time as much as in wall time.  Timings the benchmark reports are
therefore scaled to a reference speed: each measured interval is
bracketed by two calibrations, and its seconds are multiplied by
``REFERENCE / mean(before, after)`` (a geometric mean over the kernels;
each kernel is timed once on every CPU, up to four).  On a quiet
reference host the factor is about 1.

The kernels belong to the benchmark and never import the program, so a
change to the program cannot move them.  They stress what a run of the
program spends its time on: interpreter arithmetic, pointer chasing
through a working set larger than the caches, the bytecode compiler
(imports), the JSON codec (configs and the result store), and starting
a fresh interpreter.

Usage::

    python3 perfbench/hostspeed.py      # print a few calibrations
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence

#: Seconds each kernel takes on the reference box (2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11) when its host is quiet.
REFERENCE = {"arith": 0.027, "mem": 0.027, "compile": 0.022,
             "json": 0.020, "spawn": 0.052}

_PERM: List[int] = []
_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    c = [x * {i % 7} for x in range(a) if x % {i % 5 + 2}]\n"
    f"    return {{'k': c, 'v': b, 'n': len(c) + {i}}}\n"
    for i in range(300)
)
_DOCUMENT = [
    {"row": "decay", "size": i, "seed": i % 5,
     "result": {"energy": i * 0.5, "extras": {"slots": [i, i + 1, i + 2]}}}
    for i in range(4000)
]


def _arith() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def _mem() -> int:
    if not _PERM:
        _PERM.extend(range(1 << 20))
        random.Random(3).shuffle(_PERM)
    perm, i = _PERM, 0
    for _ in range(75_000):
        i = perm[i]
    return i


def _compile() -> int:
    return len(compile(_SOURCE, "<hostspeed>", "exec").co_consts)


def _json() -> int:
    return len(json.loads(json.dumps(_DOCUMENT, sort_keys=True)))


def _spawn() -> int:
    return subprocess.run([sys.executable, "-c", "import json, heapq"],
                          check=True).returncode


KERNELS: Dict[str, Callable[[], int]] = {
    "arith": _arith, "mem": _mem, "compile": _compile, "json": _json,
    "spawn": _spawn,
}


#: At most this many CPUs are timed per calibration (spread over the
#: allowed set), so a calibration stays short on a large machine.
MAX_CPUS = 4


def _cpus() -> Sequence[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return ()


def calibrate() -> Dict[str, float]:
    """Seconds per kernel, one run of each on every CPU this process may
    use (up to ``MAX_CPUS`` of them; averaged), with the process's CPU
    set restored afterwards.  The garbage collector is off meanwhile: its
    passes depend on what else this process holds, not on the host."""
    cpus = _cpus()
    probed = cpus[::max(1, len(cpus) // MAX_CPUS)][:MAX_CPUS]
    times: Dict[str, List[float]] = {name: [] for name in KERNELS}
    gc.disable()
    try:
        for cpu in probed or (None,):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            for name, kernel in KERNELS.items():
                start = time.perf_counter()
                kernel()
                times[name].append(time.perf_counter() - start)
    finally:
        gc.enable()
        if cpus:
            os.sched_setaffinity(0, cpus)
    return {name: sum(values) / len(values) for name, values in times.items()}


def factor(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Reference seconds per measured second over an interval bracketed
    by two calibrations: below 1 when the host ran slow."""
    logs = [
        math.log(REFERENCE[name] / ((before[name] + after[name]) / 2.0))
        for name in KERNELS
    ]
    return math.exp(sum(logs) / len(logs))


if __name__ == "__main__":
    _mem()
    for _ in range(5):
        sample = calibrate()
        print({k: round(v, 4) for k, v in sample.items()},
              "factor", round(factor(sample, sample), 3))
