"""Record the reference cell digests the benchmark checks outputs against.

Usage, from the repository root::

    python3 perfbench/record_digests.py 0 1 2 ...

For each seed, runs every digest matrix (``runall`` and
``table1-lockstep``) once on the program's default serial path and
writes each cell's digest to ``perfbench/digests.json``.  Re-record only
when a change is *meant* to alter simulated results, and say so.
"""

import json
import os
import shutil
import sys
import time

import run as bench

MATRICES = {"runall": "runall-serial", "table1-lockstep": "table1-lockstep"}


def main() -> int:
    seeds = [int(arg) for arg in sys.argv[1:]] or [0]
    table = {}
    if os.path.exists(bench.DIGESTS):
        with open(bench.DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    work = os.path.join(bench.WORK, f"digests-{os.getpid()}")
    for seed in seeds:
        for matrix, workload in MATRICES.items():
            shutil.rmtree(work, ignore_errors=True)
            target = bench.write_inputs(workload, seed, os.path.join(work, "inputs"))
            store = os.path.join(work, "store")
            deadline = time.monotonic() + bench.DEADLINE_S
            bench.spawn(["-m", "repro"] + bench.command(target, store, []),
                        os.path.join(work, "program.log"), deadline)
            cells, _ = bench.read_cells(store)
            expected = bench.expected_cells(workload, seed)
            if sorted(cells) != expected:
                raise SystemExit(f"{matrix} seed {seed}: cells failed or missing")
            table.setdefault(matrix, {})[str(seed)] = dict(sorted(cells.items()))
            print(f"{matrix} seed {seed}: {len(cells)} cells, "
                  f"digest {bench.workload_digest(cells)}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    for matrix in table:
        table[matrix] = dict(sorted(table[matrix].items(), key=lambda kv: int(kv[0])))
    with open(bench.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
