"""Time the program's set-up for one workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py OPTIONS_JSON TARGET

Imports ``repro``, then loads, validates and plans (``plan_pending``)
every campaign config of TARGET against an empty store.  TARGET is a
run-all directory or one campaign config; OPTIONS_JSON holds the
execution flags the workload passes on the command line (``{}`` for
none), merged into every row the way the CLI merges them.  Prints one
JSON line: ``{"setup_s": seconds, "cells": planned cells}``.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import repro  # noqa: E402,F401
from repro.campaign import CampaignSpec, CampaignStore  # noqa: E402
from repro.campaign.fabric import resolve_run_all  # noqa: E402
from repro.campaign.runner import plan_pending  # noqa: E402
from repro.sim.config import normalize_execution_options  # noqa: E402


def main() -> int:
    overrides, target = json.loads(sys.argv[1]), sys.argv[2]
    _, configs = resolve_run_all(target)
    empty = CampaignStore(os.path.join(target, "no-such-store", "results.jsonl"))
    cells = 0
    for path in configs:
        spec = CampaignSpec.from_json_file(path)
        for plan in spec.rows:
            plan.options = normalize_execution_options(
                {**plan.options, **overrides}
            )
        spec.validate()
        total, _ = plan_pending(spec, empty.completed_keys())
        cells += total
    print(json.dumps({"setup_s": perf_counter() - START, "cells": cells}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
