"""Run the ``repro`` CLI with layer spans recorded.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_main.py TRACE_DIR campaign run-all ...

Installs :mod:`tracer` before the CLI starts and writes this process's
span dump (``TRACE_DIR/trace-<pid>.json``) when the CLI returns; forked
fabric workers write their own dumps beside it.
"""

import sys

import tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer.install(trace_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.TRACER.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
