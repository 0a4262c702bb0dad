"""Traced ``repro serve``: installs the layer timers, then runs the CLI.

The process backend's workers are forked from this process, so they
inherit the timers; their counters come back with each build payload
and are served, merged, under ``"perfbench"`` in ``GET /stats``.

Usage: ``python3 perfbench/serve_entry.py serve [repro serve options]``
"""

import sys

from perfbench.tracing import Recorder, install, install_service


def main() -> int:
    rec = install(Recorder())
    install_service(rec)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
