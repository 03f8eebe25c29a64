"""Run ``repro serve`` with the span wrappers installed.

Usage: ``python serve_traced.py TRACE_DIR serve --shards 2 ...``.  The
wrappers are installed before the CLI boots the fleet, so every shard
worker forked by the supervisor inherits them.
"""

import sys

from tracing import Tracer


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    Tracer(trace_dir).install()
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
