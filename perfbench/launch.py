"""Traced launcher: ``python perfbench/launch.py TRACE_DIR -- ARGS``.

Runs ``repro.cli.main(ARGS)`` -- what ``python -m repro ARGS`` runs
-- with the span wrappers of :mod:`tracer` installed, timing the CLI
import (``cli.import``) and the command (``cli.main``).  Spans go to
``TRACE_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    separator = sys.argv.index("--")
    trace_dir = sys.argv[1]
    args = sys.argv[separator + 1:]
    tracer.start(trace_dir, args)
    started = time.perf_counter_ns()
    import repro.cli

    tracer._record("cli.import", started, time.perf_counter_ns(),
                   tracer._span_id(), None, None)
    tracer.install()
    with tracer.Span("cli.main"):
        return repro.cli.main(args)


if __name__ == "__main__":
    sys.exit(main())
