#!/usr/bin/env python3
"""Run a ``python -m repro`` command under the benchmark's tracer.

    python3 perfbench/replica.py --spans-out FILE serve --http HOST:PORT

Installs :class:`tracing.Tracer` over the whole program, runs the
command, and when it returns (``serve`` returns once a SIGTERM drain has
answered every admitted request) writes the span aggregates to FILE.
SIGUSR1 drops the spans recorded so far and then creates FILE with the
suffix ``.reset``; the benchmark sends it after a server's warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--spans-out", required=True, type=Path)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    import tracing
    from repro.__main__ import main as repro_main
    tracing.import_program()
    tracer = tracing.Tracer()

    def reset(signum, frame):
        tracer.reset()
        args.spans_out.with_suffix(".reset").touch()

    signal.signal(signal.SIGUSR1, reset)
    tracer.install()
    try:
        status = repro_main(args.command)
    finally:
        tracer.restore()
        partial = args.spans_out.with_suffix(".tmp")
        partial.write_text(json.dumps(tracer.to_json()))
        os.replace(partial, args.spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
