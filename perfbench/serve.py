"""Launch ``scd-repro serve`` with the benchmark's tracing wrappers.

Usage (the cache root comes from ``SCD_REPRO_CACHE_DIR``, as for the
CLI)::

    python3 perfbench/serve.py [--spans PATH]

Runs the real CLI entry point (``serve --host 127.0.0.1 --port 0``, the
default worker count) and prints its ``listening on HOST:PORT`` line.
With ``--spans`` the wrappers of :mod:`tracing` are installed first
(forked pool workers inherit them) and every span is written to *PATH*
as JSON once the server has shut down.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    from repro.harness.cli import main as cli_main

    code = cli_main(["serve", "--host", "127.0.0.1", "--port", "0"])
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.drain()))
    return code


if __name__ == "__main__":
    sys.exit(main())
