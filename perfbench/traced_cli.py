"""Run one ``mahlerzeta`` command with spans around the calls into each layer.

Usage (with the package on ``PYTHONPATH``)::

    python3 perfbench/traced_cli.py SPANS_PATH REQUEST_ID ARG...

It times ``import mahlerzeta.cli``, installs the wrappers of ``spans.py``,
calls ``mahlerzeta.cli.main(ARG...)`` inside a ``process.cli_main`` span,
writes the spans to SPANS_PATH as JSON lines and exits with main's code.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    spans_path, request_id = sys.argv[1], int(sys.argv[2])
    started = time.perf_counter()
    import mahlerzeta.cli

    imported = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.request = request_id
    tracer.record("process.import", started, imported)
    tracer.install()
    try:
        return tracer.call("process.cli_main", mahlerzeta.cli.main, sys.argv[3:])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
