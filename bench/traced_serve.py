"""``repro serve`` with per-layer span wrappers installed.

Usage: ``python bench/traced_serve.py SPANS_OUT serve [serve options]``.
Installs :mod:`spans` wrappers, runs ``repro.__main__.main`` on the
remaining arguments, and writes the recorded spans to ``SPANS_OUT``
when the server exits.
"""

from __future__ import annotations

import sys

from spans import SpanRecorder


def main(argv: list) -> int:
    recorder = SpanRecorder()
    recorder.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
