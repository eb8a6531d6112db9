"""Start ``repro serve`` with the layer spans of :mod:`spans` installed.

Usage: ``python3 perfbench/launcher.py SPANS.json SERVE-ARGS...``

Wraps the layer entry points, runs ``repro.cli.main(["serve", ...])``
until the server drains, then writes the recorded spans to
``SPANS.json``.  ``PYTHONPATH`` must name the checkout's ``src``.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.instrument_server()
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    recorder.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
