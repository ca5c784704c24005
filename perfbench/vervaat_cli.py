"""Run the ``vervaat`` command line as its console script does, with timestamps.

Usage: ``PYTHONPATH=src python3 perfbench/vervaat_cli.py SUBCOMMAND [OPTIONS]``.

This is the ``vervaat = "vervaat.cli:main"`` entry point of ``pyproject.toml``
(the package need not be installed).  Before and after the import of
``vervaat.cli``, and when the command returns, it writes one line to standard
error, ``perfbench:phase <name> <time.perf_counter()>``.  On Linux
``perf_counter`` reads CLOCK_MONOTONIC, which the parent process shares, so
the benchmark can split the child's wall time into interpreter start, import
(set-up), command and exit.
"""

import sys
import time


def _mark(name: str) -> None:
    sys.stderr.write(f"perfbench:phase {name} {time.perf_counter()!r}\n")
    sys.stderr.flush()


_mark("start")
from vervaat.cli import main  # noqa: E402

_mark("ready")
try:
    main(prog_name="vervaat")
finally:
    _mark("done")
