"""``python -m repro`` entry point.

A framework error (:class:`~repro.errors.HamsterError`: an unknown
parameter, a bad preset or config file) ends the process with one line on
stderr and exit status 2; :func:`repro.cli.main` itself raises it, for
callers in Python.
"""

import sys

from repro.cli import main
from repro.errors import HamsterError

try:
    status = main()
except HamsterError as exc:
    print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
    status = 2
sys.exit(status)
