"""Named fault points: deterministic crash injection for the fabric.

The crash-recovery paths (worker respawn, journal resume) are only
trustworthy if tests can kill the *real* processes at the *real*
moments. This helper is a small registry of named points spanning both
sides of a worker's pipe: arm one through the environment and the
process hard-exits (``os._exit`` — no ``finally`` blocks, no atexit,
exactly what SIGKILL looks like from the outside) the first time
execution reaches it.

Spec format, in :data:`FAULTPOINT_ENV`::

    REPRO_FAULTPOINTS="<point>@<flag-path>[,<point>@<flag-path>...]"

The flag file is created *before* exiting, so each armed point fires at
most once — the retried attempt (worker) or the resumed sweep
(orchestrator) sails past it. Known points:

* ``worker-cell-start`` — a worker, after receiving a job, before
  executing the cell;
* ``orchestrator-pre-commit`` — the scheduler, after the cell's result
  is stored in the cache but before its journal commit record is
  written (resume must treat the cell as uncommitted — and will find
  its result already cached);
* ``orchestrator-post-commit`` — the scheduler, right after a commit
  record is fsync'd (resume must restore the cell, not re-run it);
* ``worker-cell-stall`` — a worker parks until killed right after its
  first heartbeat of a cell (:func:`maybe_stall`), on every attempt.

Unknown point names are accepted and simply never fire unless some code
path calls :func:`maybe_crash` with them — tests may invent points
without touching this module.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

__all__ = ["FAULTPOINT_ENV", "FAULTPOINT_EXIT", "WORKER_CELL_START",
           "WORKER_CELL_STALL", "ORCH_PRE_COMMIT", "ORCH_POST_COMMIT",
           "parse_spec", "maybe_crash", "maybe_stall", "crash_env"]

#: Environment variable naming the armed fault points.
FAULTPOINT_ENV = "REPRO_FAULTPOINTS"

#: Exit code of a process killed by a fault point — distinct from every
#: CLI exit code, so harnesses can assert the crash really happened.
FAULTPOINT_EXIT = 43

WORKER_CELL_START = "worker-cell-start"
WORKER_CELL_STALL = "worker-cell-stall"
ORCH_PRE_COMMIT = "orchestrator-pre-commit"
ORCH_POST_COMMIT = "orchestrator-post-commit"


def parse_spec(text: Optional[str]) -> Dict[str, str]:
    """``point@flag[,point@flag...]`` -> {point: flag path}.

    Malformed segments (no ``@``) are ignored rather than raised: a
    fault-point spec is test plumbing, and a typo'd spec that crashed
    the process *under test* would be indistinguishable from the bug
    being hunted.
    """
    points: Dict[str, str] = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part or "@" not in part:
            continue
        point, _, flag = part.partition("@")
        if point and flag:
            points[point.strip()] = flag
    return points


def maybe_crash(point: str) -> None:
    """Hard-exit once if ``point`` is armed in the environment.

    Creates the flag file first, so the crash happens exactly once per
    flag path; a re-run (retry, respawn, resume) finds the flag and
    carries on. No-op when :data:`FAULTPOINT_ENV` is unset or does not
    name ``point``.
    """
    flag = parse_spec(os.environ.get(FAULTPOINT_ENV)).get(point)
    if flag is None or os.path.exists(flag):
        return
    with open(flag, "w", encoding="utf-8") as fh:
        fh.write(point + "\n")
    os._exit(FAULTPOINT_EXIT)


def maybe_stall(point: str) -> None:
    """Park the calling process until it is killed if ``point`` is armed;
    every visit fires, and appends the point's name to its flag file."""
    flag = parse_spec(os.environ.get(FAULTPOINT_ENV)).get(point)
    if flag is None:
        return
    with open(flag, "a", encoding="utf-8") as fh:
        fh.write(point + "\n")
    threading.Event().wait()


def crash_env(point: str, flag_path: str) -> Dict[str, str]:
    """The env patch arming one point — test-harness convenience."""
    return {FAULTPOINT_ENV: f"{point}@{flag_path}"}
