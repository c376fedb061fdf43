"""The rules of the simulation, machine-checked (ROADMAP item 7, first
slice of (ii)): ``src/repro`` neither reads the host clock nor profiles
itself, except in the files listed here with the reason each needs to.
Judging host time is ``benchmarks/perf``'s job.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CLOCKS = {"time", "timeit", "cProfile", "profile", "pstats"}
ALLOWED = {
    "sim/engine.py": "the perf_counter pair around Engine.run, host hook",
    "fabric/worker.py": "monotonic: heartbeat pacing",
    "fabric/scheduler.py": "monotonic: timeouts, stalls, elapsed",
    "fabric/journal.py": "monotonic: the t stamp of every line",
    "bench/experiments.py": "elapsed-time banner",
}


def clock_imports(source):
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & CLOCKS


def test_host_clock_is_imported_only_where_allowed():
    found = {str(path.relative_to(SRC)): sorted(clock_imports(path.read_text()))
             for path in sorted(SRC.rglob("*.py"))}
    found = {name: mods for name, mods in found.items() if mods}
    assert set(found) == set(ALLOWED), found  # a stale entry fails too


def test_the_check_fails_on_a_seeded_violation():
    for seeded in ("import time", "import os, time as _t",
                   "from time import perf_counter", "from timeit import timeit",
                   "def f():\n    import cProfile", "import pstats"):
        assert clock_imports(seeded), seeded
    assert not clock_imports("import os\nfrom repro.sim import trace\ntime = 3")
