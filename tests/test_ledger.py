"""The reachability ledger's collector (``tests/ledger/sitecustomize.py``)
sees every process and thread an entry point starts: a sweep worker is a
forked child that ends in ``os._exit``, a plain-function process body runs
on a backing thread, and ``benchmarks/perf`` profiles with cProfile, whose
``disable()`` clears any profile hook."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import cProfile
import os
import threading

from repro.memory import layout

pid = os.fork()
if pid == 0:
    layout.cyclic()
    os._exit(0)
os.waitpid(pid, 0)
thread = threading.Thread(target=layout.block)
thread.start()
thread.join()
profile = cProfile.Profile()
profile.enable()
layout.explicit([0])
profile.disable()
layout.single_home(0)
"""


def reached(tmp_path, program):
    env = dict(os.environ, REPRO_LEDGER_DIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(ROOT / "tests" / "ledger"), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", program], env=env, check=True)
    return {line.split("\t")[2] for log in tmp_path.glob("*.tsv")
            for line in log.read_text().splitlines()}


def test_forks_threads_and_cprofile_sessions_are_recorded(tmp_path):
    names = reached(tmp_path, PROGRAM)
    assert {"cyclic", "block", "explicit", "single_home"} <= names
    assert "first_touch" not in names
    assert len(list(tmp_path.glob("*.tsv"))) == 2     # parent and child


def test_only_repro_code_is_recorded(tmp_path):
    names = reached(tmp_path, "import json\njson.dumps([1])\n")
    assert "dumps" not in names
