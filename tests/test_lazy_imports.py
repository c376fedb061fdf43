"""What a cold interpreter imports: each package exports its names lazily,
so a command loads only the modules it runs.

Every check runs in a fresh interpreter: in this one, other tests have
already imported nearly everything.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_a_cold_run_imports_only_what_it_runs():
    proc = python("-X", "importtime", "-m", "repro", "run", "--preset",
                  "sw-dsm-4", "--app", "sor", "--param", "n=48")
    assert "verified : True" in proc.stdout
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert {"repro.cli", "repro.apps.sor", "repro.dsm.jiajia"} <= loaded
    unrun = ("repro.obs", "repro.faults", "repro.fabric", "repro.bench",
             "repro.dsm.scivm", "repro.dsm.smp", "repro.machine.sci",
             "repro.models.native_jiajia")
    assert sorted(m for m in loaded
                  if m.startswith(unrun) or m.startswith("repro.apps.")
                  and m not in ("repro.apps.common", "repro.apps.sor")) == []


def test_every_exported_name_resolves():
    python("-c", """
import importlib
for package in ("repro", "repro.obs", "repro.apps", "repro.dsm",
                "repro.machine"):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, (package, name)
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(package)
""")


def test_critical_path_stays_the_function_beside_its_submodule():
    # The submodule and the function share a name: importing the
    # submodule must not leave the module where the function was.
    python("-c", """
import repro.obs.critical_path
from repro.obs import critical_path
assert callable(critical_path), critical_path
assert critical_path.__module__ == "repro.obs.critical_path"
""")


def test_the_sweep_imports_the_cell_path_before_workers_fork():
    python("-c", """
import sys
from repro.fabric import GridSpec
from repro.fabric.worker import execute_cell, import_cell_path
grid = GridSpec(presets=("smp-2", "sw-dsm-2", "hybrid-2"),
                labels=("PI", "SOR"), scales=(0.05,)).expand()
import_cell_path(grid)
before = set(sys.modules)
for scenario in grid:
    execute_cell(scenario)
late = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert late == [], late
""")
