"""The benchmark's per-model probes still find every model they time.

``benchmarks/perf/probes.py`` calls each Table 2 model by name (its
witness operation decides whether the kernel runs stackless), and a probe
whose entry point is gone reports ``null`` instead of failing. Running
``model_call_cost`` here, unedited, turns a change that would null a
``models.*`` metric into a tier-1 failure.
"""

import importlib
import math
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def probes():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERF))
        yield importlib.import_module("probes")


def test_the_probes_time_all_ten_models(probes):
    assert len(probes.MODEL_NAMES) == 10


@pytest.mark.parametrize("name", [
    "spmd", "smp_spmd", "anl", "treadmarks", "hlrc", "jiajia_api",
    "pthreads", "win32", "shmem", "native_jiajia"])
def test_model_call_cost_is_a_number(probes, name):
    host_us, virtual_us = probes.model_call_cost(name)
    assert math.isfinite(host_us) and host_us > 0
    assert math.isfinite(virtual_us) and virtual_us > 0
