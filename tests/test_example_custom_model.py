"""The §4.4 retargeting demo, ``examples/custom_model.py``: a new
OpenMP-flavoured API ("OmpLite") written in HAMSTER service calls is
correct on every substrate. It is the only OpenMP-like model the
project keeps, so its schedule, critical section, single region and
reduction are checked here, not only when CI runs the script."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.config import preset

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_model.py"


def load_example():
    spec = importlib.util.spec_from_file_location("custom_model_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


example = load_example()


def build(name="sw-dsm-4"):
    return example.OmpLite(preset(name).build().hamster)


def test_manifest():
    example.OmpLite.check_manifest()


def test_thread_identity():
    def main(m):
        return ((yield from m.omp_get_thread_num()),
                (yield from m.omp_get_num_threads()))

    res = build().run(main)
    assert res == [(r, 4) for r in range(4)]


@pytest.mark.parametrize("n", [3, 10, 4096])
def test_static_slices_cover_the_range_disjointly(n):
    def main(m):
        return list((yield from m.omp_for(n)))

    slices = build().run(main)
    seen = [i for piece in slices for i in piece]
    assert sorted(seen) == list(range(n))
    assert len(seen) == len(set(seen))


def test_critical_reduction_loses_no_update():
    def main(m):
        acc = yield from m.hamster.memory.alloc_array_collective_g((1,),
                                                                   name="acc")
        yield from m.omp_single(lambda: acc.set_g(0, 0.0))
        for _ in range(5):
            yield from m.omp_reduce(acc, 1.0)
        yield from m.omp_barrier()
        return float((yield from acc.get_g(0)))

    assert build().run(main) == [20.0] * 4


def test_single_runs_on_thread0_only():
    ran = []

    def main(m):
        def body():
            ran.append((yield from m.omp_get_thread_num()))
            return 42

        return (yield from m.omp_single(body))

    assert build().run(main) == [42, None, None, None]
    assert ran == [0]


@pytest.mark.parametrize("platform", ["smp-2", "sw-dsm-4", "hybrid-2"])
def test_same_dot_product_everywhere(platform):
    rng = np.random.default_rng(3)
    x, y = rng.random(4096), rng.random(4096)
    expected = float(x @ y)
    for value in build(platform).run(example.program):
        assert abs(value - expected) < 1e-9
