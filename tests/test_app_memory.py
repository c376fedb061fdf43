"""A rank body holds no dead arrays across a yield.

All P rank bodies run as generators in one host process and usually reach
the same yield together, so an array a body keeps referenced past its last
use is held P times at once. A host hook samples, every few events, the
arrays that the suspended ``repro.apps`` frames (rank bodies and the
generator helpers they ``yield from``) hold in their locals: writeable
numpy arrays that own their data. The run's input and reference are
frozen, and views are counted through the array they view, so what is
summed is each rank's private temporaries. The DSM's region buffers live
in ``repro.dsm`` frames and are not counted: they are the simulated
machine's memory.

Each app's largest sample must stay within a budget stated from its own
sizes: what its ranks must hold at one yield, not P copies of what one
rank used once.
"""

import numpy as np
import pytest

from repro.bench.runners import run_app_on
from repro.config import preset
from repro.sim.engine import Engine, clear_host_hook, set_host_hook
from repro.sim.process import SimProcess

P = 4
DOUBLE = 8


def _held_bytes(engine, module: str = "repro.apps") -> int:
    """Bytes of private arrays in the suspended frames of ``module``."""
    total = 0
    for proc in engine._processes:
        gen = proc._gen
        while gen is not None:
            frame = getattr(gen, "gi_frame", None)
            if (frame is not None and frame.f_globals.get(
                    "__name__", "").startswith(module)):
                for value in frame.f_locals.values():
                    if (isinstance(value, np.ndarray) and value.base is None
                            and value.flags.writeable):
                        total += value.nbytes
            gen = getattr(gen, "gi_yieldfrom", None)
    return total


def peak_held_bytes(platform: str, app: str, **params) -> int:
    """The largest sum of rank-held arrays sampled over one run."""
    samples = [0]
    errors = []

    def sample(engine):
        try:
            samples.append(_held_bytes(engine))
        except Exception as exc:  # the engine disarms a raising hook
            errors.append(exc)
            raise

    set_host_hook(sample, every_events=4)
    try:
        result = run_app_on(preset(platform), app, **params)
    finally:
        clear_host_hook()
    assert not errors, errors
    assert result.verified
    assert len(samples) > 10, "the hook barely fired; the sample says nothing"
    return max(samples)


PI_INTERVALS = 1 << 14
MM_N = 64
SOR_N = 64
LU_N, LU_BLOCK = 64, 16

CASES = {
    # One rank's index and abscissa arrays: the ranks compute one at a
    # time, so the run never needs more than that.
    "pi": (dict(intervals=PI_INTERVALS),
           2 * (PI_INTERVALS // P) * DOUBLE),
    # The rows of C every rank holds while its multiply is charged and
    # written: together one n x n matrix. Each rank's copy of B is not.
    "matmult": (dict(n=MM_N), MM_N * MM_N * DOUBLE),
    # Every rank's own rows plus two halo rows, held while written back.
    "sor": (dict(n=SOR_N, iterations=2), (SOR_N + 2 * P) * SOR_N * DOUBLE),
    # Per rank, the pivot panel and the panel it is updating.
    "lu": (dict(n=LU_N, block=LU_BLOCK), 2 * P * LU_BLOCK * LU_N * DOUBLE),
}


@pytest.mark.parametrize("platform", ["sw-dsm-4", "hybrid-4"])
@pytest.mark.parametrize("app", sorted(CASES))
def test_rank_bodies_hold_no_dead_arrays(platform, app):
    params, budget = CASES[app]
    peak = peak_held_bytes(platform, app, **params)
    assert peak <= budget, (
        f"{app} on {platform}: ranks held {peak} B across a yield, "
        f"budget {budget} B")


def test_the_sampler_sees_what_bodies_hold():
    """Four bodies each keep a private array across their holds; a frozen
    array and a view beside it are not counted."""
    engine = Engine()
    frozen = np.zeros(64)
    frozen.flags.writeable = False
    samples = []

    def body(proc):
        private = np.zeros(128)
        view = private[::2]  # noqa: F841 - counted through ``private``
        shared = frozen  # noqa: F841 - the run's input: not counted
        yield 1e-6
        yield 1e-6
        private[0] = 1.0

    procs = [SimProcess(engine, body) for _ in range(P)]
    engine.set_host_hook(
        lambda e: samples.append(_held_bytes(e, __name__)), 1)
    for proc in procs:
        proc.start()
    engine.run()
    assert max(samples) == P * 128 * DOUBLE
    assert samples[-1] < max(samples)
