"""Property tests (hypothesis): seeded fault plans are masked and repeatable.

Two properties over randomly drawn plans with drop-rate < 30%:

1. **Masking** — with reliable messaging on, a faulty run of a small shared-
   array kernel on ``sw-dsm-2`` produces memory *bitwise identical* to the
   fault-free run.
2. **Determinism** — running the same plan + seed twice yields the identical
   event trace (modulo process pids, which are interpreter-global).
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import preset
from repro.faults import FaultPlan, LinkFaults
from tests.conftest import spmd

_PID = re.compile(r"#\d+")


def _kernel(env):
    """Small SPMD kernel: per-rank writes, a reduction, raw bytes out."""
    arr = env.hamster.memory.alloc_array_collective(
        (8,), dtype=float, name="prop")
    lo, hi = env.rank * 4, env.rank * 4 + 4
    for i in range(lo, hi):
        arr[i] = (i + 1) * 1.5
    env.barrier()
    total = float(arr[:].sum())
    env.barrier()
    return arr[:].tobytes(), total


def _run(plan):
    cfg = preset("sw-dsm-2")
    cfg.trace = True
    cfg.faults = plan
    plat = cfg.build()
    results = spmd(plat, _kernel)
    trace = [(ev.time, ev.kind,
              tuple(sorted((k, _PID.sub("", v) if isinstance(v, str) else v)
                           for k, v in ev.fields.items())))
             for ev in plat.engine.trace]
    return results, trace, plat


_FAULT_FREE = None


def _fault_free_bytes():
    global _FAULT_FREE
    if _FAULT_FREE is None:
        _FAULT_FREE = _run(None)[0]
    return _FAULT_FREE


plans = st.builds(
    lambda seed, drop, dup, delay: FaultPlan(
        seed=seed,
        link=LinkFaults(drop_rate=drop, dup_rate=dup, delay_rate=delay,
                        delay_max=200e-6),
        heartbeat=False),
    seed=st.integers(min_value=0, max_value=2**31),
    drop=st.floats(min_value=0.0, max_value=0.29),
    dup=st.floats(min_value=0.0, max_value=0.2),
    delay=st.floats(min_value=0.0, max_value=0.3))


# derandomize: the masking property is probabilistic in the tail (a plan
# near the 30% drop bound can exhaust one message's retry budget with
# ~1e-6 probability), so explore a fixed, known-good example set instead
# of resampling per run.
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=plans)
def test_bounded_loss_is_fully_masked(plan):
    """drop < 30% + retries → results bitwise equal to the fault-free run."""
    results, _, plat = _run(plan)
    assert results == _fault_free_bytes()
    assert plat.fabric.layer.delivery_failures == 0


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=plans)
def test_same_plan_same_trace(plan):
    """Same plan + seed → identical event trace and fault statistics."""
    results1, trace1, plat1 = _run(plan)
    results2, trace2, plat2 = _run(plan)
    assert results1 == results2
    assert trace1 == trace2
    assert plat1.faults.stats() == plat2.faults.stats()
    assert plat1.engine.now == plat2.engine.now
