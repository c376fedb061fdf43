"""Computation of π benchmark (Table 1).

Classic numerical integration of 4/(1+x²) over [0,1]: each rank integrates
a strided subset of intervals locally, then adds its partial sum into a
lock-protected shared accumulator. Communication is a handful of lock
transfers and one barrier, so π is the near-zero bar of Figures 2-4: it
exposes pure per-call and synchronization overhead.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.common import AppResult, compute_cost

__all__ = ["run_pi"]

PI_LOCK = 3


def _partial_sum(rank: int, n_ranks: int, intervals: int):
    """This rank's share of the integral and its interval count. Its
    arrays die here, before the rank's next yield (docs/performance.md
    §6), so the ranks never hold them all at once."""
    h = 1.0 / intervals
    idx = np.arange(rank, intervals, n_ranks, dtype=np.float64)
    x = h * (idx + 0.5)
    return float((4.0 / (1.0 + x * x)).sum() * h), len(idx)


def run_pi(api, intervals: int = 1 << 23, verify: bool = True) -> AppResult:
    # Generator body: runs stackless (see repro.sim.process).
    rank, n_ranks = yield from api.jia_init_g()

    t0 = yield from api.jia_wtime_g()
    acc = yield from api.jia_alloc_array_g((1,), np.float64, name="pi.sum")
    if rank == 0:
        yield from acc.set_g(0, 0.0)
    yield from api.jia_barrier_g()
    t_init = (yield from api.jia_wtime_g()) - t0

    t1 = yield from api.jia_wtime_g()
    local, count = _partial_sum(rank, n_ranks, intervals)
    yield compute_cost(api, 6.0 * count)

    yield from api.jia_lock_g(PI_LOCK)
    current = float((yield from acc.get_g(0)))
    yield from acc.set_g(0, current + local)
    yield from api.jia_unlock_g(PI_LOCK)
    yield from api.jia_barrier_g()
    t_comp = (yield from api.jia_wtime_g()) - t1

    pi_value = float((yield from acc.get_g(0)))
    verified = (abs(pi_value - math.pi) < 1e-4) if verify else True
    yield from api.jia_exit_g()

    return AppResult(app="pi", rank=rank,
                     phases={"init": t_init, "compute": t_comp,
                             "total": t_init + t_comp},
                     verified=verified, checksum=pi_value,
                     extra={"intervals": intervals})
