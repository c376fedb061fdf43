#!/usr/bin/env python
"""Quickstart: shared-memory "hello world" on a simulated cluster.

Allocates a shared matrix, has every rank fill its block, synchronizes at a
barrier, and reduces under a lock — the complete HAMSTER service tour in
thirty lines. Run it, then change ``PRESET`` to ``"hybrid-4"`` or
``"smp-2"``: the *same code* runs on every platform (the paper's §5.4
claim), only the performance changes.

Usage::

    python examples/quickstart.py [preset]
"""

import sys

import numpy as np

from repro import preset
from repro.apps.common import compute_cost

PRESET = sys.argv[1] if len(sys.argv) > 1 else "sw-dsm-4"


def main(env):
    """SPMD body: runs once per rank, env carries rank + services. It is a
    generator function: every call that can take simulated time is
    ``yield from``-ed, and a cost is charged with ``yield``."""
    n = 256
    rows = n // env.n_ranks

    # Collective allocation: all ranks call, all get the same global array.
    A = yield from env.alloc_array_g((n, n), name="A")
    total = yield from env.alloc_array_g((1,), name="total")

    # Each rank fills its row block (pure local writes under block homes).
    mine = (slice(env.rank * rows, (env.rank + 1) * rows), slice(None))
    yield from A.set_g(mine, float(env.rank + 1))
    yield compute_cost(env, 2.0 * rows * n)  # charge the fill's FLOPs
    yield from env.barrier_g()               # make everything visible

    # Lock-protected global reduction.
    partial = float((yield from A.get_g(mine)).sum())
    yield from env.lock_g(0)
    yield from total.set_g(0, float((yield from total.get_g(0))) + partial)
    yield from env.unlock_g(0)
    yield from env.barrier_g()

    return float((yield from total.get_g(0)))


if __name__ == "__main__":
    plat = preset(PRESET).build()
    print(f"platform: {plat.hamster.platform_description()}")
    results = plat.hamster.run_spmd(main)

    n, ranks = 256, plat.hamster.n_ranks
    expected = sum((r + 1) * (n // ranks) * n for r in range(ranks))
    assert all(r == expected for r in results), results
    print(f"every rank computed the global sum {results[0]:.0f} "
          f"(expected {expected})")
    print(f"virtual execution time: {plat.engine.now * 1e3:.3f} ms")
    stats = plat.dsm.stats(0)
    interesting = {k: v for k, v in stats.items() if v}
    print(f"rank 0 protocol statistics: {interesting}")
