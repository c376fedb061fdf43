#!/usr/bin/env python
"""Monitoring tour (§4.3): the three consumers of HAMSTER's statistics.

1. **The application** queries counters directly (circumventing the model
   layer's transparency) to see its own protocol behaviour.
2. **A run-time system** uses them for dynamic optimization — here, an
   adaptive routine that detects a bad home placement from the fetch/diff
   counters mid-run and re-allocates with a better distribution.
3. **An external monitor** attaches via subscription and logs live events
   without touching the application.
"""

import numpy as np

from repro import preset
from repro.memory.layout import block, single_home


def main() -> None:
    plat = preset("sw-dsm-4").build()
    h = plat.hamster

    # ---- consumer 3: external monitor attaches before the run
    log = []
    h.sync.stats.subscribe(
        lambda module, counter, value: log.append((module, counter, value)))

    def app(env):
        n = 128
        rows = n // env.n_ranks
        lo = env.rank * rows

        # Deliberately poor placement: everything homed on rank 0.
        A = yield from env.alloc_array_g((n, n), name="bad",
                                         distribution=single_home(0))
        for _ in range(3):
            yield from A.set_g(slice(lo, lo + rows), float(env.rank))
            yield from env.barrier_g()

        # ---- consumer 1: application inspects its own counters
        before = dict(h.memory.access_stats(env.rank))

        # ---- consumer 2: run-time system reacts to what it sees — it reads
        # every rank's counters (the monitoring services are global), so it
        # notices the remote ranks drowning in diff traffic even though the
        # home rank's own counters are clean.
        remote_work = sum(
            h.memory.access_stats(r)["diffs_created"]
            + h.memory.access_stats(r)["pages_fetched"]
            for r in range(env.n_ranks))
        decision = ("re-allocate with block placement" if remote_work > 10
                    else "keep placement")
        yield from env.barrier_g()

        B = yield from env.alloc_array_g((n, n), name="good",
                                         distribution=block())
        h.memory.reset_access_stats() if env.rank == 0 else None
        yield from env.barrier_g()
        for _ in range(3):
            yield from B.set_g(slice(lo, lo + rows), float(env.rank))
            yield from env.barrier_g()
        after = dict(h.memory.access_stats(env.rank))
        return before, after, decision

    results = h.run_spmd(app)
    before, after, decision = results[1]

    print("per-rank protocol counters, rank 1:")
    print(f"  single-home placement: {before['diffs_created']} diffs, "
          f"{before['pages_fetched']} fetches, "
          f"{before['twins_created']} twins")
    print(f"  block placement:       {after['diffs_created']} diffs, "
          f"{after['pages_fetched']} fetches, "
          f"{after['twins_created']} twins")
    print(f"run-time system's decision after phase 1: {results[0][2]!r}")

    sync_events = [entry for entry in log if entry[1] == "barriers"]
    print(f"external monitor captured {len(log)} statistic updates, "
          f"{len(sync_events)} of them barrier counters")

    assert after["diffs_created"] < before["diffs_created"]
    print("\nowner-computes placement eliminated the diff traffic, exactly "
          "what the counters predicted.")


if __name__ == "__main__":
    main()
