#!/usr/bin/env python
"""Custom-tailored shared memory (§6): multi-DSM + consistency contracts.

The paper's closing vision, demonstrated end to end:

1. **Per-structure DSM selection** — one application places its read-mostly
   lookup table on the caching SW-DSM and its write-once result stream on
   the hybrid DSM's hardware path, within a single address space, and beats
   both single-mechanism configurations.
2. **Application-specific consistency** — instead of picking a named model,
   the application declares a visibility *contract* ("what the producer
   writes under lock 1 must be visible to consumers acquiring lock 2");
   the framework verifies which substrate guarantees it natively and
   compiles the cheapest enforcement where one does not.
"""

import numpy as np

from repro.apps.common import compute_cost
from repro.config import ClusterConfig, preset
from repro.consistency.generic import ConsistencyContract
from repro.memory.layout import single_home

N = 8192
ITERATIONS = 6


def run_mixed(config, table_system=None, stream_system=None):
    plat = config.build()
    dsm = plat.dsm
    holders = {}

    def main(env):
        if env.rank == 0:
            if hasattr(dsm, "make_array_on"):
                holders["table"] = dsm.make_array_on(
                    table_system, (N,), name="table", distribution=single_home(0))
                holders["stream"] = dsm.make_array_on(
                    stream_system, (N,), name="stream", distribution=single_home(0))
            else:
                holders["table"] = dsm.make_array((N,), name="table",
                                                  distribution=single_home(0))
                holders["stream"] = dsm.make_array((N,), name="stream",
                                                   distribution=single_home(0))
            yield from holders["table"].set_g(slice(None), 1.0)
        yield from env.barrier_g()
        table, stream = holders["table"], holders["stream"]
        chunk = N // env.n_ranks
        lo = env.rank * chunk
        acc = 0.0
        for it in range(ITERATIONS):
            # read-mostly (cache-friendly), then write stream (wire-friendly)
            acc += float((yield from table.get_g(slice(None))).sum())
            yield from stream.set_g(slice(lo, lo + chunk), float(it))
            yield compute_cost(env, 2.0 * N)
            yield from env.barrier_g()
        return acc

    results = plat.hamster.run_spmd(main)
    assert len(set(results)) == 1
    return plat.engine.now


def demo_contracts() -> None:
    print("consistency contracts (producer under lock 1 -> consumer under lock 2):")
    contract = ConsistencyContract("pipeline").require(1, reader_scope=2)
    for name in ("sw-dsm-2", "hybrid-2", "smp-2"):
        plat = preset(name).build()
        model, report = contract.compile(plat.dsm)
        how = ("native substrate guarantee" if report.fully_native
               else f"enforced (flush at release of scopes {sorted(model.enforce_scopes)})")
        print(f"  {name:10s} native={plat.dsm.consistency_model():9s} -> {how}")


if __name__ == "__main__":
    times = {
        "pure SW-DSM   ": run_mixed(preset("sw-dsm-4")),
        "pure hybrid   ": run_mixed(preset("hybrid-4")),
        "custom-tailored": run_mixed(
            ClusterConfig(platform="sci", dsm="composite", nodes=4),
            table_system="jiajia", stream_system="scivm"),
    }
    print("read-mostly table + write stream, 4 nodes:")
    for name, t in times.items():
        print(f"  {name}: {t * 1e3:8.2f} ms")
    best = min(times, key=times.get)
    assert best == "custom-tailored", times
    print("the combined-mechanism configuration wins, as §6 predicted.\n")
    demo_contracts()
