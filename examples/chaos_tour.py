#!/usr/bin/env python
"""Chaos tour: fault injection, masking, and crash detection (S17).

Three acts on the 2-node SW-DSM platform:

1. **Fault-free reference** — SOR runs clean; note checksum and runtime.
2. **Lossy wire** — the same SOR under a seeded plan dropping ~10% of all
   messages (plus duplicates and delays). The reliable messaging layer
   retries and dedupes; the result is bit-identical to act 1.
3. **Mid-run crash** — node 1 goes silent partway through the run. The
   heartbeat failure detector (watched live through the external
   monitoring system of §4.3) suspects, then confirms, and the run aborts
   with a typed ``NodeFailedError`` — observed cluster state, not a hang.

Every act is deterministic: re-running this script reproduces the exact
same drops, retries, detection times, and output.
"""

from repro.config import preset
from repro.errors import NodeFailedError
from repro.faults import FaultPlan, NodeCrash, run_chaos
from repro.obs import AttachedMonitor

SOR = {"n": 96, "iterations": 4}


def act1_reference():
    print("=" * 64)
    print("Act 1: fault-free reference run")
    print("=" * 64)
    res = run_chaos("sw-dsm-2", "sor", SOR, plan=None)
    print(res.summary())
    print()
    return res


def act2_lossy_wire(reference):
    print("=" * 64)
    print("Act 2: ~10% message loss, duplicates, delays (seed 42)")
    print("=" * 64)
    res = run_chaos("sw-dsm-2", "sor", SOR, plan=FaultPlan.seeded(42))
    print(res.summary())
    same = res.checksum == reference.checksum
    print(f"\nchecksum identical to fault-free run: {same}")
    assert same and res.verified, "retries must fully mask transient loss"
    print()


def act3_crash_mid_sor():
    print("=" * 64)
    print("Act 3: node 1 crashes at t=4ms, heartbeat detector watching")
    print("=" * 64)
    cfg = preset("sw-dsm-2")
    cfg.trace = True  # capture hb.suspect / hb.confirm event times
    cfg.faults = FaultPlan(seed=7, crashes=(NodeCrash(node=1, at=4e-3),))
    from repro.apps.common import prepare_app

    plat, run = prepare_app(cfg, "sor", SOR)
    monitor = AttachedMonitor(plat).attach()
    try:
        run()
        raise AssertionError("the crash must abort the run")
    except NodeFailedError as exc:
        print(f"typed failure : {exc}")

    detector = plat.hamster.cluster_ctl.detector
    print(f"failed nodes  : {plat.hamster.cluster_ctl.failed_nodes()}")
    print(f"suspect events: "
          f"{[e.time for e in plat.engine.trace.of_kind('hb.suspect')]}")
    print(f"virtual time  : {plat.engine.now * 1e3:.3f} ms "
          f"(crash at 4.000 ms, interval {detector.interval * 1e3:.1f} ms)")
    print()
    print("observed through the external monitor (§4.3):")
    for counter in ("heartbeats_sent", "heartbeats_lost",
                    "nodes_suspected", "nodes_failed"):
        events = monitor.timeline("cluster", counter)
        final = events[-1].value if events else 0
        print(f"  cluster.{counter:18s} final={final:g} "
              f"({len(events)} live updates)")


def main():
    reference = act1_reference()
    act2_lossy_wire(reference)
    act3_crash_mid_sor()
    print("chaos tour complete.")


if __name__ == "__main__":
    main()
