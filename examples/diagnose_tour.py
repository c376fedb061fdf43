#!/usr/bin/env python
"""Diagnose tour: reading a sharing diagnosis, clean vs false sharing.

Two acts on the 4-node SW-DSM platform, walking the full
``repro.obs.sharing`` pipeline (also reachable as ``python -m repro
diagnose``):

1. **PI — a clean pattern.** Every rank accumulates locally and folds
   its partial sum into one shared slot under a lock. The diagnosis
   shows the accumulator page changing writers, but classifies it as
   *true* sharing (all ranks write the same 8 bytes — that IS the
   communication), and points at the lock's wait profile instead. The
   fix for PI, if it needed one, would be algorithmic (a tree
   reduction), never padding.

2. **SOR — false sharing.** Without locality-aware placement, the red/
   black grid's row boundaries land mid-page: neighbouring ranks write
   *disjoint halves* of the same page, and home-based coherence bounces
   the whole page between them every iteration. The detector flags the
   boundary pages, names the offending ranks and byte ranges, and
   classifies them as *false* sharing — the padding/alignment fix the
   paper's locality annotations (and PR 5's span coalescing) exist for.

Both acts are deterministic: the reported pages, handoff counts, and
byte ranges reproduce exactly on every run.
"""

from repro.apps.common import prepare_app
from repro.config import preset
from repro.obs import render_sharing_report, sharing_report


def diagnose(app, **params):
    """Run one app with the sharing recorder on; return its report."""
    cfg = preset("sw-dsm-4")
    cfg.sharing = True
    plat, run = prepare_app(cfg, app, params)
    merged = run()
    assert merged.verified
    return sharing_report(plat.sharing,
                          platform_name=plat.hamster.platform_description(),
                          n_ranks=plat.dsm.n_procs,
                          page_size=plat.dsm.space.page_size,
                          min_alternations=2)


def act1_pi_clean():
    print("=" * 64)
    print("Act 1: PI — writer handoffs that are NOT false sharing")
    print("=" * 64)
    doc = diagnose("pi", intervals=1 << 14)
    print(render_sharing_report(doc))
    assert doc["false_sharing"]["pages"] == [], \
        "PI's accumulator is true sharing; padding would fix nothing"
    true_pages = [e for e in doc["ping_pong"]
                  if e["classification"] == "true"]
    assert true_pages, "the accumulator page must alternate writers"
    assert doc["hot_locks"], "the reduction lock must show a wait profile"
    print()
    print("reading : the accumulator page bounces, but every rank writes")
    print("          the SAME bytes — genuine communication. The lock's")
    print("          wait histogram is the real cost; restructure the")
    print("          reduction, don't pad the array.")
    print()


def act2_sor_false_sharing():
    print("=" * 64)
    print("Act 2: SOR — boundary pages falsely shared between neighbours")
    print("=" * 64)
    doc = diagnose("sor", n=128, iterations=4)
    print(render_sharing_report(doc))
    fs = doc["false_sharing"]
    assert fs["pages"], "SOR's row boundaries must flag as false sharing"
    print()
    print(f"reading : page(s) {fs['pages']} bounce between ranks "
          f"{fs['ranks']}")
    print("          with DISJOINT write ranges — the ranks never touch")
    print("          each other's data, only each other's page. Pad rows")
    print("          to page boundaries (or use the locality-aware SOR")
    print("          variant) and the handoffs disappear.")
    print()


if __name__ == "__main__":
    act1_pi_clean()
    act2_sor_false_sharing()
    print("tour complete: same detector, two verdicts — padding fixes")
    print("false sharing, only algorithms fix true sharing.")
