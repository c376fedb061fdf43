"""Ablation — home placement / locality optimization.

Quantifies the design choice behind the SOR-opt vs SOR gap: the same SOR
computation with three home placements (block = owner-computes, cyclic =
JiaJia default, single-home = all pages on rank 0), on both DSMs. Block
placement must minimize protocol work on the SW-DSM; the hybrid DSM must be
far less placement-sensitive ("the Software-DSM relies more heavily on
locality optimizations", §5.4).
"""

import numpy as np

from repro.apps import get_app
from repro.apps.common import merge_rank_results
from repro.bench.report import render_table
from repro.config import preset
from repro.memory.layout import block, cyclic, single_home
from repro.models.jiajia_api import JiaJiaApi

PLACEMENTS = {"block": block, "cyclic": cyclic,
              "single-home": lambda: single_home(0)}


def _run_sor(platform: str, dist_factory, n: int):
    plat = preset(platform).build()
    api = JiaJiaApi(plat.hamster)
    # The app only exposes block/cyclic via its locality flag; to test
    # arbitrary placements, substitute the distribution factory it uses.
    # The swap spans the whole run: each rank body is a generator, so a
    # restore inside it would fire when the generator is created, before
    # any rank allocates a page.
    import repro.apps.sor as sor_mod

    sor_mod.block = dist_factory
    try:
        results = api.run(lambda a: sor_mod.run_sor(a, n=n, iterations=6,
                                                    locality=True))
    finally:
        sor_mod.block = block
    merged = merge_rank_results(results)
    assert merged.verified
    dsm = plat.dsm
    stats = {
        "time": merged.phases["total"],
        "fetched": sum(dsm.stats(r).get("pages_fetched", 0) for r in range(4)),
        "diffs": sum(dsm.stats(r).get("diffs_created", 0) for r in range(4)),
        "remote_writes": sum(dsm.stats(r).get("remote_writes", 0) for r in range(4)),
    }
    return stats


def test_ablation_home_placement(benchmark, scale):
    n = max(64, (int(1024 * scale) // 16) * 16)

    def run():
        table = {}
        for plat in ("sw-dsm-4", "hybrid-4"):
            for name, factory in PLACEMENTS.items():
                table[(plat, name)] = _run_sor(plat, factory, n)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    import repro.apps.sor as sor_mod

    assert sor_mod.block is block  # no placement leaks into later tests
    rows = [[plat, name, round(st["time"] * 1e3, 2), st["fetched"],
             st["diffs"], st["remote_writes"]]
            for (plat, name), st in table.items()]
    print()
    print(render_table(
        ["platform", "placement", "time (ms)", "fetches", "diffs", "rmt writes"],
        rows, title=f"Ablation: SOR home placement (n={n}, 6 iterations)"))
    benchmark.extra_info["rows"] = rows

    sw = {name: table[("sw-dsm-4", name)] for name in PLACEMENTS}
    hy = {name: table[("hybrid-4", name)] for name in PLACEMENTS}

    # On the SW-DSM, owner-computes placement is fastest and does the least
    # protocol work.
    assert sw["block"]["time"] < sw["cyclic"]["time"]
    assert sw["block"]["time"] < sw["single-home"]["time"]
    assert sw["block"]["diffs"] <= sw["cyclic"]["diffs"]

    # The hybrid DSM is far less placement-sensitive: its worst/best ratio
    # is much smaller than the SW-DSM's.
    sw_ratio = max(s["time"] for s in sw.values()) / min(s["time"] for s in sw.values())
    hy_ratio = max(s["time"] for s in hy.values()) / min(s["time"] for s in hy.values())
    print(f"\n  placement sensitivity: sw-dsm x{sw_ratio:.1f}, hybrid x{hy_ratio:.1f}")
    assert hy_ratio < sw_ratio
